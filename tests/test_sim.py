from collections import defaultdict
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlqtasep.chains import build_tasep_chain
from mlqtasep.core import build_composition, bully_projection, word_label
from mlqtasep.sim import (
    AbsorbingStateError,
    EmpiricalDistribution,
    SimConfig,
    build_process_chain,
    compare_to_exact,
    gillespie_run,
    to_csv,
    total_variation,
)
from mlqtasep.solve import stationary_solve
from helpers import reference_gillespie_run


def _config(**overrides):
    base = dict(
        process="tasep",
        m=(1, 1, 1),
        rates=(Fraction(2), Fraction(1)),
        seed=7,
        events=50_000,
    )
    base.update(overrides)
    return SimConfig(**base)


def test_determinism():
    chain = _small_chain("tasep", (1, 1, 1))
    a = gillespie_run(_config(), chain)
    b = gillespie_run(_config(), chain)
    assert a.fractions == b.fractions
    assert a.total_time == b.total_time
    c = gillespie_run(_config(seed=8), chain)
    assert c.fractions != a.fractions


def test_tasep_matches_exact_target():
    cfg = _config(events=200_000)
    chain = build_tasep_chain(build_composition((1, 1, 1)))
    emp = gillespie_run(cfg, chain)
    exact = stationary_solve(chain, cfg.rates)
    assert exact == [3, 2, 2, 3, 3, 2]
    report = compare_to_exact(emp, exact, tolerance=0.02)
    assert report["passed"], report["tv"]


def test_uniform_multiline_target():
    cfg = _config(process="fm", m=(1, 1, 1), rates=(Fraction(1), Fraction(1)), events=100_000)
    emp = gillespie_run(cfg, _small_chain("fm", (1, 1, 1)))
    report = compare_to_exact(emp, [1] * 9, tolerance=0.02)
    assert report["passed"], report["tv"]


def test_tv_shrinks_with_horizon():
    chain = build_tasep_chain(build_composition((1, 1, 1)))
    exact = stationary_solve(chain, (Fraction(2), Fraction(1)))
    small = compare_to_exact(gillespie_run(_config(events=10_000), chain), exact, 1.0)
    large = compare_to_exact(gillespie_run(_config(events=1_000_000), chain), exact, 1.0)
    assert large["tv"] < small["tv"]


def test_sample_level_lumping():
    cfg = _config(process="coupe", events=100_000)
    chain = build_process_chain("coupe", build_composition(cfg.m))
    emp = gillespie_run(cfg, chain)
    by_word = defaultdict(float)
    for q, fraction in zip(chain.states, emp.fractions):
        by_word[word_label(bully_projection(q).word)] += fraction
    word_chain = build_tasep_chain(build_composition(cfg.m))
    exact = stationary_solve(word_chain, cfg.rates)
    labels = [word_chain.state_label(i) for i in range(6)]
    projected = EmpiricalDistribution(
        labels=labels,
        fractions=[by_word[label] for label in labels],
        total_time=emp.total_time,
        events=emp.events,
    )
    report = compare_to_exact(projected, exact, tolerance=0.02)
    assert report["passed"], report["tv"]


def test_compare_to_exact_edges():
    emp = EmpiricalDistribution(
        labels=["a", "b"], fractions=[0.5, 0.5], total_time=1.0, events=100
    )
    assert compare_to_exact(emp, [1, 1], 0.01)["tv"] == 0.0
    lopsided = compare_to_exact(emp, [1, 0], 0.01)
    assert lopsided["tv"] == pytest.approx(0.5)
    assert not lopsided["passed"]
    with pytest.raises(ValueError):
        compare_to_exact(emp, [1, 1, 1], 0.01)
    assert total_variation([1.0, 0.0], [0.0, 1.0]) == 1.0


def test_absorbing_state_detected():
    # state 21 has no out-record and is reached by the first event: with 100
    # events that is before the first tallied event for burn-in 0.5, at it
    # for 0.01 and after it for 0
    from mlqtasep.chains import ChainGraph, TransitionRecord
    from mlqtasep.poly import LaurentPoly

    c = build_composition((1, 1))
    chain = ChainGraph(
        kind="tasep",  # the kind the configs below name
        composition=c,
        states=((1, 2), (2, 1)),
        transitions=(TransitionRecord(0, 1, LaurentPoly.one(1), "a"),),
        nvars=1,
    )
    for burn_in in (0.0, 0.01, 0.5):
        cfg = SimConfig(
            process="tasep", m=(1, 1), rates=(Fraction(1),), events=100, seed=3, burn_in=burn_in
        )
        for run in (gillespie_run, reference_gillespie_run):
            with pytest.raises(AbsorbingStateError, match="^no outgoing rate at state 21$"):
                run(cfg, chain)


@lru_cache(maxsize=None)
def _small_chain(process, m):
    return build_process_chain(process, build_composition(m))


def _outcome(run, cfg, chain):
    """The run's result, or the type and message of what it raised."""
    try:
        return run(cfg, chain)
    except (AbsorbingStateError, ValueError) as err:
        return type(err), str(err)


# small compositions of every process, rates with inexact floats among them
ORACLE_CHAINS = [
    ("tasep", (1, 1, 1), (Fraction(2), Fraction(1))),
    ("tasep", (2, 1, 2), (Fraction(3, 7), Fraction(5, 3))),
    ("fm", (1, 1, 1), (Fraction(1), Fraction(1))),
    ("fm3", (1, 2, 1), (Fraction(2), Fraction(1, 3))),
    ("fm1", (1, 1, 2), (Fraction(7, 10), Fraction(2))),
    ("coupe", (1, 2, 1), (Fraction(2), Fraction(1))),
]


@pytest.mark.parametrize("process, m, rates", ORACLE_CHAINS)
@pytest.mark.parametrize("burn_in", [0.0, 0.1, 0.5, 0.99])
@pytest.mark.parametrize("seed", [0, 1, 20240])
def test_gillespie_run_equals_the_expovariate_loop(process, m, rates, burn_in, seed):
    chain = _small_chain(process, m)
    cfg = SimConfig(process, m, rates, seed=seed, events=3_000, burn_in=burn_in)
    emp = gillespie_run(cfg, chain)
    # exact equality of every field: labels, fractions, total_time, events
    assert emp == reference_gillespie_run(cfg, chain)
    assert emp.events == 3_000 and emp.total_time > 0.0


@settings(max_examples=40, deadline=None)
@given(
    chain_case=st.sampled_from(ORACLE_CHAINS),
    seed=st.integers(0, 2**64),
    burn_in=st.floats(0.0, 1.0, exclude_max=True),
    events=st.integers(1, 2_000),
)
def test_gillespie_run_equals_the_expovariate_loop_on_drawn_runs(chain_case, seed, burn_in, events):
    process, m, rates = chain_case
    chain = _small_chain(process, m)
    cfg = SimConfig(process, m, rates, seed=seed, events=events, burn_in=burn_in)
    assert _outcome(gillespie_run, cfg, chain) == _outcome(reference_gillespie_run, cfg, chain)


@pytest.mark.parametrize("burn_in", [0.0, 0.1, 0.99])
def test_burn_in_events_compute_no_log(monkeypatch, burn_in):
    # only tallied events turn their draw into a holding time
    import math

    calls = []
    original = math.log

    def spy(x):
        calls.append(x)
        return original(x)

    chain = _small_chain("coupe", (1, 2, 1))
    cfg = SimConfig("coupe", (1, 2, 1), (Fraction(2), Fraction(1)), seed=5, events=1_000, burn_in=burn_in)
    monkeypatch.setattr(math, "log", spy)
    emp = gillespie_run(cfg, chain)
    monkeypatch.undo()
    assert len(calls) == cfg.events - int(burn_in * cfg.events)
    assert emp == reference_gillespie_run(cfg, chain)


def test_gillespie_run_refuses_what_the_expovariate_loop_refuses():
    chain = _small_chain("tasep", (1, 1, 1))
    huge, tiny = Fraction(10**400), Fraction(1, 10**400)
    for rates, burn_in in [((huge, tiny), 0.1), ((tiny, huge), 0.1), ((0, 1), 0.1), ((2, 1), 1.0)]:
        cfg = SimConfig("tasep", (1, 1, 1), rates, seed=1, events=10, burn_in=burn_in)
        expected = _outcome(reference_gillespie_run, cfg, chain)
        assert expected[0] is ValueError
        assert _outcome(gillespie_run, cfg, chain) == expected


def test_gillespie_run_refuses_a_chain_its_config_did_not_build():
    # the config names the process and composition; the chain must be theirs
    coupe = _small_chain("coupe", (1, 2, 3))
    rates = (Fraction(2), Fraction(1))
    for process, m in [("tasep", (1, 1, 1)), ("fm", (1, 2, 3)), ("tasep", (1, 2, 3)), ("coupe", (1, 2, 2))]:
        with pytest.raises(ValueError, match=f"^config is {process} on m = "):
            gillespie_run(SimConfig(process, m, rates, events=100), coupe)
    assert gillespie_run(SimConfig("coupe", (1, 2, 3), rates, events=100), coupe).events == 100
    with pytest.raises(ValueError, match=r"chain is tasep on m = \(1, 1, 1\)$"):
        gillespie_run(SimConfig("tasep", (1, 1), rates[:1], events=100), _small_chain("tasep", (1, 1, 1)))


def test_csv_output_stable():
    chain = build_tasep_chain(build_composition((1, 1, 1)))
    emp = gillespie_run(_config(events=5_000), chain)
    exact = stationary_solve(chain, (Fraction(2), Fraction(1)))
    report = compare_to_exact(emp, exact, 0.05)
    text = to_csv(emp, report)
    assert text.splitlines()[0] == "state,empirical,exact,z_score"
    assert len(text.splitlines()) == 7
    assert text == to_csv(gillespie_run(_config(events=5_000), chain), report)


def test_bad_config_rejected():
    chain = _small_chain("tasep", (1, 1, 1))
    with pytest.raises(ValueError):
        gillespie_run(_config(rates=(Fraction(0), Fraction(1))), chain)
    with pytest.raises(ValueError):
        gillespie_run(_config(events=0), chain)
    # the horizon is an int count: neither a float nor a bool passes for one
    for events in (1.5, True):
        with pytest.raises(ValueError, match=rf"^event horizon must be an int count of events, got {events!r}$"):
            gillespie_run(_config(events=events), chain)
    # rates whose floats overflow or underflow are refused before the run
    huge, tiny = Fraction(10**400), Fraction(1, 10**400)
    with pytest.raises(ValueError, match=r"rate x1 is inf as a float, .* x1=10{400}, x2=1$"):
        gillespie_run(_config(rates=(huge, Fraction(1))), chain)
    with pytest.raises(ValueError, match=r"rate x2 is 0.0 as a float, .* x1=2, x2=1/10{400}$"):
        gillespie_run(_config(rates=(Fraction(2), tiny)), chain)
    with pytest.raises(ValueError):
        build_process_chain("nonsense", build_composition((1, 1)))
