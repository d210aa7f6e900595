from dataclasses import replace

import pytest

from mlqtasep.chains import build_fm_chain, build_tasep_chain
from mlqtasep.core import build_composition
from mlqtasep.poly import LaurentPoly
from mlqtasep.verify import (
    check_coupe_theorem,
    check_fm1_theorem,
    check_fm3_theorem,
    check_identity_count,
    check_lw_normalization_and_positivity,
    check_main_conjecture,
    check_partition_function,
    check_three_species_lemma,
    check_uniform_stationarity,
    _residual_failure,
    _word_lumping,
    iter_compositions,
    rate_points,
    run_suites,
)


def test_iter_compositions():
    comps = [c.m for c in iter_compositions(4)]
    assert (1, 1) in comps and (2, 2) in comps and (1, 1, 1, 1) in comps
    assert (4,) not in comps
    assert len(comps) == 1 + 3 + 7  # N = 2, 3, 4
    three = [c.m for c in iter_compositions(5, pred=lambda m: len(m) == 3)]
    assert all(len(m) == 3 for m in three)
    assert len(three) == 1 + 3 + 6


def test_rate_points_reproducible():
    a = rate_points(3, 5, 11)
    b = rate_points(3, 5, 11)
    assert a == b
    assert all(0 < x <= 7 for pt in a for x in pt)
    assert rate_points(3, 5, 12) != a


# ---------------------------------------------------------------------------
# Three-species suites
# ---------------------------------------------------------------------------


def test_fm3_smallest_system():
    report = check_fm3_theorem(build_composition((1, 1, 1)))
    assert report.ok
    assert report.details["transitions"] == 15
    assert report.details["block_sums"] == [
        "x1 + x2",
        "x1",
        "x1",
        "x1 + x2",
        "x1 + x2",
        "x1",
    ]


@pytest.mark.parametrize("m", [(2, 1, 1), (1, 1, 4), (1, 2, 2), (2, 2, 1)])
def test_fm3_larger_systems(m):
    report = check_fm3_theorem(build_composition(m))
    assert report.ok, report.counterexample


def test_fm3_lemma():
    for m in [(1, 1, 1), (1, 1, 2), (2, 1, 2), (1, 2, 1)]:
        report = check_three_species_lemma(build_composition(m))
        assert report.ok, report.counterexample


# ---------------------------------------------------------------------------
# Single first-class particle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [(1, 1, 1), (1, 2, 2), (1, 1, 1, 1), (1, 3, 1)])
def test_fm1_theorem(m):
    report = check_fm1_theorem(build_composition(m))
    assert report.ok, report.counterexample


def test_partition_function_small():
    report = check_partition_function(build_composition((1, 1, 1)))
    assert report.ok
    assert report.details["partition_function"] == "3 + 6*a"
    assert report.details["h_form_matches"] is True


def test_partition_function_non_permutation():
    report = check_partition_function(build_composition((1, 2, 2)))
    assert report.ok, report.counterexample
    # 5 * (1 + 3a + 6a^2)
    assert report.details["partition_function"] == "5 + 15*a + 30*a^2"
    # the printed symmetric-function form only rewrites the product when N = n
    assert report.details["h_form_matches"] is False


def test_partition_function_permutation_case():
    report = check_partition_function(build_composition((1, 1, 1, 1)))
    assert report.ok
    assert report.details["h_form_matches"] is True


# ---------------------------------------------------------------------------
# Conjecture suites
# ---------------------------------------------------------------------------


def test_main_conjecture_small():
    report = check_main_conjecture(build_composition((1, 1, 1)))
    assert report.kind == "conjecture"
    assert report.status == "agree"
    assert report.details["symbolic_residual"] == "zero"


@pytest.mark.parametrize("m", [(1, 1), (2, 1), (1, 1, 2), (2, 1, 1), (1, 1, 1, 1)])
def test_main_conjecture_various(m):
    report = check_main_conjecture(build_composition(m))
    assert report.ok, report.counterexample


def test_lw_positivity():
    report3 = check_lw_normalization_and_positivity(3)
    assert report3.ok, report3.counterexample
    report4 = check_lw_normalization_and_positivity(4)
    assert report4.ok, report4.counterexample


def test_identity_counts():
    assert check_identity_count(2).details["enumerated"] == 1
    three = check_identity_count(3)
    assert three.ok and three.details == {"enumerated": 2, "formula": 2}
    four = check_identity_count(4)
    assert four.ok and four.details == {"enumerated": 9, "formula": 9}


# ---------------------------------------------------------------------------
# Uniform stationarity and coupe process
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [(1, 1, 1), (1, 1, 2), (2, 1, 1), (1, 1, 1, 1)])
def test_uniform_stationarity(m):
    report = check_uniform_stationarity(build_composition(m))
    assert report.ok, report.counterexample
    assert report.details["method"] == "direct-solve"


def test_uniform_stationarity_certificate_path():
    # 5 * 10 * 10 = 500 queues, above the direct-solve cap
    report = check_uniform_stationarity(build_composition((1, 1, 1, 2)))
    assert report.ok
    assert report.details == {"states": 500, "method": "balance-certificate"}


@pytest.mark.parametrize("m", [(1, 1, 1), (1, 1, 2), (2, 2, 2), (1, 2, 1)])
def test_coupe_theorem(m):
    report = check_coupe_theorem(build_composition(m))
    assert report.ok, report.counterexample


@pytest.mark.parametrize("check", [check_coupe_theorem, check_fm3_theorem])
def test_lumpability_checked_once_per_report(monkeypatch, check):
    import mlqtasep.solve as solve
    import mlqtasep.verify as verify

    calls = []
    original = solve.check_lumpability

    def spy(g, partition):
        calls.append(g.kind)
        return original(g, partition)

    monkeypatch.setattr(verify, "check_lumpability", spy)
    monkeypatch.setattr(solve, "check_lumpability", spy)
    assert check(build_composition((1, 2, 2))).ok
    assert len(calls) == 1


def test_failure_helpers_counterexamples():
    c = build_composition((1, 1, 1))
    words = build_tasep_chain(c)
    queues = build_fm_chain(c, "three_species")
    one = LaurentPoly.one(2)
    assert _residual_failure(words, [one] * 6) == {
        "check": "residual", "word": "123", "residual": "x2"
    }
    assert _residual_failure(words, [one] * 6, "block-sum-residual", False) == {
        "check": "block-sum-residual", "word": "123"
    }
    assert _residual_failure(queues, [one] * 9) == {
        "check": "residual", "state": "001/011", "residual": "x1 - x2"
    }
    assert _word_lumping(queues, words)[2] is None
    assert _word_lumping(build_fm_chain(c, "uniform"), words)[2] == {"check": "lumped-graph"}
    bent = list(queues.transitions)
    bent[3] = replace(bent[3], rate=LaurentPoly.variable(0, 2) * LaurentPoly.variable(1, 2))
    assert _word_lumping(replace(queues, transitions=tuple(bent)), words)[2] == {
        "check": "lumpability",
        "block": 3,
        "state": "010/101",
        "other": "001/101",
        "target_block": 2,
        "rate": "x1",
        "other_rate": "x1*x2",
    }


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def test_run_suites_all_small():
    reports = run_suites(["all"], max_n=3)
    assert reports  # every suite contributes
    assert all(report.ok for report in reports), [
        (r.suite, r.composition, r.counterexample) for r in reports if not r.ok
    ]
    suites = {report.suite for report in reports}
    assert suites == {
        "fm3",
        "fm3-lemma",
        "fm1",
        "zpart",
        "main",
        "lw",
        "identity",
        "uniform",
        "coupe",
    }
    payload = reports[0].to_dict()
    assert {"suite", "composition", "kind", "status", "elapsed", "details"} <= set(payload)


def test_run_suites_rejects_unknown():
    with pytest.raises(ValueError):
        run_suites(["nonsense"])


def test_run_suites_rejects_empty_run():
    with pytest.raises(ValueError, match="nothing to check"):
        run_suites(["lw"], max_n=2)
