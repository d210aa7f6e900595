import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from fractions import Fraction

import pytest

from mlqtasep.cli import main
from mlqtasep.verify import SUITES
from mlqtasep.sim import SimConfig, to_csv
from helpers import bound_suite_inputs, reference_gillespie_run


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_words(capsys):
    code, out, err = run_cli(capsys, "enumerate", "words", "-m", "1,1,1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[0] == "1 2 3"
    assert lines[-1] == "3 2 1"
    assert "count: 6" in err


def test_enumerate_count_only(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "mlqs", "-m", "1,1,1", "--count-only")
    assert code == 0
    assert out.strip() == "9"


def test_enumerate_count_only_does_not_enumerate(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "mlqs", "-m", "1,1,1,1,1,1,1", "--count-only")
    assert code == 0
    assert out == "26471025\n"


def test_enumerate_word_count_only_does_not_enumerate(capsys):
    # (1^11) has 39,916,800 words; the count comes from the multinomial
    started = time.perf_counter()
    code, out, _ = run_cli(capsys, "enumerate", "words", "-m", ",".join(["1"] * 11), "--count-only")
    assert time.perf_counter() - started < 1
    assert code == 0
    assert out == "39916800\n"


def test_verify_refuses_a_queue_space_too_large_up_front(capsys):
    # N = 7 holds compositions of over 1,000,000 queues: the run is refused
    # before any of the 113 smaller compositions is checked
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "main", "--max-N", "7")
    assert time.perf_counter() - started < 1
    assert code == 2 and out == ""
    assert "m = (1, 1, 1, 1, 1, 2) has 3781575 multiline queues" in err
    assert "above the limit of 1000000" in err


def test_verify_refuses_an_unbounded_listing_at_once(capsys, monkeypatch):
    # --max-N 40 has 2^39 - 1 compositions: the listing stops at the first
    # one refused, the 114th, and the run exits with --max-N 7's message
    seven = run_cli(capsys, "verify", "main", "--max-N", "7")[2]
    bound_suite_inputs(monkeypatch, "main", 114)
    code, out, err = run_cli(capsys, "verify", "main", "--max-N", "40")
    assert code == 2 and out == ""
    assert err == seven


def test_chain_refuses_a_queue_space_too_large(capsys):
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "chain", "fm", "-m", "1,1,1,1,1,1,1")
    assert time.perf_counter() - started < 1
    assert code == 2 and out == ""
    assert "m = (1, 1, 1, 1, 1, 1, 1) has 26471025 multiline queues" in err
    assert "above the limit of 1000000" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "words"],
        ["chain", "tasep"],
        ["simulate", "tasep", "--rates", "2,1,1", "--events", "10"],
    ],
)
def test_word_space_too_large_is_refused(monkeypatch, capsys, argv):
    import mlqtasep.core as core

    monkeypatch.setattr(core, "MAX_QUEUES", 23)
    code, out, err = run_cli(capsys, *argv, "-m", "1,1,1,1")
    assert (code, out) == (2, "")
    assert err == "error: m = (1, 1, 1, 1) has 24 words, above the limit of 23 held in memory\n"


def test_simulate_checks_the_tolerance_before_sampling(monkeypatch, capsys):
    import mlqtasep.cli as cli

    calls = []
    original = cli.gillespie_run

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cli, "gillespie_run", spy)
    for tolerance, shown in (("-1", "-1.0"), ("nan", "nan")):
        code, out, err = run_cli(
            capsys, "simulate", "tasep", "-m", "1,1,1", "--rates", "2,1",
            "--compare-exact", "--tolerance", tolerance, "--events", "10",
        )
        assert (code, out) == (2, "")
        assert err == f"error: tolerance must lie in [0, 1], got {shown}\n"
    assert calls == []


def test_simulate_checks_events_and_burn_in_before_building_the_chain(monkeypatch, capsys):
    import mlqtasep.cli as cli

    calls = []
    original = cli.build_process_chain

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cli, "build_process_chain", spy)
    for flags, message in (
        (("--events", "0"), "event horizon must be positive"),
        (("--events", "10", "--burn-in", "1"), "burn-in must lie in [0, 1), got 1.0"),
    ):
        code, out, err = run_cli(
            capsys, "simulate", "fm", "-m", "1,1,2,2,1", "--rates", "2,1,1,1", *flags
        )
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"
    assert calls == []


def test_enumerate_json(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "mlqs", "-m", "1,1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["states"] == ["01", "10"]


def test_enumerate_invalid_composition(capsys):
    code, _, err = run_cli(capsys, "enumerate", "words", "-m", "1,0,2")
    assert code == 2
    assert "m_2 must be positive" in err


@pytest.mark.parametrize("text", ["1,,2", "1,x"])
def test_enumerate_unparsable_composition(capsys, text):
    code, _, err = run_cli(capsys, "enumerate", "words", "-m", text)
    assert code == 2
    assert err.strip() == (
        f"error: bad composition '{text}', expected comma-separated positive integers such as 1,2,2"
    )


def test_project_from_file(tmp_path, capsys):
    grid = tmp_path / "queue.txt"
    grid.write_text("001000\n011000\n100011\n110101\n111110\n")
    code, out, _ = run_cli(capsys, "project", str(grid))
    assert code == 0
    assert "word: 1 2 3 4 5 6" in out
    assert "z[3][1] = 2" in out
    assert "z[3][2] = 1" in out
    assert "z[4][1] = 1" in out
    assert "z[5][1] = 1" in out
    assert "weight: x1^6*x2^5*x3^6*x4^2*x5" in out


def test_project_wide_queue(tmp_path, capsys):
    grid = tmp_path / "queue.txt"
    grid.write_text("00000010\n00100010\n00110101\n10110111\n")
    code, out, _ = run_cli(capsys, "project", str(grid))
    assert code == 0
    assert "word: 4 5 2 3 5 3 4 1" in out


def test_project_tiny_grid(tmp_path, capsys):
    grid = tmp_path / "queue.txt"
    grid.write_text("10\n")
    code, out, _ = run_cli(capsys, "project", str(grid))
    assert code == 0
    assert "word: 1 2" in out


@pytest.mark.parametrize(
    "text, message",
    [
        ("111\n011\n", "row 2 holds 2 particles and row 1 holds 3"),
        ("100\n111\n", "row 2 is full; the bottom row must keep a vacancy"),
    ],
)
def test_project_bad_rows(monkeypatch, capsys, text, message):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, _, err = run_cli(capsys, "project", "-")
    assert code == 2
    assert message in err


def test_project_malformed_grid(tmp_path, capsys):
    grid = tmp_path / "queue.txt"
    grid.write_text("0012\n0011\n")
    code, _, err = run_cli(capsys, "project", str(grid))
    assert code == 2
    assert "error" in err


def test_chain_solve_golden(capsys):
    code, out, _ = run_cli(
        capsys, "chain", "tasep", "-m", "1,1,1", "--solve", "x1=2,x2=1"
    )
    assert code == 0
    assert out.strip() == "123:3 132:2 213:2 231:3 312:3 321:2"


def test_chain_solve_above_300_states(capsys):
    code, out, _ = run_cli(capsys, "chain", "fm", "-m", "1,1,1,2", "--solve", "x1=1,x2=1")
    assert code == 0
    weights = [entry.rpartition(":")[2] for entry in out.split()]
    assert weights == ["1"] * 500


def test_chain_dot_export(capsys):
    code, out, _ = run_cli(capsys, "chain", "fm3", "-m", "1,1,1", "--export", "dot")
    assert code == 0
    assert out.count("->") == 15
    assert out.startswith("digraph")


def test_chain_json_round_trip(capsys):
    from mlqtasep.chains import build_coupe_chain, from_json
    from mlqtasep.core import build_composition

    code, out, _ = run_cli(capsys, "chain", "coupe", "-m", "1,1,2", "--export", "json")
    assert code == 0
    parsed = from_json(out)
    direct = build_coupe_chain(build_composition((1, 1, 2)))
    assert parsed.states == direct.states
    assert parsed.transitions == direct.transitions


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "argv, golden",
    [
        (("coupe", "-m", "1,2,3", "--export", "json"), "chain_coupe_1_2_3.json"),
        (("fm1", "-m", "1,1,2,1", "--export", "json"), "chain_fm1_1_1_2_1.json"),
        (("tasep", "-m", "1,1,2", "--export", "dot"), "chain_tasep_1_1_2.dot"),
    ],
)
def test_chain_exports_equal_their_golden_files(capsys, argv, golden):
    # the exports' bytes do not depend on how the chain stores its records
    code, out, _ = run_cli(capsys, "chain", *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_chain_incompatible_process(capsys):
    code, _, err = run_cli(capsys, "chain", "fm3", "-m", "1,1,1,1")
    assert code == 2
    assert "3 classes" in err


def test_chain_summary(capsys):
    code, out, _ = run_cli(capsys, "chain", "fm", "-m", "1,1,1")
    assert code == 0
    assert "9 states" in out and "15 transitions" in out


def test_verify_identity(capsys):
    code, out, err = run_cli(capsys, "verify", "identity", "--max-N", "5")
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    counts = {tuple(r["composition"]): r["details"]["enumerated"] for r in reports}
    assert counts[(1, 1, 1)] == 2
    assert counts[(1, 1, 1, 1)] == 9
    assert counts[(1, 1, 1, 1, 1)] == 96
    assert all(r["status"] == "agree" for r in reports)
    assert "checks ok" in err


def test_verify_fm3_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "fm3", "--max-N", "3")
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert {r["suite"] for r in reports} == {"fm3", "fm3-lemma"}
    assert all(r["status"] == "pass" for r in reports)


def test_verify_all_tiny(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--max-N", "3")
    assert code == 0
    assert all(json.loads(line)["status"] in ("pass", "agree") for line in out.splitlines())


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "zpart", "--max-N", "3"],
        ["verify", "all", "--max-N", "4"],
        ["enumerate", "mlqs", "-m", "1,1,2"],
        ["simulate", "tasep", "-m", "1,1,1", "--rates", "2,1", "--events", "100"],
    ],
)
def test_a_closed_stdout_pipe_exits_quietly(argv):
    # the reader is gone before the first write, as when `head -1` has
    # read its line: exit 141, no summary and no error on stderr.  stdout is
    # block-buffered, as in a shell pipe, so a write lands only when flushed
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONUNBUFFERED", None)
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "mlqtasep.cli", *argv], stdout=write, stderr=subprocess.PIPE, env=env, timeout=120
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (141, b"")


def test_verify_choices_are_the_registry(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert "{" + ",".join([*SUITES, "all"]) + "}" in capsys.readouterr().out


def test_verify_nothing_to_check(capsys):
    code, out, err = run_cli(capsys, "verify", "all", "--max-N", "1")
    assert code == 2
    assert out == ""
    assert "no input of all has N <= 1; suites start at N = 2" in err


@pytest.mark.parametrize("burn_in", ["1.5", "-0.5", "1"])
def test_simulate_bad_burn_in(capsys, burn_in):
    code, _, err = run_cli(
        capsys, "simulate", "tasep", "-m", "1,1,1", "--rates", "2,1",
        "--events", "10", "--burn-in", burn_in,
    )
    assert code == 2
    assert "burn-in must lie in [0, 1)" in err


def test_simulate_deterministic_csv(capsys):
    argv = [
        "simulate", "tasep", "-m", "1,1,1",
        "--rates", "2,1", "--events", "20000", "--seed", "7",
    ]
    code1, out1, err1 = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[0] == "state,empirical,exact,z_score"
    cfg = SimConfig("tasep", (1, 1, 1), (Fraction(2), Fraction(1)), seed=7, events=20_000)
    assert out1 == to_csv(reference_gillespie_run(cfg))
    # the sampler's rate goes to stderr, never into the CSV
    assert re.fullmatch(r"20000 events in \d+\.\d\d s \((?:[\d.]+(?:e\+\d+)?|inf) events/s\)\n", err1)


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            "simulate coupe -m 1,2,3 --rates 2,1 --events 200000 --seed 3 --compare-exact --tolerance 0.05",
            "a50f474bab9091e58fd7aa9422048184b4b7e17c1b8f0d1bbbaf6a36c9befd70",
        ),
        (
            "simulate fm -m 1,1,2 --rates 1,1 --events 50000 --seed 11 --burn-in 0",
            "761a49eed5c53683eaac64a3b9658e10743b348e8caefdd7cbe0304a055f83aa",
        ),
    ],
)
def test_simulate_csv_bytes_are_pinned_on_long_runs(capsys, argv, digest):
    # the expovariate oracle runs stop at 3,000 events; these digests of
    # long runs' stdout hold the sampler to the same bytes at scale
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_simulate_compare_exact(capsys):
    code, out, err = run_cli(
        capsys,
        "simulate", "tasep", "-m", "1,1,1",
        "--rates", "2,1", "--events", "200000", "--seed", "11",
        "--compare-exact", "--tolerance", "0.02",
    )
    assert code == 0
    rate, tv = err.splitlines()
    assert rate.startswith("200000 events in ") and rate.endswith(" events/s)")
    assert tv.startswith("tv =")
    assert len(out.splitlines()) == 7


def test_chain_solve_at_a_rate_equal_to_the_first_prime(capsys):
    code, out, err = run_cli(
        capsys, "chain", "tasep", "-m", "1,1,1", "--solve", f"x1={2**127 - 1},x2=1"
    )
    assert (code, err) == (0, "")
    assert out.split()[:2] == [f"123:{2**127}", f"132:{2**127 - 1}"]


def test_chain_solve_gives_up_with_exit_3(capsys):
    # the weights outgrow what rational reconstruction recovers modulo the
    # product of all the listed primes
    code, out, err = run_cli(
        capsys, "chain", "tasep", "-m", "1,1,1", "--solve", f"x1={10**4000},x2=1"
    )
    assert (code, out) == (3, "")
    assert err == "error: no certified stationary vector modulo the listed Mersenne primes\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["chain", "tasep", "--export", "json", "--solve", "x=2"],
            "bad assignment 'x=2', expected x<i>=<value>",
        ),
        (["chain", "tasep", "--solve", "x1"], "bad assignment 'x1', expected x<i>=<value>"),
        (
            ["chain", "tasep", "--solve", "x1=1/0"],
            "bad rate '1/0', expected a positive rational such as 2 or 3/2",
        ),
        (
            ["simulate", "tasep", "--rates", "1/0,1"],
            "bad rate '1/0', expected a positive rational such as 2 or 3/2",
        ),
        (["simulate", "tasep", "--rates", "1e400,1"], "rate x1 is inf as a float"),
        (["simulate", "coupe", "--rates", "1e-400,1"], "rate x1 is 0.0 as a float"),
        (
            ["simulate", "tasep", "--rates", "2,1", "--compare-exact", "--tolerance", "-1"],
            "tolerance must lie in [0, 1], got -1.0",
        ),
        (
            ["simulate", "tasep", "--rates", "2,1", "--compare-exact", "--tolerance", "nan"],
            "tolerance must lie in [0, 1], got nan",
        ),
        (["chain", "tasep", "--solve", "x1=2,x1=3"], "variable x1 given twice"),
        (["chain", "tasep", "--solve="], "bad assignment '', expected x<i>=<value>"),
    ],
)
def test_bad_rate_input_is_named(capsys, argv, message):
    if argv[0] == "simulate":
        argv = [*argv, "--events", "10"]
    code, out, err = run_cli(capsys, *argv, "-m", "1,1,1")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


def test_simulate_bad_rates(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "tasep", "-m", "1,1,1", "--rates", "2,0", "--events", "10"
    )
    assert code == 2
    assert "positive" in err
