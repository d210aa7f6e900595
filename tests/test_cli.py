import io
import json

import pytest

from mlqtasep.cli import main
from mlqtasep.verify import SUITES


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


def test_enumerate_json(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "mlqs", "-m", "1,1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["states"] == ["01", "10"]


def test_enumerate_invalid_composition(capsys):
    code, _, err = run_cli(capsys, "enumerate", "words", "-m", "1,0,2")
    assert code == 2
    assert "m_2 must be positive" in err


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
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[0] == "state,empirical,exact,z_score"


def test_simulate_compare_exact(capsys):
    code, out, err = run_cli(
        capsys,
        "simulate", "tasep", "-m", "1,1,1",
        "--rates", "2,1", "--events", "200000", "--seed", "11",
        "--compare-exact", "--tolerance", "0.02",
    )
    assert code == 0
    assert "tv =" in err
    assert len(out.splitlines()) == 7


def test_simulate_bad_rates(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "tasep", "-m", "1,1,1", "--rates", "2,0", "--events", "10"
    )
    assert code == 2
    assert "positive" in err
