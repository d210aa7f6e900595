"""Benchmark of mlqtasep: the sweep, lift and sample workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                # all three workloads, untraced
    python3 perfbench/run.py --smoke        # the benchmark's own test

A workload runs in a fresh single-threaded interpreter (perfbench/child.py)
on the package in src/.  An untraced run repeats the workload's timed pass,
at least MIN_PASSES times, until --seconds have passed, and reports the
times at the host's full speed (see child.py): for each unit of the pass
the median of its repetitions, and the median of SETUP_SAMPLES set-ups,
each in a fresh interpreter.  A traced run (--trace 1) runs one pass
untraced and one with the per-layer wrappers of perfbench/tracing.py, and
reports the per-layer metrics.  Metric names and units come from
BENCHMARK.json.  The last stdout line is the JSON result; a human summary
goes to stderr and the full record, with provenance, to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("sweep", "lift", "sample")
MIN_PASSES = 3
SETUP_SAMPLES = 9
BUDGET_S = 165  # every run, set-ups included, ends within 180 s


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def spawn(args: list[str], timeout: float) -> dict:
    """One workload process; its last stdout line is its JSON record."""
    if timeout <= 0:
        raise BenchError("out of time budget before the next workload process")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args, "--spawned", repr(spawned)],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process timed out after {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited with code {proc.returncode}")
    record = json.loads(lines[-1])
    if "package" in record and ROOT / "src" not in Path(record["package"]).resolve().parents:
        raise BenchError(f"workload imported mlqtasep from {record['package']}, not from src/")
    return record


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
            corrupt: bool) -> dict:
    """The workload processes of one run, folded into metrics and checks."""
    deadline = time.monotonic() + BUDGET_S
    base = ["--workload", workload, "--seed", str(seed)]
    if smoke:
        base.append("--smoke")
    if corrupt:
        base.append("--corrupt-golden")
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
        plain = spawn(base, deadline - time.monotonic())
        traced = spawn(base + ["--trace", "--spans", str(spans)], deadline - time.monotonic())
        reps = [plain, traced]
        metrics = {**traced["layers"], "trace.overhead_s": traced["wall_s"] - plain["wall_s"]}
    else:
        timed = spawn(base + ["--seconds", repr(seconds), "--min-passes", str(MIN_PASSES)],
                      deadline - time.monotonic())
        reps = [timed]
        setups = [timed["setup_s"]]
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(base + ["--setup-only"], deadline - time.monotonic())["setup_s"])
        metrics = {name: timed[name] for name in ("wall_s", "cpu_s", "peak_rss_mb", "events_per_s")}
        metrics["setup_s"] = statistics.median(setups)
    failures = [f for r in reps for f in r["failures"]]
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "smoke": smoke,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": metrics,
        "provenance": provenance(reps[0], seed),
        "reps": reps,
    }


def provenance(rep: dict, seed: int) -> dict:
    return {
        "seed": seed,
        "inputs": rep["inputs"],
        "package_version": rep["version"],
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "python": rep["python"],
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
    except OSError:
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    """Identifies the measured code where no git metadata is present."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def result_line(spec: dict, runs: list[dict], trace: bool) -> dict:
    """The contract's result object; with several workloads names get a prefix."""
    key = "per_layer" if trace else "end_to_end"
    metrics = {}
    for run in runs:
        prefix = f"{run['workload']}." if len(runs) > 1 else ""
        for entry in spec[key]:
            value = run["metrics"].get(entry["name"])
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise BenchError(f"{entry['name']}: no finite value ({value!r})")
            metrics[prefix + entry["name"]] = {"value": value, "unit": entry["unit"]}
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def summary(spec: dict, run: dict) -> str:
    key = "per_layer" if run["trace"] else "end_to_end"
    units = {entry["name"]: entry["unit"] for entry in spec[key]}
    reps = run["reps"]
    lines = [
        f"{run['workload']}: seed {run['seed']}, trace {run['trace']}, "
        f"{sum(r['passes'] for r in reps)} timed passes"
    ]
    for name, unit in units.items():
        value = run["metrics"][name]
        text = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6g}"
        lines.append(f"  {name:<42} {text} {unit}")
    share = run["failed"] / run["attempted"]
    lines.append(
        f"  {'failed_share':<42} {share:>16.6g} share "
        f"({run['failed']} of {run['attempted']} checks)"
    )
    lines += [f"  FAILED {f}" for f in run["failures"]]
    if not run["trace"]:
        quartiles = ", ".join(f"{q:.3g}" for q in reps[0]["slowdown_quartiles"])
        lines.append(
            f"  wall time as measured {reps[0]['raw_wall_s']:.6g} s; "
            f"host slowdown quartiles {quartiles}"
        )
    if run["trace"]:
        lines.append(f"  split of the traced pass, as measured: {layer_split(run)}")
        missing = run["reps"][1]["untraced_names"]
        if missing:
            lines.append(f"  not traced, absent from the package: {', '.join(missing)}")
    return "\n".join(lines)


def layer_split(run: dict) -> str:
    """Shares of the traced wall time taken by the layers each workload stresses.

    Layer times are as measured, so they are set against the pass's wall
    time as measured, not the one at full speed.
    """
    m, wall = run["metrics"], run["reps"][1]["raw_wall_s"]
    if run["workload"] == "sweep":
        parts = {"solve.stationary_solve": m["solve.stationary_solve.busy_s"]}
    elif run["workload"] == "lift":
        parts = {
            "chain build (self + ringing)": m["chains.build_fm_chain.self_s"]
            + m["core.ringing_transition.busy_s"],
            "projection": m["core.bully_projection.busy_s"],
            "master_residual": m["solve.master_residual.busy_s"],
        }
    else:
        parts = {"sim.gillespie_run": m["sim.gillespie_run.busy_s"]}
    text = ", ".join(f"{name} {value / wall:.1%}" for name, value in parts.items())
    return f"{text}; together {sum(parts.values()) / wall:.1%}"


def save(run: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{run['workload']}-seed{run['seed']}-trace{run['trace']}.json"
    with open(OUT_DIR / name, "w", encoding="utf-8") as handle:
        json.dump(run, handle, indent=1)


def smoke_test() -> int:
    """Tiny sizes through the real command line: every metric, with its unit,
    in both modes, on every workload; and a corrupted golden entry counted."""
    spec = load_spec()
    problems = []
    for workload in WORKLOADS:
        for trace, corrupt in ((0, False), (1, False), (0, True)):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
            if corrupt:
                argv.append("--corrupt-golden")
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=BUDGET_S)
            label = f"{workload} trace={trace}{' corrupted' if corrupt else ''}"
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{label}: no result line (exit {proc.returncode})\n{proc.stderr}")
                continue
            wanted = spec["per_layer" if trace else "end_to_end"]
            for entry in wanted:
                got = result["metrics"].get(entry["name"])
                if got is None or got.get("unit") != entry["unit"]:
                    problems.append(f"{label}: {entry['name']} missing or without unit {entry['unit']}")
            if len(result["metrics"]) != len(wanted):
                problems.append(f"{label}: {len(result['metrics'])} metrics, {len(wanted)} named")
            if corrupt and (result["correct"] or result["failed"] < 1):
                problems.append(f"{label}: corrupted golden entry not counted as a failure")
            if not corrupt and (not result["correct"] or result["failed"]):
                problems.append(f"{label}: {result['failed']} checks failed")
            if proc.returncode != 0:
                problems.append(f"{label}: exit code {proc.returncode}")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--corrupt-golden", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--smoke", action="store_true", help="run the benchmark's own test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mlqtasep").is_dir():
        print(f"error: no package at {ROOT / 'src' / 'mlqtasep'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke_test()
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = []
    try:
        for name in names:
            run = measure(name, args.seed, seconds, bool(args.trace),
                          args.size == "smoke", args.corrupt_golden)
            save(run)
            print(summary(spec, run), file=sys.stderr)
            runs.append(run)
        result = result_line(spec, runs, bool(args.trace))
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
