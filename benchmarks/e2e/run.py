"""End-to-end benchmark of the FedGuard simulator: four workloads, one command.

Run from the repo root::

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N] [--seconds S]
                                  [--repeat K] [--trace [0|1]] [--smoke] [--out PATH]

Each workload x repeat runs in its own ``workload.py`` subprocess, one at a
time, with OPENBLAS/OMP/MKL pinned to one thread and the repo's debug
environment variables removed. The only extra load is the two pool workers
of ``fedguard_paper_2proc``, so at most two cores are busy.

Standard output ends with one JSON object ``{"correct", "attempted",
"failed", "metrics"}``: the ``end_to_end`` metrics of ``BENCHMARK.json``,
or its ``per_layer`` metrics with ``--trace 1`` (each metric the median of
the repeats; keyed by workload when more than one ran). The full report,
digests and provenance included, goes to ``benchmarks/out/BENCH_e2e.json``.
The exit code is 0 when every check passed, 1 when a check failed, and 2
when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent
DEFAULT_OUT = ROOT / "benchmarks" / "out" / "BENCH_e2e.json"
# A run must end within 180 s; a hung workload is killed before that.
CHILD_TIMEOUT_S = 170
# Debug switches read by ``repro`` at import time; they change what runs.
SCRUBBED_ENV = ("REPRO_CHECK_", "REPRO_RECORD_SHAPES", "REPRO_SCHEDULE_SEED")
# fedguard_paper_2proc must reproduce fedguard_paper's history bit for bit.
PAPER, TWO_PROC = "fedguard_paper", "fedguard_paper_2proc"


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith(SCRUBBED_ENV)}
    env.update(
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
        PYTHONPATH=str(ROOT / "src"),
        # A random str-hash seed varies the allocation pattern, and with it
        # the peak RSS of one seed's run by ~6 %.
        PYTHONHASHSEED="0",
    )
    return env


def run_child(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    cmd = [
        sys.executable, str(HERE / "workload.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
    ] + (["--smoke"] if smoke else [])
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: no result within {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: workload process exited with {proc.returncode}")
    return json.loads(lines[-1])


def provenance(seed: int) -> dict:
    """Where and on what the numbers were measured."""

    def git(*args: str) -> str | None:
        try:
            out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    inside_repo = git("rev-parse", "--show-toplevel") == str(ROOT)
    status = git("status", "--porcelain") if inside_repo else None
    return {
        "git_sha": git("rev-parse", "HEAD") if inside_repo else None,
        "git_dirty": bool(status) if status is not None else None,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "blas_threads": 1,
        "seed": seed,
    }


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def check_runs(runs: list[dict], bench: dict, trace: bool) -> list[str]:
    """Per-run checks plus the checks that compare runs with each other."""
    failures = []
    for run in runs:
        where = f"{run['workload']} seed {run['seed']}"
        failures += [f"{where}: {c}" for c in run["checks"]]
        for metric in bench["end_to_end"]:
            value = run["e2e"].get(metric["name"])
            if not (_finite(value) and value > 0):
                failures.append(f"{where}: {metric['name']} = {value!r}")
        if trace:
            for metric in bench["per_layer"]:
                if not _finite(run["layers"].get(metric["name"])):
                    failures.append(f"{where}: {metric['name']} missing or not finite")
    digests: dict[tuple, set] = {}
    for run in runs:
        digests.setdefault((run["workload"], run["seed"]), set()).add(run["digest"])
    for (workload, seed), found in digests.items():
        if len(found) > 1:
            failures.append(f"{workload} seed {seed}: repeats diverged: {sorted(found)}")
        twin = digests.get((TWO_PROC, seed))
        if workload == PAPER and twin is not None and twin != found:
            failures.append(f"seed {seed}: {TWO_PROC} history differs from {PAPER}'s")
    return failures


def summary_line(runs: list[dict], bench: dict, trace: bool, correct: bool) -> dict:
    """The final stdout line; a metric's value is the median of its repeats."""
    section, declared = ("layers", bench["per_layer"]) if trace else ("e2e", bench["end_to_end"])
    by_workload: dict[str, list[dict]] = {}
    for run in runs:
        by_workload.setdefault(run["workload"], []).append(run)
    metrics = {
        workload: {
            m["name"]: {
                "value": statistics.median(r[section][m["name"]] for r in group),
                "unit": m["unit"],
            }
            for m in declared
        }
        for workload, group in by_workload.items()
    }
    return {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": next(iter(metrics.values())) if len(metrics) == 1 else metrics,
    }


def print_table(runs: list[dict], bench: dict, trace: bool) -> None:
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    for run in runs:
        print(f"== {run['workload']}  seed {run['seed']}  episodes {run['episodes']}  "
              f"rounds {run['rounds']}  digest {run['digest'][:16]}")
        for name, value in run["e2e"].items():
            print(f"   {name:<36} {value:12.4f} {units.get(name, '')}")
        for name, value in run["reported"].items():
            shown = "-" if value is None else f"{value:12.4f}"
            print(f"   {name:<36} {shown:>12} (reported, unbounded)")
        if trace:
            for metric in bench["per_layer"]:
                value = run["layers"][metric["name"]]
                if value:
                    print(f"   {metric['name']:<36} {value:12.4f} {metric['unit']}")


def parse_args(argv: list[str] | None, bench: dict) -> argparse.Namespace:
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"episode budget per run (default {bench['run_seconds']}; "
                             f"0 with --smoke)")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny federations: a self-test of the harness, not a measurement")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(bench["run_seconds"])
    return args


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = load_benchmark()
    args = parse_args(argv, bench)
    skipped = {}
    if (os.cpu_count() or 1) < 2 and TWO_PROC in args.workload:
        skipped[TWO_PROC] = "nproc<2"
    workloads = [w for w in args.workload if w not in skipped]
    if not workloads:
        print("error: every requested workload was skipped", file=sys.stderr)
        return 2

    runs = []
    try:
        for workload in workloads:
            for repeat in range(args.repeat):
                print(f"[e2e] {workload} seed {args.seed} repeat {repeat + 1}/{args.repeat}",
                      file=sys.stderr, flush=True)
                runs.append(run_child(workload, args.seed, args.seconds, bool(args.trace),
                                      args.smoke))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failures = check_runs(runs, bench, bool(args.trace))
    meta = provenance(args.seed)
    meta["numpy"] = runs[0]["numpy"]
    report = {
        "meta": meta,
        "settings": {"seconds": args.seconds, "repeat": args.repeat,
                     "trace": bool(args.trace), "smoke": args.smoke},
        "skipped": skipped,
        "correct": not failures,
        "failures": failures,
        "runs": runs,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1))

    print_table(runs, bench, bool(args.trace))
    for workload, reason in skipped.items():
        print(f"== {workload}  skipped: {reason}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps(summary_line(runs, bench, bool(args.trace), not failures)))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
