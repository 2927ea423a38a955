#!/usr/bin/env python
"""Backend scaling benchmark: sequential backend vs resident process pool.

Measures, for each backend and federation size, steady-state round
throughput (rounds/s) and process-boundary traffic (pickled bytes/round)
with decoders enabled (FedGuard). One warmup round per cell absorbs
one-time costs — worker start, building each client from the population,
CVAE training, first decoder shipment — so the timed rounds reflect the
recurring per-round cost the backends actually differ on.

The resident pool's bytes are compared against the removed
ship-everything pool (the seed's design, which re-pickled each sampled
client's dataset, model shell, CVAE and attack every round). Its
per-round bytes are frozen in :data:`LEGACY_IPC_BYTES_PER_ROUND`, the
figures recorded in ``benchmarks/out/BENCH_backend.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_backend_scaling.py           # full
    PYTHONPATH=src python benchmarks/bench_backend_scaling.py --smoke   # CI
    PYTHONPATH=src python benchmarks/bench_backend_scaling.py --smoke --check

``--check`` enforces the performance floor (CI) at the smallest size:
the resident pool must move at most a third of the frozen legacy bytes
per round, and must not fall behind the sequential backend. The
wall-clock half of the gate needs real parallel hardware — on a
single-core host only the byte reduction is enforced (process overhead
cannot be amortized across cores that do not exist).

Output: a JSON report (default ``benchmarks/out/BENCH_backend.json``;
``--smoke`` writes ``BENCH_backend_smoke.json`` so the checked-in
full-run artifact stays stable).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.config import FederationConfig  # noqa: E402
from repro.defenses import FedGuard  # noqa: E402
from repro.fl import (  # noqa: E402
    ProcessPoolBackend,
    SequentialBackend,
    build_federation,
)

OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"

# Pickled bytes per steady-state round of the removed ship-everything pool
# on this bench's workload, keyed by client count — its cells in the
# checked-in BENCH_backend.json. Bytes depend on the workload, not the
# host, so they stay a valid baseline.
LEGACY_IPC_BYTES_PER_ROUND = {8: 667_527.0, 32: 2_699_482.0, 100: 8_268_482.0}


def bench_config(n_clients: int) -> FederationConfig:
    """A state-movement-dominated federation at the requested size.

    One local epoch on small partitions keeps compute per round minimal,
    so the backends' recurring serialization cost — the thing this bench
    compares — dominates the measurement.
    """
    return FederationConfig.tiny(
        n_clients=n_clients,
        clients_per_round=max(2, n_clients // 2),
        rounds=1,
        train_samples=n_clients * 40,
        local_epochs=1,
        cvae_epochs=2,
    )


def _make_backend(kind: str):
    if kind == "sequential":
        return SequentialBackend()
    return ProcessPoolBackend()


def _run_rounds(server, first_round: int, count: int) -> float:
    t0 = time.perf_counter()
    for r in range(first_round, first_round + count):
        server.run_round(r)
    return time.perf_counter() - t0


def bench_cell(kind: str, n_clients: int, timed_rounds: int) -> dict:
    """One (backend, size) measurement: warmup, timed rounds, bytes."""
    config = bench_config(n_clients)
    backend = _make_backend(kind)
    try:
        server = build_federation(config, FedGuard(), backend=backend)
        _run_rounds(server, 1, 1)  # warmup: build/train/first-ship
        before = backend.ipc_stats.total_nbytes
        wall_s = _run_rounds(server, 2, timed_rounds)
        ipc_bytes = (backend.ipc_stats.total_nbytes - before) / timed_rounds
    finally:
        backend.close()

    return {
        "backend": kind,
        "n_clients": n_clients,
        "clients_per_round": config.clients_per_round,
        "timed_rounds": timed_rounds,
        "wall_s_per_round": wall_s / timed_rounds,
        "rounds_per_s": timed_rounds / wall_s,
        "ipc_bytes_per_round": ipc_bytes,
    }


def _cell(results: list[dict], kind: str, n: int) -> dict | None:
    return next(
        (r for r in results if r["backend"] == kind and r["n_clients"] == n),
        None,
    )


def check_floor(results: list[dict], size: int) -> list[str]:
    """The CI gate; returns a list of failure messages (empty = pass)."""
    failures: list[str] = []
    resident = _cell(results, "process", size)
    sequential = _cell(results, "sequential", size)
    legacy_bytes = LEGACY_IPC_BYTES_PER_ROUND.get(size)
    if resident and legacy_bytes:
        ratio = legacy_bytes / max(resident["ipc_bytes_per_round"], 1.0)
        if ratio < 3.0:
            failures.append(
                f"resident pool must move >=3x fewer pickled bytes/round than "
                f"the frozen legacy baseline at {size} clients; got {ratio:.2f}x"
            )
    if resident and sequential:
        if (os.cpu_count() or 1) >= 2:
            if resident["rounds_per_s"] < sequential["rounds_per_s"]:
                failures.append(
                    f"resident pool slower than sequential at {size} clients: "
                    f"{resident['rounds_per_s']:.3f} vs "
                    f"{sequential['rounds_per_s']:.3f} rounds/s"
                )
        else:
            print(
                "note: single-core host — resident-vs-sequential wall-clock "
                "gate skipped (only the byte floor is enforced)"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="smallest size only, fewer rounds (CI budget)")
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero if the performance floor is missed")
    parser.add_argument("--sizes", type=int, nargs="*", default=None,
                        help="client counts to measure (default: 8 32 100, "
                             "or 8 with --smoke)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="timed rounds per cell (default: 3, 2 with --smoke)")
    parser.add_argument("--out", type=pathlib.Path, default=None)
    args = parser.parse_args(argv)

    sizes = args.sizes if args.sizes else ([8] if args.smoke else [8, 32, 100])
    timed_rounds = args.rounds if args.rounds else (2 if args.smoke else 3)
    out_path = args.out or (
        OUT_DIR / ("BENCH_backend_smoke.json" if args.smoke else "BENCH_backend.json")
    )

    results = []
    for n in sizes:
        for kind in ("sequential", "process"):
            cell = bench_cell(kind, n, timed_rounds)
            results.append(cell)
            print(
                f"{kind:15s} n={n:4d}  {cell['rounds_per_s']:8.3f} rounds/s  "
                f"{cell['ipc_bytes_per_round'] / 1024:10.1f} KiB/round"
            )

    derived = {}
    for n in sizes:
        resident = _cell(results, "process", n)
        legacy_bytes = LEGACY_IPC_BYTES_PER_ROUND.get(n)
        if resident and legacy_bytes:
            derived[f"legacy_over_resident_bytes_x_{n}"] = (
                legacy_bytes / max(resident["ipc_bytes_per_round"], 1.0)
            )

    report = {
        "meta": {
            "generated_by": "benchmarks/bench_backend_scaling.py",
            "smoke": args.smoke,
            "cpu_count": os.cpu_count(),
            "python": sys.version.split()[0],
            "timed_rounds": timed_rounds,
            "workload": "FedGuard (decoders enabled), tiny model, "
                        "1 local epoch, 40 samples/client",
            "legacy_ipc_bytes_per_round": LEGACY_IPC_BYTES_PER_ROUND,
        },
        "results": results,
        "derived": derived,
    }
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"report written to {out_path}")

    if args.check:
        failures = check_floor(results, min(sizes))
        for message in failures:
            print(f"FAIL: {message}", file=sys.stderr)
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
