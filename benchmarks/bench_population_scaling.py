#!/usr/bin/env python
"""Population-scaling benchmark: million-client federations in O(m) per round.

Builds a lazy virtual-population federation
(``partition_scheme="virtual"``) at two sizes orders of magnitude apart
and measures what the lazy registry promises:

* **memory flat in n_clients** — tracemalloc peak across build + rounds
  must be within ``MEM_RATIO_CEILING`` of the small federation's peak,
  because nothing per-client is materialized up front (clients derive
  from index-keyed seeds; partition membership derives per index; only
  the ~m touched clients own packed-state rows);
* **per-round cost independent of n_clients** — one round's population
  work (sample + checkout/materialize + checkin) must cost within
  ``COST_RATIO_CEILING`` of the small federation's, because sampling is
  O(m) (Floyd above the exact-draw threshold) and materialization touches
  exactly the sampled clients.

Local training is deliberately excluded from the timed loop: its cost is
O(m · model) on every registry design, so it would only dilute the
signal. The timed loop is the part whose cost an eager registry makes
O(n_clients).

Usage::

    PYTHONPATH=src python benchmarks/bench_population_scaling.py           # full
    PYTHONPATH=src python benchmarks/bench_population_scaling.py --smoke   # CI
    PYTHONPATH=src python benchmarks/bench_population_scaling.py --smoke --check

``--check`` enforces the ceilings. The peak-memory gate always runs
(tracemalloc is contention-immune); the round-cost gate is skipped on
single-core hosts where timer noise from a contended runner dominates.

Output: a JSON report (default ``benchmarks/out/BENCH_population.json``;
``--smoke`` writes ``BENCH_population_smoke.json`` so the checked-in
full-run artifact stays stable).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time
import tracemalloc

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.attacks import no_attack  # noqa: E402
from repro.config import FederationConfig, ModelConfig  # noqa: E402
from repro.defenses import FedAvg  # noqa: E402
from repro.fl import build_federation  # noqa: E402

OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"

MEM_RATIO_CEILING = 1.25
COST_RATIO_CEILING = 2.0

FULL_SIZES = (10_000, 1_000_000)
SMOKE_SIZES = (1_000, 100_000)


def bench_config(n_clients: int, m: int) -> FederationConfig:
    """A lazy virtual federation: fixed sample pool, any client count."""
    return FederationConfig.tiny(
        n_clients=n_clients,
        clients_per_round=m,
        rounds=1,
        train_samples=2048,
        test_samples=64,
        partition_scheme="virtual",
        virtual_samples_per_client=16,
        model=ModelConfig(kind="mlp", image_size=8, mlp_hidden=8,
                          cvae_hidden=24, cvae_latent=4),
    )


def population_round(server) -> dict:
    """One round of pure population work: sample, materialize, check in."""
    t0 = time.perf_counter()
    ids = server.sampler.sample(
        server.population.size, server.config.clients_per_round, server.rng
    )
    t1 = time.perf_counter()
    clients = server.population.checkout(ids)
    t2 = time.perf_counter()
    server.population.checkin(clients)
    t3 = time.perf_counter()
    return {"sample_s": t1 - t0, "checkout_s": t2 - t1, "checkin_s": t3 - t2,
            "total_s": t3 - t0}


def bench_cell(n_clients: int, m: int, rounds: int, repeats: int) -> dict:
    """Build + timed population rounds at one size, tracemalloc peak over all."""
    tracemalloc.start()
    t0 = time.perf_counter()
    config = bench_config(n_clients, m)
    server = build_federation(config, FedAvg(), no_attack())
    build_s = time.perf_counter() - t0

    population_round(server)  # warmup: store allocation, first-touch caches
    best = None
    for _ in range(repeats):
        phases = [population_round(server) for _ in range(rounds)]
        total = sum(p["total_s"] for p in phases)
        if best is None or total < best[0]:
            best = (total, phases)
    _, peak_bytes = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    total_s, phases = best
    per_round = total_s / rounds
    return {
        "n_clients": n_clients,
        "clients_per_round": m,
        "rounds": rounds,
        "repeats": repeats,
        "build_s": build_s,
        "peak_mb": peak_bytes / 1e6,
        "round_s": per_round,
        "round_phase_s": {
            key: sum(p[key] for p in phases) / rounds
            for key in ("sample_s", "checkout_s", "checkin_s")
        },
        "touched_clients": len(server.population.touched_ids()),
    }


def check_ceilings(small: dict, large: dict) -> list[str]:
    """The CI gate; returns failure messages (empty = pass)."""
    failures: list[str] = []
    mem_ratio = large["peak_mb"] / small["peak_mb"]
    if mem_ratio > MEM_RATIO_CEILING:
        failures.append(
            f"peak memory must stay flat in n_clients: "
            f"{large['n_clients']:,} clients used {mem_ratio:.2f}x the peak "
            f"of {small['n_clients']:,} (ceiling {MEM_RATIO_CEILING}x)"
        )
    if (os.cpu_count() or 1) >= 2:
        cost_ratio = large["round_s"] / small["round_s"]
        if cost_ratio > COST_RATIO_CEILING:
            failures.append(
                f"per-round population cost must be independent of "
                f"n_clients: {cost_ratio:.2f}x at {large['n_clients']:,} vs "
                f"{small['n_clients']:,} (ceiling {COST_RATIO_CEILING}x)"
            )
    else:
        print(
            "note: single-core host — round-cost wall-clock gate skipped "
            "(the peak-memory gate still ran)"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="smaller sizes and fewer rounds (CI budget)")
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero if a scaling ceiling is breached")
    parser.add_argument("--sampled", type=int, default=None,
                        help="clients per round (default: 500, 50 with --smoke)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="timed rounds per block (default: 3, 2 with --smoke)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing blocks, fastest wins (default: 3, 2 with --smoke)")
    parser.add_argument("--out", type=pathlib.Path, default=None)
    args = parser.parse_args(argv)

    sizes = SMOKE_SIZES if args.smoke else FULL_SIZES
    m = args.sampled or (50 if args.smoke else 500)
    rounds = args.rounds or (2 if args.smoke else 3)
    repeats = args.repeats or (2 if args.smoke else 3)
    out_path = args.out or (
        OUT_DIR / ("BENCH_population_smoke.json" if args.smoke
                   else "BENCH_population.json")
    )

    cells = []
    for n_clients in sizes:
        cell = bench_cell(n_clients, m, rounds, repeats)
        cells.append(cell)
        print(
            f"n={n_clients:>9,}  m={m:4d}  "
            f"build {cell['build_s'] * 1e3:8.1f} ms  "
            f"round {cell['round_s'] * 1e3:8.2f} ms  "
            f"peak {cell['peak_mb']:7.2f} MB"
        )

    small, large = cells[0], cells[-1]
    mem_ratio = large["peak_mb"] / small["peak_mb"]
    cost_ratio = large["round_s"] / small["round_s"]
    print(f"peak-memory ratio ({large['n_clients']:,} vs "
          f"{small['n_clients']:,}): {mem_ratio:.3f}x")
    print(f"round-cost ratio: {cost_ratio:.3f}x")

    report = {
        "meta": {
            "generated_by": "benchmarks/bench_population_scaling.py",
            "smoke": args.smoke,
            "cpu_count": os.cpu_count(),
            "python": sys.version.split()[0],
            "mem_ratio_ceiling_x": MEM_RATIO_CEILING,
            "cost_ratio_ceiling_x": COST_RATIO_CEILING,
            "workload": "lazy population, virtual partition (16 draws/client "
                        "into a 2048-sample pool), FedAvg, no attack, "
                        "MLP (hidden 8); timed loop = sample + checkout + "
                        "checkin, training excluded",
        },
        "results": cells,
        "derived": {
            "peak_memory_ratio_x": mem_ratio,
            "round_cost_ratio_x": cost_ratio,
        },
    }
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"report written to {out_path}")

    if args.check:
        failures = check_ceilings(small, large)
        for message in failures:
            print(f"FAIL: {message}", file=sys.stderr)
        if failures:
            return 1
        print("scaling ceilings hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
