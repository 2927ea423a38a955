"""Compare two sets of benchmark reports, one verdict per (workload, metric).

Usage, from the repo root::

    python3 benchmarks/e2e/compare.py BASE.json... -- NEW.json...

Each argument is a report written by ``run.py --out``. Produce the two sides
as alternating pairs (base, new, base, new, ...) with the same settings;
the i-th base run of a workload is paired with its i-th new run. For every
``end_to_end`` metric of ``BENCHMARK.json`` the table shows each side's
quartiles, the share of pairs the new side wins (ties count for neither)
and a verdict:

* ``better``    — every new run beats every base run, or the new side wins
  at least 90 % of the pairs and its median moved by more than the base
  side's interquartile distance;
* ``unresolved`` — otherwise, when either side's interquartile distance is
  wider than the metric's bound (as a share of its median);
* ``worse``     — the new median is worse than the base median by more than
  the bound;
* ``unchanged`` — everything else.

Exits 1 if any verdict is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], new: list[float], better: str, bound: float) -> tuple[str, float]:
    """(verdict, share of pairs won by the new side) for one metric."""
    def beats(n: float, b: float) -> bool:
        return n < b if better == "lower" else n > b

    pairs = list(zip(base, new))
    decided = [(b, n) for b, n in pairs if b != n]
    wins = sum(beats(n, b) for b, n in decided) / len(decided) if decided else 0.0
    b1, b_med, b3 = quartiles(base)
    n1, n_med, n3 = quartiles(new)
    if all(beats(n, b) for n in new for b in base):
        return "better", wins
    spread = max((b3 - b1) / abs(b_med), (n3 - n1) / abs(n_med))
    if spread > bound:
        return "unresolved", wins
    worse_by = (n_med - b_med) / abs(b_med)
    if better == "higher":
        worse_by = -worse_by
    if worse_by > bound:
        return "worse", wins
    if wins >= WIN_SHARE and beats(n_med, b_med) and abs(n_med - b_med) > b3 - b1:
        return "better", wins
    return "unchanged", wins


def _values(paths: list[str]) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values, in file order then run order."""
    out: dict[tuple[str, str], list[float]] = {}
    for path in paths:
        for run in json.loads(Path(path).read_text())["runs"]:
            for name, value in run["e2e"].items():
                out.setdefault((run["workload"], name), []).append(value)
    return out


def compare(base_paths: list[str], new_paths: list[str], bench: dict) -> list[dict]:
    base, new = _values(base_paths), _values(new_paths)
    rows = []
    for workload in dict.fromkeys(w for w, _ in base):
        for metric in bench["end_to_end"]:
            key = (workload, metric["name"])
            if key not in base or key not in new:
                continue
            result, wins = verdict(base[key], new[key], metric["better"], metric["bound"])
            rows.append({
                "workload": workload, "metric": metric["name"], "unit": metric["unit"],
                "base": quartiles(base[key]), "new": quartiles(new[key]),
                "pairs": min(len(base[key]), len(new[key])), "wins": wins,
                "verdict": result,
            })
    return rows


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    base_paths, new_paths = argv[:split], argv[split + 1:]
    if not base_paths or not new_paths:
        print("error: need at least one report on each side of --", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(base_paths, new_paths, bench)
    order = ("worse", "unresolved", "better", "unchanged")
    for workload in dict.fromkeys(r["workload"] for r in rows):
        mine = [r for r in rows if r["workload"] == workload]
        counts = {v: sum(r["verdict"] == v for r in mine) for v in order}
        summary = "  ".join(f"{v} {c}" for v, c in counts.items() if c)
        print(f"{workload:<22} {summary}")
        for r in mine:
            b, n = r["base"], r["new"]
            print(f"  {r['metric']:<18} base {b[0]:.4g}/{b[1]:.4g}/{b[2]:.4g}  "
                  f"new {n[0]:.4g}/{n[1]:.4g}/{n[2]:.4g} {r['unit']:<3} "
                  f"wins {r['wins']:.0%} of {r['pairs']}  {r['verdict']}")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
