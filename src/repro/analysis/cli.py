"""``python -m repro.analysis`` — run the correctness-tooling passes.

Five passes, all enabled by default:

* **lint** — the per-file AST rules (RG001–RG007, RG206) over the
  analyzed paths;
* **flow** — the whole-program dataflow analyzer (RG101–RG105: RNG
  provenance, stream aliasing, protocol exhaustiveness, checkpoint
  completeness, unordered iteration into order-sensitive sinks);
* **concurrency** — the RG300 concurrency/determinism verifier (RG301,
  RG303–RG305: checkpoint coverage of mode/backend state,
  schedule-tainted RNG draws, shared-memory lifecycles, heap tie-break
  keys);
* **gradcheck** — finite-difference verification of every public
  layer/activation/loss backward pass;
* **contracts** — dynamic audit of every registered defense aggregator
  under the no-mutation/shape/dtype contract.

Select passes positively with ``--passes lint,flow`` (an unknown pass
name is a usage error, exit 2), subtractively with ``--skip``, or by
naming passes positionally (``python -m repro.analysis concurrency``) —
a positional that names a pass and no existing file selects that pass.
A rule belongs to the pass whose rule set contains it.

The three static passes share one reporting pipeline
(:mod:`repro.analysis.reporting`): findings are deduplicated, filtered
through ``# repro: noqa[RGxxx]`` suppressions (unused suppressions come
back as RG100), then through the committed ``analysis-baseline.json``.
``--format json|sarif`` emits machine-readable output (static passes
only); ``--write-baseline`` accepts the current findings as the new
baseline.

Default targets are the installed ``repro`` package plus the repo's
``benchmarks/``, ``examples/`` and ``tests/`` trees when run from the
repo root. RG005 (narrow dtypes), RG006 (wire-byte arithmetic) and
RG206 (eager O(n_clients) enumeration) only apply to the package itself
— tests and benchmarks legitimately construct narrow arrays, check byte
math and enumerate small federations.

Exit status: 0 clean, 1 findings/failures, 2 usage error — so the
command gates CI merges. ``--strict`` additionally audits the
pre-training defenses (Spectral, PDGAN, FedCVAE) with scaled-down
budgets.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from . import reporting
from .flow import (
    CONCURRENCY_RULE_DESCRIPTIONS,
    CONCURRENCY_RULES,
    FLOW_RULE_DESCRIPTIONS,
    FLOW_RULES,
    analyze_paths,
)
from .flow.project import OUT_OF_PACKAGE_TREES, collect_files, in_dirs
from .lint import ALL_RULES, RULE_DESCRIPTIONS, Finding, lint_paths

__all__ = ["main", "run", "build_parser"]

# Each static pass's rules: the lookup behind --rules, per-pass baseline
# writes and --stats counts.
_PASS_RULES = {
    "lint": ALL_RULES,
    "flow": FLOW_RULES,
    "concurrency": CONCURRENCY_RULES,
}
_STATIC_PASSES = frozenset(_PASS_RULES)
_PASSES = ("lint", "flow", "concurrency", "gradcheck", "contracts")
_DESCRIPTIONS = {
    **RULE_DESCRIPTIONS,
    **FLOW_RULE_DESCRIPTIONS,
    **CONCURRENCY_RULE_DESCRIPTIONS,
}
_FORMATS = ("text", "json", "sarif")

# Lint rules scoped to the package source tree. Everything else
# (benchmarks, examples, tests) runs the remaining rules.
_SRC_ONLY_RULES = frozenset({"RG005", "RG006", "RG206"})

DEFAULT_BASELINE = "analysis-baseline.json"
DEFAULT_CACHE_DIR = ".repro-cache/analysis"


def _default_target() -> pathlib.Path:
    """The installed ``repro`` package directory (``src/repro`` in-tree)."""
    return pathlib.Path(__file__).resolve().parents[1]


def _default_targets() -> list[pathlib.Path]:
    """Package dir, plus repo-level trees when run from the repo root."""
    targets = [_default_target()]
    cwd = pathlib.Path.cwd()
    if (cwd / "pyproject.toml").is_file():
        for name in sorted(OUT_OF_PACKAGE_TREES):
            candidate = cwd / name
            if candidate.is_dir():
                targets.append(candidate)
    return targets


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description="FedGuard reproduction correctness tooling (AST lint + "
                    "dataflow + concurrency + gradcheck + runtime contracts)",
    )
    parser.add_argument(
        "paths", nargs="*", type=pathlib.Path,
        help="files/directories to analyze (default: the repro package "
             "plus benchmarks/, examples/ and tests/ at the repo root); "
             "a positional that names a pass and no existing file selects "
             "that pass instead",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="also audit pre-training defenses in the contracts pass",
    )
    parser.add_argument(
        "--skip", action="append", choices=_PASSES, default=[],
        help="skip a pass (repeatable)",
    )
    parser.add_argument(
        "--passes", default=None,
        help="comma-separated passes to run (default: all of "
             f"{','.join(_PASSES)}); an unknown name is a usage error",
    )
    parser.add_argument(
        "--rules", default=None,
        help="comma-separated static rules to run (default: all of "
             "RG001-RG007, RG206, RG101-RG105, RG301 and RG303-RG305)",
    )
    parser.add_argument(
        "--format", dest="fmt", choices=_FORMATS, default="text",
        help="output format for static findings; json/sarif run only the "
             "static passes",
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=None,
        help="write the formatted findings to this file instead of stdout",
    )
    parser.add_argument(
        "--baseline", type=pathlib.Path, default=None,
        help=f"baseline file of accepted findings "
             f"(default: ./{DEFAULT_BASELINE} when present)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline file (report accepted findings too)",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="accept the current static findings as the new baseline and exit",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the flow-analysis result cache",
    )
    parser.add_argument(
        "--cache-dir", type=pathlib.Path, default=None,
        help=f"flow-analysis cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument("--rtol", type=float, default=None,
                        help="gradcheck relative tolerance")
    parser.add_argument("--atol", type=float, default=None,
                        help="gradcheck absolute tolerance")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the static rules and exit")
    parser.add_argument(
        "--stats", action="store_true",
        help="print per-pass finding counts and engine-cache hit/miss "
             "after the static passes",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    return run(build_parser().parse_args(argv))


def _split_rules(raw: str | None) -> dict[str, frozenset[str]]:
    """--rules value -> each static pass's rules to run, or raise ValueError."""
    if raw is None:
        return dict(_PASS_RULES)
    requested = {r.strip().upper() for r in raw.split(",") if r.strip()}
    known = frozenset().union(*_PASS_RULES.values())
    unknown = requested - known - {"RG100"}
    if unknown:
        raise ValueError(
            f"unknown rules: {sorted(unknown)}; known: {sorted(known)}"
        )
    return {name: rules & requested for name, rules in _PASS_RULES.items()}


def _selected_passes(args) -> set[str]:
    """Resolve --passes/--skip into the set of passes to run.

    Raises ValueError (a usage error, exit 2) on an unknown pass name so a
    typo'd ``--passes shape`` fails loudly instead of silently running
    nothing.
    """
    if args.passes is None:
        selected = set(_PASSES)
    else:
        requested = [p.strip().lower() for p in args.passes.split(",") if p.strip()]
        unknown = sorted({p for p in requested if p not in _PASSES})
        if unknown:
            raise ValueError(
                f"unknown pass(es): {', '.join(unknown)}; "
                f"valid passes: {', '.join(_PASSES)}"
            )
        selected = set(requested)
    return selected - set(args.skip)


def _rule_pass(rule: str) -> str:
    """Which pass owns a rule code (for per-pass baseline updates).

    RG100 (a stale suppression) is minted by the reporting pipeline and
    counts as flow, like any code no pass claims.
    """
    for name, rules in _PASS_RULES.items():
        if rule in rules:
            return name
    return "flow"


def _extract_pass_positionals(args) -> None:
    """Fold positional pass names (``… concurrency``) into ``--passes``.

    A positional argument that names a pass *and* does not exist on disk
    is a pass selector, not a path — so ``python -m repro.analysis
    concurrency --strict`` runs just that pass instead of exiting 2 on a
    missing file. A real file/directory named like a pass still wins.
    """
    selectors = [
        str(p) for p in args.paths if str(p) in _PASSES and not p.exists()
    ]
    if not selectors:
        return
    args.paths = [p for p in args.paths if str(p) not in selectors]
    existing = (
        [p.strip() for p in args.passes.split(",") if p.strip()]
        if args.passes else []
    )
    args.passes = ",".join(existing + selectors)


def _static_findings(
    args, paths: list[pathlib.Path], selected: set[str],
    stats: dict | None = None,
) -> tuple[list[Finding], dict[str, str]]:
    """Run lint + flow + concurrency and push everything through the
    reporting pipeline.

    Returns the surviving findings and the analyzed-source map (used for
    baseline fingerprints when writing a new baseline). The flow and
    concurrency domains share one engine invocation (and one
    result-cache entry): the engine is called once with the union of
    their active rules, and not at all when neither has one. When a
    ``stats`` dict is passed, it receives the engine-cache outcome and
    per-pass finding counts.
    """
    rules = _split_rules(args.rules)

    findings: list[Finding] = []
    active_rules: set[str] = set()
    lint_rules = rules["lint"] if "lint" in selected else frozenset()
    if lint_rules:
        active_rules |= lint_rules
        src_paths = [p for p in paths if not in_dirs(p, OUT_OF_PACKAGE_TREES)]
        out_paths = [p for p in paths if in_dirs(p, OUT_OF_PACKAGE_TREES)]
        if src_paths:
            findings.extend(lint_paths(src_paths, rules=lint_rules))
        scoped = lint_rules - _SRC_ONLY_RULES
        if out_paths and scoped:
            findings.extend(lint_paths(out_paths, rules=scoped))

    engine_rules: set[str] = set()
    for name in ("flow", "concurrency"):
        if name in selected:
            engine_rules |= rules[name]
    if engine_rules:
        active_rules |= engine_rules
        cache_dir = None
        if not args.no_cache:
            cache_dir = args.cache_dir or pathlib.Path(DEFAULT_CACHE_DIR)
        findings.extend(
            analyze_paths(
                paths, rules=engine_rules, cache_dir=cache_dir, stats=stats
            )
        )

    sources: dict[str, str] = {}
    for f, _root in collect_files(paths):
        try:
            sources[str(f)] = f.read_text()
        except (OSError, UnicodeDecodeError):
            continue

    findings = reporting.dedup(findings)
    findings = reporting.apply_suppressions(
        findings, sources, active_rules=active_rules
    )
    if stats is not None:
        counts = {p: 0 for p in sorted(selected & _STATIC_PASSES)}
        for f in findings:
            owner = _rule_pass(f.rule)
            counts[owner] = counts.get(owner, 0) + 1
        stats["per_pass"] = counts
    return findings, sources


def _stats_line(stats: dict) -> str:
    """One human-readable summary of what the static gate checked."""
    counts = " ".join(
        f"{name}={n}" for name, n in stats.get("per_pass", {}).items()
    )
    cache = stats.get("engine_cache", "off")
    files = stats.get("files")
    tail = f"engine cache: {cache}"
    if files is not None:
        tail += f", {files} file(s)"
    return f"stats: {counts or 'no static passes'} ({tail})"


def run(args: argparse.Namespace) -> int:
    """Execute the analysis passes for an already-parsed namespace.

    Split from :func:`main` so ``repro analyze`` can mount
    :func:`build_parser` as a parent parser and delegate here.
    """
    if args.list_rules:
        for rule in sorted(_DESCRIPTIONS):
            print(f"{rule}: {_DESCRIPTIONS[rule]}")
        return 0

    try:
        _extract_pass_positionals(args)
        selected = _selected_passes(args)
    except ValueError as exc:  # unknown pass name in --passes
        print(f"error: {exc}", file=sys.stderr)
        return 2
    machine_readable = args.fmt in ("json", "sarif")
    static_selected = selected & _STATIC_PASSES
    static_needed = bool(static_selected) or args.write_baseline

    failures = 0
    if static_needed:
        paths = list(args.paths) or _default_targets()
        missing = [p for p in paths if not p.exists()]
        if missing:
            print(
                "error: no such file or directory: "
                + ", ".join(str(p) for p in missing),
                file=sys.stderr,
            )
            return 2
        stats: dict = {}
        try:
            findings, sources = _static_findings(
                args, paths, static_selected, stats=stats
            )
        except ValueError as exc:  # e.g. a typo'd --rules value
            print(f"error: {exc}", file=sys.stderr)
            return 2

        baseline_path = args.baseline or pathlib.Path(DEFAULT_BASELINE)
        if args.write_baseline:
            # Partial runs update only their own entries: findings owned
            # by passes that did not run are carried over, not dropped.
            preserved: list[dict] = []
            if static_selected != _STATIC_PASSES and baseline_path.is_file():
                existing = reporting.load_baseline(baseline_path)
                preserved = [
                    e for e in existing.entries.values()
                    if _rule_pass(e.get("rule", "")) not in static_selected
                ]
            reporting.write_baseline(
                findings, sources, baseline_path, preserved=preserved
            )
            print(
                f"baseline: accepted {len(findings)} finding(s) "
                f"({len(preserved)} preserved) into {baseline_path}"
            )
            print(_stats_line(stats))
            return 0
        if not args.no_baseline and baseline_path.is_file():
            baseline = reporting.load_baseline(baseline_path)
            findings = reporting.apply_baseline(findings, baseline, sources)

        rendered = reporting.format_findings(
            findings, fmt=args.fmt, descriptions=_DESCRIPTIONS
        )
        if args.output is not None:
            args.output.parent.mkdir(parents=True, exist_ok=True)
            args.output.write_text(rendered + "\n")
        elif rendered:
            print(rendered)
        if not machine_readable:
            print(f"static: {len(findings)} finding(s) in {len(paths)} path(s)")
            if args.stats:
                print(_stats_line(stats))
        failures += len(findings)

    if machine_readable:
        # json/sarif carry Finding records only; the dynamic passes
        # (gradcheck, contracts) report pass/fail results, not findings.
        return 0 if failures == 0 else 1

    if "gradcheck" in selected:
        from .gradcheck import DEFAULT_ATOL, DEFAULT_RTOL, run_gradcheck

        results = run_gradcheck(
            rtol=args.rtol if args.rtol is not None else DEFAULT_RTOL,
            atol=args.atol if args.atol is not None else DEFAULT_ATOL,
        )
        failed = [r for r in results if not r.passed]
        for r in failed:
            print(r.format())
        print(f"gradcheck: {len(results) - len(failed)}/{len(results)} passed")
        failures += len(failed)

    if "contracts" in selected:
        from .runtime import run_contracts_audit

        audits = run_contracts_audit(include_pretrained=args.strict)
        failed = [a for a in audits if not a.passed]
        for a in failed:
            print(a.format())
        audited = [a for a in audits if not a.skipped]
        print(
            f"contracts: {len(audited) - len(failed)}/{len(audited)} strategies "
            f"passed ({len(audits) - len(audited)} skipped)"
        )
        failures += len(failed)

    print("analysis: " + ("OK" if failures == 0 else f"{failures} failure(s)"))
    return 0 if failures == 0 else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
