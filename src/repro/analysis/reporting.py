"""Reporting pipeline shared by the lint, flow and concurrency passes.

Every static finding (RG001–RG007 and RG206 from :mod:`.lint`,
RG101–RG105, RG301 and RG303–RG305 from :mod:`.flow`) flows through the
same post-processing before anything is printed or an exit code decided:

1. **dedup** — one finding per ``(path, line, rule)``; overlapping passes
   (or the same fact reached twice interprocedurally) never double-report.
2. **suppressions** — ``# repro: noqa[RG101]`` (comma-separated codes
   allowed) on the flagged line silences that finding; it is the only
   suppression the analyzer honours. It *requires* codes: blanket
   suppression would hide unrelated future findings, so a bare
   ``# noqa`` hides nothing. A suppression that silences nothing is
   itself reported as **RG100** — stale suppressions rot into
   load-bearing lies about what the analyzer checked.
3. **baseline** — known, accepted findings recorded in
   ``analysis-baseline.json`` are filtered out so ``--strict`` only fails
   on *new* debt. Entries match on ``(rule, path, content-hash of the
   flagged line)``, not line numbers, so unrelated edits above a
   baselined finding do not resurrect it.
4. **formats** — ``text`` (one ``path:line:col: RULE message`` per line),
   ``json`` (stable machine-readable envelope), and ``sarif`` (SARIF
   2.1.0, consumable by GitHub code scanning).
"""

from __future__ import annotations

import hashlib
import io
import json
import pathlib
import re
import tokenize
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .lint import Finding

__all__ = [
    "Baseline",
    "Suppression",
    "apply_baseline",
    "apply_suppressions",
    "dedup",
    "finding_fingerprint",
    "format_findings",
    "load_baseline",
    "write_baseline",
]

JSON_SCHEMA_VERSION = 1
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

_SUPPRESS_RE = re.compile(r"#\s*repro:\s*noqa\[(?P<codes>[A-Za-z0-9, ]*)\]")


def dedup(findings: Iterable[Finding]) -> list[Finding]:
    """One finding per (path, line, rule); first message wins."""
    seen: set[tuple[str, int, str]] = set()
    out: list[Finding] = []
    for f in findings:
        key = (f.path, f.line, f.rule)
        if key not in seen:
            seen.add(key)
            out.append(f)
    out.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return out


# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------


@dataclass
class Suppression:
    """One ``# repro: noqa[...]`` comment."""

    path: str
    line: int
    col: int
    codes: frozenset[str]


def _scan_suppressions(path: str, source: str) -> list[Suppression]:
    # Tokenize so the pattern only matches real comments — docstrings and
    # string literals that merely *mention* the syntax don't count.
    out = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            m = _SUPPRESS_RE.search(tok.string)
            if m is None:
                continue
            codes = frozenset(
                c.strip().upper() for c in m.group("codes").split(",") if c.strip()
            )
            out.append(
                Suppression(path, tok.start[0], tok.start[1] + m.start(), codes)
            )
    except tokenize.TokenizeError:
        pass  # unparseable file: the linter reports RG000 separately
    return out


def apply_suppressions(
    findings: Sequence[Finding],
    sources: Mapping[str, str],
    active_rules: Iterable[str] | None = None,
) -> list[Finding]:
    """Filter suppressed findings; report unused suppressions as RG100.

    ``sources`` maps finding paths to file contents (files absent from the
    map keep their findings and cannot suppress — the caller decides what
    was actually analyzed).

    ``active_rules`` is the set of rules that actually ran. A suppression
    whose codes are all *inactive* (e.g. ``noqa[RG301]`` on a run with the
    concurrency pass skipped) is neither used nor stale — flagging it as
    RG100 would punish partial runs for markers a full run needs. ``None``
    means every rule ran (the historical behaviour).
    """
    suppressions: dict[tuple[str, int], Suppression] = {}
    for path, source in sources.items():
        for sup in _scan_suppressions(path, source):
            suppressions[(path, sup.line)] = sup

    used: set[tuple[str, int]] = set()
    kept: list[Finding] = []
    for f in findings:
        sup = suppressions.get((f.path, f.line))
        if sup is not None and f.rule in sup.codes:
            used.add((f.path, sup.line))
        else:
            kept.append(f)

    active = None if active_rules is None else {r.upper() for r in active_rules}
    for key, sup in sorted(suppressions.items()):
        if key in used:
            continue
        if active is not None and sup.codes and not (sup.codes & active):
            continue  # suppresses only rules that didn't run this time
        codes = ",".join(sorted(sup.codes)) or "<empty>"
        kept.append(
            Finding(
                "RG100",
                sup.path,
                sup.line,
                sup.col,
                f"suppression `# repro: noqa[{codes}]` matches no finding "
                f"on this line; delete it (stale suppressions misstate "
                f"what was checked)",
            )
        )
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return kept


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------


def finding_fingerprint(finding: Finding, sources: Mapping[str, str]) -> str:
    """Stable identity: rule + path + hash of the flagged line's text.

    Line *content* (stripped) rather than line *number*, so edits
    elsewhere in the file do not invalidate baseline entries; editing the
    flagged line itself does — which is exactly when a human should
    re-triage.
    """
    source = sources.get(finding.path, "")
    lines = source.splitlines()
    text = lines[finding.line - 1].strip() if 0 < finding.line <= len(lines) else ""
    digest = hashlib.sha256(
        f"{finding.rule}\x00{finding.path}\x00{text}".encode()
    ).hexdigest()
    return digest[:16]


@dataclass
class Baseline:
    """Accepted findings loaded from ``analysis-baseline.json``."""

    entries: dict[str, dict]  # fingerprint -> recorded entry

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self.entries

    @property
    def fingerprints(self) -> set[str]:
        return set(self.entries)


def load_baseline(path: pathlib.Path | str) -> Baseline:
    p = pathlib.Path(path)
    if not p.is_file():
        return Baseline(entries={})
    raw = json.loads(p.read_text())
    entries = {e["fingerprint"]: e for e in raw.get("findings", [])}
    return Baseline(entries=entries)


def write_baseline(
    findings: Sequence[Finding],
    sources: Mapping[str, str],
    path: pathlib.Path | str,
    preserved: Sequence[dict] = (),
) -> None:
    """Record ``findings`` as the accepted baseline.

    ``preserved`` carries existing entries that must survive the rewrite —
    the CLI passes the entries owned by passes that did *not* run, so
    ``repro analyze --passes lint --write-baseline`` updates only the lint
    entries instead of clobbering the flow/concurrency ones.
    """
    fresh = [
        {
            "fingerprint": finding_fingerprint(f, sources),
            "rule": f.rule,
            "path": f.path,
            "message": f.message,
        }
        for f in dedup(findings)
    ]
    fresh_prints = {e["fingerprint"] for e in fresh}
    merged = [e for e in preserved if e.get("fingerprint") not in fresh_prints]
    merged.extend(fresh)
    merged.sort(key=lambda e: (e.get("path", ""), e.get("rule", ""), e["fingerprint"]))
    payload = {
        "version": JSON_SCHEMA_VERSION,
        "comment": (
            "Accepted findings. Entries match on (rule, path, flagged line "
            "content); regenerate with `repro analyze --write-baseline`."
        ),
        "findings": merged,
    }
    pathlib.Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def apply_baseline(
    findings: Sequence[Finding],
    baseline: Baseline,
    sources: Mapping[str, str],
) -> list[Finding]:
    return [
        f for f in findings if finding_fingerprint(f, sources) not in baseline
    ]


# ---------------------------------------------------------------------------
# output formats
# ---------------------------------------------------------------------------


def _format_json(findings: Sequence[Finding]) -> str:
    return json.dumps(
        {
            "version": JSON_SCHEMA_VERSION,
            "findings": [
                {
                    "rule": f.rule,
                    "path": f.path,
                    "line": f.line,
                    "col": f.col,
                    "message": f.message,
                }
                for f in findings
            ],
        },
        indent=2,
    )


def _format_sarif(
    findings: Sequence[Finding], descriptions: Mapping[str, str]
) -> str:
    rules_used = sorted({f.rule for f in findings} | set(descriptions))
    sarif = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-analyze",
                        "informationUri": "https://example.invalid/repro",
                        "rules": [
                            {
                                "id": rule,
                                "shortDescription": {
                                    "text": descriptions.get(rule, rule)
                                },
                            }
                            for rule in rules_used
                        ],
                    }
                },
                "results": [
                    {
                        "ruleId": f.rule,
                        "level": "error",
                        "message": {"text": f.message},
                        "locations": [
                            {
                                "physicalLocation": {
                                    "artifactLocation": {
                                        "uri": pathlib.PurePath(f.path).as_posix()
                                    },
                                    "region": {
                                        "startLine": f.line,
                                        "startColumn": f.col + 1,
                                    },
                                }
                            }
                        ],
                    }
                    for f in findings
                ],
            }
        ],
    }
    return json.dumps(sarif, indent=2)


def format_findings(
    findings: Sequence[Finding],
    fmt: str = "text",
    descriptions: Mapping[str, str] | None = None,
) -> str:
    """Render findings as ``text``, ``json``, or ``sarif``."""
    if fmt == "text":
        return "\n".join(f.format() for f in findings)
    if fmt == "json":
        return _format_json(findings)
    if fmt == "sarif":
        return _format_sarif(findings, descriptions or {})
    raise ValueError(f"unknown format {fmt!r}; known: text, json, sarif")
