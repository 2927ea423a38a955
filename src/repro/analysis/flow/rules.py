"""Dataflow-backed rules: RG101, RG102, RG105.

These consume the facts produced by :class:`.dataflow.FunctionAnalysis`
(call sites with abstract argument values, attribute stores, unordered
iterations) — see :mod:`.protocol` for the syntactic protocol rules
RG103/RG104 and :mod:`.engine` for the driver that wires everything
together.

RG101/RG102 decide "round logic" from the *callee's* defining module, so
a test or benchmark handing an unseeded stream to ``fl/`` code is still
flagged; RG105 judges the iterating module itself and so only applies to
package round logic (:func:`.project.is_round_logic`).
"""

from __future__ import annotations

import ast
import pathlib

from ..lint import Finding
from .dataflow import AttrStoreFact, CallFact, IterFact, Order, Tag
from .project import ROUND_LOGIC_DIRS, in_dirs, is_round_logic

__all__ = ["check_rg101", "check_rg102", "check_rg105"]

# Call targets that ARE round logic even when unresolved (fixtures, duck
# typing): constructing federation actors or invoking an aggregator.
_ROUND_LOGIC_NAMES = {
    "aggregate",
    "build_federation",
    "run_federation",
    "Server",
    "FLClient",
    "run_round",
}

# Client-side vs server-side consumers for RG102 stream aliasing.
_CLIENT_NAMES = {"FLClient"}
_SERVER_NAMES = {"Server", "aggregate"}
_CLIENT_FILES = ("client.py",)
_SERVER_FILES = ("server.py", "sampling.py")


def _is_round_logic_callee(fact: CallFact) -> bool:
    resolved = fact.resolved
    if resolved is not None and resolved.module is not None:
        # Resolved inside the project: the defining module's path is
        # authoritative (a models/ helper named run_round is not round
        # logic). Name matching is only a fallback for opaque targets.
        return in_dirs(resolved.module.path, ROUND_LOGIC_DIRS)
    return fact.attr_name in _ROUND_LOGIC_NAMES


def _callee_label(fact: CallFact) -> str:
    if fact.resolved is not None:
        return fact.resolved.dotted
    return fact.attr_name or "<call>"


def _origin_note(origins) -> str:
    sites = sorted(origins)
    if not sites:
        return ""
    path, line, _ = sites[0]
    name = pathlib.PurePath(path).name
    more = f" (+{len(sites) - 1} more)" if len(sites) > 1 else ""
    return f"; stream constructed at {name}:{line}{more}"


# ---------------------------------------------------------------------------
# RG101 — unseeded/ambiguous RNG reaching round logic
# ---------------------------------------------------------------------------


def check_rg101(
    calls: list[CallFact], attr_stores: list[AttrStoreFact]
) -> list[Finding]:
    findings = []
    for fact in calls:
        if not _is_round_logic_callee(fact):
            continue
        for key, value in fact.args:
            if value.is_rng and value.tag in (Tag.UNSEEDED, Tag.AMBIGUOUS):
                what = "unseeded" if value.tag == Tag.UNSEEDED else "ambiguously seeded"
                findings.append(
                    Finding(
                        "RG101",
                        fact.module.path,
                        fact.node.lineno,
                        fact.node.col_offset,
                        f"{what} RNG reaches round logic via "
                        f"`{_callee_label(fact)}` (argument {key!r}); every "
                        f"generator entering fl/ or defenses/ must be "
                        f"seeded at construction or spawned from a seeded "
                        f"stream{_origin_note(value.origins)}",
                    )
                )
    for store in attr_stores:
        if not in_dirs(store.module.path, ROUND_LOGIC_DIRS):
            continue
        if store.value.tag in (Tag.UNSEEDED, Tag.AMBIGUOUS):
            what = "unseeded" if store.value.tag == Tag.UNSEEDED else "ambiguously seeded"
            findings.append(
                Finding(
                    "RG101",
                    store.module.path,
                    store.node.lineno,
                    store.node.col_offset,
                    f"{what} RNG stored on `{store.target}` inside round "
                    f"logic; replay requires a seeded or spawned "
                    f"stream{_origin_note(store.value.origins)}",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# RG102 — one stream aliased across client/server boundaries
# ---------------------------------------------------------------------------


def _domain(fact: CallFact) -> str | None:
    resolved = fact.resolved
    if resolved is not None and resolved.module is not None:
        name = pathlib.PurePath(resolved.module.path).name
        if in_dirs(resolved.module.path, ("fl",)) and name in _CLIENT_FILES:
            return "client"
        if in_dirs(resolved.module.path, ("fl",)) and name in _SERVER_FILES:
            return "server"
        if in_dirs(resolved.module.path, ("defenses",)):
            return "server"
    base = fact.resolved.basename if fact.resolved is not None else fact.attr_name
    if base in _CLIENT_NAMES or fact.attr_name in _CLIENT_NAMES:
        return "client"
    if base in _SERVER_NAMES or fact.attr_name in _SERVER_NAMES:
        return "server"
    return None


def _constructs_actor(fact: CallFact) -> bool:
    """Is this call constructing a client/server actor instance (rather
    than invoking a helper)? Sequential helpers sharing one stream are
    deterministic; N actors sharing one stream are not."""
    if fact.resolved is not None and isinstance(fact.resolved.node, ast.ClassDef):
        return True
    base = fact.resolved.basename if fact.resolved is not None else fact.attr_name
    return base in (_CLIENT_NAMES | _SERVER_NAMES) or fact.attr_name in (
        _CLIENT_NAMES | _SERVER_NAMES
    )


def check_rg102(calls: list[CallFact]) -> list[Finding]:
    # origin -> list of (domain, fact, in_loop_without_origin)
    sightings: dict[tuple, list[tuple[str, CallFact, bool]]] = {}
    for fact in calls:
        domain = _domain(fact)
        if domain is None:
            continue
        for _key, value in fact.args:
            if not value.is_rng:
                continue
            for origin in value.origins:
                origin_line = origin[1]
                # The stream is re-used every iteration when the call sits
                # in a loop the construction site is outside of.
                in_loop = any(
                    start <= fact.node.lineno <= end
                    and not (start <= origin_line <= end)
                    for (start, end) in fact.loop_lines
                ) and origin[0] == fact.module.path or (
                    bool(fact.loop_lines) and origin[0] != fact.module.path
                )
                sightings.setdefault(origin, []).append((domain, fact, in_loop))

    findings = []
    seen_lines: set[tuple[str, int]] = set()

    def flag(fact: CallFact, reason: str, origin) -> None:
        key = (fact.module.path, fact.node.lineno)
        if key in seen_lines:
            return
        seen_lines.add(key)
        findings.append(
            Finding(
                "RG102",
                fact.module.path,
                fact.node.lineno,
                fact.node.col_offset,
                f"one RNG stream {reason}; replay breaks when two "
                f"consumers interleave draws from a shared stream — "
                f"spawn a child generator per consumer "
                f"instead{_origin_note({origin})}",
            )
        )

    for origin, uses in sightings.items():
        domains = {d for d, _f, _l in uses}
        if len(domains) > 1:
            # Flag every use after the first: they all alias the stream.
            for domain, fact, _in_loop in uses[1:]:
                flag(fact, "is shared across the client/server boundary", origin)
        for domain, fact, in_loop in uses:
            if in_loop and domain == "client" and _constructs_actor(fact):
                flag(
                    fact,
                    "is re-used for every client constructed in this loop",
                    origin,
                )
    return findings


# ---------------------------------------------------------------------------
# RG105 — unordered iteration feeding an order-sensitive sink
# ---------------------------------------------------------------------------


def check_rg105(iterations: list[IterFact]) -> list[Finding]:
    findings = []
    for fact in iterations:
        if not is_round_logic(fact.module.path):
            continue
        if fact.value.order != Order.UNORDERED:
            continue
        findings.append(
            Finding(
                "RG105",
                fact.module.path,
                fact.node.lineno,
                fact.node.col_offset,
                f"iteration over an unordered collection feeds an "
                f"order-sensitive sink ({fact.sink}) in round logic; "
                f"aggregation, selection, float-reduction and heap order "
                f"must be deterministic — iterate `sorted(...)` instead",
            )
        )
    return findings
