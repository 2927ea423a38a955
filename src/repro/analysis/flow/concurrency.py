"""RG300: the concurrency & determinism abstract domain.

The second domain of the whole-program engine (after the RG100 RNG/
protocol family): it models the seams that
PR 9's event-driven async mode and the worker-resident process pool
opened — the simulated-time event heap, the evolving ``ServerMode`` /
backend state that checkpoints must carry, RNG draw-sites reachable
from schedule-dependent control flow, and ``shared_memory`` segment
lifecycles across the worker message protocol — and proves they cannot
produce seed-impure histories.

Rules
-----
* **RG301** — a class that participates in checkpointing (defines
  ``state_dict``) mutates an instance attribute in its round logic that
  neither ``state_dict`` reads nor ``load_state_dict`` restores: a
  resumed federation silently diverges from the uninterrupted one.
  (Extends RG104's payload-field check to the mode/backend seam.)
* **RG303** — an RNG stream drawn under control flow whose predicate is
  tainted by arrival/flush order (values that came off the event heap,
  a pipe ``recv``/``poll``, or a liveness probe): the *number* of draws
  consumed becomes a function of the schedule, desynchronizing the
  stream between runs.
* **RG304** — a ``shared_memory`` segment created but not provably
  ``close()``d **and** ``unlink()``ed (leak: the segment outlives the
  federation), cleaned up only on some paths (leak on the exception
  path), or whose buffer is read after ``unlink()``.
* **RG305** — a ``heapq.heappush`` entry without a total-order
  deterministic tie-break: two entries comparing equal (or raising on
  comparison, as dataclass payloads do) make pop order depend on heap
  internals instead of the key, so insertion order leaks into the
  schedule. Entries must carry a unique sequence element —
  ``(time, seq, kind, payload)`` in ``fl/modes.py``.

Unordered iteration into float reductions and heap pushes is RG105's
job: its dataflow tracks set-ness across assignments.

All four rules fire only on what they can *prove* from the AST (the
usual engine discipline: a silent pass is better than a noisy guess),
and only inside package round logic (:func:`.project.is_round_logic`)
— tests, benchmarks and examples legitimately shuffle schedules and
leak fixtures.

The dynamic half of this domain is the schedule sanitizer in
:mod:`repro.analysis.contracts` (``REPRO_CHECK_SCHEDULES=1``): it
re-runs a smoke federation under permuted worker placement, shuffled
result-return interleavings and adversarial heap orders and asserts
bit-identical history bytes — ground truth for what these rules claim
statically.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..lint import Finding
from .project import Project, is_round_logic

__all__ = [
    "CONCURRENCY_RULES",
    "CONCURRENCY_RULE_DESCRIPTIONS",
    "analyze_concurrency_project",
]

CONCURRENCY_RULE_DESCRIPTIONS = {
    "RG301": "mode/backend state mutated in round logic but missing from "
             "state_dict/load_state_dict",
    "RG303": "RNG stream drawn under control flow dependent on "
             "arrival/flush order",
    "RG304": "shared-memory segment without close+unlink on all paths, "
             "or read after unlink",
    "RG305": "heapq entry without a total-order deterministic tie-break key",
}
CONCURRENCY_RULES = frozenset(CONCURRENCY_RULE_DESCRIPTIONS)

# Methods whose call mutates their receiver in place (the root self-attr
# they hang off counts as mutated for RG301).
_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "discard", "remove", "pop",
    "popitem", "clear", "update", "setdefault", "appendleft", "popleft",
})
# heapq functions that mutate their first argument.
_HEAP_MUTATORS = frozenset({"heappush", "heappop", "heapify", "heapreplace",
                            "heappushpop"})

# RG301 never looks inside construction or the checkpoint protocol
# itself; everything else a stateful class does between rounds must
# round-trip through the checkpoint.
_RG301_EXEMPT_METHODS = frozenset({"__init__", "__post_init__",
                                   "state_dict", "load_state_dict"})

# RG303 taint sources: calls whose result ordering/content encodes the
# schedule (event-heap pops, pipe traffic, liveness probes).
_TAINT_CALL_ATTRS = frozenset({"heappop", "recv", "recv_bytes", "poll",
                               "is_alive"})

# RG303 draw sites: Generator/sampler methods that consume stream state.
_DRAW_METHODS = frozenset({
    "random", "integers", "choice", "normal", "standard_normal", "uniform",
    "shuffle", "permutation", "sample", "exponential", "poisson",
})
_DRAW_RECEIVERS = ("rng", "sampler", "random", "generator")

# RG305: identifiers that denote a monotone per-push sequence (the
# explicit tie-break contract `(time, seq, kind, payload)`).
_SEQ_MARKERS = ("seq", "tie", "counter", "serial")


def _self_attr_root(node: ast.AST) -> str | None:
    """``self.x``, ``self.x.y``, ``self.x[i]`` … -> ``"x"`` (else None)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        inner = node.value
        if (
            isinstance(node, ast.Attribute)
            and isinstance(inner, ast.Name)
            and inner.id == "self"
        ):
            return node.attr
        node = inner
    return None


def _assign_target_roots(target: ast.AST) -> list[str]:
    """Root self-attrs assigned by one (possibly destructuring) target."""
    if isinstance(target, (ast.Tuple, ast.List)):
        out: list[str] = []
        for elt in target.elts:
            out.extend(_assign_target_roots(elt))
        return out
    root = _self_attr_root(target)
    return [root] if root is not None else []


def _call_name(func: ast.AST) -> str | None:
    """Terminal identifier of a call target (``heapq.heappush`` -> that)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


# ---------------------------------------------------------------------------
# RG301 — checkpoint coverage of mutable mode/backend state
# ---------------------------------------------------------------------------


def _covered_attrs(cls: ast.ClassDef) -> set[str]:
    """Root self-attrs the checkpoint protocol touches.

    Anything ``state_dict`` reads *or* ``load_state_dict`` writes counts:
    a field serialized via a derived expression (``sorted(self._in_flight)``,
    ``self._rng.bit_generator.state``) still round-trips.
    """
    covered: set[str] = set()
    for item in cls.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if item.name not in ("state_dict", "load_state_dict"):
            continue
        for node in ast.walk(item):
            root = _self_attr_root(node)
            if root is not None:
                covered.add(root)
    return covered


def _method_mutations(func: ast.AST) -> list[tuple[str, int, int]]:
    """(attr, line, col) for every provable self-attr mutation in a method."""
    out: list[tuple[str, int, int]] = []
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                for root in _assign_target_roots(target):
                    out.append((root, node.lineno, node.col_offset))
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            for root in _assign_target_roots(node.target):
                out.append((root, node.lineno, node.col_offset))
        elif isinstance(node, ast.Call):
            name = _call_name(node.func)
            if name in _MUTATOR_METHODS and isinstance(node.func, ast.Attribute):
                root = _self_attr_root(node.func.value)
                if root is not None:
                    out.append((root, node.lineno, node.col_offset))
            elif name in _HEAP_MUTATORS and node.args:
                root = _self_attr_root(node.args[0])
                if root is not None:
                    out.append((root, node.lineno, node.col_offset))
    return out


def check_rg301(module_path: str, tree: ast.Module) -> list[Finding]:
    findings: list[Finding] = []
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        has_state_dict = any(
            isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and item.name == "state_dict"
            for item in cls.body
        )
        if not has_state_dict:
            continue
        covered = _covered_attrs(cls)
        seen: set[str] = set()
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name in _RG301_EXEMPT_METHODS:
                continue
            for attr, line, col in _method_mutations(item):
                if attr in covered or attr in seen:
                    continue
                seen.add(attr)
                findings.append(Finding(
                    "RG301", module_path, line, col,
                    f"'{cls.name}.{item.name}' mutates self.{attr} but "
                    f"'{cls.name}.state_dict' never checkpoints it — a "
                    f"resumed federation diverges from the straight run",
                ))
    return findings


# ---------------------------------------------------------------------------
# RG303 — RNG draws under schedule-tainted control flow
# ---------------------------------------------------------------------------


def _is_taint_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and _call_name(node.func) in _TAINT_CALL_ATTRS
    )


def _tainted_attrs(tree_cls: ast.AST) -> set[str]:
    """Self-attrs of a class that ever receive schedule-derived values.

    One class-level pass: an attribute assigned from (or mutated with) a
    value whose expression contains a taint-source call, or a value
    derived from a name bound to one, becomes a tainted attribute for
    every method of the class.
    """
    tainted: set[str] = set()
    for _ in range(2):
        for func in ast.walk(tree_cls):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            local = _tainted_locals(func, tainted)
            for node in ast.walk(func):
                if isinstance(node, ast.Assign):
                    if not _expr_tainted(node.value, local, tainted):
                        continue
                    for target in node.targets:
                        for root in _assign_target_roots(target):
                            tainted.add(root)
                elif isinstance(node, ast.Call):
                    name = _call_name(node.func)
                    if name not in _MUTATOR_METHODS or not node.args:
                        continue
                    if not isinstance(node.func, ast.Attribute):
                        continue
                    root = _self_attr_root(node.func.value)
                    if root is None:
                        continue
                    if any(
                        _expr_tainted(a, local, tainted) for a in node.args
                    ):
                        tainted.add(root)
    return tainted


def _expr_tainted(expr: ast.AST, local: set[str], attrs: set[str]) -> bool:
    for node in ast.walk(expr):
        if _is_taint_call(node):
            return True
        if isinstance(node, ast.Name) and node.id in local:
            return True
        root = _self_attr_root(node)
        if root is not None and root in attrs:
            return True
    return False


def _tainted_locals(func: ast.AST, attrs: set[str]) -> set[str]:
    """Function-local names carrying schedule taint (iterated to fixpoint)."""
    local: set[str] = set()
    for _ in range(3):
        grew = False
        for node in ast.walk(func):
            targets: list[ast.AST] = []
            value: ast.AST | None = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.For):
                targets, value = [node.target], node.iter
            if value is None or not _expr_tainted(value, local, attrs):
                continue
            for target in targets:
                stack = [target]
                while stack:
                    t = stack.pop()
                    if isinstance(t, (ast.Tuple, ast.List)):
                        stack.extend(t.elts)
                    elif isinstance(t, ast.Name) and t.id not in local:
                        local.add(t.id)
                        grew = True
        if not grew:
            break
    return local


def _is_draw(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
        return False
    if node.func.attr not in _DRAW_METHODS:
        return False
    receiver = node.func.value
    base = receiver.attr if isinstance(receiver, ast.Attribute) else (
        receiver.id if isinstance(receiver, ast.Name) else ""
    )
    base = base.lower()
    return any(marker in base for marker in _DRAW_RECEIVERS)


def _contains_exit(stmts: list[ast.stmt]) -> bool:
    for stmt in stmts:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Break, ast.Return)):
                return True
    return False


def _walk_rg303(
    stmts: list[ast.stmt],
    local: set[str],
    attrs: set[str],
    under_taint: bool,
    findings: list,
    module_path: str,
) -> None:
    for stmt in stmts:
        taint_here = under_taint
        inner_taint = under_taint
        if isinstance(stmt, (ast.If, ast.While)) and _expr_tainted(
            stmt.test, local, attrs
        ):
            inner_taint = True
        if isinstance(stmt, (ast.For, ast.While)):
            # A loop whose *exit* is guarded by a tainted predicate draws
            # a schedule-dependent number of times — same impurity as a
            # draw inside a tainted branch.
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.If)
                    and _expr_tainted(node.test, local, attrs)
                    and _contains_exit(node.body + node.orelse)
                ):
                    inner_taint = True
                    break
        if inner_taint and not taint_here:
            for node in ast.walk(stmt):
                if _is_draw(node):
                    findings.append(Finding(
                        "RG303", module_path, node.lineno, node.col_offset,
                        "RNG draw executes conditionally on arrival/flush "
                        "order: the stream position becomes a function of "
                        "the schedule, not the seed",
                    ))
            continue  # children already covered by the walk above
        for field_name in ("body", "orelse", "finalbody"):
            children = getattr(stmt, field_name, None)
            if children:
                _walk_rg303(
                    children, local, attrs, taint_here, findings, module_path
                )


def check_rg303(module_path: str, tree: ast.Module) -> list[Finding]:
    findings: list[Finding] = []
    containers: list[tuple[ast.AST, ast.AST | None]] = [(tree, None)]
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            containers.append((node, node))
    for container, cls in containers:
        attrs = _tainted_attrs(cls) if cls is not None else set()
        funcs = (
            [i for i in container.body
             if isinstance(i, (ast.FunctionDef, ast.AsyncFunctionDef))]
            if cls is not None
            else [i for i in tree.body
                  if isinstance(i, (ast.FunctionDef, ast.AsyncFunctionDef))]
        )
        for func in funcs:
            local = _tainted_locals(func, attrs)
            _walk_rg303(func.body, local, attrs, False, findings, module_path)
    return findings


# ---------------------------------------------------------------------------
# RG304 — shared-memory segment lifecycles
# ---------------------------------------------------------------------------


def _is_shm_create(expr: ast.AST) -> bool | None:
    """True: created segment. False: attached segment. None: not shm."""
    if not isinstance(expr, ast.Call) or _call_name(expr.func) != "SharedMemory":
        return None
    for kw in expr.keywords:
        if kw.arg == "create":
            return isinstance(kw.value, ast.Constant) and kw.value.value is True
    return False


def _under_if(node: ast.AST, parents: dict[int, ast.AST],
              stop: ast.AST) -> bool:
    """Whether ``node`` sits under an If (conditional path) below ``stop``."""
    cur = parents.get(id(node))
    while cur is not None and cur is not stop:
        if isinstance(cur, ast.If):
            return True
        cur = parents.get(id(cur))
    return False


def check_rg304(module_path: str, func: ast.AST) -> list[Finding]:
    findings: list[Finding] = []
    parents: dict[int, ast.AST] = {}
    for node in ast.walk(func):
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node

    for node in ast.walk(func):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue  # tuple-unpacked or attribute-stored: escapes tracking
        created = _is_shm_create(node.value)
        if created is None:
            continue
        name = target.id

        closes: list[ast.Call] = []
        unlinks: list[ast.Call] = []
        escapes = False
        buf_reads: list[ast.AST] = []
        for other in ast.walk(func):
            if isinstance(other, ast.Call):
                f = other.func
                if (
                    isinstance(f, ast.Attribute)
                    and isinstance(f.value, ast.Name)
                    and f.value.id == name
                ):
                    if f.attr == "close":
                        closes.append(other)
                    elif f.attr == "unlink":
                        unlinks.append(other)
                    continue
                if any(
                    isinstance(a, ast.Name) and a.id == name
                    for a in other.args
                ):
                    escapes = True  # handed to another owner
            elif isinstance(other, (ast.Return, ast.Yield, ast.YieldFrom)):
                value = getattr(other, "value", None)
                if value is not None and any(
                    isinstance(n, ast.Name) and n.id == name
                    for n in ast.walk(value)
                ):
                    escapes = True
            elif (
                isinstance(other, ast.Attribute)
                and other.attr == "buf"
                and isinstance(other.value, ast.Name)
                and other.value.id == name
            ):
                buf_reads.append(other)
        if escapes:
            continue  # ownership transferred; the new owner is audited there

        if created and not closes:
            findings.append(Finding(
                "RG304", module_path, node.lineno, node.col_offset,
                f"shared-memory segment '{name}' is created but never "
                f"close()d: the mapping leaks for the process lifetime",
            ))
            continue
        if created and not unlinks:
            findings.append(Finding(
                "RG304", module_path, node.lineno, node.col_offset,
                f"shared-memory segment '{name}' is created but never "
                f"unlink()ed: the segment outlives the federation",
            ))
            continue
        if not created and not closes:
            findings.append(Finding(
                "RG304", module_path, node.lineno, node.col_offset,
                f"attached shared-memory segment '{name}' is never "
                f"close()d by its reader",
            ))
            continue
        if created and any(
            _under_if(call, parents, func) for call in closes + unlinks
        ):
            findings.append(Finding(
                "RG304", module_path, node.lineno, node.col_offset,
                f"shared-memory segment '{name}' is cleaned up only on "
                f"some paths; move close()+unlink() into a finally block",
            ))
            continue
        if unlinks:
            first_unlink = min(c.lineno for c in unlinks)
            for read in buf_reads:
                if read.lineno > first_unlink:
                    findings.append(Finding(
                        "RG304", module_path, read.lineno, read.col_offset,
                        f"'{name}.buf' is read after unlink(): the backing "
                        f"segment may already be gone",
                    ))
    return findings


# ---------------------------------------------------------------------------
# RG305 — heap entries need a total-order tie-break
# ---------------------------------------------------------------------------


def _mentions_seq(expr: ast.AST) -> bool:
    for node in ast.walk(expr):
        ident = None
        if isinstance(node, ast.Name):
            ident = node.id
        elif isinstance(node, ast.Attribute):
            ident = node.attr
        elif isinstance(node, ast.Call) and _call_name(node.func) == "next":
            return True  # itertools.count() ticket
        if ident is not None and any(
            marker in ident.lower() for marker in _SEQ_MARKERS
        ):
            return True
    return False


def check_rg305(module_path: str, func: ast.AST) -> list[Finding]:
    findings: list[Finding] = []
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        if _call_name(node.func) not in ("heappush", "heappushpop"):
            continue
        if len(node.args) < 2:
            continue
        entry = node.args[1]
        if isinstance(entry, ast.Constant):
            continue  # a bare number is already totally ordered
        if isinstance(entry, ast.Tuple) and any(
            _mentions_seq(elt) for elt in entry.elts[1:]
        ):
            continue  # explicit (time, seq, ...) tie-break
        findings.append(Finding(
            "RG305", module_path, node.lineno, node.col_offset,
            "heap entry has no total-order tie-break: give it a unique "
            "sequence element — (time, seq, kind, payload) — so ties "
            "never fall through to payload comparison or heap layout",
        ))
    return findings


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def _module_functions(tree: ast.Module):
    """Every function in the module (top-level, methods, nested)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def analyze_concurrency_project(
    project: Project, rules: Iterable[str] | None = None
) -> list[Finding]:
    """Run the RG300 concurrency/determinism rules over a loaded project."""
    active = (
        CONCURRENCY_RULES if rules is None
        else {r.upper() for r in rules} & CONCURRENCY_RULES
    )
    if not active:
        return []

    findings: list[Finding] = []
    for module in project.modules.values():
        path = module.path
        if not is_round_logic(path):
            continue
        tree = module.tree
        if "RG301" in active:
            findings.extend(check_rg301(path, tree))
        if "RG303" in active:
            findings.extend(check_rg303(path, tree))
        for func in _module_functions(tree):
            if "RG304" in active:
                findings.extend(check_rg304(path, func))
            if "RG305" in active:
                findings.extend(check_rg305(path, func))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
