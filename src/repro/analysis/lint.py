"""Repo-specific AST lint rules for the FedGuard reproduction.

The rules encode invariants that generic linters cannot know about and
whose violation silently corrupts experiment results:

========  =============================================================
RG001     Legacy global NumPy RNG (``np.random.rand``/``seed``/...)
          instead of an explicit ``numpy.random.Generator``. Global-state
          randomness breaks the seeding discipline that makes federations
          reproducible and strategy comparisons controlled.
RG002     In-place mutation of aggregation inputs inside a
          ``defenses/*.aggregate`` method (augmented assignment, slice
          assignment, or a mutating call on the received client updates
          or the global weight vector). Aggregators must be pure: a
          mutated update corrupts every later strategy that sees it.
RG003     ``nn.Module`` subclass defining ``forward`` without ``backward``
          or vice versa. The framework has no autograd — an unpaired
          method means gradients silently stop or crash mid-federation.
RG004     Defense/attack class present in its module but missing from the
          module ``__all__`` or from the package registry
          (``defenses/__init__.py`` / ``attacks/__init__.py`` ``__all__``)
          — unregistered strategies silently drop out of benchmark
          matrices and registry-coverage tests.
RG005     float32/float16 dtype literals inside :mod:`repro.nn` hot paths.
          The framework is float64 end-to-end; a stray narrow dtype
          introduces silent precision cliffs in gradient accumulation.
RG006     Hand-rolled wire-byte arithmetic (``... * WIRE_BYTES_PER_PARAM``)
          outside :mod:`repro.fl.transport`. Byte accounting lives in one
          place — the transport layer — so Table V numbers cannot drift
          between call sites. Use ``transport.payload_nbytes`` /
          ``broadcast_nbytes`` / ``update_nbytes`` (or
          ``nn.serialization.vector_nbytes`` at the definition site).
RG007     Wall-clock reads (``time.time()``, ``datetime.now()``, ...)
          inside :mod:`repro.fl` round logic. Every round-level decision
          (drops, retries, straggler deadlines, backoff) must derive from
          *simulated* time and seeded RNG streams, or fault replay stops
          being deterministic. ``time.perf_counter``/``monotonic`` stay
          allowed — they only *measure* durations, they never decide.
RG206     Eager O(n_clients) enumeration (a ``range(n_clients)`` loop or
          comprehension, ``.spawn(n_clients)``, ``[...] * n_clients``)
          outside :mod:`repro.fl.population`. The lazy population keeps
          a round O(clients_per_round); any per-population construct
          silently brings back the O(n_clients) build.
========  =============================================================

Suppress a finding on its line with ``# repro: noqa[RGxxx]``; the
suppression is applied (and audited for staleness, RG100) by
:mod:`repro.analysis.reporting`, not here.
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "Finding",
    "ALL_RULES",
    "RULE_DESCRIPTIONS",
    "EXCLUDED_DIR_NAMES",
    "lint_paths",
    "lint_source",
]

# Directory names no static pass ever analyzes: test fixtures are
# *intentionally* buggy, caches and egg-info are not source. Shared with
# the flow analyzer (repro.analysis.flow.project).
EXCLUDED_DIR_NAMES = frozenset(
    {"fixtures", "__pycache__", ".git", ".repro-cache", "repro.egg-info", "out"}
)


@dataclass(frozen=True)
class Finding:
    """One lint violation."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.message}"


RULE_DESCRIPTIONS = {
    "RG001": "legacy global numpy RNG; use an explicit numpy.random.Generator",
    "RG002": "in-place mutation of aggregation inputs in a defense aggregate()",
    "RG003": "nn.Module subclass with unpaired forward/backward",
    "RG004": "defense/attack class missing from module __all__ or package registry",
    "RG005": "narrow float dtype (float32/float16) in nn/ hot path",
    "RG006": "wire-byte arithmetic outside repro.fl.transport",
    "RG007": "wall-clock read in fl/ round logic; use simulated time / seeded RNG",
    "RG206": "eager O(n_clients) enumeration (range(n_clients) loop/"
             "comprehension, .spawn(n_clients), or list * n_clients) outside "
             "the lazy population module",
}
ALL_RULES = frozenset(RULE_DESCRIPTIONS)

# np.random attributes that ARE the new-style API and therefore allowed.
_MODERN_RANDOM = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "MT19937",
    "Philox",
    "SFC64",
}

# Known roots of the defense/attack class hierarchies (RG003/RG004).
_STRATEGY_BASES = {"Strategy"}
_ATTACK_BASES = {"Attack", "ModelPoisoningAttack", "DataPoisoningAttack"}

# ndarray methods that mutate their receiver (RG002).
_MUTATING_METHODS = {"sort", "fill", "put", "resize", "partition", "setfield"}
# np.<ufunc>.at / np.copyto mutate their first argument (RG002).
_MUTATING_NP_CALLS = {"copyto", "place", "putmask"}

_ATTR_NAMES = ("weights", "decoder_weights", "data")


def _root_name(node: ast.AST) -> str | None:
    """Unwrap Attribute/Subscript/Starred chains down to the base Name."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _base_names(cls: ast.ClassDef) -> set[str]:
    names = set()
    for base in cls.bases:
        if isinstance(base, ast.Name):
            names.add(base.id)
        elif isinstance(base, ast.Attribute):
            names.add(base.attr)
    return names


def _module_all(tree: ast.Module) -> set[str] | None:
    """Names listed in the module's ``__all__`` (including appends), or None."""
    names: set[str] | None = None
    for node in ast.walk(tree):
        target = None
        if isinstance(node, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                target = node.value
        elif isinstance(node, ast.AugAssign):
            if isinstance(node.target, ast.Name) and node.target.id == "__all__":
                target = node.value
        elif isinstance(node, ast.Call):
            # __all__.append("name") / __all__.extend([...])
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "__all__"
                and func.attr in ("append", "extend")
            ):
                target = node.args[0] if node.args else None
        if target is None:
            continue
        if names is None:
            names = set()
        if isinstance(target, (ast.List, ast.Tuple, ast.Set)):
            for elt in target.elts:
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                    names.add(elt.value)
        elif isinstance(target, ast.Constant) and isinstance(target.value, str):
            names.add(target.value)
    return names


# ---------------------------------------------------------------------------
# RG001 — legacy global RNG
# ---------------------------------------------------------------------------


def _check_rg001(tree: ast.Module, path: str) -> list[Finding]:
    findings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            value = node.value
            if (
                isinstance(value, ast.Attribute)
                and value.attr == "random"
                and isinstance(value.value, ast.Name)
                and value.value.id in ("np", "numpy")
                and node.attr not in _MODERN_RANDOM
            ):
                findings.append(
                    Finding(
                        "RG001",
                        path,
                        node.lineno,
                        node.col_offset,
                        f"legacy global RNG `np.random.{node.attr}`; pass an "
                        f"explicit numpy.random.Generator instead",
                    )
                )
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
            for alias in node.names:
                if alias.name not in _MODERN_RANDOM:
                    findings.append(
                        Finding(
                            "RG001",
                            path,
                            node.lineno,
                            node.col_offset,
                            f"legacy import `from numpy.random import {alias.name}`; "
                            f"pass an explicit numpy.random.Generator instead",
                        )
                    )
    return findings


# ---------------------------------------------------------------------------
# RG002 — in-place mutation inside defense aggregate()
# ---------------------------------------------------------------------------


class _AggregateMutationChecker:
    """Track names aliasing the aggregation inputs and flag mutations."""

    def __init__(self, func: ast.FunctionDef, path: str) -> None:
        self.path = path
        self.findings: list[Finding] = []
        args = func.args
        all_args = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        # The arrays an aggregator receives and must not mutate. context /
        # round_idx carry no client parameters.
        self.protected = {
            a for a in all_args if a not in ("self", "cls", "round_idx", "context")
        }
        # Loop variables bound over the updates list (ClientUpdate objects):
        # mutating `u.weights` through them mutates caller memory.
        self.tainted: set[str] = set()
        # Names assigned directly from protected memory without a copy
        # (e.g. ``vec = u.weights``): mutating them mutates caller memory.
        self.aliases: set[str] = set()
        self.func = func

    # -- taint propagation ------------------------------------------------
    def _all_suspect(self) -> set[str]:
        return self.protected | self.tainted | self.aliases

    def _mentions_protected(self, node: ast.AST) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in self._all_suspect():
                return True
        return False

    def _taint_target(self, target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            self.tainted.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._taint_target(elt)

    def _is_alias_expr(self, value: ast.AST) -> bool:
        """Expressions whose result aliases protected memory (no copy)."""
        if isinstance(value, ast.Name):
            return value.id in self.protected | self.aliases
        if isinstance(value, (ast.Attribute, ast.Subscript)):
            root = _root_name(value)
            if root is None:
                return False
            if root in self.protected or root in self.aliases:
                return True
            # u.weights / u.decoder_weights where u iterates over updates
            return root in self.tainted and any(
                isinstance(sub, ast.Attribute) and sub.attr in _ATTR_NAMES
                for sub in ast.walk(value)
            )
        return False

    # -- mutation detection ----------------------------------------------
    def _is_protected_store(self, target: ast.AST) -> bool:
        """True when storing through ``target`` writes protected memory."""
        root = _root_name(target)
        if root is None:
            return False
        if isinstance(target, ast.Name):
            # Rebinding a bare protected *name* (e.g. ``updates = [...]``)
            # does not mutate caller memory; only element/attribute stores do.
            return False
        if root in self.protected or root in self.aliases:
            return True
        if root in self.tainted:
            # Stores through update objects only matter when they hit the
            # carried arrays (u.weights[...] = , u.decoder_weights += ...).
            return any(
                isinstance(sub, ast.Attribute) and sub.attr in _ATTR_NAMES
                for sub in ast.walk(target)
            )
        return False

    def _flag(self, node: ast.AST, what: str) -> None:
        self.findings.append(
            Finding(
                "RG002",
                self.path,
                node.lineno,
                node.col_offset,
                f"{what} mutates an aggregation input in place; aggregators "
                f"must be pure (operate on copies)",
            )
        )

    def run(self) -> list[Finding]:
        for node in ast.walk(self.func):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if self._mentions_protected(node.iter):
                    self._taint_target(node.target)
            elif isinstance(node, ast.comprehension):
                if self._mentions_protected(node.iter):
                    self._taint_target(node.target)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and self._is_alias_expr(node.value):
                        self.aliases.add(target.id)
                    if self._is_protected_store(target):
                        self._flag(target, "assignment")
            elif isinstance(node, ast.AugAssign):
                if self._is_protected_store(node.target) or (
                    isinstance(node.target, ast.Name)
                    and node.target.id in self.protected | self.aliases
                ):
                    self._flag(node, "augmented assignment")
            elif isinstance(node, ast.Call):
                self._check_call(node)
        return self.findings

    def _check_call(self, node: ast.Call) -> None:
        func = node.func
        # any ufunc-style call writing through out=<protected array>
        for kw in node.keywords:
            if kw.arg == "out" and (
                self._is_alias_expr(kw.value)
                or (_root_name(kw.value) or "") in self.protected | self.aliases
            ):
                self._flag(node, "call with out= targeting")
        # u.weights.sort(), global_weights.fill(0), ...
        if isinstance(func, ast.Attribute) and func.attr in _MUTATING_METHODS:
            if self._is_protected_store(func.value) or (
                isinstance(func.value, ast.Name)
                and func.value.id in self.protected | self.aliases
            ):
                self._flag(node, f"call to .{func.attr}()")
        # np.add.at(x, ...), np.copyto(x, ...), np.fill_diagonal(x, ...)
        if isinstance(func, ast.Attribute) and node.args:
            first_root = _root_name(node.args[0])
            hits_protected = (
                first_root in self.protected
                or first_root in self.aliases
                or (
                    first_root in self.tainted
                    and any(
                        isinstance(sub, ast.Attribute) and sub.attr in _ATTR_NAMES
                        for sub in ast.walk(node.args[0])
                    )
                )
            )
            if not hits_protected:
                return
            if func.attr in ("at",) or func.attr in _MUTATING_NP_CALLS or (
                func.attr == "fill_diagonal"
            ):
                self._flag(node, f"call to np.{func.attr}")


def _check_rg002(tree: ast.Module, path: str) -> list[Finding]:
    findings = []
    in_defenses = "defenses" in pathlib.PurePath(path).parts
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        is_strategy = bool(_base_names(node) & _STRATEGY_BASES)
        if not (in_defenses or is_strategy):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and item.name == "aggregate":
                findings.extend(_AggregateMutationChecker(item, path).run())
    return findings


# ---------------------------------------------------------------------------
# RG003 — unpaired forward/backward on Module subclasses
# ---------------------------------------------------------------------------


def _check_rg003(tree: ast.Module, path: str) -> list[Finding]:
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if "Module" not in _base_names(node):
            continue
        methods = {
            item.name for item in node.body if isinstance(item, ast.FunctionDef)
        }
        has_fwd, has_bwd = "forward" in methods, "backward" in methods
        if has_fwd != has_bwd:
            present, missing = ("forward", "backward") if has_fwd else ("backward", "forward")
            findings.append(
                Finding(
                    "RG003",
                    path,
                    node.lineno,
                    node.col_offset,
                    f"Module subclass {node.name!r} defines {present} but not "
                    f"{missing}; the framework has no autograd, so both halves "
                    f"must be written (and gradchecked) together",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# RG004 — unregistered defense/attack classes
# ---------------------------------------------------------------------------


def _registry_classes(tree: ast.Module, bases: set[str]) -> list[ast.ClassDef]:
    out = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.ClassDef)
            and not node.name.startswith("_")
            and (_base_names(node) & bases or any(b.endswith("Attack") for b in _base_names(node)))
        ):
            out.append(node)
    return out


def _check_rg004(
    tree: ast.Module, path: str, package_all: dict[str, set[str] | None]
) -> list[Finding]:
    parts = pathlib.PurePath(path).parts
    if "defenses" in parts:
        bases, package = _STRATEGY_BASES, "defenses"
    elif "attacks" in parts:
        bases, package = _ATTACK_BASES, "attacks"
    else:
        return []
    if pathlib.PurePath(path).name == "__init__.py":
        return []

    findings = []
    module_all = _module_all(tree)
    pkg_all = package_all.get(package)
    for cls in _registry_classes(tree, bases):
        if module_all is not None and cls.name not in module_all:
            findings.append(
                Finding(
                    "RG004",
                    path,
                    cls.lineno,
                    cls.col_offset,
                    f"{cls.name!r} subclasses a registered {package[:-1]} base "
                    f"but is missing from the module __all__",
                )
            )
        elif pkg_all is not None and cls.name not in pkg_all:
            findings.append(
                Finding(
                    "RG004",
                    path,
                    cls.lineno,
                    cls.col_offset,
                    f"{cls.name!r} is exported by its module but missing from "
                    f"the {package} package registry (__init__ __all__)",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# RG005 — narrow float dtypes in nn/
# ---------------------------------------------------------------------------

_NARROW_FLOATS = {"float32", "float16", "single", "half"}


def _check_rg005(tree: ast.Module, path: str) -> list[Finding]:
    if "nn" not in pathlib.PurePath(path).parts:
        return []
    findings = []
    for node in ast.walk(tree):
        hit = None
        if (
            isinstance(node, ast.Attribute)
            and node.attr in _NARROW_FLOATS
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            hit = f"np.{node.attr}"
        elif isinstance(node, ast.keyword) and node.arg == "dtype":
            v = node.value
            if isinstance(v, ast.Constant) and v.value in _NARROW_FLOATS:
                hit = f'dtype="{v.value}"'
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "astype"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value in _NARROW_FLOATS
        ):
            hit = f'astype("{node.args[0].value}")'
        if hit is not None:
            findings.append(
                Finding(
                    "RG005",
                    path,
                    node.lineno,
                    node.col_offset,
                    f"narrow float dtype {hit} in an nn/ hot path; the "
                    f"framework is float64 end-to-end (convert only at the "
                    f"serialization boundary)",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# RG006 — wire-byte arithmetic outside the transport layer
# ---------------------------------------------------------------------------

_WIRE_CONSTANT = "WIRE_BYTES_PER_PARAM"


def _names_wire_constant(node: ast.AST) -> bool:
    return (isinstance(node, ast.Name) and node.id == _WIRE_CONSTANT) or (
        isinstance(node, ast.Attribute) and node.attr == _WIRE_CONSTANT
    )


def _check_rg006(tree: ast.Module, path: str) -> list[Finding]:
    parts = pathlib.PurePath(path).parts
    # The transport layer owns byte accounting; it may do the arithmetic.
    if pathlib.PurePath(path).name == "transport.py" and "fl" in parts:
        return []
    findings = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
            continue
        if _names_wire_constant(node.left) or _names_wire_constant(node.right):
            findings.append(
                Finding(
                    "RG006",
                    path,
                    node.lineno,
                    node.col_offset,
                    "hand-rolled wire-byte arithmetic (`* WIRE_BYTES_PER_PARAM`); "
                    "byte accounting belongs to repro.fl.transport "
                    "(payload_nbytes / broadcast_nbytes / update_nbytes)",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# RG007 — wall-clock reads in fl/ round logic
# ---------------------------------------------------------------------------

# time.<attr> calls that read the wall clock. perf_counter / monotonic /
# process_time are measurement-only (they feed duration metrics, never
# decisions) and stay allowed.
_WALL_CLOCK_TIME_ATTRS = {
    "time", "time_ns", "ctime", "localtime", "gmtime", "strftime",
    "asctime", "mktime",
}
# datetime.<attr>() / date.<attr>() constructors that read the wall clock.
_WALL_CLOCK_DATETIME_ATTRS = {"now", "utcnow", "today", "fromtimestamp"}


def _check_rg007(tree: ast.Module, path: str) -> list[Finding]:
    if "fl" not in pathlib.PurePath(path).parts:
        return []
    findings = []

    def flag(node: ast.AST, what: str) -> None:
        findings.append(
            Finding(
                "RG007",
                path,
                node.lineno,
                node.col_offset,
                f"wall-clock read `{what}` in fl/ round logic; fault "
                f"injection and recovery must replay deterministically — "
                f"derive decisions from simulated latencies and seeded RNG "
                f"streams (perf_counter/monotonic are fine for measuring)",
            )
        )

    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            base = func.value
            if (
                isinstance(base, ast.Name)
                and base.id == "time"
                and func.attr in _WALL_CLOCK_TIME_ATTRS
            ):
                flag(node, f"time.{func.attr}()")
            elif (
                isinstance(base, ast.Name)
                and base.id in ("datetime", "date")
                and func.attr in _WALL_CLOCK_DATETIME_ATTRS
            ):
                flag(node, f"{base.id}.{func.attr}()")
            elif (
                isinstance(base, ast.Attribute)
                and base.attr in ("datetime", "date")
                and func.attr in _WALL_CLOCK_DATETIME_ATTRS
            ):
                flag(node, f"{base.attr}.{func.attr}()")
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name in _WALL_CLOCK_TIME_ATTRS:
                    flag(node, f"from time import {alias.name}")
    return findings


# ---------------------------------------------------------------------------
# RG206 — eager O(n_clients) enumeration outside the lazy population
# ---------------------------------------------------------------------------


def _mentions_n_clients(node: ast.AST) -> bool:
    return any(
        (isinstance(sub, ast.Name) and sub.id == "n_clients")
        or (isinstance(sub, ast.Attribute) and sub.attr == "n_clients")
        for sub in ast.walk(node)
    )


def _is_range_n_clients(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "range"
        and any(_mentions_n_clients(arg) for arg in node.args)
    )


def _check_rg206(tree: ast.Module, path: str) -> list[Finding]:
    """Findings sit on the ``range``/``spawn`` expression itself (for a
    multi-line comprehension, its ``for ... in range(...)`` line) so a
    suppression sits next to the clause it justifies."""
    pure = pathlib.PurePath(path)
    # The lazy population is the one module allowed to reason about the
    # full client index space (it does so per index, on demand).
    if pure.name == "population.py" and "fl" in pure.parts:
        return []
    findings = []

    def flag(node: ast.AST, message: str) -> None:
        findings.append(
            Finding("RG206", path, node.lineno, node.col_offset, message)
        )

    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            if _is_range_n_clients(node.iter):
                flag(node.iter,
                     "eager `for ... in range(n_clients)` loop: iterate "
                     "sampled clients only, or derive per-index state "
                     "lazily via repro.fl.population")
        elif isinstance(node, ast.comprehension):
            if _is_range_n_clients(node.iter):
                flag(node.iter,
                     "eager comprehension over range(n_clients) "
                     "materializes O(n_clients) objects; derive per-index "
                     "state lazily via repro.fl.population")
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "spawn"
                and node.args
                and _mentions_n_clients(node.args[0])
            ):
                flag(node,
                     ".spawn(n_clients) materializes O(n_clients) RNG "
                     "children; derive index-keyed children lazily "
                     "(SeedParent in repro.fl.population)")
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            if (
                isinstance(node.left, ast.List)
                and _mentions_n_clients(node.right)
            ) or (
                isinstance(node.right, ast.List)
                and _mentions_n_clients(node.left)
            ):
                flag(node,
                     "`[...] * n_clients` allocates an O(n_clients) list; "
                     "keep per-client state sparse/packed "
                     "(repro.fl.population)")
    return findings


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def lint_source(
    source: str,
    path: str,
    rules: Iterable[str] | None = None,
    package_all: dict[str, set[str] | None] | None = None,
) -> list[Finding]:
    """Lint one module's source text. ``path`` scopes path-sensitive rules."""
    active = ALL_RULES if rules is None else {r.upper() for r in rules}
    unknown = active - ALL_RULES
    if unknown:
        raise ValueError(f"unknown rules: {sorted(unknown)}; known: {sorted(ALL_RULES)}")
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding("RG000", path, exc.lineno or 1, (exc.offset or 1) - 1,
                    f"syntax error: {exc.msg}")
        ]

    package_all = package_all or {}
    findings: list[Finding] = []
    if "RG001" in active:
        findings.extend(_check_rg001(tree, path))
    if "RG002" in active:
        findings.extend(_check_rg002(tree, path))
    if "RG003" in active:
        findings.extend(_check_rg003(tree, path))
    if "RG004" in active:
        findings.extend(_check_rg004(tree, path, package_all))
    if "RG005" in active:
        findings.extend(_check_rg005(tree, path))
    if "RG006" in active:
        findings.extend(_check_rg006(tree, path))
    if "RG007" in active:
        findings.extend(_check_rg007(tree, path))
    if "RG206" in active:
        findings.extend(_check_rg206(tree, path))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def _collect_files(paths: Sequence[pathlib.Path]) -> list[pathlib.Path]:
    files: list[pathlib.Path] = []
    for p in paths:
        if p.is_dir():
            files.extend(
                f for f in sorted(p.rglob("*.py"))
                if EXCLUDED_DIR_NAMES.isdisjoint(f.parts)
            )
        elif p.suffix == ".py":
            files.append(p)
    return files


def _package_registries(files: list[pathlib.Path]) -> dict[str, set[str] | None]:
    """Parse the defenses/attacks package ``__all__`` registries.

    Looks next to the linted files so single-file lints still see the
    package registry on disk.
    """
    registries: dict[str, set[str] | None] = {}
    for f in files:
        for package in ("defenses", "attacks"):
            if package in f.parts and package not in registries:
                init = f.parent
                while init.name != package:
                    init = init.parent
                init = init / "__init__.py"
                if init.is_file():
                    try:
                        registries[package] = _module_all(ast.parse(init.read_text()))
                    except SyntaxError:
                        registries[package] = None
                else:
                    registries[package] = None
    return registries


def lint_paths(
    paths: Sequence[pathlib.Path | str],
    rules: Iterable[str] | None = None,
) -> list[Finding]:
    """Lint every ``.py`` file under ``paths`` (files or directories)."""
    files = _collect_files([pathlib.Path(p) for p in paths])
    package_all = _package_registries(files)
    findings: list[Finding] = []
    for f in files:
        findings.extend(
            lint_source(f.read_text(), str(f), rules=rules, package_all=package_all)
        )
    return findings
