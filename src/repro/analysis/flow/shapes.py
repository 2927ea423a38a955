"""Array shape/dtype/layout abstract interpretation: the RG200 family.

This module is a second dataflow domain plugged into the flow framework
(same :mod:`.project` model, same :mod:`.cfg` CFGs, same interprocedural
summary rounds as :mod:`.dataflow`/:mod:`.engine`), tracking *array
semantics* instead of RNG provenance:

* **shape** — a tuple of :class:`Dim` lattice elements (concrete int,
  symbolic name, or ⊤). Joins of unequal dims widen to ⊤, so loops
  terminate; rules only ever fire on *concrete* incompatibilities.
* **dtype** — :class:`DType` ({⊥, f32, f64, i64, bool, ⊤}). The repo
  invariant is float64 end-to-end compute (lint RG005 bans narrow
  dtypes in ``nn/``); RG202 guards the complementary failure mode:
  *implicit* dtypes and silent f32⊕f64 widening.
* **client axis** — :class:`Batch` ({unknown, carries, dropped, ⊤}):
  whether a value still carries the leading per-client axis a
  :func:`~repro.analysis.contracts.client_batched` function received.
  Transfer functions only move to ``DROPPED`` when it is *provable*
  (axis-0 reduction, flatten, integer-index of axis 0, leading-axis
  transpose); anything opaque stays ``UNKNOWN`` and never flags.

Rules
-----
* **RG201** — statically incompatible matmul inner dims, broadcast
  pairs, or concatenate non-axis dims. Fires only when both sides are
  concrete integers.
* **RG202** — hot-path allocation (``np.zeros/ones/empty/full``)
  without an explicit ``dtype``, or arithmetic mixing f32 and f64
  operands (silent widening doubles memory traffic mid-pipeline).
* **RG203** — hidden copies in hot paths: an inline ``.copy()`` inside
  a per-client loop, a loop-invariant builtin rebuilt per element
  (``set(accepted)`` inside a comprehension over updates), or a
  fancy-index gather feeding matmul directly.
* **RG204** — a Python-level ``for`` over a sampled-client collection
  in ``defenses/``/``fl/`` round logic. This is the migration tracker
  for the batched multi-client engine (ROADMAP item 2): every hit is
  either vectorized or carries an audited ``# repro: noqa[RG204]``.
* **RG205** — a ``@client_batched`` function returns a value whose
  leading client axis was provably dropped.

The runtime complement lives in :mod:`repro.analysis.contracts`: with
``REPRO_RECORD_SHAPES=1`` every ``@client_batched`` call site records
observed shapes/dtypes, and :func:`~repro.analysis.contracts.shape_oracle_report`
checks the same two invariants (leading axis preserved, no float
widening) against ground truth.
"""

from __future__ import annotations

import ast
import enum
from dataclasses import dataclass, field
from typing import Iterable

from ..lint import Finding
from .cfg import build_cfg
from .project import ModuleInfo, Project

__all__ = [
    "SHAPE_RULES",
    "SHAPE_RULE_DESCRIPTIONS",
    "Dim",
    "DType",
    "Batch",
    "ArrayVal",
    "analyze_shapes_project",
]

SHAPE_RULE_DESCRIPTIONS = {
    "RG201": "statically incompatible matmul/broadcast/concatenate shapes",
    "RG202": "silent dtype drift: un-dtyped hot-path allocation or mixed "
             "float32/float64 arithmetic",
    "RG203": "hidden copy in a hot path (inline .copy() per client, "
             "loop-invariant rebuild, fancy-index gather into matmul)",
    "RG204": "Python-level loop over a client collection in round logic "
             "(batched-engine migration tracker)",
    "RG205": "@client_batched function provably drops the leading client axis",
    "RG206": "eager O(n_clients) enumeration (range(n_clients) loop/"
             "comprehension, .spawn(n_clients), or list * n_clients) outside "
             "the lazy population module",
}
SHAPE_RULES = frozenset(SHAPE_RULE_DESCRIPTIONS)

MAX_ROUNDS = 8

# Path scoping. The engine analyzes src + tests + benchmarks + examples
# as one program; the hot-path rules only make sense inside the package
# itself (tests legitimately loop over clients and build small arrays).
_EXCLUDED_TREES = frozenset({"tests", "benchmarks", "examples"})
_HOT_DIRS = frozenset({"nn", "defenses", "fl"})
_RG204_DIRS = frozenset({"defenses", "fl"})

# Names that denote per-client collections in this codebase (sampled
# updates/clients in server and backend round logic).
_CLIENT_COLLECTIONS = frozenset({
    "updates", "clients", "sources", "accepted", "selected",
    "client_updates", "malicious_updates",
})

_ALLOCATORS = {"zeros": 1, "ones": 1, "empty": 1, "full": 2}  # dtype arg pos
_ARRAY_LIKE = frozenset({"zeros_like", "ones_like", "empty_like", "full_like"})
_REDUCTIONS = frozenset({
    "sum", "mean", "max", "min", "prod", "std", "var", "median",
    "all", "any", "argmax", "argmin",
})
_ELEMENTWISE = frozenset({
    "exp", "log", "log1p", "expm1", "sqrt", "abs", "absolute", "sign",
    "square", "maximum", "minimum", "clip", "tanh", "power", "where",
    "isfinite", "isnan", "nan_to_num",
})
_HOIST_BUILTINS = frozenset({"set", "frozenset", "sorted", "dict", "tuple"})


def _in_dirs(path: str, dirs: frozenset) -> bool:
    import pathlib

    return not dirs.isdisjoint(pathlib.PurePath(path).parts)


def _rule_in_scope(rule: str, path: str) -> bool:
    if _in_dirs(path, _EXCLUDED_TREES):
        return False
    if rule == "RG202" or rule == "RG203":
        return _in_dirs(path, _HOT_DIRS)
    if rule == "RG204":
        return _in_dirs(path, _RG204_DIRS)
    if rule == "RG206":
        # The virtual population is the one place allowed to reason about
        # the full client index space (it does so lazily, per index).
        import pathlib

        return pathlib.PurePath(path).name != "population.py"
    return True  # RG201 / RG205: everywhere in the package


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dim:
    """One array dimension: concrete int, symbolic name, or ⊤ (both None)."""

    value: int | None = None
    sym: str | None = None

    TOP: "Dim" = None  # type: ignore[assignment]

    def join(self, other: "Dim") -> "Dim":
        return self if self == other else Dim.TOP

    @property
    def is_top(self) -> bool:
        return self.value is None and self.sym is None

    @property
    def concrete(self) -> bool:
        return self.value is not None and self.value >= 0

    def __str__(self) -> str:
        if self.value is not None:
            return str(self.value)
        return self.sym if self.sym is not None else "?"


Dim.TOP = Dim()


class DType(enum.IntEnum):
    UNKNOWN = 0  # bottom
    F32 = 1
    F64 = 2
    I64 = 3
    BOOL = 4
    TOP = 5

    def join(self, other: "DType") -> "DType":
        if self == other:
            return self
        if self == DType.UNKNOWN:
            return other
        if other == DType.UNKNOWN:
            return self
        return DType.TOP


class Batch(enum.IntEnum):
    """Leading-client-axis state of a value in a batched function."""

    UNKNOWN = 0  # bottom
    CARRIES = 1
    DROPPED = 2
    TOP = 3

    def join(self, other: "Batch") -> "Batch":
        if self == other:
            return self
        if self == Batch.UNKNOWN:
            return other
        if other == Batch.UNKNOWN:
            return self
        return Batch.TOP


@dataclass(frozen=True)
class ArrayVal:
    """Abstract value: array-ness, shape, dtype, client-axis state."""

    kind: str = ""  # "array" | ""
    shape: tuple[Dim, ...] | None = None  # None = unknown rank
    dtype: DType = DType.UNKNOWN
    batch: Batch = Batch.UNKNOWN

    BOTTOM: "ArrayVal" = None  # type: ignore[assignment]

    def join(self, other: "ArrayVal") -> "ArrayVal":
        if self == other:
            return self
        kind = self.kind if self.kind == other.kind else (self.kind or other.kind)
        if (
            self.shape is not None
            and other.shape is not None
            and len(self.shape) == len(other.shape)
        ):
            shape = tuple(a.join(b) for a, b in zip(self.shape, other.shape))
        elif self == ArrayVal.BOTTOM:
            shape = other.shape
        elif other == ArrayVal.BOTTOM:
            shape = self.shape
        else:
            shape = None
        return ArrayVal(
            kind=kind,
            shape=shape,
            dtype=self.dtype.join(other.dtype),
            batch=self.batch.join(other.batch),
        )

    @property
    def is_array(self) -> bool:
        return self.kind == "array"


ArrayVal.BOTTOM = ArrayVal()

ShapeEnv = dict[str, ArrayVal]


def join_envs(a: ShapeEnv, b: ShapeEnv) -> ShapeEnv:
    out = dict(a)
    for name, val in b.items():
        prev = out.get(name)
        out[name] = val if prev is None else prev.join(val)
    return out


def _fmt_shape(shape: tuple[Dim, ...] | None) -> str:
    if shape is None:
        return "(?)"
    return "(" + ", ".join(str(d) for d in shape) + ")"


def _broadcast(
    a: tuple[Dim, ...], b: tuple[Dim, ...]
) -> tuple[tuple[Dim, ...], bool]:
    """NumPy broadcast of two known-rank shapes; ok=False on a provable
    mismatch (both dims concrete, unequal, neither 1)."""
    out: list[Dim] = []
    ok = True
    for i in range(1, max(len(a), len(b)) + 1):
        da = a[-i] if i <= len(a) else Dim(1)
        db = b[-i] if i <= len(b) else Dim(1)
        if da.value == 1:
            out.append(db)
        elif db.value == 1:
            out.append(da)
        elif da == db:
            out.append(da)
        elif da.concrete and db.concrete:
            ok = False
            out.append(Dim.TOP)
        else:
            out.append(da.join(db))
    return tuple(reversed(out)), ok


# ---------------------------------------------------------------------------
# facts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShapeIssue:
    """One candidate finding recorded during evaluation."""

    rule: str
    line: int
    col: int
    message: str


@dataclass(frozen=True)
class ShapeCallFact:
    """A resolved call site with the abstract values of its arguments."""

    resolved: object  # Resolved | None
    args: tuple  # tuple[(int | str, ArrayVal)]


_DTYPE_NAMES = {
    "float64": DType.F64, "double": DType.F64, "float": DType.F64,
    "float32": DType.F32, "single": DType.F32,
    "int64": DType.I64, "int32": DType.I64, "int": DType.I64,
    "intp": DType.I64, "int_": DType.I64,
    "bool_": DType.BOOL, "bool": DType.BOOL,
}


def _dtype_of_node(node: ast.AST | None) -> DType:
    """Abstract dtype of an explicit ``dtype=...`` expression. Explicit
    but unrecognized (a variable, a custom dtype) is ⊤, never flagged."""
    if node is None:
        return DType.UNKNOWN
    if isinstance(node, ast.Attribute):
        return _DTYPE_NAMES.get(node.attr, DType.TOP)
    if isinstance(node, ast.Name):
        return _DTYPE_NAMES.get(node.id, DType.TOP)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return _DTYPE_NAMES.get(node.value, DType.TOP)
    return DType.TOP


def _kwarg(node: ast.Call, name: str) -> ast.AST | None:
    for kw in node.keywords:
        if kw.arg == name:
            return kw.value
    return None


def _shape_of_leading(node: ast.AST) -> str | None:
    """``x.shape[0]`` → "x" (the array whose leading dim is referenced)."""
    if (
        isinstance(node, ast.Subscript)
        and isinstance(node.slice, ast.Constant)
        and node.slice.value == 0
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "shape"
        and isinstance(node.value.value, ast.Name)
    ):
        return node.value.value.id
    return None


def _const_axis(node: ast.AST | None):
    """axis argument → int, tuple of ints, or None (unknown/absent)."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _const_axis(node.operand)
        return -inner if isinstance(inner, int) else None
    if isinstance(node, (ast.Tuple, ast.List)):
        elts = [_const_axis(e) for e in node.elts]
        if all(isinstance(e, int) for e in elts):
            return tuple(elts)
    return None


# ---------------------------------------------------------------------------
# evaluator
# ---------------------------------------------------------------------------


class ShapeEvaluator:
    """Evaluates expressions to :class:`ArrayVal`, recording issues."""

    def __init__(
        self,
        project: Project,
        module: ModuleInfo,
        collect: bool = False,
        return_summaries: dict[str, ArrayVal] | None = None,
    ) -> None:
        self.project = project
        self.module = module
        self.collect = collect
        self.return_summaries = return_summaries or {}
        self.issues: list[ShapeIssue] = []
        self.calls: list[ShapeCallFact] = []

    def _issue(self, rule: str, node: ast.AST, message: str) -> None:
        if self.collect:
            self.issues.append(
                ShapeIssue(rule, node.lineno, node.col_offset, message)
            )

    # -- shape-argument parsing ---------------------------------------------
    def _parse_dim(self, node: ast.AST, env: ShapeEnv) -> Dim:
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return Dim(value=node.value)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            inner = self._parse_dim(node.operand, env)
            if inner.value is not None:
                return Dim(value=-inner.value)
            return Dim.TOP
        if isinstance(node, ast.Name):
            return Dim(sym=node.id)
        leading_of = _shape_of_leading(node)
        if leading_of is not None:
            base = env.get(leading_of, ArrayVal.BOTTOM)
            if base.shape:
                return base.shape[0]
            return Dim(sym=f"{leading_of}.shape[0]")
        return Dim.TOP

    def _parse_shape(
        self, node: ast.AST, env: ShapeEnv
    ) -> tuple[tuple[Dim, ...] | None, Batch]:
        """A shape expression → (dims, batch-state of the leading dim).

        The batch state is ``CARRIES`` when the leading dim is written as
        ``x.shape[0]`` of a value that itself carries the client axis —
        the ``out = np.zeros((x.shape[0], k))`` idiom stays batched.
        """
        elts: list[ast.AST]
        if isinstance(node, (ast.Tuple, ast.List)):
            elts = list(node.elts)
        else:
            elts = [node]
        dims = tuple(self._parse_dim(e, env) for e in elts)
        batch = Batch.UNKNOWN
        lead = _shape_of_leading(elts[0]) if elts else None
        if lead is not None and env.get(lead, ArrayVal.BOTTOM).batch == Batch.CARRIES:
            batch = Batch.CARRIES
        return dims, batch

    # -- evaluation ---------------------------------------------------------
    def eval(self, node: ast.AST, env: ShapeEnv) -> ArrayVal:
        method = getattr(self, f"_eval_{type(node).__name__}", None)
        if method is not None:
            return method(node, env)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.eval(child, env)
        return ArrayVal.BOTTOM

    def _eval_Name(self, node: ast.Name, env: ShapeEnv) -> ArrayVal:
        return env.get(node.id, ArrayVal.BOTTOM)

    def _eval_Constant(self, node: ast.Constant, env: ShapeEnv) -> ArrayVal:
        return ArrayVal.BOTTOM

    def _eval_Attribute(self, node: ast.Attribute, env: ShapeEnv) -> ArrayVal:
        if isinstance(node.value, ast.Name):
            pseudo = f"{node.value.id}.{node.attr}"
            if pseudo in env:
                return env[pseudo]
        base = self.eval(node.value, env)
        if node.attr == "T":
            return self._transpose(base, perm=None)
        return ArrayVal.BOTTOM

    def _eval_IfExp(self, node: ast.IfExp, env: ShapeEnv) -> ArrayVal:
        self.eval(node.test, env)
        return self.eval(node.body, env).join(self.eval(node.orelse, env))

    def _eval_BoolOp(self, node: ast.BoolOp, env: ShapeEnv) -> ArrayVal:
        out = ArrayVal.BOTTOM
        for operand in node.values:
            out = out.join(self.eval(operand, env))
        return out

    def _eval_UnaryOp(self, node: ast.UnaryOp, env: ShapeEnv) -> ArrayVal:
        return self.eval(node.operand, env)

    def _eval_Tuple(self, node: ast.Tuple, env: ShapeEnv) -> ArrayVal:
        for elt in node.elts:
            self.eval(elt, env)
        return ArrayVal.BOTTOM

    def _eval_List(self, node: ast.List, env: ShapeEnv) -> ArrayVal:
        for elt in node.elts:
            self.eval(elt, env)
        return ArrayVal.BOTTOM

    # -- arithmetic ---------------------------------------------------------
    def _widening_check(
        self, node: ast.AST, left: ArrayVal, right: ArrayVal
    ) -> DType:
        pair = {left.dtype, right.dtype}
        if pair == {DType.F32, DType.F64}:
            self._issue(
                "RG202", node,
                "mixing float32 and float64 operands silently widens to "
                "float64 mid-pipeline; cast explicitly at the boundary",
            )
            return DType.F64
        return left.dtype.join(right.dtype)

    def _binop_arith(
        self, node: ast.AST, left: ArrayVal, right: ArrayVal
    ) -> ArrayVal:
        shape = None
        if left.shape is not None and right.shape is not None:
            shape, ok = _broadcast(left.shape, right.shape)
            if not ok:
                self._issue(
                    "RG201", node,
                    f"operands with shapes {_fmt_shape(left.shape)} and "
                    f"{_fmt_shape(right.shape)} do not broadcast",
                )
        elif left.shape is not None:
            shape = left.shape
        elif right.shape is not None:
            shape = right.shape
        dtype = self._widening_check(node, left, right)
        batch = Batch.UNKNOWN
        for side, other in ((left, right), (right, left)):
            if side.batch == Batch.CARRIES:
                # The carrying side keeps the client axis unless the other
                # operand has provably higher rank (its axes lead then).
                if (
                    side.shape is not None
                    and other.shape is not None
                    and len(other.shape) > len(side.shape)
                ):
                    continue
                batch = Batch.CARRIES
        kind = "array" if (left.is_array or right.is_array) else ""
        return ArrayVal(kind=kind, shape=shape, dtype=dtype, batch=batch)

    def _matmul(
        self, node: ast.AST, left: ArrayVal, right: ArrayVal,
        left_node: ast.AST | None = None, right_node: ast.AST | None = None,
        env: ShapeEnv | None = None,
    ) -> ArrayVal:
        # RG203: a fancy-index gather evaluated directly as a matmul
        # operand materializes a copy on the hot path.
        for operand in (left_node, right_node):
            if operand is None or env is None:
                continue
            if isinstance(operand, ast.Subscript):
                sl = operand.slice
                fancy = isinstance(sl, ast.List) or (
                    isinstance(sl, ast.Name)
                    and env.get(sl.id, ArrayVal.BOTTOM).is_array
                )
                if fancy:
                    self._issue(
                        "RG203", operand,
                        "fancy-index gather feeds matmul directly; the "
                        "gather materializes a copy on the hot path — "
                        "hoist it or index the result instead",
                    )
        if left.shape is not None and right.shape is not None:
            la, ra = len(left.shape), len(right.shape)
            if la >= 1 and ra >= 1:
                inner_l = left.shape[-1]
                inner_r = right.shape[-2] if ra >= 2 else right.shape[0]
                if (
                    inner_l.concrete and inner_r.concrete
                    and inner_l != inner_r
                ):
                    self._issue(
                        "RG201", node,
                        f"matmul inner dimensions are statically "
                        f"incompatible: {_fmt_shape(left.shape)} @ "
                        f"{_fmt_shape(right.shape)}",
                    )
        shape = None
        if left.shape is not None and right.shape is not None:
            la, ra = len(left.shape), len(right.shape)
            if la >= 2 and ra == 2:
                shape = left.shape[:-1] + (right.shape[-1],)
            elif la == 1 and ra == 2:
                shape = (right.shape[-1],)
            elif la >= 2 and ra == 1:
                shape = left.shape[:-1]
        dtype = self._widening_check(node, left, right)
        batch = Batch.CARRIES if left.batch == Batch.CARRIES else Batch.UNKNOWN
        return ArrayVal(kind="array", shape=shape, dtype=dtype, batch=batch)

    def _eval_BinOp(self, node: ast.BinOp, env: ShapeEnv) -> ArrayVal:
        left = self.eval(node.left, env)
        right = self.eval(node.right, env)
        if isinstance(node.op, ast.MatMult):
            return self._matmul(
                node, left, right,
                left_node=node.left, right_node=node.right, env=env,
            )
        if isinstance(
            node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow,
                      ast.FloorDiv, ast.Mod),
        ):
            return self._binop_arith(node, left, right)
        return ArrayVal.BOTTOM

    def _eval_Compare(self, node: ast.Compare, env: ShapeEnv) -> ArrayVal:
        left = self.eval(node.left, env)
        out = left
        for comparator in node.comparators:
            right = self.eval(comparator, env)
            merged = self._binop_arith(node, out, right)
            out = merged
        if not out.is_array:
            return ArrayVal.BOTTOM
        return ArrayVal(
            kind="array", shape=out.shape, dtype=DType.BOOL, batch=out.batch
        )

    # -- indexing -----------------------------------------------------------
    def _eval_Subscript(self, node: ast.Subscript, env: ShapeEnv) -> ArrayVal:
        base = self.eval(node.value, env)
        sl = node.slice
        if isinstance(sl, ast.expr):
            self.eval(sl, env)
        if not base.is_array:
            return ArrayVal.BOTTOM
        if isinstance(sl, ast.Constant) and isinstance(sl.value, int):
            shape = base.shape[1:] if base.shape else None
            batch = Batch.DROPPED if base.batch == Batch.CARRIES else Batch.UNKNOWN
            return ArrayVal("array", shape, base.dtype, batch)
        if isinstance(sl, ast.Slice):
            shape = (Dim.TOP,) + base.shape[1:] if base.shape else None
            return ArrayVal("array", shape, base.dtype, base.batch)
        if isinstance(sl, ast.Tuple) and sl.elts:
            first = sl.elts[0]
            if isinstance(first, ast.Slice):
                return ArrayVal("array", None, base.dtype, base.batch)
            if isinstance(first, ast.Constant) and isinstance(first.value, int):
                batch = (
                    Batch.DROPPED if base.batch == Batch.CARRIES
                    else Batch.UNKNOWN
                )
                return ArrayVal("array", None, base.dtype, batch)
            return ArrayVal("array", None, base.dtype, Batch.UNKNOWN)
        # Fancy indexing (array/list index): unknown shape, axis unknown.
        return ArrayVal("array", None, base.dtype, Batch.UNKNOWN)

    # -- array method/function transfer -------------------------------------
    def _transpose(self, base: ArrayVal, perm) -> ArrayVal:
        if not base.is_array:
            return ArrayVal.BOTTOM
        shape = tuple(reversed(base.shape)) if base.shape else None
        if perm is not None and base.shape and len(perm) == len(base.shape):
            shape = tuple(base.shape[p] for p in perm)
        if perm is not None:
            batch = (
                Batch.CARRIES if perm and perm[0] == 0 and
                base.batch == Batch.CARRIES
                else Batch.DROPPED if base.batch == Batch.CARRIES
                else Batch.UNKNOWN
            )
        elif base.shape is not None and len(base.shape) == 1:
            batch = base.batch  # 1-D transpose is the identity
        elif base.shape is not None and base.batch == Batch.CARRIES:
            batch = Batch.DROPPED
        else:
            batch = Batch.UNKNOWN
        return ArrayVal("array", shape, base.dtype, batch)

    def _reduce(
        self, node: ast.Call, base: ArrayVal, axis_node, keepdims_node
    ) -> ArrayVal:
        axis = _const_axis(axis_node)
        keepdims = (
            isinstance(keepdims_node, ast.Constant)
            and keepdims_node.value is True
        )
        if keepdims:
            shape = (
                tuple(Dim.TOP for _ in base.shape) if base.shape else None
            )
            return ArrayVal("array", shape, base.dtype, base.batch)
        drops_leading = axis_node is None or axis == 0 or (
            isinstance(axis, tuple) and 0 in axis
        )
        if axis_node is not None and axis is None:
            # Unparseable axis: stay conservative.
            return ArrayVal("array", None, base.dtype, Batch.UNKNOWN)
        if drops_leading:
            if axis_node is None:
                shape: tuple[Dim, ...] | None = ()
            elif base.shape:
                drop = {0} if axis == 0 else set(axis)
                shape = tuple(
                    d for i, d in enumerate(base.shape) if i not in drop
                )
            else:
                shape = None
            batch = (
                Batch.DROPPED if base.batch == Batch.CARRIES
                else Batch.UNKNOWN
            )
            return ArrayVal("array", shape, base.dtype, batch)
        # Reduction over a non-leading axis keeps the client axis.
        if base.shape:
            drop = {axis} if isinstance(axis, int) else set(axis)
            drop = {a % len(base.shape) for a in drop}
            shape = tuple(
                d for i, d in enumerate(base.shape) if i not in drop
            )
        else:
            shape = None
        return ArrayVal("array", shape, base.dtype, base.batch)

    def _is_numpy_call(self, func: ast.AST, dotted: str) -> bool:
        if dotted.startswith("numpy."):
            return True
        return (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("np", "numpy")
        )

    def _eval_Call(self, node: ast.Call, env: ShapeEnv) -> ArrayVal:
        func = node.func
        arg_values = [self.eval(a, env) for a in node.args]
        kw_values = [(kw.arg, self.eval(kw.value, env)) for kw in node.keywords]
        resolved = self.project.resolve_call(self.module, func)
        dotted = resolved.dotted if resolved is not None else ""
        attr_name = (
            func.attr if isinstance(func, ast.Attribute)
            else func.id if isinstance(func, ast.Name)
            else ""
        )
        if self.collect and resolved is not None:
            args = tuple(
                [(i, v) for i, v in enumerate(arg_values)]
                + [(name, v) for name, v in kw_values if name is not None]
            )
            self.calls.append(ShapeCallFact(resolved=resolved, args=args))

        base_value = ArrayVal.BOTTOM
        is_np = self._is_numpy_call(func, dotted)
        if isinstance(func, ast.Attribute) and not is_np:
            base_value = self.eval(func.value, env)

        # --- allocators --------------------------------------------------
        if is_np and attr_name in _ALLOCATORS:
            dtype_node = _kwarg(node, "dtype")
            if dtype_node is None and len(node.args) > _ALLOCATORS[attr_name]:
                dtype_node = node.args[_ALLOCATORS[attr_name]]
            if dtype_node is None:
                self._issue(
                    "RG202", node,
                    f"np.{attr_name}() without an explicit dtype in "
                    f"hot-path code; pass dtype=np.float64 (implicit "
                    f"defaults hide dtype drift)",
                )
                dtype = DType.F64
            else:
                dtype = _dtype_of_node(dtype_node)
            shape, batch = (None, Batch.UNKNOWN)
            if node.args:
                shape, batch = self._parse_shape(node.args[0], env)
            return ArrayVal("array", shape, dtype, batch)
        if is_np and attr_name in _ARRAY_LIKE:
            base = arg_values[0] if arg_values else ArrayVal.BOTTOM
            dtype = _dtype_of_node(_kwarg(node, "dtype")) or base.dtype
            if _kwarg(node, "dtype") is None:
                dtype = base.dtype
            return ArrayVal("array", base.shape, dtype, base.batch)
        if is_np and attr_name in ("asarray", "array", "ascontiguousarray"):
            base = arg_values[0] if arg_values else ArrayVal.BOTTOM
            dtype_node = _kwarg(node, "dtype")
            dtype = (
                _dtype_of_node(dtype_node) if dtype_node is not None
                else base.dtype
            )
            return ArrayVal("array", base.shape, dtype, base.batch)
        if is_np and attr_name == "arange":
            dtype = DType.I64
            for a in node.args:
                if isinstance(a, ast.Constant) and isinstance(a.value, float):
                    dtype = DType.F64
            if _kwarg(node, "dtype") is not None:
                dtype = _dtype_of_node(_kwarg(node, "dtype"))
            length = None
            if len(node.args) == 1:
                length = self._parse_dim(node.args[0], env)
            return ArrayVal(
                "array", (length,) if length is not None else (Dim.TOP,),
                dtype, Batch.UNKNOWN,
            )
        if is_np and attr_name == "stack":
            return self._stack(node, env)
        if is_np and attr_name == "concatenate":
            return self._concatenate(node, env)
        if is_np and attr_name in ("matmul", "dot") and len(arg_values) >= 2:
            return self._matmul(
                node, arg_values[0], arg_values[1],
                left_node=node.args[0], right_node=node.args[1], env=env,
            )
        if is_np and attr_name in _ELEMENTWISE:
            out = ArrayVal.BOTTOM
            relevant = arg_values[1:] if attr_name == "where" else arg_values
            for v in relevant:
                out = out.join(v)
            if attr_name in ("isfinite", "isnan"):
                out = ArrayVal("array", out.shape, DType.BOOL, out.batch)
            return ArrayVal("array", out.shape, out.dtype, out.batch)
        if is_np and attr_name in _REDUCTIONS and arg_values:
            axis = _kwarg(node, "axis")
            if axis is None and len(node.args) > 1:
                axis = node.args[1]
            out = self._reduce(node, arg_values[0], axis, _kwarg(node, "keepdims"))
            if attr_name in ("mean", "std", "var") and out.dtype == DType.I64:
                out = ArrayVal("array", out.shape, DType.F64, out.batch)
            if attr_name in ("argmax", "argmin"):
                out = ArrayVal("array", out.shape, DType.I64, out.batch)
            return out

        # --- array methods -----------------------------------------------
        if isinstance(func, ast.Attribute) and base_value.is_array:
            if attr_name in _REDUCTIONS:
                axis = _kwarg(node, "axis")
                if axis is None and node.args:
                    axis = node.args[0]
                out = self._reduce(node, base_value, axis, _kwarg(node, "keepdims"))
                if attr_name in ("argmax", "argmin"):
                    out = ArrayVal("array", out.shape, DType.I64, out.batch)
                return out
            if attr_name == "astype" and node.args:
                return ArrayVal(
                    "array", base_value.shape,
                    _dtype_of_node(node.args[0]), base_value.batch,
                )
            if attr_name == "copy" and not node.args:
                return base_value
            if attr_name == "reshape":
                return self._reshape(node, base_value, env)
            if attr_name in ("ravel", "flatten"):
                batch = (
                    Batch.DROPPED if base_value.batch == Batch.CARRIES
                    else Batch.UNKNOWN
                )
                return ArrayVal("array", (Dim.TOP,), base_value.dtype, batch)
            if attr_name == "transpose":
                perm = None
                if node.args:
                    parsed = _const_axis(
                        node.args[0] if len(node.args) == 1 else ast.Tuple(
                            elts=list(node.args), ctx=ast.Load()
                        )
                    )
                    if isinstance(parsed, tuple):
                        perm = parsed
                return self._transpose(base_value, perm)

        # --- rng sampling with an explicit size/shape ---------------------
        if attr_name in ("random", "standard_normal", "normal", "uniform",
                         "integers") and isinstance(func, ast.Attribute):
            size_node = _kwarg(node, "size")
            if size_node is None and attr_name in ("random", "standard_normal"):
                size_node = node.args[0] if node.args else None
            if size_node is not None:
                # rng.random(x.shape) inherits x's batch state.
                if (
                    isinstance(size_node, ast.Attribute)
                    and size_node.attr == "shape"
                    and isinstance(size_node.value, ast.Name)
                ):
                    src = env.get(size_node.value.id, ArrayVal.BOTTOM)
                    return ArrayVal("array", src.shape, DType.F64, src.batch)
                shape, batch = self._parse_shape(size_node, env)
                dtype = DType.I64 if attr_name == "integers" else DType.F64
                return ArrayVal("array", shape, dtype, batch)

        # --- interprocedural return summaries -----------------------------
        summary = self.return_summaries.get(dotted)
        if summary is not None:
            return summary
        return ArrayVal.BOTTOM

    def _stack(self, node: ast.Call, env: ShapeEnv) -> ArrayVal:
        if not node.args:
            return ArrayVal.BOTTOM
        arg = node.args[0]
        elt = ArrayVal.BOTTOM
        count = None
        if isinstance(arg, (ast.List, ast.Tuple)):
            count = len(arg.elts)
            for e in arg.elts:
                elt = elt.join(self.eval(e, env))
        else:
            self.eval(arg, env)
        shape = None
        if count is not None and elt.shape is not None:
            shape = (Dim(value=count),) + elt.shape
        return ArrayVal("array", shape, elt.dtype, Batch.UNKNOWN)

    def _concatenate(self, node: ast.Call, env: ShapeEnv) -> ArrayVal:
        if not node.args:
            return ArrayVal.BOTTOM
        arg = node.args[0]
        axis_node = _kwarg(node, "axis")
        if axis_node is None and len(node.args) > 1:
            axis_node = node.args[1]
        axis = _const_axis(axis_node)
        if axis_node is None:
            axis = 0
        parts: list[ArrayVal] = []
        if isinstance(arg, (ast.List, ast.Tuple)):
            parts = [self.eval(e, env) for e in arg.elts]
        else:
            self.eval(arg, env)
        shapes = [p.shape for p in parts if p.shape is not None]
        dtype = DType.UNKNOWN
        for p in parts:
            dtype = dtype.join(p.dtype)
        if (
            isinstance(axis, int)
            and len(shapes) == len(parts) >= 2
            and len({len(s) for s in shapes}) == 1
            and 0 <= (axis % len(shapes[0])) < len(shapes[0])
        ):
            rank = len(shapes[0])
            ax = axis % rank
            for i in range(rank):
                if i == ax:
                    continue
                dims = [s[i] for s in shapes]
                concrete = {d.value for d in dims if d.concrete}
                if len(concrete) > 1:
                    self._issue(
                        "RG201", node,
                        f"concatenate inputs disagree on non-axis "
                        f"dimension {i}: "
                        + " vs ".join(_fmt_shape(s) for s in shapes),
                    )
                    break
            out: list[Dim] = []
            for i in range(rank):
                if i == ax:
                    vals = [s[i].value for s in shapes]
                    out.append(
                        Dim(value=sum(vals))
                        if all(v is not None and v >= 0 for v in vals)
                        else Dim.TOP
                    )
                else:
                    d = shapes[0][i]
                    for s in shapes[1:]:
                        d = d.join(s[i])
                    out.append(d)
            return ArrayVal("array", tuple(out), dtype, Batch.UNKNOWN)
        return ArrayVal("array", None, dtype, Batch.UNKNOWN)

    def _reshape(
        self, node: ast.Call, base: ArrayVal, env: ShapeEnv
    ) -> ArrayVal:
        args = list(node.args)
        if len(args) == 1 and isinstance(args[0], (ast.Tuple, ast.List)):
            args = list(args[0].elts)
        dims = tuple(self._parse_dim(a, env) for a in args)
        shape = tuple(Dim.TOP if (d.value is not None and d.value < 0) else d
                      for d in dims)
        batch = Batch.UNKNOWN
        if args:
            lead = _shape_of_leading(args[0])
            if (
                lead is not None
                and env.get(lead, ArrayVal.BOTTOM).batch == Batch.CARRIES
            ):
                batch = Batch.CARRIES  # x.reshape(x.shape[0], ...) keeps axis
            elif base.batch == Batch.CARRIES and len(args) == 1 and (
                dims[0].value is not None and dims[0].value < 0
            ):
                batch = Batch.DROPPED  # reshape(-1): full flatten
        return ArrayVal("array", shape, base.dtype, batch)


# ---------------------------------------------------------------------------
# per-function analysis
# ---------------------------------------------------------------------------


@dataclass
class ShapeFunctionResult:
    calls: list = field(default_factory=list)
    issues: list = field(default_factory=list)
    returns: list = field(default_factory=list)  # [(ast.Return, ArrayVal)]
    return_value: ArrayVal = ArrayVal.BOTTOM


def _has_decorator(func: ast.AST, decorator_name: str) -> bool:
    for dec in getattr(func, "decorator_list", []):
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = (
            target.attr if isinstance(target, ast.Attribute)
            else target.id if isinstance(target, ast.Name)
            else ""
        )
        if name == decorator_name:
            return True
    return False


def is_client_batched(func: ast.AST) -> bool:
    """Does this function carry a ``@client_batched`` decorator?"""
    return _has_decorator(func, "client_batched")


def is_loop_fallback(func: ast.AST) -> bool:
    """Does this function carry a ``@loop_fallback`` decorator?

    The decorator (:func:`repro.analysis.contracts.loop_fallback`) marks an
    audited, intentional per-client loop — the loop engine that serves as
    the batched engine's bit-equivalence reference, or order-sensitive
    per-client bookkeeping off the hot path. RG204 skips such functions.
    """
    return _has_decorator(func, "loop_fallback")


class ShapeFunctionAnalysis:
    """Forward shape dataflow over one function's CFG to a fixpoint,
    then one fact-collection sweep (mirrors :class:`.dataflow.FunctionAnalysis`)."""

    def __init__(
        self,
        project: Project,
        module: ModuleInfo,
        func: ast.AST,
        param_values: ShapeEnv | None = None,
        max_iterations: int = 16,
        return_summaries: dict[str, ArrayVal] | None = None,
    ) -> None:
        self.project = project
        self.module = module
        self.func = func
        self.param_values = param_values or {}
        self.max_iterations = max_iterations
        self.return_summaries = return_summaries or {}

    def _initial_env(self) -> ShapeEnv:
        env: ShapeEnv = {}
        a = self.func.args
        for p in a.posonlyargs + a.args + a.kwonlyargs:
            env[p.arg] = self.param_values.get(p.arg, ArrayVal.BOTTOM)
        return env

    def _assign(self, target, value_node, value, env, ev) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = value
            return
        if isinstance(target, ast.Attribute) and isinstance(
            target.value, ast.Name
        ):
            env[f"{target.value.id}.{target.attr}"] = value
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            elements = None
            if isinstance(value_node, (ast.Tuple, ast.List)) and len(
                value_node.elts
            ) == len(target.elts):
                elements = value_node.elts
            for i, elt in enumerate(target.elts):
                elt_value = (
                    ev.eval(elements[i], env) if elements else ArrayVal.BOTTOM
                )
                self._assign(elt, value_node, elt_value, env, ev)

    def _transfer(self, stmt, env, ev) -> None:
        if isinstance(stmt, ast.Assign):
            value = ev.eval(stmt.value, env)
            for target in stmt.targets:
                self._assign(target, stmt.value, value, env, ev)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            value = ev.eval(stmt.value, env)
            self._assign(stmt.target, stmt.value, value, env, ev)
        elif isinstance(stmt, ast.AugAssign):
            value = ev.eval(stmt.value, env)
            target = stmt.target
            name = None
            if isinstance(target, ast.Name):
                name = target.id
            elif isinstance(target, ast.Attribute) and isinstance(
                target.value, ast.Name
            ):
                name = f"{target.value.id}.{target.attr}"
            if name is not None:
                env[name] = env.get(name, ArrayVal.BOTTOM).join(value)
        elif isinstance(stmt, (ast.Expr, ast.Assert, ast.Raise)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    ev.eval(child, env)
        elif isinstance(stmt, ast.Return):
            value = (
                ev.eval(stmt.value, env)
                if stmt.value is not None else ArrayVal.BOTTOM
            )
            self._returns = self._returns.join(value)
            if ev.collect and stmt.value is not None:
                self._return_facts.append((stmt, value))
        elif isinstance(stmt, (ast.If, ast.While)):
            ev.eval(stmt.test, env)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            src = ev.eval(stmt.iter, env)
            if isinstance(stmt.target, ast.Name):
                if src.is_array:
                    shape = src.shape[1:] if src.shape else None
                    env[stmt.target.id] = ArrayVal(
                        "array", shape, src.dtype, Batch.UNKNOWN
                    )
                else:
                    env[stmt.target.id] = ArrayVal.BOTTOM
            elif isinstance(stmt.target, (ast.Tuple, ast.List)):
                for elt in stmt.target.elts:
                    if isinstance(elt, ast.Name):
                        env[elt.id] = ArrayVal.BOTTOM
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                ev.eval(item.context_expr, env)

    def _fixpoint(self, cfg) -> dict[int, ShapeEnv]:
        ev = ShapeEvaluator(
            self.project, self.module, collect=False,
            return_summaries=self.return_summaries,
        )
        in_envs: dict[int, ShapeEnv] = {cfg.entry.index: self._initial_env()}
        order = cfg.rpo()
        for _ in range(self.max_iterations):
            changed = False
            for block in order:
                env_in = in_envs.get(block.index)
                if env_in is None:
                    continue
                env = dict(env_in)
                for stmt in block.stmts:
                    self._transfer(stmt, env, ev)
                for succ in block.succs:
                    prev = in_envs.get(succ.index)
                    joined = env if prev is None else join_envs(prev, env)
                    if prev is None or prev != joined:
                        in_envs[succ.index] = joined
                        changed = True
            if not changed:
                break
        return in_envs

    def run(self) -> ShapeFunctionResult:
        cfg = build_cfg(self.func)
        self._returns = ArrayVal.BOTTOM
        self._return_facts: list = []
        in_envs = self._fixpoint(cfg)
        self._returns = ArrayVal.BOTTOM
        ev = ShapeEvaluator(
            self.project, self.module, collect=True,
            return_summaries=self.return_summaries,
        )
        for block in cfg.rpo():
            env_in = in_envs.get(block.index)
            if env_in is None:
                continue
            env = dict(env_in)
            for stmt in block.stmts:
                self._transfer(stmt, env, ev)
        return ShapeFunctionResult(
            calls=ev.calls,
            issues=ev.issues,
            returns=self._return_facts,
            return_value=self._returns,
        )


# ---------------------------------------------------------------------------
# syntactic hot-loop scans (RG203 copy patterns, RG204 migration tracker)
# ---------------------------------------------------------------------------


def _collection_basename(node: ast.AST) -> str:
    """Basename of an iterable expression: ``updates``, ``self.clients``,
    ``enumerate(updates)``, ``sorted(clients)`` all resolve to the name."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Call):
        target = node.func
        name = (
            target.id if isinstance(target, ast.Name)
            else target.attr if isinstance(target, ast.Attribute)
            else ""
        )
        if name in ("enumerate", "zip", "reversed", "sorted", "list") and node.args:
            return _collection_basename(node.args[0])
    return ""


def _target_names(target: ast.AST) -> set[str]:
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        out: set[str] = set()
        for elt in target.elts:
            out |= _target_names(elt)
        return out
    return set()


def _scan_nodes(func: ast.AST, is_module: bool):
    """Walk a function body; for the module pseudo-function skip nested
    function/class bodies (they are separate records)."""
    if not is_module:
        yield from ast.walk(func)
        return
    stack = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _client_loops(func: ast.AST, is_module: bool):
    """(span, bound names, iter-node ids) of loops/comprehensions whose
    iterable is a per-client collection."""
    loops = []
    for node in _scan_nodes(func, is_module):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            if _collection_basename(node.iter) in _CLIENT_COLLECTIONS:
                end = getattr(node, "end_lineno", node.lineno) or node.lineno
                loops.append(
                    ((node.lineno, end), _target_names(node.target),
                     {id(node.iter)} | {id(n) for n in ast.walk(node.iter)})
                )
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            bound: set[str] = set()
            iter_ids: set[int] = set()
            client = False
            for gen in node.generators:
                if _collection_basename(gen.iter) in _CLIENT_COLLECTIONS:
                    client = True
                bound |= _target_names(gen.target)
                iter_ids |= {id(gen.iter)} | {id(n) for n in ast.walk(gen.iter)}
            if client:
                end = getattr(node, "end_lineno", node.lineno) or node.lineno
                loops.append(((node.lineno, end), bound, iter_ids))
    return loops


def _names_in(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def scan_rg203(func: ast.AST, is_module: bool = False) -> list[ShapeIssue]:
    """Copy patterns a dataflow lattice cannot see: inline ``.copy()``
    per client and loop-invariant builtin rebuilds inside client loops."""
    loops = _client_loops(func, is_module)
    if not loops:
        return []
    parent: dict[int, ast.AST] = {}
    for node in _scan_nodes(func, is_module):
        for child in ast.iter_child_nodes(node):
            parent[id(child)] = node
    issues: list[ShapeIssue] = []
    for node in _scan_nodes(func, is_module):
        if not isinstance(node, ast.Call):
            continue
        line = node.lineno
        enclosing = [
            (span, bound, iter_ids) for span, bound, iter_ids in loops
            if span[0] <= line <= span[1] and id(node) not in iter_ids
        ]
        if not enclosing:
            continue
        bound_names: set[str] = set()
        for _span, bound, _ids in enclosing:
            bound_names |= bound
        func_node = node.func
        if (
            isinstance(func_node, ast.Name)
            and func_node.id in _HOIST_BUILTINS
            and node.args
            and not (_names_in(node) & bound_names)
        ):
            issues.append(ShapeIssue(
                "RG203", node.lineno, node.col_offset,
                f"{func_node.id}(...) is rebuilt on every iteration of a "
                f"per-client loop but does not depend on the loop "
                f"variable; hoist it out of the loop",
            ))
        elif (
            isinstance(func_node, ast.Attribute)
            and func_node.attr == "copy"
            and not node.args
        ):
            par = parent.get(id(node))
            kept = isinstance(par, (ast.Assign, ast.AnnAssign)) and (
                getattr(par, "value", None) is node
            )
            if not kept:
                issues.append(ShapeIssue(
                    "RG203", node.lineno, node.col_offset,
                    ".copy() inside a per-client loop feeds a read-only "
                    "consumer; the copy is redundant on the hot path",
                ))
    return issues


def scan_rg204(func: ast.AST, is_module: bool = False) -> list[ShapeIssue]:
    """Python-level ``for`` over a client collection with calls in the
    body — the work-list for the batched multi-client engine.

    Functions marked ``@loop_fallback`` are exempt: they are the audited
    terminal state of the migration (the reference loop engine and
    order-sensitive non-hot bookkeeping), not remaining work.
    """
    issues: list[ShapeIssue] = []
    if not is_module and is_loop_fallback(func):
        return issues
    for node in _scan_nodes(func, is_module):
        if not isinstance(node, (ast.For, ast.AsyncFor)):
            continue
        name = _collection_basename(node.iter)
        if name not in _CLIENT_COLLECTIONS:
            continue
        has_call = any(
            isinstance(n, ast.Call)
            for stmt in node.body for n in ast.walk(stmt)
        )
        if has_call:
            issues.append(ShapeIssue(
                "RG204", node.lineno, node.col_offset,
                f"Python-level loop over client collection '{name}' in "
                f"round logic; fold into a batched array op "
                f"(batched-engine migration tracker, see "
                f"docs/performance.md)",
            ))
    return issues


def _mentions_n_clients(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id == "n_clients":
            return True
        if isinstance(sub, ast.Attribute) and sub.attr == "n_clients":
            return True
    return False


def _is_range_n_clients(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "range"
        and bool(node.args)
        and any(_mentions_n_clients(arg) for arg in node.args)
    )


def scan_rg206(func: ast.AST, is_module: bool = False) -> list[ShapeIssue]:
    """Eager O(n_clients) work outside the population module.

    Million-client federations only stay tractable if per-client state is
    derived on demand (``repro.fl.population``); any ``range(n_clients)``
    loop/comprehension, eager ``.spawn(n_clients)`` RNG fan-out, or
    ``[...] * n_clients`` allocation elsewhere reintroduces O(n_clients)
    time or memory per run. Legitimately-eager code (the partition
    schemes in ``repro.data.partition``) carries audited
    ``# repro: noqa[RG206]`` suppressions explaining why.

    Issues are reported at the line of the ``range``/``spawn`` expression
    itself (for multi-line comprehensions that is the ``for ... in
    range(...)`` generator line) so suppressions sit next to the loop
    clause they justify.
    """
    issues: list[ShapeIssue] = []
    for node in _scan_nodes(func, is_module):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            if _is_range_n_clients(node.iter):
                issues.append(ShapeIssue(
                    "RG206", node.iter.lineno, node.iter.col_offset,
                    "eager `for ... in range(n_clients)` loop: iterate "
                    "sampled clients only, or derive per-index state "
                    "lazily via repro.fl.population",
                ))
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for gen in node.generators:
                if _is_range_n_clients(gen.iter):
                    issues.append(ShapeIssue(
                        "RG206", gen.iter.lineno, gen.iter.col_offset,
                        "eager comprehension over range(n_clients) "
                        "materializes O(n_clients) objects; derive "
                        "per-index state lazily via repro.fl.population",
                    ))
        elif isinstance(node, ast.Call):
            target = node.func
            if (
                isinstance(target, ast.Attribute)
                and target.attr == "spawn"
                and node.args
                and _mentions_n_clients(node.args[0])
            ):
                issues.append(ShapeIssue(
                    "RG206", node.lineno, node.col_offset,
                    ".spawn(n_clients) materializes O(n_clients) RNG "
                    "children; derive index-keyed children lazily "
                    "(SeedParent in repro.fl.population)",
                ))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            sized = (
                (isinstance(node.left, ast.List)
                 and _mentions_n_clients(node.right))
                or (isinstance(node.right, ast.List)
                    and _mentions_n_clients(node.left))
            )
            if sized:
                issues.append(ShapeIssue(
                    "RG206", node.lineno, node.col_offset,
                    "`[...] * n_clients` allocates an O(n_clients) list; "
                    "keep per-client state sparse/packed "
                    "(repro.fl.population)",
                ))
    return issues


# ---------------------------------------------------------------------------
# interprocedural driver
# ---------------------------------------------------------------------------


@dataclass
class _ShapeRecord:
    module: ModuleInfo
    qualname: str
    func: ast.AST
    is_method: bool
    batched: bool
    summary: ShapeEnv = field(default_factory=dict)
    result: ShapeFunctionResult | None = None

    @property
    def params(self) -> list[str]:
        a = self.func.args
        names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        if self.is_method and names and names[0] in ("self", "cls"):
            names = names[1:]
        return names


def _module_pseudo_function(module: ModuleInfo) -> ast.FunctionDef:
    fake = ast.FunctionDef(
        name="<module>",
        args=ast.arguments(
            posonlyargs=[], args=[], vararg=None, kwonlyargs=[],
            kw_defaults=[], kwarg=None, defaults=[],
        ),
        body=list(module.tree.body),
        decorator_list=[],
        returns=None,
        type_comment=None,
    )
    if module.tree.body:
        return ast.fix_missing_locations(
            ast.copy_location(fake, module.tree.body[0])
        )
    return fake


def _shape_records(project: Project) -> list[_ShapeRecord]:
    records: list[_ShapeRecord] = []
    for module in project.modules.values():
        if module.tree.body:
            records.append(_ShapeRecord(
                module, "<module>", _module_pseudo_function(module),
                is_method=False, batched=False,
            ))
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                records.append(_ShapeRecord(
                    module, node.name, node, is_method=False,
                    batched=is_client_batched(node),
                ))
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        records.append(_ShapeRecord(
                            module, f"{node.name}.{item.name}", item,
                            is_method=True, batched=is_client_batched(item),
                        ))
    for record in records:
        if record.batched:
            for p in record.params:
                record.summary[p] = ArrayVal(kind="array", batch=Batch.CARRIES)
    return records


def _propagate(calls: list[ShapeCallFact], by_node: dict) -> bool:
    changed = False
    for fact in calls:
        resolved = fact.resolved
        if resolved is None or resolved.node is None:
            continue
        callee = by_node.get(id(resolved.node))
        if callee is None:
            continue
        params = callee.params
        for key, value in fact.args:
            if value == ArrayVal.BOTTOM:
                continue
            if isinstance(key, int):
                if key >= len(params):
                    continue
                name = params[key]
            else:
                if key not in params:
                    continue
                name = key
            prev = callee.summary.get(name, ArrayVal.BOTTOM)
            joined = prev.join(value)
            if joined != prev:
                callee.summary[name] = joined
                changed = True
    return changed


def analyze_shapes_project(
    project: Project, rules: Iterable[str] | None = None
) -> list[Finding]:
    """Run the shape/dtype/client-axis analysis over a loaded project."""
    active = (
        SHAPE_RULES if rules is None
        else {r.upper() for r in rules} & SHAPE_RULES
    )
    if not active:
        return []

    records = _shape_records(project)
    by_node = {id(r.func): r for r in records if r.qualname != "<module>"}

    return_summaries: dict[str, ArrayVal] = {}
    for _round in range(MAX_ROUNDS):
        all_calls: list[ShapeCallFact] = []
        for record in records:
            analysis = ShapeFunctionAnalysis(
                project, record.module, record.func,
                param_values=record.summary,
                return_summaries=return_summaries,
            )
            record.result = analysis.run()
            all_calls.extend(record.result.calls)
        changed = _propagate(all_calls, by_node)
        for record in records:
            if record.is_method or record.qualname == "<module>":
                continue
            ret = record.result.return_value
            if ret == ArrayVal.BOTTOM:
                continue
            dotted = f"{record.module.name}.{record.qualname}"
            if return_summaries.get(dotted) != ret:
                return_summaries[dotted] = ret
                changed = True
        if not changed:
            break

    findings: list[Finding] = []
    for record in records:
        path = record.module.path
        is_module = record.qualname == "<module>"
        for issue in record.result.issues:
            if issue.rule in active and _rule_in_scope(issue.rule, path):
                findings.append(Finding(
                    issue.rule, path, issue.line, issue.col, issue.message
                ))
        if "RG205" in active and record.batched and _rule_in_scope(
            "RG205", path
        ):
            for stmt, value in record.result.returns:
                if value.batch == Batch.DROPPED:
                    findings.append(Finding(
                        "RG205", path, stmt.lineno, stmt.col_offset,
                        f"'{record.qualname}' is @client_batched but this "
                        f"return provably drops the leading client axis",
                    ))
        if "RG203" in active and _rule_in_scope("RG203", path):
            for issue in scan_rg203(record.func, is_module):
                findings.append(Finding(
                    issue.rule, path, issue.line, issue.col, issue.message
                ))
        if "RG204" in active and _rule_in_scope("RG204", path):
            for issue in scan_rg204(record.func, is_module):
                findings.append(Finding(
                    issue.rule, path, issue.line, issue.col, issue.message
                ))
        if "RG206" in active and _rule_in_scope("RG206", path):
            for issue in scan_rg206(record.func, is_module):
                findings.append(Finding(
                    issue.rule, path, issue.line, issue.col, issue.message
                ))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
