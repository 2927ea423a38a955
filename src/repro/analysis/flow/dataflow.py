"""Forward dataflow: RNG provenance and collection orderedness.

Abstract domain
---------------
Every expression evaluates to a :class:`Value` combining two lattices:

* **RNG provenance** (:class:`Tag`): ``SEEDED`` (constructed from an
  explicit seed, or derived from a seeded stream via ``spawn``),
  ``UNSEEDED`` (``default_rng()`` / ``PCG64()`` with no arguments, or
  derived from such a stream), and ``AMBIGUOUS`` (the join of the two —
  e.g. ``rng if rng is not None else np.random.default_rng()``).
  ``UNKNOWN`` is bottom. Each construction site mints an *origin* token
  ``(path, line)``; joins union origin sets, so a flagged sink can name
  where the stream was born. ``spawn`` results mint fresh origins — the
  whole point of spawning is that the child is a distinct stream.

* **orderedness** (:class:`Order`): ``UNORDERED`` for sets (literals,
  ``set()``/``frozenset()``, comprehensions, set algebra) and for dicts
  whose *insertion order* was driven by unordered iteration;
  ``ORDERED`` for lists/tuples/``sorted(...)``. Joins degrade to
  ``UNORDERED`` — iteration order is only trustworthy when every path
  produced an ordered value.

Analysis
--------
:class:`FunctionAnalysis` runs the transfer functions over a function's
CFG (:mod:`.cfg`) to a fixpoint, then performs one stable *fact
collection* pass recording :class:`CallFact` / :class:`AttrStoreFact` /
:class:`IterFact` tuples for the rule layer. Environments map local
names (and single-level ``self.attr`` pseudo-names) to values.

Interprocedural flow happens in :mod:`.engine`: argument values observed
at resolved call sites are joined into callee *parameter summaries* and
the callee is re-analyzed until nothing changes — that is how an RNG
constructed unseeded in one module is seen reaching a defense's
``aggregate`` three calls away.
"""

from __future__ import annotations

import ast
import enum
from dataclasses import dataclass, field, replace

from .cfg import build_cfg
from .project import ModuleInfo, Project, Resolved

__all__ = [
    "Tag",
    "Order",
    "Value",
    "CallFact",
    "AttrStoreFact",
    "IterFact",
    "FunctionAnalysis",
    "module_env",
]


class Tag(enum.IntEnum):
    UNKNOWN = 0
    SEEDED = 1
    UNSEEDED = 2
    AMBIGUOUS = 3

    def join(self, other: "Tag") -> "Tag":
        if self == other:
            return self
        if self == Tag.UNKNOWN:
            return other
        if other == Tag.UNKNOWN:
            return self
        return Tag.AMBIGUOUS


class Order(enum.IntEnum):
    UNKNOWN = 0
    ORDERED = 1
    UNORDERED = 2

    def join(self, other: "Order") -> "Order":
        if self == other:
            return self
        if self == Order.UNKNOWN:
            return other
        if other == Order.UNKNOWN:
            return self
        return Order.UNORDERED


# Origin: where an RNG stream was constructed. (path, line, salt) — the
# salt disambiguates several streams minted on one line (tuple unpacking
# of ``root.spawn(7)`` gives each target its own origin).
Origin = tuple[str, int, int]


@dataclass(frozen=True)
class Value:
    tag: Tag = Tag.UNKNOWN
    origins: frozenset = frozenset()
    kind: str = ""  # "rng" | "bitgen" | "spawnlist" | ""
    order: Order = Order.UNKNOWN

    BOTTOM: "Value" = None  # type: ignore[assignment]

    def join(self, other: "Value") -> "Value":
        kind = self.kind if self.kind == other.kind else (self.kind or other.kind)
        return Value(
            tag=self.tag.join(other.tag),
            origins=self.origins | other.origins,
            kind=kind,
            order=self.order.join(other.order),
        )

    @property
    def is_rng(self) -> bool:
        return self.kind in ("rng", "bitgen") and self.tag != Tag.UNKNOWN


Value.BOTTOM = Value()

Env = dict[str, Value]


def join_envs(a: Env, b: Env) -> Env:
    out = dict(a)
    for name, val in b.items():
        prev = out.get(name)
        out[name] = val if prev is None else prev.join(val)
    return out


def envs_equal(a: Env, b: Env) -> bool:
    return a == b


# ---------------------------------------------------------------------------
# Facts handed to the rule layer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CallFact:
    """One call site with the abstract values of its arguments."""

    module: ModuleInfo
    node: ast.Call
    resolved: Resolved | None
    attr_name: str          # last segment of the call target ("" if opaque)
    args: tuple             # tuple[(param_key, Value)]: int pos or kw name
    loop_lines: tuple       # (start, end) line spans of enclosing loops


@dataclass(frozen=True)
class AttrStoreFact:
    """``self.x = value`` / ``obj.x = value`` inside a function."""

    module: ModuleInfo
    node: ast.AST
    target: str             # e.g. "self.rng"
    value: Value


@dataclass(frozen=True)
class IterFact:
    """Iteration (or materialization) of an unordered collection."""

    module: ModuleInfo
    node: ast.AST
    value: Value
    sink: str               # what makes the order observable


# ---------------------------------------------------------------------------
# expression evaluation
# ---------------------------------------------------------------------------

_BITGEN_NAMES = {"PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64", "SeedSequence"}
_SET_METHODS = {
    "union", "intersection", "difference", "symmetric_difference", "copy",
}
# Calls that materialize their (first) argument in iteration order.
_ORDER_SINK_CALLS = {"list", "tuple", "enumerate", "array", "stack",
                     "concatenate", "fromiter", "asarray", "join", "zip"}
# Float reductions over their first argument: accumulation order (hence
# rounding) follows iteration order.
_REDUCER_CALLS = {"sum", "fsum", "prod"}


def _is_unseeded_args(node: ast.Call) -> bool:
    if not node.args and not node.keywords:
        return True
    if (
        len(node.args) == 1
        and not node.keywords
        and isinstance(node.args[0], ast.Constant)
        and node.args[0].value is None
    ):
        return True
    return False


class Evaluator:
    """Evaluates expressions over an environment, recording facts."""

    def __init__(
        self,
        project: Project,
        module: ModuleInfo,
        collect: bool = False,
        return_summaries: dict[str, Value] | None = None,
    ) -> None:
        self.project = project
        self.module = module
        self.collect = collect
        self.return_summaries = return_summaries or {}
        self.calls: list[CallFact] = []
        self.attr_stores: list[AttrStoreFact] = []
        self.iterations: list[IterFact] = []
        self.loop_stack: list[tuple[int, int]] = []

    # -- helpers ------------------------------------------------------------
    def _origin(self, node: ast.AST, salt: int | None = None) -> frozenset:
        salt = getattr(node, "col_offset", 0) if salt is None else salt
        return frozenset({(self.module.path, node.lineno, salt)})

    def _pseudo_name(self, node: ast.AST) -> str | None:
        """``x`` → "x"; ``self.rng`` → "self.rng"; deeper chains → None."""
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            return f"{node.value.id}.{node.attr}"
        return None

    def _record_iter(self, node: ast.AST, value: Value, sink: str) -> None:
        if self.collect and value.order == Order.UNORDERED:
            self.iterations.append(IterFact(self.module, node, value, sink))

    # -- evaluation ---------------------------------------------------------
    def eval(self, node: ast.AST, env: Env) -> Value:
        method = getattr(self, f"_eval_{type(node).__name__}", None)
        if method is not None:
            return method(node, env)
        # Walk into unmodeled expressions so nested calls still get
        # evaluated (facts recorded) even when the outer shape is opaque.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.eval(child, env)
        return Value.BOTTOM

    def _eval_Name(self, node: ast.Name, env: Env) -> Value:
        return env.get(node.id, Value.BOTTOM)

    def _eval_Attribute(self, node: ast.Attribute, env: Env) -> Value:
        pseudo = self._pseudo_name(node)
        if pseudo is not None and pseudo in env:
            return env[pseudo]
        base = self.eval(node.value, env)
        # dict views keep their dict's orderedness; set methods keep set-ness
        if node.attr in ("keys", "values", "items"):
            return base
        return Value.BOTTOM

    def _eval_IfExp(self, node: ast.IfExp, env: Env) -> Value:
        self.eval(node.test, env)
        return self.eval(node.body, env).join(self.eval(node.orelse, env))

    def _eval_BoolOp(self, node: ast.BoolOp, env: Env) -> Value:
        out = Value.BOTTOM
        for operand in node.values:
            out = out.join(self.eval(operand, env))
        return out

    def _eval_BinOp(self, node: ast.BinOp, env: Env) -> Value:
        left, right = self.eval(node.left, env), self.eval(node.right, env)
        if isinstance(node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)):
            if Order.UNORDERED in (left.order, right.order):
                return Value(order=Order.UNORDERED)
        return Value.BOTTOM

    def _eval_Set(self, node: ast.Set, env: Env) -> Value:
        for elt in node.elts:
            self.eval(elt, env)
        return Value(order=Order.UNORDERED)

    def _eval_SetComp(self, node: ast.SetComp, env: Env) -> Value:
        self._eval_comp_generators(node, env)
        return Value(order=Order.UNORDERED)

    def _eval_List(self, node: ast.List, env: Env) -> Value:
        for elt in node.elts:
            self.eval(elt, env)
        return Value(order=Order.ORDERED)

    def _eval_Tuple(self, node: ast.Tuple, env: Env) -> Value:
        for elt in node.elts:
            self.eval(elt, env)
        return Value(order=Order.ORDERED)

    def _eval_Dict(self, node: ast.Dict, env: Env) -> Value:
        for key in node.keys:
            if key is not None:
                self.eval(key, env)
        for val in node.values:
            self.eval(val, env)
        return Value(order=Order.ORDERED)

    def _comp_env(self, node, env: Env) -> tuple[Env, bool]:
        """Environment inside a comprehension + whether any source is
        unordered (insertion order of the produced container)."""
        inner = dict(env)
        unordered = False
        for gen in node.generators:
            src = self.eval(gen.iter, inner)
            if src.order == Order.UNORDERED:
                unordered = True
            self._bind_iter_target(gen.target, src, inner, gen.iter)
            for cond in gen.ifs:
                self.eval(cond, inner)
        return inner, unordered

    def _eval_comp_generators(self, node, env: Env) -> tuple[Env, bool]:
        inner, unordered = self._comp_env(node, env)
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            value = node.elt
        elif isinstance(node, ast.SetComp):
            value = node.elt
        else:  # DictComp
            self.eval(node.key, inner)
            value = node.value
        self.eval(value, inner)
        return inner, unordered

    def _eval_ListComp(self, node: ast.ListComp, env: Env) -> Value:
        _, unordered = self._eval_comp_generators(node, env)
        if unordered:
            # Materializing unordered iteration into a list IS the
            # order-sensitive sink; flag here, once.
            for gen in node.generators:
                src = self.eval(gen.iter, env)
                self._record_iter(gen.iter, src, "list comprehension")
        return Value(order=Order.ORDERED)

    def _eval_GeneratorExp(self, node: ast.GeneratorExp, env: Env) -> Value:
        _, unordered = self._eval_comp_generators(node, env)
        return Value(order=Order.UNORDERED if unordered else Order.UNKNOWN)

    def _eval_DictComp(self, node: ast.DictComp, env: Env) -> Value:
        _, unordered = self._eval_comp_generators(node, env)
        # A dict whose insertion order came from unordered iteration has
        # unordered (run-to-run unstable) iteration order itself.
        return Value(order=Order.UNORDERED if unordered else Order.ORDERED)

    def _eval_Subscript(self, node: ast.Subscript, env: Env) -> Value:
        base = self.eval(node.value, env)
        if isinstance(node.slice, ast.expr):
            self.eval(node.slice, env)
        if base.kind == "spawnlist":
            # Element of an rng.spawn(...) batch: a fresh derived stream.
            return Value(tag=base.tag, origins=self._origin(node), kind="rng")
        return Value.BOTTOM

    def _eval_Call(self, node: ast.Call, env: Env) -> Value:
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

        if self.collect:
            args = tuple(
                [(i, v) for i, v in enumerate(arg_values)]
                + [(name, v) for name, v in kw_values if name is not None]
            )
            self.calls.append(
                CallFact(
                    module=self.module,
                    node=node,
                    resolved=resolved,
                    attr_name=attr_name,
                    args=args,
                    loop_lines=tuple(self.loop_stack),
                )
            )

        base_value = Value.BOTTOM
        if isinstance(func, ast.Attribute):
            base_value = self.eval(func.value, env)

        # --- RNG constructions ------------------------------------------
        if attr_name == "default_rng" or dotted.endswith("numpy.random.default_rng"):
            tag = Tag.UNSEEDED if _is_unseeded_args(node) else Tag.SEEDED
            return Value(tag=tag, origins=self._origin(node), kind="rng")
        if attr_name == "Generator" and (
            "random" in dotted or isinstance(func, ast.Name)
        ):
            if node.args:
                inner = arg_values[0]
                tag = inner.tag if inner.kind == "bitgen" else Tag.UNKNOWN
            else:
                tag = Tag.UNSEEDED
            if tag == Tag.UNKNOWN:
                return Value(kind="rng", tag=Tag.UNKNOWN)
            return Value(tag=tag, origins=self._origin(node), kind="rng")
        if attr_name in _BITGEN_NAMES:
            tag = Tag.UNSEEDED if _is_unseeded_args(node) else Tag.SEEDED
            return Value(tag=tag, origins=self._origin(node), kind="bitgen")
        if attr_name == "spawn" and base_value.kind == "rng":
            return Value(tag=base_value.tag, kind="spawnlist")

        # --- order constructions / laundering ---------------------------
        if attr_name == "sorted" and isinstance(func, ast.Name):
            return Value(order=Order.ORDERED)
        if attr_name in ("set", "frozenset") and isinstance(func, ast.Name):
            return Value(order=Order.UNORDERED)
        if attr_name in _ORDER_SINK_CALLS:
            for v, a in zip(arg_values, node.args):
                if v.order == Order.UNORDERED:
                    self._record_iter(node, v, f"{attr_name}()")
            return Value(order=Order.ORDERED)
        if attr_name in _SET_METHODS and base_value.order == Order.UNORDERED:
            return Value(order=Order.UNORDERED)
        if attr_name in _REDUCER_CALLS and arg_values:
            self._record_iter(node, arg_values[0], f"{attr_name}() reduction")

        # --- interprocedural return summaries ---------------------------
        # Factory functions analyzed elsewhere in the project: the engine
        # feeds their joined return value back in here, so
        # ``rng = make_stream()`` carries the factory's provenance.
        summary = self.return_summaries.get(dotted)
        if summary is not None:
            if summary.is_rng and not summary.origins:
                return replace(summary, origins=self._origin(node))
            return summary
        return Value.BOTTOM

    # -- statement-level helpers (used by FunctionAnalysis) -----------------
    def _bind_iter_target(
        self, target: ast.AST, src: Value, env: Env, iter_node: ast.AST
    ) -> None:
        """Bind a for/comprehension target from its iterable's value."""
        if src.kind == "spawnlist" and isinstance(target, ast.Name):
            env[target.id] = Value(
                tag=src.tag, origins=self._origin(iter_node), kind="rng"
            )
            return
        names: list[str] = []
        if isinstance(target, ast.Name):
            names = [target.id]
        elif isinstance(target, (ast.Tuple, ast.List)):
            names = [e.id for e in target.elts if isinstance(e, ast.Name)]
        for name in names:
            env[name] = Value.BOTTOM if name not in env else env[name]


# ---------------------------------------------------------------------------
# per-function analysis
# ---------------------------------------------------------------------------


@dataclass
class FunctionResult:
    """Fixpoint artifacts of one function: facts + a return summary."""

    module: ModuleInfo
    qualname: str
    func: ast.AST
    calls: list = field(default_factory=list)
    attr_stores: list = field(default_factory=list)
    iterations: list = field(default_factory=list)
    return_value: Value = Value.BOTTOM


def _loop_spans(func: ast.AST) -> list[tuple[int, int]]:
    """Line spans of every loop/comprehension in ``func`` (for RG102)."""
    spans = []
    for node in ast.walk(func):
        if isinstance(
            node,
            (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
             ast.DictComp, ast.GeneratorExp),
        ):
            end = getattr(node, "end_lineno", node.lineno) or node.lineno
            spans.append((node.lineno, end))
    return spans


# heapq calls that insert an entry: equal keys pop in insertion order.
_HEAP_PUSHES = {"heappush", "heappushpop", "heapreplace"}


def _loop_body_orders(body: list[ast.stmt]) -> str | None:
    """Does this loop body make iteration order observable? Returns the
    sink description, or None when the body is order-insensitive."""
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.AugAssign):
                return "augmented accumulation in loop body"
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return "yield in loop body"
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (
                func.attr if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name) else ""
            )
            if isinstance(func, ast.Attribute) and name in (
                "append", "extend", "insert"
            ):
                return f".{name}() in loop body"
            if name in _HEAP_PUSHES:
                return f"{name}() in loop body"
    return None


class FunctionAnalysis:
    """Run the forward dataflow over one function to a fixpoint, then
    collect facts on a final stable pass."""

    def __init__(
        self,
        project: Project,
        module: ModuleInfo,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        qualname: str,
        param_values: Env | None = None,
        globals_env: Env | None = None,
        max_iterations: int = 16,
        return_summaries: dict[str, Value] | None = None,
    ) -> None:
        self.project = project
        self.module = module
        self.func = func
        self.qualname = qualname
        self.param_values = param_values or {}
        self.globals_env = globals_env or {}
        self.max_iterations = max_iterations
        self.return_summaries = return_summaries or {}

    def param_names(self) -> list[str]:
        a = self.func.args
        return [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]

    def _initial_env(self) -> Env:
        env = dict(self.globals_env)
        for name in self.param_names():
            env[name] = self.param_values.get(name, Value.BOTTOM)
        return env

    # -- transfer ------------------------------------------------------------
    def _assign(self, target: ast.AST, value_node: ast.AST, value: Value,
                env: Env, ev: Evaluator) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = value
            return
        pseudo = ev._pseudo_name(target)
        if pseudo is not None:
            env[pseudo] = value
            if ev.collect and value.is_rng:
                ev.attr_stores.append(
                    AttrStoreFact(self.module, target, pseudo, value)
                )
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            if value.kind == "spawnlist":
                for i, elt in enumerate(target.elts):
                    if isinstance(elt, ast.Name):
                        env[elt.id] = Value(
                            tag=value.tag,
                            origins=ev._origin(value_node, salt=i),
                            kind="rng",
                        )
                return
            elements: list[ast.expr] | None = None
            if isinstance(value_node, (ast.Tuple, ast.List)) and len(
                value_node.elts
            ) == len(target.elts):
                elements = value_node.elts
            for i, elt in enumerate(target.elts):
                elt_value = ev.eval(elements[i], env) if elements else Value.BOTTOM
                self._assign(elt, value_node, elt_value, env, ev)

    def _transfer(self, stmt: ast.stmt, env: Env, ev: Evaluator) -> None:
        if isinstance(stmt, ast.Assign):
            value = ev.eval(stmt.value, env)
            for target in stmt.targets:
                self._assign(target, stmt.value, value, env, ev)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            value = ev.eval(stmt.value, env)
            self._assign(stmt.target, stmt.value, value, env, ev)
        elif isinstance(stmt, ast.AugAssign):
            value = ev.eval(stmt.value, env)
            pseudo = ev._pseudo_name(stmt.target)
            if pseudo is not None:
                env[pseudo] = env.get(pseudo, Value.BOTTOM).join(value)
        elif isinstance(stmt, (ast.Expr, ast.Assert, ast.Raise)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    ev.eval(child, env)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                value = ev.eval(stmt.value, env)
                self._returns = self._returns.join(value)
        elif isinstance(stmt, (ast.If, ast.While)):
            ev.eval(stmt.test, env)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            src = ev.eval(stmt.iter, env)
            ev._bind_iter_target(stmt.target, src, env, stmt.iter)
            if src.order == Order.UNORDERED:
                if ev.collect:
                    sink = _loop_body_orders(stmt.body)
                    if sink is not None:
                        ev._record_iter(stmt.iter, src, sink)
                # Dicts populated under unordered iteration inherit
                # unordered insertion (hence iteration) order.
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.Assign):
                        for t in sub.targets:
                            if isinstance(t, ast.Subscript) and isinstance(
                                t.value, ast.Name
                            ):
                                name = t.value.id
                                env[name] = env.get(name, Value.BOTTOM).join(
                                    Value(order=Order.UNORDERED)
                                )
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                ev.eval(item.context_expr, env)

    def _fixpoint(self, cfg) -> dict[int, Env]:
        """Iterate transfer functions over the CFG until envs stabilize."""
        ev = Evaluator(
            self.project, self.module, collect=False,
            return_summaries=self.return_summaries,
        )
        in_envs: dict[int, Env] = {cfg.entry.index: self._initial_env()}
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
                    if prev is None or not envs_equal(prev, joined):
                        in_envs[succ.index] = joined
                        changed = True
            if not changed:
                break
        return in_envs

    def run(self) -> FunctionResult:
        """Fixpoint, then one fact-collection sweep over stable envs."""
        cfg = build_cfg(self.func)
        spans = _loop_spans(self.func)
        self._returns = Value.BOTTOM
        in_envs = self._fixpoint(cfg)
        self._returns = Value.BOTTOM  # re-joined on the collection sweep
        ev = Evaluator(
            self.project, self.module, collect=True,
            return_summaries=self.return_summaries,
        )
        for block in cfg.rpo():
            env_in = in_envs.get(block.index)
            if env_in is None:
                continue
            env = dict(env_in)
            for stmt in block.stmts:
                line = stmt.lineno
                ev.loop_stack = [s for s in spans if s[0] <= line <= s[1]]
                self._transfer(stmt, env, ev)
        return FunctionResult(
            module=self.module,
            qualname=self.qualname,
            func=self.func,
            calls=ev.calls,
            attr_stores=ev.attr_stores,
            iterations=ev.iterations,
            return_value=self._returns,
        )


def module_env(project: Project, module: ModuleInfo) -> Env:
    """Abstract values of a module's top-level assignments."""
    ev = Evaluator(project, module, collect=False)
    env: Env = {}
    for stmt in module.tree.body:
        if isinstance(stmt, ast.Assign):
            value = ev.eval(stmt.value, env)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env[target.id] = value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            if isinstance(stmt.target, ast.Name):
                env[stmt.target.id] = ev.eval(stmt.value, env)
    return env
