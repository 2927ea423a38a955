"""Driver for the whole-program flow analysis.

``analyze_paths`` is the entry point the CLI calls: it loads every
module under the given paths into one :class:`~.project.Project`, runs
the interprocedural dataflow to a fixpoint, and evaluates the RG100
series rules over the collected facts.

Interprocedural strategy
------------------------
Every function starts with ⊥ parameter values. Each round analyzes all
functions, then

* joins the abstract argument values observed at *resolved* call sites
  into the callee's parameter summary (positional and keyword args are
  mapped through the callee's signature; ``self``/``cls`` are skipped
  for methods), and
* records each top-level function's joined return value as a *return
  summary* keyed by its dotted name, which the evaluator consults at
  call sites the next round (factory functions propagate provenance).

Rounds repeat until both summary maps stop changing (bounded at
``MAX_ROUNDS``) — monotone joins over finite lattices, so this
terminates. The final round's facts feed the rule layer.

Caching
-------
The analysis is whole-program, so per-file caching would be unsound
(editing one module can change findings in another). Instead the result
set is cached under one key: the SHA-256 of every analyzed file's
content plus the active rule set and the engine version. Any edit
anywhere invalidates the whole entry; an untouched tree re-reports in
milliseconds.
"""

from __future__ import annotations

import ast
import hashlib
import json
import pathlib
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..lint import Finding
from .dataflow import (
    AttrStoreFact,
    CallFact,
    Env,
    FunctionAnalysis,
    IterFact,
    Value,
    find_loop_spans,
    module_env,
)
from .concurrency import CONCURRENCY_RULES, analyze_concurrency_project
from .project import ModuleInfo, Project, collect_files, load_project, load_source
from .protocol import check_rg103, check_rg104
from .rules import check_rg101, check_rg102, check_rg105

__all__ = [
    "FLOW_RULES",
    "FLOW_RULE_DESCRIPTIONS",
    "CONCURRENCY_RULES",
    "ENGINE_RULES",
    "analyze_project",
    "analyze_paths",
    "analyze_source",
]

# v4: RG105 gained the float-reduction and heap-push sinks, which cached
# results of earlier engines lack; bumping the version invalidates them.
# v5: RG103 counts a function as a receiver only when it handles a tag
# the module sends, so cached findings of the older rule are stale.
ENGINE_VERSION = 5
MAX_ROUNDS = 8

FLOW_RULE_DESCRIPTIONS = {
    "RG100": "suppression comment (# repro: noqa[...]) that matches no finding",
    "RG101": "unseeded or ambiguously seeded RNG reaching fl//defenses round logic",
    "RG102": "one RNG stream aliased across client/server consumers",
    "RG103": "message tag sent with no dispatch branch, or dispatched but never sent",
    "RG104": "checkpoint field written but never restored, or read but never written",
    "RG105": "unordered iteration feeding aggregation/selection order, a float "
             "reduction or a heap push in round logic",
}
# RG100 is minted by the reporting pipeline (it needs the suppression
# table, not dataflow facts), so it is not a runnable engine rule.
FLOW_RULES = frozenset(FLOW_RULE_DESCRIPTIONS) - {"RG100"}

# Everything the engine can run: the RNG/order/protocol family and the
# RG300 concurrency/determinism family from :mod:`.concurrency`.
ENGINE_RULES = FLOW_RULES | CONCURRENCY_RULES


@dataclass
class _Record:
    """One analyzable function with its evolving parameter summary."""

    module: ModuleInfo
    qualname: str
    func: ast.AST
    is_method: bool
    summary: Env = field(default_factory=dict)
    result: object = None

    @property
    def params(self) -> list[str]:
        a = self.func.args
        names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        if self.is_method and names and names[0] in ("self", "cls"):
            names = names[1:]
        return names


def _module_pseudo_function(module: ModuleInfo) -> ast.FunctionDef:
    """Wrap a module body so top-level script code is analyzed too."""
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
    return ast.fix_missing_locations(ast.copy_location(fake, module.tree.body[0])) if module.tree.body else fake


def _project_records(project: Project) -> list[_Record]:
    records: list[_Record] = []
    for module in project.modules.values():
        if module.tree.body:
            records.append(
                _Record(module, "<module>", _module_pseudo_function(module), False)
            )
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                records.append(_Record(module, node.name, node, False))
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        records.append(
                            _Record(
                                module, f"{node.name}.{item.name}", item, True
                            )
                        )
    return records


def _callee_record(
    fact: CallFact, by_node: dict[int, _Record], init_of: dict[int, _Record]
) -> _Record | None:
    resolved = fact.resolved
    if resolved is None or resolved.node is None:
        return None
    record = by_node.get(id(resolved.node))
    if record is not None:
        return record
    # Calling a class constructs an instance: propagate into __init__.
    return init_of.get(id(resolved.node))


def _propagate_summaries(
    calls: list[CallFact],
    by_node: dict[int, _Record],
    init_of: dict[int, _Record],
) -> bool:
    """Join observed argument values into callee summaries. True if any
    summary grew (another analysis round is needed)."""
    changed = False
    for fact in calls:
        callee = _callee_record(fact, by_node, init_of)
        if callee is None:
            continue
        params = callee.params
        for key, value in fact.args:
            if value == Value.BOTTOM:
                continue
            if isinstance(key, int):
                if key >= len(params):
                    continue
                name = params[key]
            else:
                if key not in params:
                    continue
                name = key
            prev = callee.summary.get(name, Value.BOTTOM)
            joined = prev.join(value)
            if joined != prev:
                callee.summary[name] = joined
                changed = True
    return changed


def _global_envs(project: Project) -> dict[str, Env]:
    """Top-level abstract values per module, with imported names pulled
    through the import graph (one hop — module-level RNG singletons)."""
    local = {
        name: module_env(project, mod) for name, mod in project.modules.items()
    }
    out: dict[str, Env] = {}
    for name, mod in project.modules.items():
        env = dict(local[name])
        for alias, (target_mod, target_sym) in mod.imports.items():
            if target_sym is None:
                continue
            value = local.get(target_mod, {}).get(target_sym)
            if value is not None and value != Value.BOTTOM:
                env.setdefault(alias, value)
        out[name] = env
    return out


def analyze_project(
    project: Project, rules: Iterable[str] | None = None
) -> list[Finding]:
    """Run the full engine (flow + concurrency domains)."""
    active = (
        ENGINE_RULES if rules is None
        else {r.upper() for r in rules} & ENGINE_RULES
    )
    findings: list[Finding] = []
    if active & FLOW_RULES:
        findings.extend(_analyze_flow_domain(project, active & FLOW_RULES))
    if active & CONCURRENCY_RULES:
        findings.extend(
            analyze_concurrency_project(project, active & CONCURRENCY_RULES)
        )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def _analyze_flow_domain(
    project: Project, active: set[str]
) -> list[Finding]:
    """The RNG-provenance/order/protocol domain (RG101–RG105)."""
    globals_by_module = _global_envs(project)
    records = _project_records(project)
    by_node = {id(r.func): r for r in records if r.qualname != "<module>"}
    init_of: dict[int, _Record] = {}
    for module in project.modules.values():
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (
                        isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and item.name == "__init__"
                    ):
                        rec = by_node.get(id(item))
                        if rec is not None:
                            init_of[id(node)] = rec

    return_summaries: dict[str, Value] = {}
    # RG102's loop spans depend only on the AST: one walk per body.
    spans_by_record = [find_loop_spans(record.func) for record in records]
    for _round in range(MAX_ROUNDS):
        all_calls: list[CallFact] = []
        for record, spans in zip(records, spans_by_record):
            analysis = FunctionAnalysis(
                project,
                record.module,
                record.func,
                record.qualname,
                param_values=record.summary,
                globals_env=globals_by_module.get(record.module.name, {}),
                return_summaries=return_summaries,
                loop_spans=spans,
            )
            record.result = analysis.run()
            all_calls.extend(record.result.calls)

        changed = _propagate_summaries(all_calls, by_node, init_of)
        for record in records:
            if record.is_method or record.qualname == "<module>":
                continue
            ret = record.result.return_value
            if ret == Value.BOTTOM:
                continue
            dotted = f"{record.module.name}.{record.qualname}"
            if return_summaries.get(dotted) != ret:
                return_summaries[dotted] = ret
                changed = True
        if not changed:
            break

    calls: list[CallFact] = []
    attr_stores: list[AttrStoreFact] = []
    iterations: list[IterFact] = []
    for record in records:
        calls.extend(record.result.calls)
        attr_stores.extend(record.result.attr_stores)
        iterations.extend(record.result.iterations)

    findings: list[Finding] = []
    if "RG101" in active:
        findings.extend(check_rg101(calls, attr_stores))
    if "RG102" in active:
        findings.extend(check_rg102(calls))
    if "RG105" in active:
        findings.extend(check_rg105(iterations))
    for module in project.modules.values():
        if "RG103" in active:
            findings.extend(check_rg103(module))
        if "RG104" in active:
            findings.extend(check_rg104(module))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def _cache_key(
    files: list[tuple[pathlib.Path, pathlib.Path]], active: frozenset
) -> str:
    digest = hashlib.sha256()
    digest.update(f"engine-v{ENGINE_VERSION}".encode())
    digest.update(",".join(sorted(active)).encode())
    for f, _root in files:
        digest.update(str(f).encode())
        try:
            digest.update(f.read_bytes())
        except OSError:
            continue
    return digest.hexdigest()


def analyze_paths(
    paths: Sequence[pathlib.Path | str],
    rules: Iterable[str] | None = None,
    cache_dir: pathlib.Path | str | None = None,
    stats: dict | None = None,
) -> list[Finding]:
    """Analyze every ``.py`` file under ``paths`` as one program.

    When a ``stats`` dict is passed, ``stats["engine_cache"]`` is set to
    ``"hit"``, ``"miss"`` or ``"off"`` and ``stats["files"]`` to the
    analyzed file count — the CLI's ``--stats`` / baseline summary.
    """
    active = ENGINE_RULES if rules is None else frozenset(
        {r.upper() for r in rules}
    ) & ENGINE_RULES
    files = collect_files(paths)
    if stats is not None:
        stats["engine_cache"] = "off" if cache_dir is None else "miss"
        stats["files"] = len(files)

    cache_file = None
    if cache_dir is not None:
        cache_file = pathlib.Path(cache_dir) / f"{_cache_key(files, active)}.json"
        if cache_file.is_file():
            try:
                raw = json.loads(cache_file.read_text())
                findings = [Finding(**entry) for entry in raw["findings"]]
            except (ValueError, KeyError, TypeError):
                pass  # corrupt cache entry: fall through and recompute
            else:
                if stats is not None:
                    stats["engine_cache"] = "hit"
                return findings

    findings = analyze_project(load_project(paths), rules=active)

    if cache_file is not None:
        cache_file.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "engine_version": ENGINE_VERSION,
            "findings": [vars(f) for f in findings],
        }
        tmp = cache_file.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))
        tmp.replace(cache_file)
    return findings


def analyze_source(
    source: str, path: str = "mod.py", rules: Iterable[str] | None = None
) -> list[Finding]:
    """Analyze one module given as source text (tests/fixtures)."""
    return analyze_project(load_source(source, path), rules=rules)
