"""Project model: parsed modules, symbol tables, and the import graph.

A :class:`Project` is the whole-program view the dataflow pass runs
over. Every analyzed ``.py`` file becomes a :class:`ModuleInfo` with

* a dotted module name derived from its path (``src/repro/fl/server.py``
  → ``repro.fl.server``; ``benchmarks/bench_x.py`` → ``benchmarks.bench_x``);
* its parsed AST and source lines;
* a symbol table of top-level definitions (functions, classes,
  assignments);
* an import map resolving local names to ``(module, symbol)`` targets —
  including relative imports, so ``from .client import FLClient`` inside
  ``repro.fl.parallel`` resolves to ``repro.fl.client:FLClient``.

:meth:`Project.resolve_call` chases a call expression through the import
map to the defining module and definition node when both live inside the
project, and otherwise returns the best-effort dotted name (so rules can
still pattern-match external targets such as
``numpy.random.default_rng``).
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass, field
from typing import Sequence

__all__ = [
    "OUT_OF_PACKAGE_TREES",
    "ROUND_LOGIC_DIRS",
    "ModuleInfo",
    "Project",
    "Resolved",
    "collect_files",
    "in_dirs",
    "is_round_logic",
    "load_project",
]

# Directory names never analyzed: test fixtures are *intentionally*
# buggy, caches and egg-info are not source. One shared definition with
# the plain linter so the two passes agree on what "the tree" is.
from ..lint import EXCLUDED_DIR_NAMES  # noqa: E402

# Trees analyzed alongside the package but never part of it: tests,
# benchmarks and examples legitimately shuffle schedules, iterate sets
# and build narrow arrays.
OUT_OF_PACKAGE_TREES = frozenset({"tests", "benchmarks", "examples"})
# Package directories holding round logic (federation actors and
# aggregators).
ROUND_LOGIC_DIRS = frozenset({"fl", "defenses"})


def in_dirs(path: str | pathlib.PurePath, dirs) -> bool:
    """Whether any component of ``path`` is one of ``dirs``."""
    return not frozenset(dirs).isdisjoint(pathlib.PurePath(path).parts)


def is_round_logic(path: str) -> bool:
    """Package round logic: under ``fl/`` or ``defenses/``, outside the
    tests/benchmarks/examples trees."""
    return in_dirs(path, ROUND_LOGIC_DIRS) and not in_dirs(
        path, OUT_OF_PACKAGE_TREES
    )


@dataclass
class ModuleInfo:
    """One parsed module of the analyzed project."""

    name: str                       # dotted name, e.g. "repro.fl.server"
    path: str                       # path as reported in findings
    tree: ast.Module
    source: str
    # local name -> (target module dotted name, symbol or None for
    # whole-module imports)
    imports: dict[str, tuple[str, str | None]] = field(default_factory=dict)
    # top-level definition name -> AST node (FunctionDef/ClassDef/Assign)
    symbols: dict[str, ast.AST] = field(default_factory=dict)

    @property
    def parts(self) -> tuple[str, ...]:
        return pathlib.PurePath(self.path).parts


@dataclass(frozen=True)
class Resolved:
    """Resolution result for a call/attribute chain.

    ``dotted`` is always set (best effort); ``module``/``node`` only when
    the target is defined inside the project.
    """

    dotted: str
    module: ModuleInfo | None = None
    node: ast.AST | None = None

    @property
    def basename(self) -> str:
        return self.dotted.rsplit(".", 1)[-1]


def _module_name(path: pathlib.Path, root: pathlib.Path) -> str:
    """Dotted module name for ``path`` analyzed under ``root``."""
    parts = list(path.parts)
    if "src" in parts:
        # src layout: everything after the last "src" is the package path.
        parts = parts[len(parts) - parts[::-1].index("src"):]
    else:
        try:
            rel = path.relative_to(root)
        except ValueError:
            rel = pathlib.Path(path.name)
        prefix = [root.name] if root.is_dir() else []
        parts = prefix + list(rel.parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(p for p in parts if p)


def _parse_imports(tree: ast.Module, module_name: str) -> dict[str, tuple[str, str | None]]:
    imports: dict[str, tuple[str, str | None]] = {}
    pkg_parts = module_name.split(".")[:-1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                imports[local] = (target, None)
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative import
                base = pkg_parts[: len(pkg_parts) - (node.level - 1)]
                mod = ".".join(base + ([node.module] if node.module else []))
            else:
                mod = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                imports[alias.asname or alias.name] = (mod, alias.name)
    return imports


def _parse_symbols(tree: ast.Module) -> dict[str, ast.AST]:
    symbols: dict[str, ast.AST] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            symbols[node.name] = node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    symbols[target.id] = node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            symbols[node.target.id] = node
    return symbols


def collect_files(paths: Sequence[pathlib.Path | str]) -> list[tuple[pathlib.Path, pathlib.Path]]:
    """Expand ``paths`` to (file, owning root) pairs, skipping excluded dirs."""
    out: list[tuple[pathlib.Path, pathlib.Path]] = []
    for raw in paths:
        p = pathlib.Path(raw)
        if p.is_dir():
            for f in sorted(p.rglob("*.py")):
                if EXCLUDED_DIR_NAMES.isdisjoint(f.parts):
                    out.append((f, p))
        elif p.suffix == ".py":
            out.append((p, p.parent))
    return out


class Project:
    """All analyzed modules plus cross-module resolution helpers."""

    def __init__(self, modules: list[ModuleInfo]) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        for m in modules:
            # First module wins on (unlikely) name collisions; keep both
            # analyzable by falling back to the path-flavored name.
            key = m.name
            while key in self.modules:
                key += "_"
            m.name = key
            self.modules[key] = m

    # -- resolution ---------------------------------------------------------
    @staticmethod
    def dotted_chain(node: ast.AST) -> list[str] | None:
        """``a.b.c`` → ["a", "b", "c"]; None when the root is not a Name."""
        chain: list[str] = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            chain.append(node.id)
            return chain[::-1]
        return None

    def _lookup(self, module: str, symbol: str) -> tuple[ModuleInfo, ast.AST] | None:
        info = self.modules.get(module)
        if info is None:
            return None
        node = info.symbols.get(symbol)
        if node is not None:
            return info, node
        # Re-exported through the module's own imports (e.g. package
        # __init__ pulling a class up): follow one hop.
        target = info.imports.get(symbol)
        if target is not None:
            mod, sym = target
            return self._lookup(mod, sym if sym is not None else symbol)
        return None

    def resolve_chain(self, module: ModuleInfo, chain: list[str]) -> Resolved:
        """Resolve a dotted name chain from ``module``'s namespace."""
        root, rest = chain[0], chain[1:]
        if root in module.imports:
            target_mod, target_sym = module.imports[root]
            if target_sym is None:
                # ``import numpy as np`` → np.random.default_rng
                dotted = ".".join([target_mod, *rest])
                if rest:
                    hit = self._lookup(".".join([target_mod, *rest[:-1]]), rest[-1])
                    if hit is None and len(rest) == 1:
                        hit = self._lookup(target_mod, rest[0])
                    if hit is not None:
                        return Resolved(dotted, *hit)
                return Resolved(dotted)
            # ``from x import y`` → y(.z...)
            dotted = ".".join([target_mod, target_sym, *rest])
            hit = self._lookup(target_mod, target_sym)
            if hit is not None and not rest:
                return Resolved(dotted, *hit)
            return Resolved(dotted)
        if root in module.symbols and not rest:
            return Resolved(f"{module.name}.{root}", module, module.symbols[root])
        return Resolved(".".join(chain))

    def resolve_call(self, module: ModuleInfo, func: ast.AST) -> Resolved | None:
        """Resolve a Call's ``func`` expression; None for computed targets."""
        chain = self.dotted_chain(func)
        if chain is None:
            return None
        return self.resolve_chain(module, chain)


def load_project(paths: Sequence[pathlib.Path | str]) -> Project:
    """Parse every ``.py`` file under ``paths`` into a :class:`Project`.

    Files that fail to parse are skipped here — the plain linter already
    reports them as RG000, so the flow pass does not duplicate that.
    """
    modules: list[ModuleInfo] = []
    for f, root in collect_files(paths):
        try:
            source = f.read_text()
            tree = ast.parse(source, filename=str(f))
        except (SyntaxError, OSError, UnicodeDecodeError):
            continue
        name = _module_name(f, root)
        info = ModuleInfo(name=name, path=str(f), tree=tree, source=source)
        info.imports = _parse_imports(tree, name)
        info.symbols = _parse_symbols(tree)
        modules.append(info)
    return Project(modules)


def load_source(source: str, path: str) -> Project:
    """Single-module project from source text (test/fixture convenience)."""
    tree = ast.parse(source, filename=path)
    name = _module_name(pathlib.Path(path), pathlib.Path(path).parent)
    info = ModuleInfo(name=name, path=path, tree=tree, source=source)
    info.imports = _parse_imports(tree, name)
    info.symbols = _parse_symbols(tree)
    return Project([info])
