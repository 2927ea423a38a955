"""Protocol rules: RG103 (message exhaustiveness) and RG104 (checkpoint
completeness).

Both are whole-module structural analyses — no abstract interpretation
needed, but impossible for a line-oriented linter:

* **RG103** pairs every *tagged send* (``conn.send(("tag", ...))``,
  ``send_bytes(pickle.dumps(("tag", ...)))``) in a module with the
  *dispatch branches* that consume tags (comparisons of a variable bound
  from ``message[0]`` or from tuple-unpacking a ``recv()``, plus
  ``match`` cases). A tag sent but never dispatched is the
  ``("evict", ids)`` class of bug: the worker silently drops the
  message. A tag dispatched but never sent is dead protocol. The rule
  only activates in modules that contain *both* sides — the
  single-module worker-pool pattern of :mod:`repro.fl.parallel`. A
  function counts as a receiver only when it dispatches on a tag the
  module sends, so a module that sends requests and checks a reply's
  ``status == "ok"`` is a sender whose receiver lives elsewhere.

* **RG104** pairs state *writers* with their *readers* —
  ``federation_state`` / ``restore_federation`` at module level and
  ``state_dict`` / ``load_state_dict`` within one class — and compares
  the constant keys written into the returned dict against the constant
  keys read back (``state["k"]``, ``state.get("k")``). A key written but
  never restored is state that silently fails to survive a resume; a key
  read but never written is a guaranteed ``KeyError`` on the restore
  path. Dynamic access (non-constant keys, ``**`` unpacking, iterating
  the state dict) disables the affected direction rather than guessing.
"""

from __future__ import annotations

import ast

from ..lint import Finding
from .project import ModuleInfo

__all__ = ["check_rg103", "check_rg104", "STATE_PAIRS"]

_SEND_ATTRS = {"send", "send_bytes", "put", "send_multipart"}
_RECV_ATTRS = {"recv", "recv_bytes", "get", "loads", "load"}

# (writer, reader) function-name pairs compared by RG104. Module-level
# pairs match anywhere in a module; method pairs match within one class.
STATE_PAIRS = (
    ("federation_state", "restore_federation"),
    ("state_dict", "load_state_dict"),
)


# ---------------------------------------------------------------------------
# RG103 — message-protocol exhaustiveness
# ---------------------------------------------------------------------------


def _unwrap_dumps(node: ast.expr) -> ast.expr:
    """``pickle.dumps(X, ...)`` → ``X`` (any ``*.dumps``/``*.dump``)."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("dumps", "dump")
        and node.args
    ):
        return node.args[0]
    return node


def _is_recv_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _RECV_ATTRS
    )


def _tag_tuple(node: ast.expr) -> str | None:
    """("tag", ...) → "tag"; None for anything else."""
    node = _unwrap_dumps(node)
    if (
        isinstance(node, ast.Tuple)
        and node.elts
        and isinstance(node.elts[0], ast.Constant)
        and isinstance(node.elts[0].value, str)
    ):
        return node.elts[0].value
    return None


def _sent_tags(tree: ast.Module) -> dict[str, ast.AST]:
    """tag -> first send site constructing a ("tag", ...) payload.

    Payloads built out-of-line count too: ``reply = ("ok", results)``
    followed by ``conn.send(reply)`` anywhere in the module registers
    "ok" — the assignment is the reported site.
    """
    tags: dict[str, ast.AST] = {}
    sent_names: set[str] = set()
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _SEND_ATTRS
            and node.args
        ):
            continue
        payload = _unwrap_dumps(node.args[0])
        tag = _tag_tuple(payload)
        if tag is not None:
            tags.setdefault(tag, node)
        elif isinstance(payload, ast.Name):
            sent_names.add(payload.id)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in sent_names
        ):
            tag = _tag_tuple(node.value)
            if tag is not None:
                tags.setdefault(tag, node)
    return tags


def _dispatch_vars(scope: ast.AST) -> tuple[set[str], set[str]]:
    """(tag_vars, msg_vars) bound inside ``scope``.

    msg_vars hold a whole received message (``msg = conn.recv()``);
    tag_vars hold its tag (``kind = msg[0]``, or the first target of
    tuple-unpacking a recv). Scoped per function so an unrelated local
    that happens to share a name elsewhere in the module never turns
    into a dispatch variable.
    """
    msg_vars: set[str] = set()
    tag_vars: set[str] = set()
    assigns = [
        node
        for node in ast.walk(scope)
        if isinstance(node, ast.Assign) and len(node.targets) == 1
    ]
    for node in assigns:
        target, value = node.targets[0], node.value
        if isinstance(target, ast.Name) and _is_recv_call(value):
            msg_vars.add(target.id)
        elif (
            isinstance(target, (ast.Tuple, ast.List))
            and target.elts
            and isinstance(target.elts[0], ast.Name)
            and _is_recv_call(value)
        ):
            tag_vars.add(target.elts[0].id)
    for node in assigns:
        target, value = node.targets[0], node.value
        if (
            isinstance(target, ast.Name)
            and isinstance(value, ast.Subscript)
            and isinstance(value.value, ast.Name)
            and value.value.id in msg_vars
            and isinstance(value.slice, ast.Constant)
            and value.slice.value == 0
        ):
            tag_vars.add(target.id)
    return tag_vars, msg_vars


def _is_tag_expr(node: ast.expr, tag_vars: set[str], msg_vars: set[str]) -> bool:
    if isinstance(node, ast.Name) and node.id in tag_vars:
        return True
    # message[0] compared directly — only for known received messages.
    return (
        isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id in msg_vars
        and isinstance(node.slice, ast.Constant)
        and node.slice.value == 0
    )


def _scopes(tree: ast.Module):
    """Each function body is its own dispatch scope; so is the module
    top level (with nested functions stripped, to avoid double counting)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _handled_tags(tree: ast.Module) -> list[dict[str, ast.AST]]:
    """Per function: tag -> first comparison/match site consuming it."""
    handled: list[dict[str, ast.AST]] = []

    def add(value: object, site: ast.AST) -> None:
        if isinstance(value, str):
            handled[-1].setdefault(value, site)

    for scope in _scopes(tree):
        tag_vars, msg_vars = _dispatch_vars(scope)
        if not tag_vars and not msg_vars:
            continue
        handled.append({})
        for node in ast.walk(scope):
            if isinstance(node, ast.Compare) and _is_tag_expr(
                node.left, tag_vars, msg_vars
            ):
                for op, comparator in zip(node.ops, node.comparators):
                    if isinstance(op, (ast.Eq, ast.NotEq)) and isinstance(
                        comparator, ast.Constant
                    ):
                        add(comparator.value, node)
                    elif isinstance(op, (ast.In, ast.NotIn)) and isinstance(
                        comparator, (ast.Tuple, ast.List, ast.Set)
                    ):
                        for elt in comparator.elts:
                            if isinstance(elt, ast.Constant):
                                add(elt.value, node)
            elif isinstance(node, ast.Match) and _is_tag_expr(
                node.subject, tag_vars, msg_vars
            ):
                for case in node.cases:
                    pattern = case.pattern
                    if isinstance(pattern, ast.MatchValue) and isinstance(
                        pattern.value, ast.Constant
                    ):
                        add(pattern.value.value, case.pattern)
    return handled


def check_rg103(module: ModuleInfo) -> list[Finding]:
    tree = module.tree
    sent = _sent_tags(tree)
    # Only modules implementing both protocol sides are in scope: a
    # sender whose receiver lives elsewhere is not checkable here, even
    # when it dispatches on its replies' status tags.
    handled: dict[str, ast.AST] = {}
    for tags in _handled_tags(tree):
        if not tags.keys() & sent.keys():
            continue
        for tag, site in tags.items():
            handled.setdefault(tag, site)
    if not handled:
        return []
    findings = []
    for tag, site in sorted(sent.items()):
        if tag not in handled:
            findings.append(
                Finding(
                    "RG103",
                    module.path,
                    site.lineno,
                    site.col_offset,
                    f"message tag {tag!r} is sent but no dispatch branch "
                    f"consumes it — the receiver will drop or crash on this "
                    f"message; add a handler (or delete the send)",
                )
            )
    for tag, site in sorted(handled.items()):
        if tag not in sent:
            findings.append(
                Finding(
                    "RG103",
                    module.path,
                    site.lineno,
                    site.col_offset,
                    f"dispatch branch handles message tag {tag!r} that no "
                    f"send constructs — dead protocol arm (or a typo'd tag "
                    f"on the send side)",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# RG104 — checkpoint completeness
# ---------------------------------------------------------------------------


def _function_defs(tree: ast.Module):
    """Yield (scope, FunctionDef) where scope is None or the ClassDef."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield None, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node, item


def _written_keys(func: ast.FunctionDef) -> tuple[dict[str, ast.AST], bool]:
    """Constant keys of dicts this function returns (directly, or via a
    variable later returned / subscript-assigned). Second value: whether
    dynamic construction was seen (disables the written-not-read check
    asymmetry in the other direction)."""
    keys: dict[str, ast.AST] = {}
    dynamic = False
    returned_names: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Name):
            returned_names.add(node.value.id)

    def eat_dict(d: ast.Dict) -> None:
        nonlocal dynamic
        for key in d.keys:
            if key is None:  # ** unpacking
                dynamic = True
            elif isinstance(key, ast.Constant) and isinstance(key.value, str):
                keys.setdefault(key.value, key)
            else:
                dynamic = True

    for node in ast.walk(func):
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict):
            eat_dict(node.value)
        elif isinstance(node, ast.Assign):
            targets = node.targets
            if (
                isinstance(node.value, ast.Dict)
                and len(targets) == 1
                and isinstance(targets[0], ast.Name)
                and targets[0].id in returned_names
            ):
                eat_dict(node.value)
            elif (
                len(targets) == 1
                and isinstance(targets[0], ast.Subscript)
                and isinstance(targets[0].value, ast.Name)
                and targets[0].value.id in returned_names
            ):
                sub = targets[0].slice
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    keys.setdefault(sub.value, targets[0])
                else:
                    dynamic = True
    return keys, dynamic


def _read_keys(func: ast.FunctionDef) -> tuple[dict[str, ast.AST], bool]:
    """Constant keys read off the function's state argument."""
    args = func.args
    params = [a.arg for a in args.posonlyargs + args.args]
    params = [p for p in params if p not in ("self", "cls")]
    if not params:
        return {}, True
    state = params[0]
    keys: dict[str, ast.AST] = {}
    dynamic = False
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == state
        ):
            sub = node.slice
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                keys.setdefault(sub.value, node)
            else:
                dynamic = True
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == state
            and node.args
        ):
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                keys.setdefault(first.value, node)
            else:
                dynamic = True
        elif (
            isinstance(node, (ast.For, ast.comprehension))
            and isinstance(node.iter, ast.Name)
            and node.iter.id == state
        ):
            dynamic = True
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("items", "keys", "values", "update", "pop")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == state
        ):
            if node.func.attr == "pop" and node.args:
                first = node.args[0]
                if isinstance(first, ast.Constant) and isinstance(first.value, str):
                    keys.setdefault(first.value, node)
                    continue
            dynamic = True
    return keys, dynamic


def check_rg104(module: ModuleInfo) -> list[Finding]:
    findings = []
    defs = list(_function_defs(module.tree))
    for writer_name, reader_name in STATE_PAIRS:
        # Group by scope: module-level pair, or both methods of one class.
        by_scope: dict[object, dict[str, ast.FunctionDef]] = {}
        for scope, func in defs:
            if func.name in (writer_name, reader_name):
                by_scope.setdefault(scope, {})[func.name] = func
        for scope, pair in by_scope.items():
            writer, reader = pair.get(writer_name), pair.get(reader_name)
            if writer is None or reader is None:
                continue
            written, w_dynamic = _written_keys(writer)
            read, r_dynamic = _read_keys(reader)
            if not written and not read:
                continue
            where = f" (class {scope.name})" if isinstance(scope, ast.ClassDef) else ""
            if not r_dynamic:
                for key, site in sorted(written.items()):
                    if key not in read:
                        findings.append(
                            Finding(
                                "RG104",
                                module.path,
                                site.lineno,
                                site.col_offset,
                                f"checkpoint field {key!r} is written by "
                                f"{writer_name}{where} but never read by "
                                f"{reader_name} — it will not survive a "
                                f"resume",
                            )
                        )
            if not w_dynamic:
                for key, site in sorted(read.items()):
                    if key not in written:
                        findings.append(
                            Finding(
                                "RG104",
                                module.path,
                                site.lineno,
                                site.col_offset,
                                f"{reader_name}{where} reads checkpoint "
                                f"field {key!r} that {writer_name} never "
                                f"writes — restore will fail or silently "
                                f"default",
                            )
                        )
    return findings
