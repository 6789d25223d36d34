"""Versioned JSON tree files.

Schema (format 1): the document is ``{"format": 1, "root": <node>}`` where a
node is one of::

    {"kind": "sequence" | "fallback" | "skipper", "children": [<node>, ...]}
    {"kind": "condition", "literal": "<grounded literal>"}
    {"kind": "action", "action": "<grounded action id>"}

Output is byte-stable for identical trees.  A tree file holds structure
only: latches are per-run executor state, never part of a tree, so a loaded
tree can be simulated or executed any number of times as it is.
"""

from __future__ import annotations

import json
from pathlib import Path

from .domain import GroundedDomain
from .errors import SemanticError
from .tree import ActionNode, BTNode, Condition, CONTROL_KINDS

FORMAT_VERSION = 1


def dumps_tree(tree: BTNode) -> str:
    """The tree file text, byte for byte ``json.dumps(doc, indent=2)`` plus a newline.

    ``doc`` is the tree's format-1 document (see the module docstring).  The
    text is written in one explicit-stack pass over the tree, with no
    document in between and no recursion; each string goes through
    ``json.dumps``, so escaping is the same.
    """
    out = [f'{{\n  "format": {FORMAT_VERSION},\n  "root": ']
    # (node, indent of its braces) to write, or text to write as it is
    stack: list = [(tree, 2)]
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            out.append(item)
            continue
        node, indent = item
        pad, key_pad = " " * indent, " " * (indent + 2)
        out.append(f'{{\n{key_pad}"kind": {json.dumps(node.kind)},\n{key_pad}')
        if isinstance(node, Condition):
            out.append(f'"literal": {json.dumps(node.literal)}\n{pad}}}')
        elif isinstance(node, ActionNode):
            out.append(f'"action": {json.dumps(node.action.id)}\n{pad}}}')
        else:
            item_pad = " " * (indent + 4)
            out.append(f'"children": [\n{item_pad}')
            stack.append(f"\n{key_pad}]\n{pad}}}")
            children = node.children
            for i in range(len(children) - 1, 0, -1):
                stack.append((children[i], indent + 4))
                stack.append(f",\n{item_pad}")
            stack.append((children[0], indent + 4))
    out.append("\n}\n")
    return "".join(out)


def save_tree(tree: BTNode, path: str | Path) -> None:
    """Write the tree file of ``tree`` to ``path``."""
    Path(path).write_text(dumps_tree(tree), encoding="utf-8")


def tree_from_doc(doc: dict, domain: GroundedDomain) -> BTNode:
    """Decode a tree document, raising :class:`SemanticError` on any schema violation.

    Nodes are checked in pre-order and built in post-order, children before
    their parent, over an explicit stack.
    """
    if not isinstance(doc, dict):
        raise SemanticError("tree file is not a JSON object")
    version = doc.get("format")
    # True == 1 and 1.0 == 1, so the type is checked too
    if type(version) is not int or version != FORMAT_VERSION:
        raise SemanticError(f"unsupported tree file format {version!r}")
    root = doc.get("root")
    if not isinstance(root, dict):
        raise SemanticError("tree file has no root node")
    built: list[BTNode] = []
    # (None, document node) to decode, or (child count, control class) to
    # build from the last that many nodes built
    stack: list[tuple] = [(None, root)]
    while stack:
        count, node = stack.pop()
        if count is not None:
            children = built[len(built) - count :]
            del built[len(built) - count :]
            built.append(node(children))
            continue
        if not isinstance(node, dict):
            raise SemanticError(f"tree node is not a JSON object: {node!r}")
        kind = node.get("kind")
        if kind == "condition":
            literal = node.get("literal")
            if not isinstance(literal, str) or literal not in domain.allowed_values:
                raise SemanticError(f"tree references unknown literal {literal!r}")
            built.append(Condition(literal))
        elif kind == "action":
            action_id = node.get("action")
            action = domain.actions_by_id.get(action_id) if isinstance(action_id, str) else None
            if action is None:
                raise SemanticError(f"tree references unknown action {action_id!r}")
            built.append(ActionNode(action))
        elif isinstance(kind, str) and kind in CONTROL_KINDS:
            children = node.get("children") or []
            if not isinstance(children, list):
                raise SemanticError(f"{kind} node children are not a JSON list: {children!r}")
            if not children:
                raise SemanticError(f"{kind} node in tree file has no children")
            stack.append((len(children), CONTROL_KINDS[kind]))
            stack.extend((None, child) for child in reversed(children))
        else:
            raise SemanticError(f"unknown tree node kind {kind!r}")
    return built[0]


def load_tree(path: str | Path, domain: GroundedDomain) -> BTNode:
    """Read and decode a tree file; every bad file raises :class:`SemanticError`.

    A file that is not UTF-8 text is rejected as such.  The JSON decoder
    recurses once per level, so a file nested past Python's recursion limit
    is rejected as too deep.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise SemanticError(f"{path}: not UTF-8 text") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SemanticError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError:
        raise SemanticError(f"{path}: tree file nested too deeply") from None
    return tree_from_doc(doc, domain)
