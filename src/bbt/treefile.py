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


def tree_to_doc(tree: BTNode) -> dict:
    def encode(node: BTNode) -> dict:
        if isinstance(node, Condition):
            return {"kind": node.kind, "literal": node.literal}
        if isinstance(node, ActionNode):
            return {"kind": node.kind, "action": node.action.id}
        return {"kind": node.kind, "children": [encode(c) for c in node.children]}

    return {"format": FORMAT_VERSION, "root": encode(tree)}


def dumps_tree(tree: BTNode) -> str:
    return json.dumps(tree_to_doc(tree), indent=2) + "\n"


def save_tree(tree: BTNode, path: str | Path) -> None:
    """Write the tree file; the encoders recurse once or twice per level."""
    try:
        text = dumps_tree(tree)
    except RecursionError:
        raise SemanticError(f"{path}: tree nested too deeply to write") from None
    Path(path).write_text(text, encoding="utf-8")


def tree_from_doc(doc: dict, domain: GroundedDomain) -> BTNode:
    """Decode a tree document, raising :class:`SemanticError` on any schema violation."""
    if not isinstance(doc, dict):
        raise SemanticError("tree file is not a JSON object")
    if doc.get("format") != FORMAT_VERSION:
        raise SemanticError(f"unsupported tree file format {doc.get('format')!r}")

    def decode(node) -> BTNode:
        if not isinstance(node, dict):
            raise SemanticError(f"tree node is not a JSON object: {node!r}")
        kind = node.get("kind")
        if kind == "condition":
            literal = node.get("literal")
            if not isinstance(literal, str) or literal not in domain.allowed_values:
                raise SemanticError(f"tree references unknown literal {literal!r}")
            return Condition(literal)
        if kind == "action":
            action_id = node.get("action")
            action = domain.actions_by_id.get(action_id) if isinstance(action_id, str) else None
            if action is None:
                raise SemanticError(f"tree references unknown action {action_id!r}")
            return ActionNode(action)
        if isinstance(kind, str) and kind in CONTROL_KINDS:
            children = node.get("children") or []
            if not isinstance(children, list):
                raise SemanticError(f"{kind} node children are not a JSON list: {children!r}")
            if not children:
                raise SemanticError(f"{kind} node in tree file has no children")
            return CONTROL_KINDS[kind]([decode(c) for c in children])
        raise SemanticError(f"unknown tree node kind {kind!r}")

    root = doc.get("root")
    if not isinstance(root, dict):
        raise SemanticError("tree file has no root node")
    return decode(root)


def load_tree(path: str | Path, domain: GroundedDomain) -> BTNode:
    """Read and decode a tree file; every bad file raises :class:`SemanticError`.

    A file that is not UTF-8 text is rejected as such.  The JSON decoder and
    :func:`tree_from_doc` recurse once per level, so a file nested past
    Python's recursion limit is rejected as too deep.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise SemanticError(f"{path}: not UTF-8 text") from None
    try:
        return tree_from_doc(json.loads(text), domain)
    except json.JSONDecodeError as exc:
        raise SemanticError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError:
        raise SemanticError(f"{path}: tree file nested too deeply") from None
