"""Versioned JSON tree files.

Schema (format 1): the document is ``{"format": 1, "root": <node>}`` where a
node is one of::

    {"kind": "sequence" | "fallback" | "skipper", "children": [<node>, ...]}
    {"kind": "condition", "literal": "<grounded literal>"}
    {"kind": "action", "action": "<grounded action id>"}

Output is byte-stable for identical trees.  A tree file holds structure
only: latches are per-run executor state, never part of a tree, so a loaded
tree can be simulated or executed any number of times as it is.

A loaded tree is at most :data:`MAX_DEPTH` levels deep, on every
interpreter.  :func:`dumps_tree` writes a tree of any depth, so a deeper
tree can be saved, but :func:`load_tree` rejects its file.
"""

from __future__ import annotations

import json
import os
from itertools import accumulate
from json.encoder import encode_basestring_ascii as _quote

from .domain import GroundedDomain
from .errors import SemanticError
from .tree import ActionNode, BTNode, Condition, CONTROL_KINDS

FORMAT_VERSION = 1

#: Levels, nodes on the longest root-to-leaf path, a loaded tree file may
#: hold.  The JSON decoders recurse once per nesting level, and CPython
#: 3.11's, the first to give up, stops at 493 tree levels; so every
#: interpreter decodes such a file, and the belief tick, which recurses once
#: per level, simulates it.
MAX_DEPTH = 400


def dumps_tree(tree: BTNode) -> str:
    """The tree file text, byte for byte ``json.dumps(doc, indent=2)`` plus a newline.

    ``doc`` is the tree's format-1 document (see the module docstring).  The
    text is written in one explicit-stack pass over the tree, with no
    document in between and no recursion.  Strings are escaped as
    ``json.dumps`` escapes them, and the text around them is built once per
    node class and indent.
    """
    out = [f'{{\n  "format": {FORMAT_VERSION},\n  "root": ']
    texts: dict[tuple[type, int], tuple[str, str, str]] = {}
    # (node, indent of its braces) to write, or text to write as it is
    stack: list = [(tree, 2)]
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            out.append(item)
            continue
        node, indent = item
        text = texts.get((node.__class__, indent))
        if text is None:
            text = texts[node.__class__, indent] = _node_text(node, indent)
        head, tail, between = text
        if isinstance(node, Condition):
            out += (head, _quote(node.literal), tail)
        elif isinstance(node, ActionNode):
            out += (head, _quote(node.action.id), tail)
        else:
            out.append(head)
            stack.append(tail)
            children = node.children
            for i in range(len(children) - 1, 0, -1):
                stack.append((children[i], indent + 4))
                stack.append(between)
            stack.append((children[0], indent + 4))
    out.append("\n}\n")
    return "".join(out)


def _node_text(node: BTNode, indent: int) -> tuple[str, str, str]:
    """The text of ``node``'s class at ``indent``: before its value, after it, between children."""
    pad, key_pad = " " * indent, " " * (indent + 2)
    head = f'{{\n{key_pad}"kind": {_quote(node.kind)},\n{key_pad}'
    if isinstance(node, Condition):
        return f'{head}"literal": ', f"\n{pad}}}", ""
    if isinstance(node, ActionNode):
        return f'{head}"action": ', f"\n{pad}}}", ""
    item_pad = " " * (indent + 4)
    return f'{head}"children": [\n{item_pad}', f"\n{key_pad}]\n{pad}}}", f",\n{item_pad}"


def save_tree(tree: BTNode, path: str | os.PathLike[str]) -> None:
    """Write the tree file of ``tree`` to ``path``."""
    text = dumps_tree(tree)
    with open(path, "w", encoding="utf-8") as file:
        file.write(text)


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
            # only a missing key reads as no children; null, {} or 0 is a wrong type
            children = node.get("children", [])
            if not isinstance(children, list):
                raise SemanticError(f"{kind} node children are not a JSON list: {children!r}")
            if not children:
                raise SemanticError(f"{kind} node in tree file has no children")
            stack.append((len(children), CONTROL_KINDS[kind]))
            stack.extend((None, child) for child in reversed(children))
        else:
            raise SemanticError(f"unknown tree node kind {kind!r}")
    return built[0]


def _nests_deeper(text: str, limit: int) -> bool:
    """Whether ``text`` nests JSON objects and arrays more than ``limit`` deep.

    Brackets inside strings do not count.  Text with at most ``limit``
    opening brackets in all needs no scan; otherwise the brackets outside
    strings are summed up in one pass, without recursion.
    """
    if text.count("{") + text.count("[") <= limit:
        return False
    # without escaped backslashes and quotes, every quote opens or closes a string
    data = text.replace("\\\\", "").replace('\\"', "").encode()
    syntax = data.translate(None, bytes(b for b in range(256) if b not in b'"[]{}'))
    outside = b"".join(syntax.split(b'"')[::2])
    step = {ord("{"): 1, ord("["): 1, ord("}"): -1, ord("]"): -1}
    return max(accumulate(map(step.__getitem__, outside)), default=0) > limit


def load_tree(path: str | os.PathLike[str], domain: GroundedDomain) -> BTNode:
    """Read and decode a tree file; every bad file raises :class:`SemanticError`.

    A file that is not UTF-8 text is rejected as such, and so is a file
    nested deeper than a tree of :data:`MAX_DEPTH` levels, before it is
    decoded: a tree of n levels nests 2n deep, the document's object, an
    object and a children array per control node, and the leaf's object.
    The decoder recurses, so a caller deep in the stack may still see it
    give up first; that is reported the same way.
    """
    try:
        with open(path, encoding="utf-8") as file:
            text = file.read()
    except UnicodeDecodeError:
        raise SemanticError(f"{path}: not UTF-8 text") from None
    if _nests_deeper(text, 2 * MAX_DEPTH):
        raise SemanticError(f"{path}: tree file nested too deeply")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SemanticError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError:
        raise SemanticError(f"{path}: tree file nested too deeply") from None
    return tree_from_doc(doc, domain)
