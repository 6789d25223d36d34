"""Graphviz DOT rendering of trees, byte-stable for golden tests."""

from __future__ import annotations

from .tree import ActionNode, BTNode, Condition

_CONTROL_LABELS = {"sequence": "→", "fallback": "?", "skipper": "⇒"}


def _escape(label: str) -> str:
    return label.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(tree: BTNode) -> str:
    """Render the tree as a DOT digraph.

    Conditions are ellipses, actions boxes, control nodes boxes labeled with
    their scan symbol; ordinal edge labels encode child order.
    """
    nodes = list(tree.iter_nodes())
    names = {node.node_id: f"n{i}" for i, node in enumerate(nodes)}
    lines = ["digraph bt {"]
    for i, node in enumerate(nodes):
        if isinstance(node, Condition):
            label, shape = node.literal, "ellipse"
        elif isinstance(node, ActionNode):
            label, shape = node.action.id, "box"
        else:
            label, shape = _CONTROL_LABELS[node.kind], "box"
        lines.append(f'  n{i} [label="{_escape(label)}", shape={shape}];')
    for node in nodes:
        name = names[node.node_id]
        for order, child in enumerate(node.children):
            lines.append(f'  {name} -> {names[child.node_id]} [label="{order}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
