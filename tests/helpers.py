"""Test-only helpers: canonical domain text, tree documents and structure checks.

``serialize_domain`` renders a parsed spec back to canonical domain text, so
that parse -> serialize -> parse is the identity; the round-trip tests use
it.  ``tree_to_doc`` builds a tree's format-1 document, the reference that
``bbt.treefile.dumps_tree`` is checked against.  ``validate_tree`` checks
the structural invariants of a tree.  ``assignment_of`` reads a physical
state's statuses back as a literal-to-status ``dict``, ``physical_state``
builds a state that returns a given status and holds given latches, and
``walk_leaves``
runs the classic leaf walk on a state given as such a ``dict``.
``ended`` runs one belief tick that leaves no action pending and builds
the states its entries end in, as ``simulate`` does.  ``template`` looks a
grounded template up by its id.  ``frozen_by_definition`` finds a tree's
frozen literals by a walk of the tree itself, the reference for
:attr:`bbt.tree.TreeTables.frozen`.
"""

from __future__ import annotations

from bbt import classic
from bbt.belief import BeliefState, PhysicalState
from bbt.domain import Assignment, BodyExpr, BodyLeaf, DomainSpec, format_literal
from bbt.engine import belief_tick
from bbt.status import Status
from bbt.tree import ActionNode, BTNode, Condition, Fallback, Sequence, Skipper
from bbt.treefile import FORMAT_VERSION


def assignment_of(state) -> dict:
    """The literal -> status ``dict`` of a :class:`~bbt.belief.PhysicalState`."""
    return dict(zip(state.literals, state.values))


def physical_state(assignment: dict, r: Status = Status.R, latches=None) -> PhysicalState:
    """A state over ``assignment`` that returns ``r`` and holds ``latches``.

    The constructor builds only initial states, so this derives the state
    from one, the way a tick derives the states it makes.
    """
    initial = PhysicalState(assignment)
    latches = dict(latches or {})
    key = (initial.literals, initial.values, r, tuple(sorted(latches.items())))
    return initial._derived(latches, key, None)


def ended(node: BTNode, belief: BeliefState, tables) -> BeliefState:
    """One belief tick of ``node``, each entry in the state it ends in; none is left pending."""
    out = []
    for p, s, r, pending, blame in belief_tick(node, belief, tables):
        assert pending is None
        out.append((p, s.ticked(r, blame)))
    return BeliefState(out)


def template(domain, template_id: str):
    """The grounded template of ``domain`` whose id is ``template_id``."""
    (found,) = (t for t in domain.templates if t.id == template_id)
    return found


def walk_leaves(program, state: dict, latches: dict):
    """``bbt.classic._walk_leaves`` on the literal -> status ``dict`` ``state``."""
    index = {literal: i for i, literal in enumerate(state)}
    return classic._walk_leaves(program, index, list(state.values()), latches)


def _fmt_number(x: float) -> str:
    return repr(float(x))


def _fmt_asgn(asgn: Assignment) -> str:
    return f"{format_literal(asgn.name, asgn.args)} = {asgn.value}"


def _fmt_asgnset(assignments: tuple[Assignment, ...]) -> str:
    if not assignments:
        return "{ }"
    return "{ " + " ; ".join(_fmt_asgn(a) for a in assignments) + " }"


def _fmt_body(expr: BodyExpr, indent: int) -> list[str]:
    pad = "  " * indent
    if isinstance(expr, BodyLeaf):
        return [f"{pad}{expr.ref} {expr.name}({', '.join(expr.args)})"]
    lines = [f"{pad}{expr.op} {{"]
    for child in expr.children:
        lines.extend(_fmt_body(child, indent + 1))
    lines.append(f"{pad}}}")
    return lines


def serialize_domain(spec: DomainSpec) -> str:
    """Render a spec back to canonical domain text."""
    out: list[str] = []
    for space in spec.params:
        out.append(f"param {space.name} {{ {' '.join(space.instances)} }}")
    if spec.params:
        out.append("")
    for cond in spec.conditions:
        sig = f"({', '.join(cond.params)})" if cond.params else ""
        values = " ".join(str(v) for v in cond.values)
        out.append(f"condition {cond.name}{sig} values {{ {values} }}")
    if spec.conditions:
        out.append("")
    for action in spec.actions:
        sig = f"({', '.join(action.params)})" if action.params else ""
        out.append(f"action {action.name}{sig} {{")
        out.append(f"  pre {_fmt_asgnset(action.preconditions)}")
        for outcome in action.outcomes:
            report = f" -> {outcome.report}" if outcome.report is not None else ""
            out.append(
                f"  outcome {_fmt_number(outcome.probability)}{report} "
                f"{_fmt_asgnset(outcome.assignments)}"
            )
        out.append("}")
        out.append("")
    for template in spec.templates:
        out.append(f"template {template.name}({', '.join(template.params)}) {{")
        out.append(f"  pre {_fmt_asgnset(template.preconditions)}")
        for outcome in template.declared:
            out.append(
                f"  declared {_fmt_number(outcome.probability)} "
                f"{_fmt_asgnset(outcome.assignments)}"
            )
        body_lines = _fmt_body(template.body, 1)
        out.append("  body " + body_lines[0].strip())
        out.extend(body_lines[1:])
        out.append("}")
        out.append("")
    if spec.initial:
        out.append(f"initial {_fmt_asgnset(spec.initial)}")
    if spec.goal or spec.goal_probability is not None:
        out.append(
            f"goal {_fmt_asgnset(spec.goal)} prob {_fmt_number(spec.goal_probability or 1.0)}"
        )
    return "\n".join(out).rstrip("\n") + "\n"


def tree_to_doc(tree: BTNode) -> dict:
    """The tree file document of ``tree``, as ``bbt.treefile.tree_from_doc`` reads it."""
    root: dict = {}
    # (node, its document) pairs still to fill in; an explicit stack, so
    # depth is not bounded by Python's recursion limit
    stack = [(tree, root)]
    while stack:
        node, doc = stack.pop()
        doc["kind"] = node.kind
        if isinstance(node, Condition):
            doc["literal"] = node.literal
        elif isinstance(node, ActionNode):
            doc["action"] = node.action.id
        else:
            children = doc["children"] = [{} for _ in node.children]
            stack.extend(zip(node.children, children))
    return {"format": FORMAT_VERSION, "root": root}


def validate_tree(tree: BTNode) -> None:
    """Check the structural invariants: leaf/control arity and unique ids."""
    seen: set[int] = set()
    for node in tree.iter_nodes():
        if node.node_id in seen:
            raise ValueError(f"duplicate node id {node.node_id}")
        seen.add(node.node_id)
        if isinstance(node, (Condition, ActionNode)):
            if node.children:
                raise ValueError(f"leaf {node!r} has children")
        elif not node.children:
            raise ValueError(f"control node {node!r} has no children")


def frozen_by_definition(tree: BTNode) -> set[str]:
    """The literals that gate a child of the Sequence root ``tree`` and that
    no action outside the children gated on them clobbers.

    A child's gate is the condition that ends its leftmost path when every
    node on that path is a Fallback or a Skipper.  Each root child is walked
    in full, with no :class:`~bbt.tree.TreeTables` involved.
    """
    if not isinstance(tree, Sequence):
        return set()
    children = []
    for child in tree.children:
        node = child
        while isinstance(node, (Fallback, Skipper)):
            node = node.children[0]
        gate = node.literal if isinstance(node, Condition) else None
        clobbers = set()
        for node in child.iter_nodes():
            if isinstance(node, ActionNode):
                clobbers.update(node.action.clobbers)
        children.append((gate, clobbers))
    gates = {gate for gate, _ in children if gate is not None}
    return {
        literal
        for literal in gates
        if all(gate == literal or literal not in clobbers for gate, clobbers in children)
    }
