"""Behavior tree structure: control nodes, leaves, and tree walks.

A tree is a value: it holds no execution state.  Action latches belong to
one run and live with the executor (a per-run dict in :mod:`bbt.classic`,
per-branch views in :class:`~bbt.belief.PhysicalState`), so the same tree
can be executed or simulated any number of times without a reset.
:class:`TreeTables` holds the tables of one pre-order walk: tick order,
parents, depths, the action nodes that can break each literal and the
gates at which a root tick passes a settled goal child.
A planner edit updates them in place instead of a new walk.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator

from .belief import ActionInstance
from .status import Status

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import ClassVar

_node_ids = itertools.count()


class BTNode:
    """Base tree node; ``node_id`` is unique and survives planner edits."""

    kind: ClassVar[str] = "node"
    __slots__ = ("node_id", "children")

    def __init__(self, children: Iterable["BTNode"] = ()):
        self.node_id = next(_node_ids)
        self.children = list(children)

    def iter_nodes(self) -> Iterator["BTNode"]:
        """Pre-order traversal, which is also tick order.

        An explicit stack, so the depth of a tree is not bounded by Python's
        recursion limit.
        """
        stack: list[BTNode] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(id={self.node_id}, {len(self.children)} children)"


class ControlNode(BTNode):
    """Generic left-to-right scan over children.

    The three control kinds share one execution algorithm and differ only in
    the status on which the scan moves to the next child; the first child
    returning anything else decides the node's own return.
    """

    continue_status: ClassVar[Status]

    def __init__(self, children: Iterable[BTNode]):
        super().__init__(children)
        if not self.children:
            raise ValueError(f"{self.kind} node needs at least one child")


class Sequence(ControlNode):
    kind = "sequence"
    continue_status = Status.S


class Fallback(ControlNode):
    kind = "fallback"
    continue_status = Status.F


class Skipper(ControlNode):
    kind = "skipper"
    continue_status = Status.R


class Condition(BTNode):
    """Leaf returning the stored value of one grounded literal."""

    kind = "condition"
    __slots__ = ("literal",)

    def __init__(self, literal: str):
        super().__init__()
        self.literal = literal

    def __repr__(self) -> str:
        return f"Condition({self.literal!r}, id={self.node_id})"


class ActionNode(BTNode):
    """Leaf wrapping a grounded action.

    Within one run an action latches: fresh -> pending -> done, and done is
    absorbing, so a finished action never executes again and replays its
    report status.  The latch is executor state keyed by ``node_id``; the
    node itself carries only the action.
    """

    kind = "action"
    __slots__ = ("action",)

    def __init__(self, action: ActionInstance):
        super().__init__()
        self.action = action

    def __repr__(self) -> str:
        return f"ActionNode({self.action.id!r}, id={self.node_id})"


CONTROL_KINDS = {cls.kind: cls for cls in (Sequence, Fallback, Skipper)}


class TreeTables:
    """Per-tree lookup tables of one pre-order walk.

    ``order`` lists the nodes in tick order and ``rank`` maps a node id to
    its index there.  ``parent`` maps a node id to its parent node,
    ``depth`` to its edge distance from the root and ``top`` to the child
    of the root that holds it (the root maps to itself).

    ``clobberers`` maps a literal to the action nodes that can break it
    (:attr:`~bbt.belief.ActionInstance.clobbers`), for the planner's threat
    search; an edit only adds nodes, so renumbering leaves it current.

    ``gates`` maps the id of a child of a Sequence root to its gate: the
    condition at the end of the child's leftmost path when every node on
    that path is a Fallback or a Skipper.  None of those continues on S, so
    an entry that reads S at the gate returns S from the whole child,
    unchanged (see :func:`~bbt.engine.belief_tick`).  A child without a
    gate, and every child of any other root, has no entry.  ``gated`` maps
    a gate's literal to the root children gated on it.

    A literal L is ``frozen`` when ``L in gated`` and every node of
    ``clobberers.get(L, ())`` has its ``top`` in ``gated[L]``: some root
    child is gated on L, and every action node that clobbers it lies inside
    such a child.  A state that reads S there reads S for good: every child
    gated on the literal returns S at its gate and runs nothing, and no
    other action writes it.  So no node of those children is ticked again,
    and :meth:`~bbt.belief.PhysicalState.resolved` drops their latches.
    ``frozen`` is a frozenset that each change replaces, so an earlier
    value can be kept and compared (see :class:`~bbt.engine.Trail`).

    Tables are never cached on the tree.  A plain :func:`~bbt.engine.simulate`
    builds them and hands them on with its result (to the leaf program of
    ``bbt exec``, for one).  The planner's rounds share one set, kept by
    their :class:`~bbt.engine.Trail`: each edit updates it with
    :meth:`splice`, at a cost in proportion to the root child that holds
    the edit and the nodes after the edit in tick order, instead of a walk
    of the whole tree.
    """

    __slots__ = ("order", "rank", "parent", "depth", "top", "clobberers", "gates", "gated", "frozen")

    def __init__(self, tree: BTNode):
        self.parent: dict[int, BTNode] = {}
        self.depth: dict[int, int] = {}
        self.top: dict[int, BTNode] = {}
        self.clobberers: dict[str, set[ActionNode]] = {}
        self.order = self._walk(tree, None, 0)
        self.rank = {node.node_id: i for i, node in enumerate(self.order)}
        self.frozen: frozenset[str] = frozenset()
        self._file_all()

    def splice(self, old: BTNode, new: BTNode) -> None:
        """Describe the tree after the subtree ``old`` was replaced by ``new``.

        ``old`` is a node of these tables; ``new`` now stands in its place
        and holds every node of the old subtree: it is ``old`` itself with
        its children added to or reordered, or a new node above ``old``, as
        the planner's edits leave them.  The block of ``old`` in ``order``
        becomes a pre-order walk of ``new``, which sets ``parent``,
        ``depth`` and ``top`` for the walked nodes, and ``rank`` is
        renumbered from the block to the end.  The gate tables are refiled
        for the root child that holds ``new`` only, or for all of them when
        ``new`` is the root.  Only the refiled gates' literals and those the
        walked action nodes clobber are refrozen: no other node can have
        changed its root child.
        """
        order, depth = self.order, self.depth
        start = self.rank[old.node_id]
        level = depth[old.node_id]
        end = start + 1
        while end < len(order) and depth[order[end].node_id] > level:
            end += 1
        above = self.parent.get(old.node_id)
        filed = above is not None and isinstance(order[0], Sequence)
        if filed:
            withdrawn = self._file(self.top[old.node_id], -1)
        order[start:end] = block = self._walk(new, above, level)
        rank = self.rank
        for i in range(start, len(order)):
            rank[order[i].node_id] = i
        if above is None:
            self._file_all()
        elif filed:
            touched = {withdrawn, self._file(self.top[new.node_id], 1)}
            for node in block:
                if isinstance(node, ActionNode):
                    touched |= node.action.clobbers
            self._refreeze(touched)

    def _walk(self, root: BTNode, parent: BTNode | None, level: int) -> list[BTNode]:
        """Pre-order walk of ``root``, placed under ``parent`` at depth ``level``.

        Sets ``parent``, ``depth`` and ``top`` for every walked node, files
        its action nodes in ``clobberers`` and returns the walk.
        """
        parents, depth, top, clobberers = self.parent, self.depth, self.top, self.clobberers
        if parent is None:
            parents.pop(root.node_id, None)
        else:
            parents[root.node_id] = parent
        depth[root.node_id] = level
        top[root.node_id] = root if level < 2 else top[parent.node_id]
        block = list(root.iter_nodes())
        # pre-order visits every parent before its children
        for node in block:
            if isinstance(node, ActionNode):
                for literal in node.action.clobbers:
                    clobberers.setdefault(literal, set()).add(node)
                continue
            below = depth[node.node_id] + 1
            held = top[node.node_id]
            for child in node.children:
                parents[child.node_id] = node
                depth[child.node_id] = below
                top[child.node_id] = child if below == 1 else held
        return block

    def _file(self, child: BTNode, step: int) -> str | None:
        """Enter (``step`` 1) or withdraw (-1) the gate of ``child``, a Sequence root's.

        Returns the gate's literal, or None when ``child`` has no gate.
        """
        if step > 0:
            gate = _gate(child)
            if gate is not None:
                self.gates[child.node_id] = gate
                self.gated.setdefault(gate.literal, set()).add(child)
        else:
            gate = self.gates.pop(child.node_id, None)
            if gate is not None:
                held = self.gated[gate.literal]
                held.discard(child)
                if not held:
                    del self.gated[gate.literal]
        return None if gate is None else gate.literal

    def _file_all(self) -> None:
        self.gates: dict[int, Condition] = {}
        self.gated: dict[str, set[BTNode]] = {}
        root = self.order[0]
        if isinstance(root, Sequence):
            for child in root.children:
                self._file(child, 1)
        self._refreeze(self.frozen | self.gated.keys())

    def _refreeze(self, literals: set[str | None]) -> None:
        """Recompute which of ``literals`` are frozen; a change replaces ``frozen``.

        A literal that gates no root child, None among them, is never frozen.
        """
        gated, top, clobberers = self.gated, self.top, self.clobberers
        frozen = {
            lit for lit in literals
            if lit in gated and all(top[node.node_id] in gated[lit] for node in clobberers.get(lit, ()))
        }
        if frozen != self.frozen & literals:
            self.frozen = (self.frozen - literals) | frozen

    def settle(self, latches: dict[int, Status], node_id: int) -> None:
        """Canonicalize ``latches`` in place after ``node_id`` latched.

        Walks up the ancestors of ``node_id`` while each one's scan is
        settled by its children's latches alone, folding its subtree into
        one latch on the ancestor that carries its fixed return.

        Clearing the children's latches clears the whole subtree.  A subtree
        that returned some status in a tick with no action pending can only
        ever settle at that status (by induction on its height), and an
        action later in tick order starts only in such a tick.  So the later
        siblings of a child settled at a status that stops the scan never
        hold latches, and nodes that can never be ticked again need no
        separate dropping.
        """
        parent = self.parent.get(node_id)
        while parent is not None:
            folded = _fixed_return(parent, latches)
            if folded is None:
                return
            for child in parent.children:
                latches.pop(child.node_id, None)
            latches[parent.node_id] = folded
            parent = self.parent.get(parent.node_id)


def _fixed_return(node: BTNode, latches: dict[int, Status]) -> Status | None:
    """The return of ``node`` if latches alone settle its scan, else None."""
    for child in node.children:
        status = latches.get(child.node_id)
        if status is None:
            return None
        if status is not node.continue_status:
            return status
    return node.continue_status


def _gate(node: BTNode) -> Condition | None:
    """The condition ending ``node``'s leftmost path of Fallbacks and Skippers, else None."""
    while isinstance(node, (Fallback, Skipper)):
        node = node.children[0]
    return node if isinstance(node, Condition) else None
