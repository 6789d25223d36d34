"""Classic execution: one physical state, sampled action outcomes.

This is the runtime counterpart of the belief-space engine and the basis of
the Monte Carlo cross-check.  The state is a plain ``dict`` mapping every
grounded literal to a :class:`~bbt.status.Status`; ticks mutate only that
dict and the run's :class:`ExecutionTrace`, which holds the action latches.

A tick visits leaves only.  A control node returns the status of the last
child it scans, so a status passes up the tree unchanged, and where a tick
goes after a leaf returns a status is fixed by the tree's shape.
:class:`LeafProgram` compiles those jumps once per tree; a root tick is then
one loop that reads a leaf and jumps by its status.  The program is built
from the tree's :class:`~bbt.tree.TreeTables`, is read-only during runs
(so one program serves any number of runs) and is stale once the tree is
edited.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from .errors import TickLimitExceeded, UnknownLiteral
from .status import Status
from .tree import ActionNode, TreeTables

_S, _F, _R = Status.S, Status.F, Status.R
_SLOT = {_S: 0, _F: 1, _R: 2}
# jump target meaning "the root returns the status just read"
RETURN = -1


class RandomSource(Protocol):
    def random(self) -> float: ...


@dataclass
class ExecutionTrace:
    """Per-run executor state: action latches plus each realized outcome.

    ``latches`` maps the node id of every finished action to its report
    status; ``outcomes`` lists ``(action id, outcome index)`` in start order.
    """

    latches: dict[int, Status] = field(default_factory=dict)
    outcomes: list[tuple[str, int]] = field(default_factory=list)


class LeafProgram:
    """A tree compiled into jumps between its leaves, for classic ticks.

    ``steps`` is indexed by tick-order rank and is ``None`` at control
    nodes.  A leaf's step is ``(literal, action node, on S, on F, on R)``:
    a condition holds its literal and ``None`` for the action node, an
    action node holds ``None`` for the literal.  Each jump is the rank of
    the next leaf to read after the leaf returns that status, or
    :data:`RETURN`.  ``entry`` is the rank of the root's leftmost leaf.

    After node *i* returns *s*: if *s* is the parent's continue status and
    *i* has a next sibling, the tick goes to that sibling's leftmost leaf;
    otherwise it goes wherever the parent goes after returning *s*; the
    root returns *s*.
    """

    __slots__ = ("steps", "entry")

    def __init__(self, tables: TreeTables):
        order, rank = tables.order, tables.rank
        # reversed pre-order: a control node's first child is the next rank
        leftmost = [0] * len(order)
        for k in reversed(range(len(order))):
            leftmost[k] = leftmost[k + 1] if order[k].children else k
        jumps: list[tuple[int, int, int]] = [(RETURN, RETURN, RETURN)] * len(order)
        self.steps: list[tuple | None] = [None] * len(order)
        # pre-order: a parent's jumps are set before its children read them
        for k, node in enumerate(order):
            on = jumps[k]
            children = node.children
            if not children:
                if isinstance(node, ActionNode):
                    self.steps[k] = (None, node, *on)
                else:
                    self.steps[k] = (node.literal, None, *on)
                continue
            slot = _SLOT[node.continue_status]
            for child, sibling in zip(children, children[1:]):
                cont = list(on)
                cont[slot] = leftmost[rank[sibling.node_id]]
                jumps[rank[child.node_id]] = tuple(cont)
            jumps[rank[children[-1].node_id]] = on
        self.entry = leftmost[0]


def sample_outcome_index(action, u: float) -> int:
    """Map a uniform draw in [0, 1) to an outcome index by cumulative mass."""
    acc = 0.0
    for i, outcome in enumerate(action.outcomes):
        acc += outcome.probability
        if u < acc:
            return i
    return len(action.outcomes) - 1


def classic_tick(
    program: LeafProgram, state: dict[str, Status], rng: RandomSource, run: ExecutionTrace
) -> Status:
    """Run one root tick of ``program`` on ``state`` within ``run``.

    At most one fresh action starts per tick; it returns R where it is
    reached and its sampled outcome is applied to ``state`` (latching it
    done in ``run``) after the walk finishes, i.e. before the next root tick.
    Later fresh actions reached in the same tick return R without starting.
    """
    steps, latches = program.steps, run.latches
    started = None
    at = program.entry
    while at >= 0:
        literal, action_node, on_s, on_f, on_r = steps[at]
        if literal is not None:
            try:
                status = state[literal]
            except KeyError:
                raise UnknownLiteral(literal) from None
        else:
            status = latches.get(action_node.node_id)
            if status is None:
                # one action per root tick: a second fresh action waits
                if started is None:
                    started = action_node
                status = _R
        at = on_s if status is _S else on_f if status is _F else on_r
    if started is not None:
        index = sample_outcome_index(started.action, rng.random())
        outcome = started.action.outcomes[index]
        outcome.apply(state)
        latches[started.node_id] = outcome.report
        run.outcomes.append((started.action.id, index))
    return status


def run_classic(
    program: LeafProgram,
    state: dict[str, Status],
    rng: RandomSource,
    max_ticks: int = 10000,
) -> tuple[Status, ExecutionTrace]:
    """Tick until a root tick starts no action; that tick's status is final."""
    run = ExecutionTrace()
    for _ in range(max_ticks):
        before = len(run.outcomes)
        status = classic_tick(program, state, rng, run)
        if len(run.outcomes) == before:
            return status, run
    raise TickLimitExceeded(max_ticks)
