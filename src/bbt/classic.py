"""Classic execution: one physical state, sampled action outcomes.

This is the runtime counterpart of the belief-space engine and the basis of
the Monte Carlo cross-check.  The state is a plain ``dict`` mapping every
grounded literal to a :class:`~bbt.status.Status`; ticks mutate only that
dict and the run's :class:`ExecutionTrace`, which holds the action latches.
The tree is never written, so one tree can serve any number of runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from .errors import TickLimitExceeded, UnknownLiteral
from .status import Status
from .tree import ActionNode, BTNode, Condition


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


def sample_outcome_index(action, u: float) -> int:
    """Map a uniform draw in [0, 1) to an outcome index by cumulative mass."""
    acc = 0.0
    for i, outcome in enumerate(action.outcomes):
        acc += outcome.probability
        if u < acc:
            return i
    return len(action.outcomes) - 1


def classic_tick(
    node: BTNode, state: dict[str, Status], rng: RandomSource, run: ExecutionTrace
) -> Status:
    """Run one root tick of ``node`` on ``state`` within ``run``.

    At most one fresh action starts per tick; it returns R where it is
    reached and its sampled outcome is applied to ``state`` (latching it
    done in ``run``) after the walk finishes, i.e. before the next root tick.
    Later fresh actions reached in the same tick return R without starting.
    """
    started: list[ActionNode] = []
    status = _tick(node, state, run.latches, started)
    if started:
        action_node = started[0]
        index = sample_outcome_index(action_node.action, rng.random())
        outcome = action_node.action.outcomes[index]
        outcome.apply(state)
        run.latches[action_node.node_id] = outcome.report
        run.outcomes.append((action_node.action.id, index))
    return status


def _tick(
    node: BTNode,
    state: dict[str, Status],
    latches: dict[int, Status],
    started: list[ActionNode],
) -> Status:
    if isinstance(node, Condition):
        try:
            return state[node.literal]
        except KeyError:
            raise UnknownLiteral(node.literal) from None
    if isinstance(node, ActionNode):
        done = latches.get(node.node_id)
        if done is not None:
            return done
        # one action per root tick: a second fresh action waits
        if not started:
            started.append(node)
        return Status.R
    for child in node.children:
        status = _tick(child, state, latches, started)
        if status is not node.continue_status:
            return status
    return node.continue_status


def run_classic(
    tree: BTNode,
    state: dict[str, Status],
    rng: RandomSource,
    max_ticks: int = 10000,
) -> tuple[Status, ExecutionTrace]:
    """Tick until a root tick starts no action; that tick's status is final."""
    run = ExecutionTrace()
    for _ in range(max_ticks):
        before = len(run.outcomes)
        status = classic_tick(tree, state, rng, run)
        if len(run.outcomes) == before:
            return status, run
    raise TickLimitExceeded(max_ticks)
