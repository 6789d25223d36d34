"""Independent brute-force executor used as the reference for the engine.

Enumerates every outcome sequence of a tree explicitly: run one tick with a
plain recursive walk (each control kind spelled out separately), branch over
all outcomes of the action that started, and recurse until a tick starts
nothing.  Shares only the data model with the engine, none of its logic.

The oracle still tracks full latch histories, but terminals are compared on
(assignment, root status, blame) only: the engine keeps canonical latch
views, in which latches that can no longer change behaviour are folded or
dropped, so latches are not observable state.  The blame is the node id of
the condition charged in the final tick: the deepest condition returning F
or R, the leftmost among equally deep ones, or None.

It also holds the reference for classic execution, independent of
:mod:`bbt.classic`.  :func:`_classic_walk` is a recursive walk over every
node of the tree, against which the compiled leaf walk of
:class:`~bbt.classic.LeafProgram` is checked tick by tick.
:func:`classic_tick` adds outcome sampling by cumulative mass, and
:func:`run_classic` ticks one run at a time with it, walking every tick and
recording the run's latches and outcomes in a :class:`ClassicRun`; the
memoised :class:`~bbt.classic.ClassicRuns` is checked against those runs.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Protocol

from bbt.errors import TickLimitExceeded, UnknownLiteral
from bbt.status import Status
from bbt.tree import ActionNode, BTNode, Condition, Fallback, Sequence, Skipper

TerminalKey = tuple[frozenset, Status, "int | None"]


class RandomSource(Protocol):
    def random(self) -> float: ...


@dataclass
class ClassicRun:
    """One classic run's record: action latches plus each realized outcome.

    ``latches`` maps the node id of every finished action to its report
    status; ``outcomes`` lists ``(action id, outcome index)`` in start order.
    """

    latches: dict[int, Status] = field(default_factory=dict)
    outcomes: list[tuple[str, int]] = field(default_factory=list)


def tick_once(
    node: BTNode,
    assignment: dict[str, Status],
    latches: dict[int, Status],
    started: list[ActionNode],
    charge: list,
    depth: int = 0,
) -> Status:
    """One tick of ``node`` at ``depth``.

    ``charge`` is a ``[depth, node id]`` pair, replaced by each non-S
    condition strictly deeper than the one it holds.
    """
    if isinstance(node, Condition):
        status = assignment[node.literal]
        if status is not Status.S and depth > charge[0]:
            charge[:] = [depth, node.node_id]
        return status
    if isinstance(node, ActionNode):
        if node.node_id in latches:
            return latches[node.node_id]
        if not started:
            started.append(node)
        return Status.R
    if isinstance(node, Sequence):
        for child in node.children:
            status = tick_once(child, assignment, latches, started, charge, depth + 1)
            if status is not Status.S:
                return status
        return Status.S
    if isinstance(node, Fallback):
        for child in node.children:
            status = tick_once(child, assignment, latches, started, charge, depth + 1)
            if status is not Status.F:
                return status
        return Status.F
    if isinstance(node, Skipper):
        for child in node.children:
            status = tick_once(child, assignment, latches, started, charge, depth + 1)
            if status is not Status.R:
                return status
        return Status.R
    raise TypeError(f"unknown node {node!r}")


def sample_outcome_index(action, u: float) -> int:
    """Map a uniform draw in [0, 1) to an outcome index by cumulative mass."""
    acc = 0.0
    for i, outcome in enumerate(action.outcomes):
        acc += outcome.probability
        if u < acc:
            return i
    return len(action.outcomes) - 1


def classic_tick(
    node: BTNode, state: dict[str, Status], rng: RandomSource, run: ClassicRun
) -> Status:
    """Reference classic root tick of the tree ``node``, visiting every node.

    At most one fresh action starts per tick; its sampled outcome is applied
    to ``state`` and latched in ``run`` after the walk.
    """
    started: list[ActionNode] = []
    status = _classic_walk(node, state, run.latches, started)
    if started:
        action_node = started[0]
        index = sample_outcome_index(action_node.action, rng.random())
        outcome = action_node.action.outcomes[index]
        for literal, value in outcome.postconditions:
            if literal not in state:
                raise UnknownLiteral(literal)
            state[literal] = value
        run.latches[action_node.node_id] = outcome.report
        run.outcomes.append((action_node.action.id, index))
    return status


def _classic_walk(
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
        status = _classic_walk(child, state, latches, started)
        if status is not node.continue_status:
            return status
    return node.continue_status


def run_classic(
    tree: BTNode,
    state: dict[str, Status],
    rng: RandomSource,
    max_ticks: int = 10000,
) -> tuple[Status, ClassicRun]:
    """Tick until a root tick starts no action; that tick's status is final."""
    run = ClassicRun()
    for _ in range(max_ticks):
        before = len(run.outcomes)
        status = classic_tick(tree, state, rng, run)
        if len(run.outcomes) == before:
            return status, run
    raise TickLimitExceeded(max_ticks)


def enumerate_terminals(
    tree: BTNode, assignment: dict[str, Status], max_ticks: int = 200
) -> dict[TerminalKey, float]:
    """Exact terminal distribution keyed by (assignment, status, blame)."""
    results: dict[TerminalKey, float] = defaultdict(float)

    def run(state: dict[str, Status], latches: dict[int, Status], prob: float, ticks: int):
        if ticks > max_ticks:
            raise RuntimeError("oracle exceeded tick budget")
        started: list[ActionNode] = []
        charge = [-1, None]
        status = tick_once(tree, state, latches, started, charge)
        if not started:
            results[(frozenset(state.items()), status, charge[1])] += prob
            return
        node = started[0]
        for outcome in node.action.outcomes:
            if outcome.probability <= 0.0:
                continue
            next_state = dict(state)
            next_state.update(outcome.postconditions)
            next_latches = dict(latches)
            next_latches[node.node_id] = outcome.report
            run(next_state, next_latches, prob * outcome.probability, ticks + 1)

    run(dict(assignment), {}, 1.0, 0)
    return dict(results)


def success_probability(terminals: dict[TerminalKey, float]) -> float:
    return sum(p for (_, status, _), p in terminals.items() if status is Status.S)


def simulation_to_terminals(result) -> dict[TerminalKey, float]:
    """Project a SimulationResult onto the oracle's key space."""
    out: dict[TerminalKey, float] = defaultdict(float)
    for p, state in result.terminal.entries:
        out[(frozenset(zip(state.literals, state.values)), state.r, state.blame)] += p
    return dict(out)


def assert_distributions_match(expected, actual, tol: float = 1e-12) -> None:
    keys = set(expected) | set(actual)
    for key in keys:
        delta = abs(expected.get(key, 0.0) - actual.get(key, 0.0))
        assert delta <= tol, f"mass mismatch {delta!r} on {key}"
