"""Classic execution: one physical state, sampled action outcomes.

This is the runtime counterpart of the belief-space engine and the basis of
the Monte Carlo cross-check.  A run's state is a list holding the
:class:`~bbt.status.Status` of every grounded literal, laid out as the
initial assignment lists them, with a literal-to-position index shared by
every run; a run's latches map the node id of every action it finished to
that action's report status.

A tick visits leaves only.  A control node returns the status of the last
child it scans, so a status passes up the tree unchanged, and where a tick
goes after a leaf returns a status is fixed by the tree's shape.
:class:`LeafProgram` compiles those jumps once per tree; a root tick is then
one loop that reads a leaf and jumps by its status.  The program is built
from the tree's :class:`~bbt.tree.TreeTables`, is read-only during runs
(so one program serves any number of runs) and is stale once the tree is
edited.

``bbt exec`` runs many runs from one initial assignment through
:class:`ClassicRuns`, which memoises root ticks in a trie keyed by outcome
history: only a history no earlier run reached costs a leaf walk.  One loop,
:meth:`ClassicRuns.statuses`, runs every run of an exec.  It reads the runs
in blocks of :data:`bbt.rng._LANES` and runs each block tick by tick: runs
at the same trie node move as one group that carries their state and
latches, applying every outcome they draw, and a tick's draws come from one
:class:`~bbt.rng.BlockDraw` over the runs still running, which mixes them
all at once; as runs end, the draw keeps the lanes of those still running,
repacked from the bases it has mixed.  Run *r*'s draw at tick *t* is
``bbt.rng.draw(seed, r, t)``, the *t*-th draw of ``CounterRng(seed, r)``,
in whatever order the runs go.  A run picks an outcome by comparing the
draw's 53-bit word with integer thresholds (:meth:`ClassicRuns._fresh_step`),
exactly as comparing the draw with the cumulative masses would.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Iterator
from itertools import islice
from math import ceil

from .errors import BbtError, TickLimitExceeded, UnknownLiteral
from .rng import _LANES, BlockDraw
from .status import Status
from .tree import ActionNode, TreeTables

_S, _F, _R = Status.S, Status.F, Status.R
_SLOT = {_S: 0, _F: 1, _R: 2}
# jump target meaning "the root returns the status just read"
RETURN = -1


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


def _walk_leaves(
    program: LeafProgram, index: dict[str, int], state: list[Status], latches: dict[int, Status]
) -> tuple[Status, ActionNode | None]:
    """Read leaves from the entry until the root returns; the leaf walk of a tick.

    Returns the root status and the first fresh action reached, or ``None``
    when every action reached has latched.  ``index`` maps each literal to
    its position in ``state``.  Reads ``state`` and ``latches`` only.
    """
    steps = program.steps
    started = None
    at = program.entry
    while at >= 0:
        literal, action_node, on_s, on_f, on_r = steps[at]
        if literal is not None:
            try:
                status = state[index[literal]]
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
    return status, started


# Child slots one ClassicRuns memoises at most: a few MB.  Runs that leave a
# full trie walk the leaves of every tick.
MEMO_SLOTS = 1 << 16


class _Step:
    """A memoised root tick that started an action.

    ``children[i]`` memoises the next root tick after outcome ``i``: a
    :class:`_Step`, the root's final :class:`Status`, or ``None`` while no
    run has walked it.  An outcome that cannot apply leaves its slot
    ``None`` for good.
    ``thresholds`` are the cumulative outcome masses, last one left out,
    as the integers a draw's 53-bit word is compared with to pick an
    outcome (:meth:`ClassicRuns._fresh_step`), or ``None`` for a single
    outcome.
    """

    __slots__ = ("action_node", "thresholds", "children")

    def __init__(self, action_node, thresholds, children):
        self.action_node = action_node
        self.thresholds = thresholds
        self.children = children


class ClassicRuns:
    """Classic runs of one program from one initial assignment, memoised.

    Every run starts from ``initial`` with no latches, so each of its root
    ticks depends only on the outcome indices drawn so far.  The runs share
    a trie keyed by that outcome history.  A node holds the result of one
    leaf walk: the root's final status, or the action the tick started with
    one child slot per outcome.  A run follows the trie and draws once per
    started action; the outcome drawn is the first whose cumulative mass
    exceeds the draw, or the last.  So a run returns the status and raises
    the error of a run that walks the leaves of every tick.  A run carries
    its own state and latches from ``initial``, and only a history no
    earlier run reached pays for a leaf walk, once for all the runs of a
    block that reach it in the same tick.

    An outcome drawn in tick *i* is applied before tick *i + 1*, or before
    raising :class:`~bbt.errors.TickLimitExceeded` when the budget ends
    there; one that cannot apply raises in
    :meth:`~bbt.belief.Outcome.apply` then, and its slot stays ``None``.
    A slot is walked only when a run reaches it with a tick to spare, so a
    run that hits ``max_ticks`` walks no more than once per tick.  The
    program is read-only, so the memo is valid for as long as the program
    is.  The trie takes at most :data:`MEMO_SLOTS` child slots; a run that
    leaves a full trie walks every tick on, memoising nothing.
    """

    def __init__(self, program: LeafProgram, initial: dict[str, Status]):
        self.program = program
        # a run's state lists the statuses of initial's literals in its order
        self.index = {literal: i for i, literal in enumerate(initial)}
        self.initial = list(initial.values())
        self._root: _Step | Status | None = None
        self._fresh: dict[int, _Step] = {}
        # child slots the trie may still take
        self._room = MEMO_SLOTS

    def statuses(
        self, seed: int, streams: Iterable[int], max_ticks: int = 10000
    ) -> Iterator[Status]:
        """The final status of one run per stream, in stream order.

        A run ticks until a root tick starts no action; that tick's status
        is final.  Run ``r``'s draw at tick ``t`` is
        ``bbt.rng.draw(seed, r, t)`` bit for bit, whatever order the runs
        take.  ``streams`` is read lazily, :data:`bbt.rng._LANES` at a time;
        :meth:`_block` runs each block tick by tick, and its statuses are
        yielded in stream order once the block ends.  A step of one outcome
        draws nothing, but its tick still takes its index, so later ticks
        draw as they would if it drew.

        A run that reaches an outcome it cannot apply raises
        :class:`~bbt.errors.UnknownLiteral`, and one still running after
        ``max_ticks`` root ticks raises
        :class:`~bbt.errors.TickLimitExceeded`; the first failing run's
        error is raised after the runs before it are yielded, and ends the
        iteration.  ``bbt exec`` does not reach this budget in practice: it
        first runs ``simulate`` under the same budget, and without pruning
        that simulation ticks at least as long as any run, so it fails
        first.  The budget stays for library callers, whose runs have no
        such guard.
        """
        streams = iter(streams)
        while block := list(islice(streams, _LANES)):
            statuses, error = self._block(seed, block, max_ticks)
            yield from statuses
            if error is not None:
                raise error

    def _block(
        self, seed: int, block: list[int], max_ticks: int
    ) -> tuple[list[Status], BbtError | None]:
        """Run one block tick by tick: the statuses of its runs before the
        first failing one, and that run's error or ``None``.

        Runs with one outcome history sit at one trie node and move as a
        group that carries their state and latches: per tick a group applies
        the outcome it drew, walks the slot it reached if no run has, then
        draws once per run and splits by outcome, every part but the last
        taking a copy of the state.  A group holds its runs as positions in
        the :class:`~bbt.rng.BlockDraw` of the runs still running, in stream
        order; the draw keeps the running runs' lanes
        (:meth:`~bbt.rng.BlockDraw.keep`) whenever they fall to half of
        those it packs, so a tick mixes fewer than twice the lanes still
        running.
        """
        bisect, step_class, apply = bisect_right, _Step, self._apply
        statuses: list = [None] * len(block)
        # the block lane of the first failing run, and its error
        first, error = len(block), None
        lane_of = list(range(len(block)))  # position in the packed draw -> lane
        draws = BlockDraw(seed, block)
        # the groups that reach a trie node at this tick, each a record
        # [node, step, outcome index, positions, state, latches] that is
        # updated in place as the group moves
        arrivals = [[self._root, None, 0, range(len(block)), list(self.initial), {}]]
        running = len(block)
        for tick in range(max_ticks):
            words, moved = None, []
            move = moved.append
            for group in arrivals:
                node, step, index, lanes, state, latches = group
                try:
                    if step is not None:
                        apply(step, index, state, latches)
                    if node is None:
                        node = self._walk(step, index, state, latches)
                except UnknownLiteral as exc:
                    if lane_of[lanes[0]] < first:
                        first, error = lane_of[lanes[0]], exc
                    running -= len(lanes)
                    continue
                if node.__class__ is not step_class:
                    for p in lanes:
                        statuses[lane_of[p]] = node
                    running -= len(lanes)
                    continue
                thresholds, children = node.thresholds, node.children
                if thresholds is None:
                    group[0], group[1], group[2] = children[0], node, 0
                    move(group)
                    continue
                if words is None:
                    words = draws.words(tick)
                if len(lanes) == 1:
                    index = bisect(thresholds, words[lanes[0]])
                    group[0], group[1], group[2] = children[index], node, index
                    move(group)
                    continue
                split: list[list[int]] = [[] for _ in children]
                for p in lanes:
                    split[bisect(thresholds, words[p])].append(p)
                parts = [index for index, part in enumerate(split) if part]
                for index in parts[:-1]:
                    move([children[index], node, index, split[index], list(state), dict(latches)])
                index = parts[-1]
                group[0], group[1], group[2], group[3] = children[index], node, index, split[index]
                move(group)
            arrivals = moved
            if not moved:
                break
            if 2 * running <= len(lane_of):
                # keep the runs still running, group by group
                kept = []
                for group in moved:
                    at = len(kept)
                    kept += group[3]
                    group[3] = range(at, len(kept))
                lane_of = [lane_of[p] for p in kept]
                draws = draws.keep(kept)
        # runs still running after max_ticks apply their last outcome first,
        # which may fail
        for node, step, index, lanes, state, latches in arrivals:
            if lane_of[lanes[0]] < first:
                first, error = lane_of[lanes[0]], TickLimitExceeded(max_ticks)
                if step is not None:
                    try:
                        apply(step, index, state, latches)
                    except UnknownLiteral as exc:
                        error = exc
        return statuses[:first], error

    def _apply(self, step, index, state, latches) -> None:
        """Apply outcome ``index`` of ``step`` to a run's ``state`` and ``latches``."""
        outcome = step.action_node.action.outcomes[index]
        outcome.apply(state, self.index)
        latches[step.action_node.node_id] = outcome.report

    def _walk(self, step, index, state, latches) -> _Step | Status:
        """Walk the root tick a run reaches from ``state`` and ``latches``
        after outcome ``index`` of ``step`` (the first tick when ``step`` is
        ``None``); memoise it there while room lasts."""
        status, started = _walk_leaves(self.program, self.index, state, latches)
        node = status if started is None else self._fresh_step(started)
        if self._room > 0:
            if node.__class__ is _Step:
                node = _Step(node.action_node, node.thresholds, list(node.children))
                self._room -= len(node.children)
            if step is None:
                self._root = node
            else:
                step.children[index] = node
        return node

    def _fresh_step(self, action_node: ActionNode) -> _Step:
        """The step of ``action_node`` outside the trie, whose outcomes no run has walked.

        Its children are a tuple, so nothing can be memoised under it; a run
        that has left a full trie goes on through these shared steps.  Its
        thresholds are integers a draw's 53-bit word is compared with:
        ``ceil(t * 2**53)`` for each running sum ``t`` of the outcome
        masses.  Scaling a double by a power of two is exact, so for a word
        ``w < 2**53``, ``w * 2**-53 >= t`` exactly when ``w >=
        ceil(t * 2**53)``, and bisecting the words picks the outcome that
        bisecting the draws against the sums would.  No outcome probability
        is negative (:class:`~bbt.belief.ActionInstance`), and adding p >= 0
        never lowers a double, so the thresholds are sorted for bisect.
        """
        fresh = self._fresh.get(action_node.node_id)
        if fresh is None:
            outcomes = action_node.action.outcomes
            thresholds = None
            if len(outcomes) > 1:
                acc, thresholds = 0.0, []
                for outcome in outcomes[:-1]:
                    acc += outcome.probability
                    thresholds.append(ceil(acc * 2.0**53))
            fresh = self._fresh[action_node.node_id] = _Step(
                action_node, thresholds, (None,) * len(outcomes)
            )
        return fresh
