"""Belief-space tick propagation and exhaustive self-simulation.

A tick threads a belief state through the tree: control nodes split each
incoming distribution on the child's return status, conditions rewrite the
return status, and actions schedule a delayed outcome that is expanded into
all its branches between root ticks.  Iterating root ticks until every
branch settles yields the exact distribution of execution results.

Each branch carries a canonical latch view (see
:class:`~bbt.belief.PhysicalState`), so branches whose histories differ but
whose futures agree merge in the belief that holds them.  Each branch also
records, as its ``blame``, the condition charged with its failure in the
tick that is running, so the planner reads its targets off the terminal
entries without ticking the tree again.

Within a tick, nodes pass ``(p, state, status, pending, blame)`` tuples
and leave every state untouched.  The pending action lives only in that
tuple: :func:`simulate` reads each tuple once, and either ends the state
in one state (:meth:`~bbt.belief.PhysicalState.ticked`) or resolves it
into one successor per outcome of its pending action
(:meth:`~bbt.belief.PhysicalState.resolved`).  A live state's tick
depends on its key alone, so each run keeps a dict from every state it
has ticked to that result: the state it ends in, or its list of
``(outcome probability, successor)`` pairs.  A root tick sends only the
states the dict lacks through :func:`belief_tick`, then ends or expands
every entry from the dict, in belief order, and records the tick's flow,
the mass that ended and the mass left pending.  Those sums, like every
merge of equal states, are :func:`math.fsum` sums, so they do not depend
on the order of the entries, and no belief is sorted.  Each root tick's
expansion is validated and merged once, as one
:class:`~bbt.belief.BeliefState`.  The tree's
:class:`~bbt.tree.TreeTables` are built once per :func:`simulate` without a
:class:`Trail`, or once when a trail is made, and returned with each result.

A planned tree is a root Sequence of goal subtrees, and once a goal holds
every later root tick returns S from its subtree.  The root's scan passes
such a child without visiting it when every entry entering it reads S at
the child's gate (:attr:`~bbt.tree.TreeTables.gates`): a condition reached
from the child through Fallbacks and Skippers only, none of which continues
on S.  The child would return each entry unchanged with S, charge no blame
and reach no action, so passing it is exact and costs one literal lookup
per entry.  Planning and simulation of a wide goal then visit nodes in
proportion to the goal frontier, not to the goals already settled.

Once every live entry reads S at the gates of the first j root children,
each gate on a frozen literal (:attr:`~bbt.tree.TreeTables.frozen`), those
children pass every later entry of the run too, so the root's scan starts
at child j.  A run grows this *frozen prefix* after each root tick that
reaches further than every earlier one, over the children whose gates that
reach covers.

A tick reads nodes in tick order, so the last node it reads, a passed
child's gate included, is the furthest it reaches; a root tick reaches as
far as the furthest of its states would alone.  A tick that reaches no
node at or after an edit runs the same in the edited tree, so a
:class:`Trail` lets the planner resume each round's simulation at the
first tick that reaches its edit instead of replaying the whole run.  A
run needs only the furthest reach so far, the maximum over the states it
has ticked, and each state adds its reach once, in the tick that first
ticks it; so the reach of the states a root tick sends through
:func:`belief_tick` tells whether that tick reaches further than every
earlier one.

Many planner edits append a resolver to a wrapper that already holds
some, and every root tick may read that wrapper's condition.
An entry reaches the new child only when its scan passes the wrapper's
last child with the wrapper's continue status, so a tick runs differently
in the edited tree only if it *exhausts* the wrapper.  The tick notes each
Fallback and Skipper it exhausts, and the trail resumes an append at the
first tick that exhausted the wrapper; states ticked before already
exhausted whatever they exhaust, so the states a tick sends through
:func:`belief_tick` tell which nodes that tick exhausts first.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable
from math import fsum

from .belief import BeliefState, PhysicalState
from .errors import EntryLimitExceeded, TickLimitExceeded
from .status import Status
from .tree import ActionNode, BTNode, Condition, TreeTables
from .value import Frozen, Record

Entry = tuple[float, PhysicalState]
# one entry inside a tick: (p, state at the tick's start, status, pending, blame)
_Ticking = tuple[float, PhysicalState, Status, ActionNode | None, int | None]
# members read per entry, bound once: a module global reads faster than an enum member
_S, _R = Status.S, Status.R

# Distinct states whose tick results one simulate run keeps at most: a few
# MB.  States past it are ticked at every root tick that holds them.
MEMO_STATES = 1 << 16


class SimulationLimits(Frozen):
    """Budget for self-simulation; exceeding one raises, never mis-answers."""

    __slots__ = ("max_root_ticks", "max_entries", "prune_epsilon")
    _defaults = (10000, 100000, 0.0)


class SimulationResult(Record):
    """Exact terminal distribution of a simulation run.

    ``terminal`` holds each final state once, in the order the run first
    reached them.  ``pruned_mass`` is reported, never renormalized away.
    ``flow`` holds one ``(ended, pending)`` pair per root tick: the mass
    that finished in that tick and the mass it left with a pending action.
    ``tables`` are those of the tree as simulated: with a trail, the
    trail's own, built with the trail and kept current by the planner's
    edits; without one, a set built by this run, stale once the tree is
    edited.
    """

    __slots__ = ("terminal", "ticks_used", "tables", "pruned_mass", "flow")


class Trail:
    """Resume points of one tree's simulations while the planner edits it.

    A :func:`simulate` given a trail records a point before each root tick
    that reaches further in tick order than every earlier tick, or that
    exhausts a Fallback or Skipper no earlier tick exhausted (see the module
    docstring): the furthest node reached after the tick, the tick count,
    the live belief, the frozen prefix its root scan starts from, how many
    entries had finished and the mass pruned so far.  The first tick to
    reach a given rank always sets such a record, so it always has a point,
    and reaches never decrease along the trail.  ``exhausted`` maps the id of each node the run has
    exhausted to the index of the point before the tick that first did, in
    point order, so dropping points drops their entries from its end.  The
    trail also keeps the run's finished entries and its flow, one record per
    tick, so a point's tick count is also the length of the flow before it.

    An edit changes no node, parent or rank before its own rank, and a tick
    that does not reach that rank reads only nodes before it; a root child
    it passes at its gate has its whole leftmost path there, so its gate is
    unchanged too.  Such ticks run the same in the edited tree, and the
    latch views they leave are canonical under its tables too (each fold
    stops at a child before the edit).  :meth:`cut` at the edit's rank
    therefore leaves, as the last point, one from which the next
    :func:`simulate` of the edited tree, given this trail, resumes with a
    result bit-identical to a fresh run's.  A point's prefix covers only
    gates that earlier ticks reached, before the edit's rank, so a fresh run
    grows the same one; the nodes earlier ticks exhausted are the fresh
    run's too, so it records the same points.
    That run ignores its ``initial`` belief, so a trail serves the
    simulations of one initial belief and one set of limits.

    An append adds a child c to the end of a Fallback or Skipper W whose
    first child is a condition, as the planner's appends to its wrappers
    do.  A tick that does not exhaust W runs the same in the edited tree,
    wherever it reaches, so :meth:`cut` of c keeps the points up to that of
    the first tick that exhausted W, or all of them if none did.  This is
    exact because:

    - a condition never latches, so :meth:`~bbt.tree.TreeTables.settle`
      never folds W, before or after the append, and the kept latch views
      stay canonical;
    - the append changes no depth, so no blame, of an existing node, nor
      any gate;
    - a change to the frozen literals still empties the trail (below).

    An append to any other parent is cut at the parent's rank.  A new
    wrapper deepens its target, which can change blame, so it is cut at
    the target's rank, as reorders are at theirs.

    The states a tick leaves also depend on which literals the tables hold
    frozen (:attr:`~bbt.tree.TreeTables.frozen`), wherever the edit sits: an
    outcome drops the latches of the children gated on a frozen literal it
    sets.  So :meth:`cut` empties the trail when the frozen literals differ
    from those of the last cut, and the next run starts afresh.  With one
    edit per cut, as the planner makes them, that is every edit that
    changed them.

    A trail is made for one tree and holds ``tables``, the
    :class:`~bbt.tree.TreeTables` of that tree, built here.  Every
    :func:`simulate` given the trail runs on them, so whoever edits the tree
    keeps them current (:meth:`TreeTables.splice`; the planner's edits do).
    ``frozen`` is the tables' set of frozen literals as of the last cut.
    """

    __slots__ = ("points", "exhausted", "finished", "flow", "tables", "frozen")

    def __init__(self, tree: BTNode) -> None:
        self.points: list[tuple[BTNode, int, BeliefState, int, int, float]] = []
        self.exhausted: dict[int, int] = {}
        self.finished: list[Entry] = []
        self.flow: list[tuple[float, float]] = []
        self.tables = TreeTables(tree)
        self.frozen = self.tables.frozen

    def cut(self, edit: int | BTNode) -> None:
        """Drop the points after that of the first tick the edit can change.

        ``edit`` is the edit's rank, whose tick is the first to reach it, or
        the node an append added as the last child of its parent, whose tick
        is the first to exhaust that parent.  Drops them all when the tables'
        frozen literals changed since the last cut.
        """
        if self.tables.frozen != self.frozen:
            self.frozen = self.tables.frozen
            self._keep(0)
        points, tables = self.points, self.tables
        if edit.__class__ is not int:
            wrapper = tables.parent[edit.node_id]
            if not isinstance(wrapper.children[0], Condition) or wrapper.continue_status is _S:
                # a latch could fold the wrapper, or its exhaustion is not recorded
                edit = tables.rank[wrapper.node_id]
            else:
                index = self.exhausted.get(wrapper.node_id)
                if index is not None:
                    self._keep(index + 1)
                return
        # an edit moves no node before its rank, nor one at or past it to
        # before it: along the trail, reaches still rank below it, then not
        self._keep(bisect_left(points, edit, key=lambda point: tables.rank[point[0].node_id]) + 1)

    def _keep(self, count: int) -> None:
        """Keep the first ``count`` points, and the exhaustions first seen in their ticks."""
        del self.points[count:]
        exhausted = self.exhausted
        while exhausted and next(reversed(exhausted.values())) >= count:
            exhausted.popitem()


def belief_tick(
    node: BTNode,
    mem: Iterable[Entry],
    tables: TreeTables,
    reached: list[BTNode] | None = None,
    prefix: int = 0,
) -> list[_Ticking]:
    """Propagate ``mem``, any iterable of ``(p, state)`` entries, through ``node`` for one tick.

    Control nodes scan their children left to right: entries returning the
    node's continue status flow on to the next child, the rest are returned
    to the parent.  Entries whose latch view has the control node latched
    return that status without a scan.  The result lists those
    entries, then every child's stopped entries in scan order, then whatever
    continued past the last child.  When ``node`` is the tables' root, its
    scan passes a child whose gate every entering entry reads at S: those
    entries continue with S, in order, exactly as a visit would leave them.

    A condition returning F or R charges itself with an entry's failure
    (``PhysicalState.blame``) when it is deeper than the condition already
    charged, if any in this tree.  Nodes are visited in tick order, so the
    leftmost of the deepest such conditions keeps the charge.

    ``tables`` are those of ``node``'s tree.  ``reached``, when given, is a
    list whose first item ends up holding the furthest node the tick reads
    in tick order: the last node it visits, or the gate of a child it passed
    after that.  Each Fallback or Skipper that passes entries out past its
    last child is appended to it.  When ``node`` is the root, its scan
    starts after its first ``prefix`` children, which every entry must pass
    at their gates.

    Between nodes the tick passes ``(p, state, status, pending, blame)``
    tuples and leaves every state untouched, and it returns them as they
    are, building no state: ``state`` is the entry's state at the tick's
    start, ``status`` what the tick returned, ``pending`` the
    :class:`~bbt.tree.ActionNode` it left pending or ``None``, and ``blame``
    the condition charged.  A leaf returns one entry per entry it receives
    and a control node returns the entries it receives, so the result holds
    as many entries as ``mem``, and no node in between holds more:
    :func:`simulate` checks the entry limit on ``mem`` alone.
    """
    if reached is None:
        reached = [node]
    entries = [(p, s, s.r, None, s.blame) for p, s in mem]
    if node is tables.order[0]:
        return _tick(node, entries, tables.depth, reached, tables.gates, prefix)
    return _tick(node, entries, tables.depth, reached)


def _tick(
    node: BTNode,
    entries: list[_Ticking],
    depth: dict[int, int],
    reached: list[BTNode],
    gates: dict[int, Condition] | None = None,
    prefix: int = 0,
) -> list[_Ticking]:
    """The recursion behind :func:`belief_tick`.

    A node replays its latch for the entries that hold one.  An action leaf
    returns R for the rest, and becomes the pending action when none is;
    :func:`simulate` expands its outcomes before the next root tick.
    ``gates`` are the tables' gates when ``node`` is the root, else
    ``None``: below the root every child is visited.
    """
    reached[0] = node
    node_id = node.node_id
    out: list[_Ticking] = []
    if isinstance(node, Condition):
        literal = node.literal
        level = depth[node_id]
        for p, s, _, pending, blame in entries:
            status = s.value(literal)
            if status is not _S and depth.get(blame, -1) < level:
                blame = node_id
            out.append((p, s, status, pending, blame))
        return out
    if isinstance(node, ActionNode):
        for p, s, _, pending, blame in entries:
            done = s.latches.get(node_id)
            if done is None:
                # one action per tick: a fresh action waits while another is pending
                out.append((p, s, _R, pending or node, blame))
            else:
                out.append((p, s, done, pending, blame))
        return out
    for entry in entries:
        if node_id in entry[1].latches:
            entries = _replay(node_id, entries, out)
            break
    go_on = node.continue_status
    children = node.children
    if prefix and entries:
        reached[0] = gates[children[prefix - 1].node_id]
        entries = [(p, s, go_on, pending, blame) for p, s, _, pending, blame in entries]
        children = children[prefix:]
    for child in children:
        if not entries:
            break
        if gates:
            gate = gates.get(child.node_id)
            if gate is not None:
                literal = gate.literal
                for entry in entries:
                    s = entry[1]
                    position = s.index.get(literal)
                    if position is None or s.values[position] is not go_on:
                        break
                else:
                    # every entry reads S at the gate, so the child returns each unchanged with S
                    reached[0] = gate
                    if child is node.children[0]:
                        # later children only receive entries that returned S
                        entries = [
                            (p, s, go_on, pending, blame) for p, s, _, pending, blame in entries
                        ]
                    continue
        result = _tick(child, entries, depth, reached)
        entries = []
        for entry in result:
            if entry[2] is go_on:
                entries.append(entry)
            else:
                out.append(entry)
    if go_on is not _S and entries:
        # a Fallback or Skipper that passes entries out past its last child
        reached.append(node)
    out.extend(entries)
    return out


def _replay(node_id: int, entries: list[_Ticking], out: list[_Ticking]) -> list[_Ticking]:
    """Append to ``out`` the entries latched at ``node_id``, with that status; return the rest.

    Both keep their order.
    """
    rest = []
    for entry in entries:
        done = entry[1].latches.get(node_id)
        if done is None:
            rest.append(entry)
        else:
            p, s, _, pending, blame = entry
            out.append((p, s, done, pending, blame))
    return rest


def _frozen_prefix(tables: TreeTables, mem: BeliefState, prefix: int, furthest: int) -> int:
    """``prefix`` grown over the next root children whose gates rank at most
    ``furthest`` and read a frozen literal that every entry of ``mem`` holds at S."""
    children = tables.order[0].children
    gates, frozen = tables.gates, tables.frozen
    while prefix < len(children):
        gate = gates.get(children[prefix].node_id)
        if gate is None or tables.rank[gate.node_id] > furthest or gate.literal not in frozen:
            break
        literal = gate.literal
        for _, s in mem.entries:
            position = s.index.get(literal)
            if position is None or s.values[position] is not _S:
                return prefix
        prefix += 1
    return prefix


def simulate(
    tree: BTNode,
    initial: BeliefState,
    limits: SimulationLimits | None = None,
    *,
    trail: Trail | None = None,
) -> SimulationResult:
    """Run root ticks until every branch is a fixpoint.

    Each distinct state is ticked once per run, in the first root tick that
    holds it, and its result is kept in a dict, up to :data:`MEMO_STATES`
    states.  Entries that finish a root tick without a pending action
    cannot change under further ticks and move to the result, each in the
    state :meth:`PhysicalState.ticked` gives it; the rest go straight to one
    state per outcome of their pending action
    (:meth:`PhysicalState.resolved`), which are built into one belief,
    each state once, and go around again.  Entries are read in belief
    order, the order their states were first reached in, and the masses of
    one state are merged with :func:`math.fsum`, so the order does not show
    in the masses, and nothing is sorted.  An outcome branch whose mass is
    0.0 is dropped: a zero-probability outcome, or a product that
    underflows, whose true mass is below the smallest double.  A state one of whose branches underflows
    is not kept, so a heavier entry of it resolves that branch, as it would
    if ticked on its own.  The dict is keyed by state, as a belief is, so
    it does not tell apart states that differ only in ``blame``; of the live
    states, only those of ``initial`` can hold one.  Each tick records its flow
    (see :class:`SimulationResult`).  Without a trail the tree's
    tables are built here, as the tree stands.  The entry limit is checked
    on the live belief before each root tick, the initial belief included;
    a tick never holds more entries than it starts with.

    With a ``trail`` (see :class:`Trail`), the run resumes from the trail's
    last point, if it has one, reusing the ticks, finished entries, pruned
    mass and frozen prefix before it, and records its own points; its dict starts
    empty.  A root tick records a point when the states it ticks reach
    further than every state ticked before, or exhaust a Fallback or
    Skipper none of them exhausted (see the module docstring), so the
    points are those a run ticking every entry records.  It runs on the
    trail's tables; a ``ValueError`` says they are not those of ``tree``.
    The result, ``ticks_used`` and ``flow`` included, is the same as
    without one, and every limit fires at the same tick.
    """
    limits = limits or SimulationLimits()
    if trail is None:
        tables = TreeTables(tree)
    elif trail.tables.order[0] is tree:
        tables = trail.tables
    else:
        raise ValueError("the trail's tables are not those of this tree")
    if trail is not None and trail.points:
        _, ticks, mem, prefix, done, pruned = trail.points[-1]
        trail._keep(len(trail.points) - 1)
        finished, flow = trail.finished, trail.flow
        del finished[done:]
        del flow[ticks:]
    else:
        ticks, mem, prefix, finished, flow, pruned = 0, initial, 0, [], [], 0.0
        if trail is not None:
            trail.finished, trail.flow = finished, flow
    furthest = -1
    if trail is not None:
        points, exhausted = trail.points, trail.exhausted
        if points:
            furthest = tables.rank[points[-1][0].node_id]
    rank = tables.rank
    reached = [tree]
    # state -> the state it ends in, or its (outcome probability, successor) list
    memo: dict = {}
    while len(mem):
        if len(mem) > limits.max_entries:
            raise EntryLimitExceeded(len(mem), limits.max_entries)
        if ticks >= limits.max_root_ticks:
            raise TickLimitExceeded(limits.max_root_ticks)
        fresh = [entry for entry in mem.entries if entry[1] not in memo]
        further = False
        if fresh:
            entries = belief_tick(tree, fresh, tables, reached, prefix)
            reach = rank[reached[0].node_id]
            if reach > furthest:
                furthest, further = reach, True
            if trail is not None:
                known = len(exhausted)
                for node in reached[1:]:
                    exhausted.setdefault(node.node_id, len(points))
                if further or len(exhausted) > known:
                    point = (tables.order[furthest], ticks, mem, prefix, len(finished), pruned)
                    points.append(point)
            del reached[1:]
            partial = []
            for p, s, r, pending, blame in entries:
                if pending is None:
                    memo[s] = s.ticked(r, blame)
                    continue
                moves = memo[s] = []
                for outcome in pending.action.outcomes:
                    q = outcome.probability
                    if p * q > 0.0:
                        moves.append((q, s.resolved(pending, outcome, tables)))
                    elif q > 0.0:
                        # dropped as it underflows for this mass, so keep the state out of the dict
                        partial.append(s)
        ticks += 1
        ended, waiting, expanded = [], [], []
        for p, s in mem.entries:
            done = memo[s]
            if done.__class__ is PhysicalState:
                finished.append((p, done))
                ended.append(p)
                continue
            waiting.append(p)
            for q, t in done:
                q *= p
                if q > 0.0:
                    expanded.append((q, t))
        flow.append((fsum(ended), fsum(waiting)))
        if fresh:
            for s in partial:
                memo.pop(s, None)
            while len(memo) > MEMO_STATES:
                memo.popitem()
        mem = BeliefState(expanded)
        if limits.prune_epsilon > 0.0:
            mem, dropped = mem.prune(limits.prune_epsilon)
            pruned += dropped
        if further and len(mem):
            prefix = _frozen_prefix(tables, mem, prefix, furthest)
    terminal = BeliefState(finished)
    return SimulationResult(terminal, ticks, tables, pruned, tuple(flow))
