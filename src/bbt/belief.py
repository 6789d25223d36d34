"""Belief states: finite discrete distributions over physical condition states.

Belief states and physical states are immutable values, safe to share
between threads and across simulations.  A physical state holds its
assignment once, as a tuple of statuses in sorted-literal order that is
also part of its key.  :meth:`Outcome.apply` is the one place
postconditions are written, into a caller-owned list laid out by a
literal-to-position index.  :meth:`PhysicalState.resolved` copies a
state's statuses into such a list and applies one outcome;
:meth:`PhysicalState.ticked` builds the state an entry that ends a root
tick settles in, sharing the statuses and the latch view with the state
it comes from.  A state holds only what outlasts a root tick: the action
a tick leaves pending is expanded into its outcomes before the next one,
so no state records it.  So a root tick of a state depends on its key
alone, and a simulation ticks each distinct state once
(:func:`~bbt.engine.simulate`); its reach too is a state's own, and a
tick's is the maximum over its states.

A belief holds each state once: :class:`BeliefState` merges the entries
of equal states as it is built.  Masses are merged with
:func:`math.fsum`: that merge, :attr:`BeliefState.mass` and
:meth:`BeliefState.success_probability` give the correctly rounded sum of
the entries' probabilities, the same double whatever the order of the
entries.  Entries keep the order their states are first seen in; only
:meth:`BeliefState.debug_lines` sorts them.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping

from .errors import UnknownLiteral
from .status import Status
from .value import Frozen, set_field

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .tree import ActionNode, TreeTables

#: Comparison tolerance for probability mass under double arithmetic.
PROB_TOL = 1e-12
# read per entry, bound once: a module global reads faster than an enum member
_S, _R = Status.S, Status.R


class Outcome(Frozen):
    """One probabilistic result of an action.

    ``postconditions`` are the literal assignments the outcome applies;
    ``report`` is the status the action replays once latched (S or F).
    """

    __slots__ = ("probability", "postconditions", "report")

    def apply(self, values: list[Status], index: Mapping[str, int]) -> None:
        """Write the postconditions into ``values``; ``index`` maps a literal to its position."""
        for literal, status in self.postconditions:
            if literal not in index:
                raise UnknownLiteral(literal)
            values[index[literal]] = status


class ActionInstance(Frozen):
    """A grounded action: preconditions plus a distribution over outcomes.

    Each outcome probability is finite and at least 0, and they sum to 1.
    ``clobbers`` holds the literals some outcome sets to anything other than
    S.  It is derived from the outcomes, so it is left out of the
    constructor, equality, hashing and ``repr``.
    """

    __slots__ = ("id", "preconditions", "outcomes", "clobbers")
    _compared = 3

    def __init__(
        self, id: str, preconditions: tuple[tuple[str, Status], ...], outcomes: tuple[Outcome, ...]
    ):
        for o in outcomes:
            if not 0.0 <= o.probability < math.inf:
                raise ValueError(
                    f"outcome probability {o.probability!r} of {id!r} is not finite and >= 0"
                )
        total = math.fsum(o.probability for o in outcomes)
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"outcome probabilities of {id!r} sum to {total!r}, not 1")
        set_field(self, "id", id)
        set_field(self, "preconditions", preconditions)
        set_field(self, "outcomes", outcomes)
        clobbers = frozenset(
            lit
            for outcome in outcomes
            for lit, value in outcome.postconditions
            if value is not Status.S
        )
        set_field(self, "clobbers", clobbers)


class PhysicalState:
    """An assignment of every grounded literal to a status, plus bookkeeping.

    ``literals`` holds the grounded literals in sorted order and ``values``
    their statuses, position for position; that tuple is the state's one
    copy of its assignment.  ``r`` is the status the root returned in
    the tick that ended this state, and R for a state still running.
    ``latches`` is this belief branch's canonical latch view: the latches
    that can still change its behaviour, keyed by node id.  It holds
    finished actions with their report status and control nodes whose
    return latches alone have fixed; :meth:`resolved` folds a settled
    subtree into its control node's latch and drops the latches of root
    children that a frozen literal passes for good, and nodes that can
    never be ticked again hold none.  Branches whose
    histories differ but whose futures agree thus share one state.

    ``blame`` is the node id of the condition charged with this branch's
    failure: of the conditions that returned F or R since the branch's last
    outcome, the deepest, and the leftmost among equally deep ones.  The
    tick sets it (see :func:`~bbt.engine.belief_tick`), so on a terminal
    entry it names the condition the planner resolves.  It is not part of
    the key: two terminal entries with equal keys ran the same final tick.

    The constructor builds an initial state: it returns R, holds no
    latches and has no blame.  It sorts the literals once and maps each to
    its position in ``index``.  An outcome writes only literals the state
    already holds, so every state derived from a constructed one shares
    ``literals`` and ``index``.
    ``key``, the canonical sort and equality key, is ``(literals, values,
    r, latches)``: over one literal set it orders states by their statuses
    in literal order, and states over different literal sets never compare
    equal.  A root tick makes one state per outcome of an entry's pending
    action, with :meth:`resolved`, and one per entry that ends, with
    :meth:`ticked`; both methods build their states around a ready key,
    through one private constructor.  Every state is hashed when a
    belief holding it is built, so each hashes its key once, when it is
    built.
    """

    __slots__ = ("literals", "values", "r", "latches", "blame", "index", "key", "_hash")

    def __init__(self, assignment: Mapping[str, Status]):
        self.literals = tuple(sorted(assignment))
        self.values = tuple(assignment[literal] for literal in self.literals)
        self.r = Status.R
        self.latches: dict[int, Status] = {}
        self.blame: int | None = None
        self.index = {literal: i for i, literal in enumerate(self.literals)}
        self.key = (self.literals, self.values, Status.R, ())
        self._hash = hash(self.key)

    def value(self, literal: str) -> Status:
        try:
            return self.values[self.index[literal]]
        except KeyError:
            raise UnknownLiteral(literal) from None

    def ticked(self, r: Status, blame: int | None) -> "PhysicalState":
        """This state as a root tick that ends it leaves it: returning ``r``, with ``blame``.

        The result is a new state; it shares the statuses, the latch view
        and its sorted key part, which are never written after construction.
        """
        literals, values, _, latch_key = self.key
        return self._derived(self.latches, (literals, values, r, latch_key), blame)

    def resolved(
        self, node: "ActionNode", outcome: Outcome, tables: "TreeTables"
    ) -> "PhysicalState":
        """The state ``outcome`` of the pending action ``node`` leads to.

        The result returns R, as a state that has not ended does (the next
        tick never reads it, so states whose earlier ticks returned
        differently merge), latches ``node`` at the outcome's report and has
        no blame.  This is the one place a latch is set.  ``tables`` are
        those of the tree ``node`` sits in; the latch view is canonicalized
        with them (:meth:`TreeTables.settle`).

        An outcome that turns a frozen literal (:attr:`TreeTables.frozen`)
        from another status to S leaves every root child gated on it passed
        for good, so the latches inside those children are dropped; when
        ``node`` is inside one, it is not latched and nothing is settled.

        The statuses are copied into a list once, the outcome writes its
        literals there through the shared index, and the list becomes the
        new state's ``values``; only the latch view, a handful of entries,
        is sorted.
        """
        values = list(self.values)
        outcome.apply(values, self.index)
        dead = None
        frozen, index = tables.frozen, self.index
        for literal, status in outcome.postconditions:
            if literal in frozen and status is _S and self.values[index[literal]] is not status:
                dead = tables.gated[literal] if dead is None else dead | tables.gated[literal]
        node_id = node.node_id
        if dead is None:
            latches = dict(self.latches)
        else:
            top = tables.top
            latches = {k: v for k, v in self.latches.items() if top[k] not in dead}
        if dead is None or top[node_id] not in dead:
            latches[node_id] = outcome.report
            tables.settle(latches, node_id)
        key = (self.literals, tuple(values), _R, tuple(sorted(latches.items())))
        return self._derived(latches, key, None)

    def _derived(self, latches, key, blame) -> "PhysicalState":
        """A state over this one's literals, built around its ready ``key``.

        ``key`` must hold this state's ``literals``, the new statuses, ``r``
        and ``latches``; the literal index is shared.
        """
        state = object.__new__(PhysicalState)
        state.literals = self.literals
        state.values = key[1]
        state.r = key[2]
        state.latches = latches
        state.blame = blame
        state.index = self.index
        state.key = key
        state._hash = hash(key)
        return state

    def __eq__(self, other) -> bool:
        if not isinstance(other, PhysicalState):
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        body = ",".join(f"{k}={v}" for k, v in zip(self.literals, self.values))
        return f"PhysicalState({body} | r={self.r})"


class BeliefState:
    """A finite list of ``(probability, PhysicalState)`` entries, one per state.

    The constructor checks that every probability is strictly positive and
    merges the entries of equal states: their probabilities are summed
    with :func:`math.fsum`, whose correctly rounded sum does not depend on
    the order of the entries (a state with one entry keeps its probability
    as it is).  Entries keep the order their states are first seen in, and
    the state object kept is the first one seen, so its ``blame`` is the
    one a belief reports.  Total mass is conserved by every operation;
    callers that prune must account for the dropped mass themselves (see
    :meth:`prune`).
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[tuple[float, PhysicalState]] = ()):
        merged: dict[PhysicalState, list[float]] = {}
        for p, s in entries:
            if not p > 0.0:
                raise ValueError(f"belief entry with non-positive probability {p!r}")
            merged.setdefault(s, []).append(p)
        self.entries = tuple([(math.fsum(ps), s) for s, ps in merged.items()])

    @classmethod
    def point(cls, state: PhysicalState) -> "BeliefState":
        return cls([(1.0, state)])

    @property
    def mass(self) -> float:
        return math.fsum(p for p, _ in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[tuple[float, PhysicalState]]:
        return iter(self.entries)

    def prune(self, epsilon: float) -> tuple["BeliefState", float]:
        """Drop entries below ``epsilon`` and report the dropped mass.

        The remainder is never renormalized, so success probabilities stay
        sound lower bounds.  The dropped mass is a correctly rounded sum,
        the same double in any order of the entries.
        """
        kept, dropped = [], []
        for p, s in self.entries:
            if p < epsilon:
                dropped.append(p)
            else:
                kept.append((p, s))
        return BeliefState(kept), math.fsum(dropped)

    def success_probability(self) -> float:
        return math.fsum(p for p, s in self.entries if s.r is _S)

    def debug_lines(self, tables: "TreeTables") -> list[str]:
        """Text dump, one ``p | literals | r | pending=-`` line per entry.

        Lines are sorted by the states' keys, so the dump does not depend
        on the order of the entries; this is the one place a belief is
        ordered.  The ``pending=-`` field is constant, since no state holds
        a pending action; it is kept so the text stays byte-stable.  An
        entry whose latch view is not empty gets a fifth field,
        ``latches=n<i>:<status>,...``, so distinct entries print distinct
        lines.  ``n<i>`` names a latched node by its index in tick order
        in ``tables`` (the name the DOT rendering gives it), so the text
        does not depend on node ids.
        """
        lines = []
        for p, s in sorted(self.entries, key=lambda entry: entry[1].key):
            body = ",".join(f"{k}={v}" for k, v in zip(s.literals, s.values))
            line = f"{p!r} | {body} | r={s.r} | pending=-"
            if s.latches:
                view = sorted((tables.rank[k], v) for k, v in s.latches.items())
                line += " | latches=" + ",".join(f"n{i}:{v}" for i, v in view)
            lines.append(line)
        return lines

    def __repr__(self) -> str:
        return f"BeliefState({len(self.entries)} entries, mass={self.mass:.6f})"
