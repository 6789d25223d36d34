"""Iterative tree synthesis: simulate, find the weakest condition, resolve.

Each round self-simulates the current tree, picks the most probable deepest
condition that returned F or R on the terminal branches, and either reorders
siblings (when an earlier action clobbers the target literal) or inserts a
latched resolver under a Skipper (unknown value) or Fallback (false value).
The loop stops once the success probability reaches the request's target.
Each branch's simulation already charged its failure to one condition (the
entry's ``blame``), so the pick reads the terminal entries once and ticks
nothing; it hands on the condition with the entries charged with it, which
the resolver search scores candidates on.

Every edit leaves the tree as it was before the edit's rank in tick order,
and the edit sits at the goal frontier, so most of each round's run is the
same as the last round's.  The rounds' simulations share one
:class:`~bbt.engine.Trail`, cut at each edit's rank, and each resumes at the
first root tick that reaches its edit instead of replaying the run from the
initial belief.  The trail's tree tables are built once; each edit updates
them in place, and the threat and resolver searches read per-literal
indexes, so a round's overhead follows its edit, not the whole tree or
domain.
"""

from __future__ import annotations

from collections.abc import Mapping
from math import fsum

from .belief import PROB_TOL, ActionInstance, BeliefState, PhysicalState
from .domain import GroundedDomain, Resolver
from .engine import SimulationLimits, Trail, simulate
from .errors import (
    EmptyGoal,
    IterationLimit,
    NoResolver,
    NothingFailed,
    UnknownLiteral,
    UnresolvableThreat,
)
from .status import Status
from .tree import (
    ActionNode,
    BTNode,
    Condition,
    Fallback,
    Sequence,
    Skipper,
    TreeTables,
)
from .value import Frozen, Record

# read per terminal entry, bound once: a module global reads faster than an enum member
_S = Status.S


class PlanRequest(Frozen):
    """One planning problem over a grounded domain.

    The goal and the initial belief are the domain's own.
    """

    __slots__ = ("domain", "target_probability", "limits", "max_iterations")
    _defaults = (SimulationLimits(), 64)


class FailedConditionReport(Frozen):
    """The condition chosen for resolution, with the entries charged with it.

    ``node`` is the condition and ``observed`` the status it returned;
    ``supporting`` lists, in terminal order, the non-success terminal
    entries whose final root tick charged that condition (the entry's
    ``blame``: the deepest, then leftmost, condition that returned non-S)
    and on which it observed that status.
    """

    __slots__ = ("node", "observed", "supporting")


class IterationRecord(Frozen):
    """One planner edit: ``kind`` is "insert" or "threat-reorder"."""

    __slots__ = ("iteration", "kind", "literal", "probability")


class PlanResult(Record):
    __slots__ = ("tree", "achieved", "log")

    def log_lines(self) -> list[str]:
        return [
            f"{r.iteration}\t{r.kind}\t{r.literal}\t{r.probability:.6f}" for r in self.log
        ]


def initial_tree(goal_literals: list[str]) -> Sequence:
    """A root sequence of one condition per goal literal, in input order."""
    if not goal_literals:
        raise EmptyGoal("a goal needs at least one condition")
    return Sequence([Condition(lit) for lit in goal_literals])


def find_failed_condition(terminal: BeliefState, tables: TreeTables) -> FailedConditionReport:
    """Pick the most probable deepest failed condition over non-S entries.

    Per entry, the condition the tick charged with the failure
    (``PhysicalState.blame``: the deepest, then leftmost, condition returning
    F or R during the entry's final root tick) is read off the entry, with
    the status it observed.  Across entries the (condition, observed status)
    pair with the highest cumulative mass wins.  Ties break toward greater
    depth, then leftmost position, then literal.  The report carries the
    winning pair's entries.  ``tables`` are those the terminal was simulated
    with.
    """
    if not len(terminal):
        raise NothingFailed("no terminal entries")
    order, rank, depth = tables.order, tables.rank, tables.depth
    groups: dict[tuple[Condition, Status], list[tuple[float, PhysicalState]]] = {}
    for entry in terminal.entries:
        state = entry[1]
        if state.r is _S or state.blame is None:
            continue
        node = order[rank[state.blame]]
        groups.setdefault((node, state.value(node.literal)), []).append(entry)
    if not groups:
        raise NothingFailed(
            "no failed condition to resolve"
            if any(state.r is not _S for _, state in terminal.entries)
            else "every terminal entry already succeeds"
        )
    masses = {key: fsum(p for p, _ in entries) for key, entries in groups.items()}
    node, observed = min(
        masses,
        key=lambda key: (
            -masses[key],
            -depth[key[0].node_id],
            rank[key[0].node_id],
            key[0].literal,
            key[1],
        ),
    )
    return FailedConditionReport(node, observed, tuple(groups[node, observed]))


def _holds_or_resolvable(
    precondition: tuple[str, Status], state: PhysicalState, domain: GroundedDomain
) -> bool:
    literal, value = precondition
    try:
        if state.value(literal) is value:
            return True
    except UnknownLiteral:
        return False
    return domain.assignable(literal, value)


def select_resolver(
    target: FailedConditionReport,
    domain: GroundedDomain,
    history: Mapping[str, int],
) -> Resolver:
    """Choose the action or template to establish the target's literal.

    Candidates must have an outcome setting the literal to S; when the
    condition was observed unknown, only perception candidates (those whose
    preconditions require the literal to be R) qualify.  The score is the
    outcome mass establishing the literal, times the fraction of the
    target's supporting mass where all candidate preconditions hold or can
    be made to hold, decayed by 0.9 per previous use.  Only the literal's
    entry in the domain's resolver index is scanned.
    """
    literal, supporting = target.node.literal, target.supporting
    # the target has entries, each of positive mass, so total > 0
    total = fsum(p for p, _ in supporting)
    scored: list[tuple[float, str, Resolver]] = []
    for candidate, gain in domain.establishing(literal):
        if target.observed is Status.R and (
            (literal, Status.R) not in candidate.preconditions
        ):
            continue
        feasible = fsum(
            p
            for p, s in supporting
            if all(_holds_or_resolvable(pre, s, domain) for pre in candidate.preconditions)
        )
        score = gain * (feasible / total) * (0.9 ** history.get(candidate.id, 0))
        if score > 0.0:
            scored.append((score, candidate.id, candidate))
    if not scored:
        raise NoResolver(literal)
    scored.sort(key=lambda item: (-item[0], item[1]))
    return scored[0][2]


def _resolver_subtree(resolver: Resolver) -> Sequence:
    """Guard conditions for S-valued preconditions, then the resolver itself.

    F- and R-valued preconditions are selection-time constraints only: a
    condition node returns the raw stored status, so guarding on them would
    break sequence routing.
    """
    guards = [
        Condition(literal)
        for literal, value in resolver.preconditions
        if value is Status.S
    ]
    if isinstance(resolver, ActionInstance):
        body: BTNode = ActionNode(resolver)
    else:
        body = resolver.instantiate()
    return Sequence([*guards, body])


def resolve_by_insert(
    target: Condition,
    observed: Status,
    resolver: Resolver,
    tables: TreeTables,
    wrappers: dict[int, str],
) -> int:
    """Attach a latched resolver at the target condition.

    Unknown conditions get a Skipper wrapper, false ones a Fallback.  When
    the target already sits under a wrapper created for the same literal and
    kind, the new resolver is appended as its next child instead of nesting
    another wrapper.  ``wrappers`` maps the id of each wrapper made so far to
    its literal, and a new wrapper is entered there.  ``tables`` are those of
    the target's tree; the edit updates them to describe the edited tree
    (:meth:`TreeTables.splice` of the wrapper), so a wrapper that replaces
    the root is the new ``tables.order[0]``.

    Returns the edit's rank: the target's rank in ``tables`` before the
    edit.  Every tick that reaches the new resolver first visits the target.
    """
    wrapper_kind = Skipper if observed is Status.R else Fallback
    subtree = _resolver_subtree(resolver)
    rank = tables.rank[target.node_id]
    parent = tables.parent.get(target.node_id)
    if (
        parent is not None
        and isinstance(parent, wrapper_kind)
        and wrappers.get(parent.node_id) == target.literal
    ):
        parent.children.append(subtree)
        tables.splice(parent, parent)
        return rank
    wrapper = wrapper_kind([target, subtree])
    wrappers[wrapper.node_id] = target.literal
    if parent is not None:
        parent.children[parent.children.index(target)] = wrapper
    tables.splice(target, wrapper)
    return rank


def find_threat(tables: TreeTables, target_node: Condition, literal: str) -> ActionNode | None:
    """First action in tick order, before the target, that can break ``literal``.

    An action threatens the target when one of its outcomes assigns the
    literal anything other than S.  ``tables`` are those of the target's
    tree; of the literal's ``clobberers``, the one of lowest rank wins.
    """
    rank = tables.rank
    below = rank[target_node.node_id]
    threat = None
    for node in tables.clobberers.get(literal, ()):
        if rank[node.node_id] < below:
            below = rank[node.node_id]
            threat = node
    return threat


def resolve_threat(target: Condition, conflict: ActionNode, tables: TreeTables) -> int:
    """Reorder siblings so the target precedes the conflicting action.

    Within the lowest common ancestor of the two nodes, the child subtree
    holding the target moves to just before the child holding the conflict;
    every other relative order is preserved.  ``tables`` are those of the
    two nodes' tree; the edit updates them to describe the edited tree
    (:meth:`TreeTables.splice` of the common ancestor).

    Returns the edit's rank: the rank in ``tables``, before the edit, of
    the earlier of the two moved children (the conflict's, when the
    conflict comes first in tick order, as :func:`find_threat` finds it).
    """
    parents, depth = tables.parent, tables.depth
    if target.node_id not in depth or conflict.node_id not in depth:
        raise UnresolvableThreat(
            f"cannot reorder {conflict.action.id!r} behind {target.literal!r}"
        )
    # climb the deeper node to the other's depth, then both until they share
    # a parent: the lowest common ancestor
    target_child, conflict_child = target, conflict
    while depth[target_child.node_id] > depth[conflict_child.node_id]:
        target_child = parents[target_child.node_id]
    while depth[conflict_child.node_id] > depth[target_child.node_id]:
        conflict_child = parents[conflict_child.node_id]
    while parents[target_child.node_id] is not parents[conflict_child.node_id]:
        target_child = parents[target_child.node_id]
        conflict_child = parents[conflict_child.node_id]
    lca = parents[target_child.node_id]
    rank = tables.rank
    edit_rank = min(rank[target_child.node_id], rank[conflict_child.node_id])
    children = lca.children
    children.remove(target_child)
    children.insert(children.index(conflict_child), target_child)
    tables.splice(lca, lca)
    return edit_rank


def refine_tree(request: PlanRequest) -> PlanResult:
    """Run the synthesis loop until the target probability is reached.

    Each round reports the target condition with its supporting entries
    (:func:`find_failed_condition`), edits the tree in place at it, which
    keeps the trail's tables current and returns the edit's rank, and
    resumes the simulation from the trail cut there.  The root is the
    initial goal Sequence throughout.

    Raises :class:`NoResolver`, :class:`NothingFailed` or
    :class:`IterationLimit` when the goal is unreachable within budget;
    simulation limit errors propagate unchanged.
    """
    domain = request.domain
    if not 0.0 < request.target_probability <= 1.0:
        raise ValueError(f"target probability {request.target_probability!r} not in (0, 1]")
    for literal, _ in domain.goal:
        if literal not in domain.allowed_values:
            raise UnknownLiteral(literal)
    tree = initial_tree([literal for literal, _ in domain.goal])
    wrappers: dict[int, str] = {}
    history: dict[str, int] = {}
    log: list[IterationRecord] = []
    initial = domain.initial_belief()
    trail = Trail(tree)
    result = simulate(tree, initial, request.limits, trail=trail)
    probability = result.terminal.success_probability()
    iteration = 0
    while probability < request.target_probability - PROB_TOL:
        iteration += 1
        if iteration > request.max_iterations:
            raise IterationLimit(request.max_iterations, probability)
        try:
            report = find_failed_condition(result.terminal, result.tables)
        except NothingFailed as exc:
            if result.pruned_mass > 0.0:
                raise NothingFailed(
                    f"{exc}; mass {result.pruned_mass:.6f} was pruned unresolved"
                ) from None
            raise
        target, tables = report.node, trail.tables
        conflict = find_threat(tables, target, target.literal)
        if conflict is not None:
            edit_rank = resolve_threat(target, conflict, tables)
            kind = "threat-reorder"
        else:
            resolver = select_resolver(report, domain, history)
            edit_rank = resolve_by_insert(target, report.observed, resolver, tables, wrappers)
            history[resolver.id] = history.get(resolver.id, 0) + 1
            kind = "insert"
        trail.cut(edit_rank)
        result = simulate(tree, initial, request.limits, trail=trail)
        probability = result.terminal.success_probability()
        log.append(IterationRecord(iteration, kind, target.literal, probability))
    return PlanResult(tree=tree, achieved=probability, log=tuple(log))


def plan_request_from_domain(
    domain: GroundedDomain,
    target_probability: float | None = None,
    limits: SimulationLimits | None = None,
    max_iterations: int = 64,
) -> PlanRequest:
    """Build a request from a domain's declared initial state and goal."""
    probability = (
        target_probability if target_probability is not None else domain.goal_probability
    )
    if probability is None:
        raise EmptyGoal("the domain declares no goal probability and none was given")
    return PlanRequest(
        domain=domain,
        target_probability=probability,
        limits=limits or SimulationLimits(),
        max_iterations=max_iterations,
    )
