"""Resumed simulations equal fresh ones, bit for bit.

A simulation given a :class:`~bbt.engine.Trail` cut at an edit's rank
resumes at the first root tick that reaches the edit.  Its terminal entries
(probabilities, keys and blame), ``ticks_used``, ``pruned_mass`` and ``flow`` must equal
those of a fresh :func:`~bbt.engine.simulate` of the edited tree exactly,
and its limits must fire where the fresh run's do.  The trail's tables,
which every edit updates in place, must equal a fresh walk of the edited
tree, and the threat search, which reads their index of clobbering action
nodes, must find what a scan of the tree finds.
"""

import random

import pytest

from bbt import engine, ground, parse_domain, plan_request_from_domain, refine_tree
from bbt.belief import ActionInstance, BeliefState, Outcome, PhysicalState
from bbt.engine import SimulationLimits, Trail, simulate
from bbt.errors import TickLimitExceeded
from bbt.planner import find_threat, resolve_by_insert, resolve_threat
from bbt.status import Status
from bbt.tree import ActionNode, Condition, Fallback, Sequence, TreeTables

import randgen
from test_engine import goal_root
from test_planner import CONFLICT_DOMAIN


def keys(entries):
    return [(p, s.key, s.blame) for p, s in entries]


def fingerprint(result):
    return keys(result.terminal.entries), result.ticks_used, result.pruned_mass, result.flow


def trail_fingerprint(trail):
    points = [(reach, ticks, keys(mem.entries), prefix, done, pruned)
              for reach, ticks, mem, prefix, done, pruned in trail.points]
    return points, keys(trail.finished), trail.flow


def assert_tables_current(tables, tree):
    """``tables`` equal a fresh walk of ``tree``: nodes by identity, the rest by value."""
    fresh = TreeTables(tree)
    assert len(tables.order) == len(fresh.order)
    assert all(a is b for a, b in zip(tables.order, fresh.order))
    assert tables.parent.keys() == fresh.parent.keys()
    assert all(tables.parent[k] is node for k, node in fresh.parent.items())
    assert tables.rank == fresh.rank
    assert tables.depth == fresh.depth
    assert tables.gates == fresh.gates  # conditions compare by identity
    assert tables.top.keys() == fresh.top.keys()
    assert all(tables.top[k] is node for k, node in fresh.top.items())
    assert tables.gated == fresh.gated  # sets of nodes, which compare by identity
    assert tables.clobberers == fresh.clobberers
    assert tables.clobbered == fresh.clobbered
    assert {literal: n for literal, n in tables.loose.items() if n} == fresh.loose
    assert tables.frozen == fresh.frozen


def random_edit(rng, tables, literals, actions, wrappers):
    """One random planner edit of the tree of ``tables``: an insert or a reorder.

    One insert in five, when a literal is frozen, is of an action that
    clobbers it outside the root children gated on it, which unfreezes it.
    Returns the edit's rank, or None when the tree has no place for the
    edit drawn; the edited root is ``tables.order[0]``.
    """
    conditions = [n for n in tables.order if isinstance(n, Condition)]
    if not conditions:
        return None
    target = rng.choice(conditions)
    if rng.random() < 0.3:
        in_tree = [n for n in tables.order if isinstance(n, ActionNode)]
        if not in_tree:
            return None
        return resolve_threat(target, rng.choice(in_tree), tables)
    action = rng.choice(actions)
    if tables.frozen and rng.random() < 0.2:
        literal = rng.choice(sorted(tables.frozen))
        outside = [n for n in conditions if tables.top[n.node_id] not in tables.gated[literal]]
        if not outside:
            return None
        target = rng.choice(outside)
        thaw = Outcome(0.5, ((literal, rng.choice((Status.F, Status.R))),), Status.S)
        action = ActionInstance("thaw", (), (thaw, Outcome(0.5, (), Status.F)))
    if rng.random() < 0.5:
        guard = (rng.choice(literals), Status.S)
        action = ActionInstance(action.id, (guard,), action.outcomes)
    observed = rng.choice((Status.F, Status.R))
    return resolve_by_insert(target, observed, action, tables, wrappers)


@pytest.mark.parametrize("epsilon", [0.0, 0.05])
def test_random_edits_resume_exactly(epsilon):
    def random_tree(rng, literals, actions):
        return randgen.random_tree(rng, literals, actions, max_nodes=12)

    resumed_ticks, pruned, _ = edit_and_resume(random.Random(9090), epsilon, random_tree)
    assert resumed_ticks > 0  # some edits left a prefix to reuse
    assert (pruned > 0.0) == (epsilon > 0.0)


def test_random_edits_of_goal_roots_resume_exactly():
    # Sequence roots of gated children, whose gates and frozen literals each
    # edit keeps current
    resumed_ticks, _, emptied = edit_and_resume(random.Random(9191), 0.0, goal_root)
    assert resumed_ticks > 0
    assert emptied > 20  # edits that changed the frozen literals emptied the trail


def edit_and_resume(rng, epsilon, make_tree):
    """Random edits of 300 trees from ``make_tree``, each resumed and checked.

    Returns the root ticks the resumed runs reused, the mass the fresh runs
    pruned and the cuts that emptied a trail holding points.
    """
    limits = SimulationLimits(prune_epsilon=epsilon)
    resumed_ticks, pruned, emptied = 0, 0.0, 0
    for _ in range(300):
        literals = randgen.random_literals(rng)
        actions = randgen.random_actions(rng, literals)
        tree = make_tree(rng, literals, actions)
        belief = randgen.random_belief(rng, literals, max_entries=4)
        trail = Trail(tree)
        result = simulate(tree, belief, limits, trail=trail)
        assert fingerprint(result) == fingerprint(simulate(tree, belief, limits))
        wrappers: dict[int, str] = {}
        for _ in range(rng.randint(1, 4)):
            rank = random_edit(rng, result.tables, literals, actions, wrappers)
            if rank is None:
                break
            tree = trail.tables.order[0]
            assert trail.tables is result.tables
            assert_tables_current(trail.tables, tree)
            held = bool(trail.points)
            trail.cut(rank)
            emptied += held and not trail.points
            if trail.points:
                resumed_ticks += trail.points[-1][1]
            fresh_trail = Trail(tree)
            fresh = simulate(tree, belief, limits, trail=fresh_trail)
            if fresh.ticks_used > 1 and rng.random() < 0.3:
                # the limit fires on the resumed run as on the fresh one
                tight = SimulationLimits(fresh.ticks_used - 1, prune_epsilon=epsilon)
                with pytest.raises(TickLimitExceeded):
                    simulate(tree, belief, tight)
                with pytest.raises(TickLimitExceeded):
                    simulate(tree, belief, tight, trail=trail)
            result = simulate(tree, belief, limits, trail=trail)
            assert fingerprint(result) == fingerprint(fresh)
            # every tick's belief, not only the terminal one, is the fresh run's
            assert trail_fingerprint(trail) == trail_fingerprint(fresh_trail)
            pruned += fresh.pruned_mass
    return resumed_ticks, pruned, emptied


def linear_threat(tables, target, literal):
    """The reference for ``find_threat``: a scan of every node before the target."""
    for node in tables.order[: tables.rank[target.node_id]]:
        if isinstance(node, ActionNode) and literal in node.action.clobbers:
            return node
    return None


def test_find_threat_equals_a_linear_scan_under_random_edits():
    # the threat index is filed as nodes are walked and read by rank at
    # query time, so it must survive every splice's renumbering
    rng = random.Random(7373)
    found = 0
    for _ in range(300):
        literals = randgen.random_literals(rng)
        actions = randgen.random_actions(rng, literals)
        tables = TreeTables(randgen.random_tree(rng, literals, actions, max_nodes=12))
        wrappers: dict[int, str] = {}
        for edit in range(rng.randint(1, 6), -1, -1):
            for target in [n for n in tables.order if isinstance(n, Condition)]:
                for literal in literals:
                    want = linear_threat(tables, target, literal)
                    assert find_threat(tables, target, literal) is want
                    found += want is not None
            if not edit or random_edit(rng, tables, literals, actions, wrappers) is None:
                break
    assert found > 1000


def plan_checked(monkeypatch, domain, prob=None):
    """Plan with every round's simulation checked against a fresh one.

    Returns the plan, the root ticks each round's simulation reused and the
    rounds whose edit changed the frozen literals, which empties the trail.
    """
    rounds, frozen = [], []

    def checked(tree, initial, limits=None, **kwargs):
        trail = kwargs.get("trail")
        if rounds:
            # the last round's edit left the trail's tables current
            assert_tables_current(trail.tables, tree)
        start = trail.points[-1][1] if trail is not None and trail.points else 0
        result = engine.simulate(tree, initial, limits, **kwargs)
        assert fingerprint(result) == fingerprint(engine.simulate(tree, initial, limits))
        rounds.append(start)
        frozen.append(trail.tables.frozen)
        return result

    monkeypatch.setattr("bbt.planner.simulate", checked)
    plan = refine_tree(plan_request_from_domain(domain, target_probability=prob))
    assert len(rounds) == len(plan.log) + 1
    emptied = sum(a != b for a, b in zip(frozen, frozen[1:]))
    return plan, rounds, emptied


@pytest.mark.parametrize("domain_fixture", ["soda_domain", "soda_det_domain"])
@pytest.mark.parametrize("prob", [None, 0.99, 0.999])
def test_soda_rounds_resume_exactly(request, monkeypatch, domain_fixture, prob):
    _, _, emptied = plan_checked(monkeypatch, request.getfixturevalue(domain_fixture), prob)
    assert emptied == 0


def test_wide_rounds_resume_exactly(monkeypatch, wide_domain):
    _, rounds, emptied = plan_checked(monkeypatch, wide_domain)
    assert sum(rounds) > 0  # the wide rounds skip a replayed prefix
    assert emptied == 0


def test_deep_perception_rounds_resume_exactly(monkeypatch, deep_domain):
    _, rounds, emptied = plan_checked(monkeypatch, deep_domain)
    assert sum(rounds) > 0
    assert emptied == 0


def test_threat_rounds_resume_exactly(monkeypatch):
    plan, _, emptied = plan_checked(monkeypatch, ground(parse_domain(CONFLICT_DOMAIN)))
    assert "threat-reorder" in [record.kind for record in plan.log]
    # make_a, inserted under goal a, sets goal b to F: b unfreezes once
    assert emptied == 1


def test_unfreezing_edit_empties_the_trail():
    # Seq[Fb[l, Seq[b, a]], g]: l is frozen, so the outcome of a that sets it
    # drops b's latch.  Inserting z at g, which sets l = F outside l's gated
    # child, unfreezes l: kept, the trail would rerun b after z (0.25 in 6
    # ticks); a fresh run finds b latched (0.5 in 4 ticks).
    S, F = Status.S, Status.F
    b = ActionInstance("b", (), (Outcome(1.0, (("m", S),), S),))
    a = ActionInstance("a", (), (Outcome(0.5, (("l", S),), S), Outcome(0.5, (), F)))
    z = ActionInstance("z", (), (Outcome(1.0, (("l", F), ("g", S)), S),))
    g = Condition("g")
    tree = Sequence([Fallback([Condition("l"), Sequence([ActionNode(b), ActionNode(a)])]), g])
    belief = BeliefState.point(PhysicalState({"l": F, "m": F, "g": F}))
    trail = Trail(tree)
    simulate(tree, belief, trail=trail)
    assert trail.tables.frozen == {"l", "g"}
    rank = resolve_by_insert(g, F, z, trail.tables, {})
    assert trail.tables.frozen == {"g"}
    trail.cut(rank)
    assert trail.points == []
    resumed = simulate(tree, belief, trail=trail)
    fresh = simulate(tree, belief)
    assert fingerprint(resumed) == fingerprint(fresh)
    assert (fresh.terminal.success_probability(), fresh.ticks_used) == (0.5, 4)


def test_prefix_stays_within_the_furthest_reach():
    # Seq[Fb[a, set_a], Fb[b, set_b], c]: after the first tick every entry
    # reads S at a and at b, both frozen, but that tick reached only set_a,
    # so the prefix stops at b.  A reorder moving c before b's child then
    # keeps the point whose tick reached c; its prefix must not cover the
    # child now in b's place.
    set_a = ActionInstance("set_a", (), (Outcome(1.0, (("a", Status.S),), Status.S),))
    set_b = ActionInstance("set_b", (), (Outcome(1.0, (("b", Status.S),), Status.S),))
    c = Condition("c")
    tree = Sequence([
        Fallback([Condition("a"), ActionNode(set_a)]),
        Fallback([Condition("b"), ActionNode(set_b)]),
        c,
    ])
    belief = BeliefState.point(PhysicalState({"a": Status.F, "b": Status.S, "c": Status.F}))
    trail = Trail(tree)
    simulate(tree, belief, trail=trail)
    assert [(point[0], point[3]) for point in trail.points] == [(3, 0), (7, 1)]
    trail.cut(resolve_threat(c, tree.children[1].children[1], trail.tables))
    assert len(trail.points) == 2
    fresh_trail = Trail(tree)
    fresh = simulate(tree, belief, trail=fresh_trail)
    assert fingerprint(simulate(tree, belief, trail=trail)) == fingerprint(fresh)
    assert trail_fingerprint(trail) == trail_fingerprint(fresh_trail)


@pytest.mark.parametrize(
    "rank,kept", [(0, [3]), (3, [3]), (5, [3, 7]), (12, [3, 7, 12]), (13, [3, 7, 12])]
)
def test_cut_keeps_points_up_to_the_first_reaching_rank(rank, kept):
    trail = Trail(Condition("c0"))
    trail.points = [(reach, 0, None, 0, 0, 0.0) for reach in (3, 7, 12)]
    trail.cut(rank)
    assert [point[0] for point in trail.points] == kept


def test_resumed_flow_equals_a_fresh_runs():
    # Seq[Fb[a, try_a], Fb[b, try_b]]: an insert at b keeps the ticks that
    # never reach b, and the flow records of those ticks with them; a second
    # try of b adds a tick
    S, F = Status.S, Status.F
    try_a = ActionInstance("try_a", (), (Outcome(0.75, (("a", S),), S), Outcome(0.25, (), F)))
    try_b = ActionInstance("try_b", (), (Outcome(0.5, (("b", S),), S), Outcome(0.5, (), F)))
    b = Condition("b")
    tree = Sequence(
        [Fallback([Condition("a"), ActionNode(try_a)]), Fallback([b, ActionNode(try_b)])]
    )
    belief = BeliefState.point(PhysicalState({"a": F, "b": F}))
    trail = Trail(tree)
    before = simulate(tree, belief, trail=trail).flow
    trail.cut(resolve_by_insert(b, F, try_b, trail.tables, {}))
    kept = trail.points[-1][1]
    assert kept > 0
    resumed = simulate(tree, belief, trail=trail)
    fresh = simulate(tree, belief)
    assert resumed.flow[:kept] == before[:kept] and len(resumed.flow) == len(before) + 1
    assert resumed.flow == fresh.flow and len(fresh.flow) == fresh.ticks_used
    assert sum(ended for ended, _ in fresh.flow) == pytest.approx(fresh.terminal.mass)


def test_planner_builds_tables_once(monkeypatch, wide_domain):
    built = []
    build = TreeTables.__init__

    def counted(self, tree):
        built.append(tree)
        build(self, tree)

    monkeypatch.setattr(TreeTables, "__init__", counted)
    plan = refine_tree(plan_request_from_domain(wide_domain))
    assert len(plan.log) > 50
    assert len(built) == 1


def test_trail_rejects_another_tree():
    belief = randgen.random_belief(random.Random(1), ["c0"])
    tree = Condition("c0")
    trail = Trail(tree)
    simulate(tree, belief, trail=trail)
    with pytest.raises(ValueError):
        simulate(Condition("c0"), belief, trail=trail)
