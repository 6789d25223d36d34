"""Resumed simulations equal fresh ones, bit for bit.

A simulation given a :class:`~bbt.engine.Trail` cut at an edit's rank
resumes at the first root tick that reaches the edit.  Its terminal entries
(probabilities, keys and blame), ``ticks_used`` and ``pruned_mass`` must equal
those of a fresh :func:`~bbt.engine.simulate` of the edited tree exactly,
and its limits must fire where the fresh run's do.  The trail's tables,
which every edit updates in place, must equal a fresh walk of the edited
tree.
"""

import random

import pytest

from bbt import engine, ground, parse_domain, plan_request_from_domain, refine_tree
from bbt.belief import ActionInstance
from bbt.engine import SimulationLimits, Trail, simulate
from bbt.errors import TickLimitExceeded
from bbt.planner import resolve_by_insert, resolve_threat
from bbt.status import Status
from bbt.tree import ActionNode, Condition, TreeTables

import randgen
from test_engine import goal_root
from test_planner import CONFLICT_DOMAIN


def keys(entries):
    return [(p, s.key, s.blame) for p, s in entries]


def fingerprint(result):
    return keys(result.terminal.entries), result.ticks_used, result.pruned_mass


def trail_fingerprint(trail):
    points = [(reach, ticks, keys(mem.entries), done, pruned)
              for reach, ticks, mem, done, pruned in trail.points]
    return points, keys(trail.finished)


def assert_tables_current(tables, tree):
    """``tables`` equal a fresh walk of ``tree``: nodes by identity, the rest by value."""
    fresh = TreeTables(tree)
    assert len(tables.order) == len(fresh.order)
    assert all(a is b for a, b in zip(tables.order, fresh.order))
    assert tables.parent.keys() == fresh.parent.keys()
    assert all(tables.parent[k] is node for k, node in fresh.parent.items())
    assert tables.rank == fresh.rank
    assert tables.depth == fresh.depth
    assert tables.foldable == fresh.foldable
    assert tables.gates == fresh.gates  # conditions compare by identity


def random_edit(rng, tree, tables, literals, actions, wrappers):
    """One random planner edit of ``tree``: an insert or a sibling reorder.

    Returns the new root and the edit's rank, or None when the tree has no
    place for the edit drawn.
    """
    conditions = [n for n in tables.order if isinstance(n, Condition)]
    if not conditions:
        return None
    target = rng.choice(conditions)
    if rng.random() < 0.3:
        in_tree = [n for n in tables.order if isinstance(n, ActionNode)]
        if not in_tree:
            return None
        return resolve_threat(tree, target, rng.choice(in_tree), tables)
    action = rng.choice(actions)
    if rng.random() < 0.5:
        guard = (rng.choice(literals), Status.S)
        action = ActionInstance(action.id, (guard,), action.outcomes)
    observed = rng.choice((Status.F, Status.R))
    return resolve_by_insert(tree, target, observed, action, tables, wrappers)


@pytest.mark.parametrize("epsilon", [0.0, 0.05])
def test_random_edits_resume_exactly(epsilon):
    def random_tree(rng, literals, actions):
        return randgen.random_tree(rng, literals, actions, max_nodes=12)

    resumed_ticks, pruned = edit_and_resume(random.Random(9090), epsilon, random_tree)
    assert resumed_ticks > 0  # some edits left a prefix to reuse
    assert (pruned > 0.0) == (epsilon > 0.0)


def test_random_edits_of_goal_roots_resume_exactly():
    # Sequence roots of gated children, whose gates each edit keeps current
    resumed_ticks, _ = edit_and_resume(random.Random(9191), 0.0, goal_root)
    assert resumed_ticks > 0


def edit_and_resume(rng, epsilon, make_tree):
    """Random edits of 300 trees from ``make_tree``, each resumed and checked.

    Returns the root ticks the resumed runs reused and the mass the fresh
    runs pruned.
    """
    limits = SimulationLimits(prune_epsilon=epsilon)
    resumed_ticks, pruned = 0, 0.0
    for _ in range(300):
        literals = randgen.random_literals(rng)
        actions = randgen.random_actions(rng, literals)
        tree = make_tree(rng, literals, actions)
        belief = randgen.random_belief(rng, literals, max_entries=4)
        trail = Trail()
        result = simulate(tree, belief, limits, trail=trail)
        assert fingerprint(result) == fingerprint(simulate(tree, belief, limits))
        wrappers: dict[int, str] = {}
        for _ in range(rng.randint(1, 4)):
            edit = random_edit(rng, tree, result.tables, literals, actions, wrappers)
            if edit is None:
                break
            tree, rank = edit
            assert trail.tables is result.tables
            assert_tables_current(trail.tables, tree)
            trail.cut(rank)
            if trail.points:
                resumed_ticks += trail.points[-1][1]
            fresh_trail = Trail()
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
    return resumed_ticks, pruned


def plan_checked(monkeypatch, domain, prob=None):
    """Plan with every round's simulation checked against a fresh one."""
    rounds = []

    def checked(tree, initial, limits=None, **kwargs):
        trail = kwargs.get("trail")
        if rounds:
            # the last round's edit left the trail's tables current
            assert_tables_current(trail.tables, tree)
        start = trail.points[-1][1] if trail is not None and trail.points else 0
        result = engine.simulate(tree, initial, limits, **kwargs)
        assert fingerprint(result) == fingerprint(engine.simulate(tree, initial, limits))
        rounds.append(start)
        return result

    monkeypatch.setattr("bbt.planner.simulate", checked)
    plan = refine_tree(plan_request_from_domain(domain, target_probability=prob))
    assert len(rounds) == len(plan.log) + 1
    return plan, rounds


@pytest.mark.parametrize("domain_fixture", ["soda_domain", "soda_det_domain"])
@pytest.mark.parametrize("prob", [None, 0.99, 0.999])
def test_soda_rounds_resume_exactly(request, monkeypatch, domain_fixture, prob):
    plan_checked(monkeypatch, request.getfixturevalue(domain_fixture), prob)


def test_wide_rounds_resume_exactly(monkeypatch, wide_domain):
    _, rounds = plan_checked(monkeypatch, wide_domain)
    assert sum(rounds) > 0  # the wide rounds skip a replayed prefix


def test_threat_rounds_resume_exactly(monkeypatch):
    plan, _ = plan_checked(monkeypatch, ground(parse_domain(CONFLICT_DOMAIN)))
    assert "threat-reorder" in [record.kind for record in plan.log]


@pytest.mark.parametrize(
    "rank,kept", [(0, [3]), (3, [3]), (5, [3, 7]), (12, [3, 7, 12]), (13, [3, 7, 12])]
)
def test_cut_keeps_points_up_to_the_first_reaching_rank(rank, kept):
    trail = Trail()
    trail.points = [(reach, 0, None, 0, 0.0) for reach in (3, 7, 12)]
    trail.cut(rank)
    assert [point[0] for point in trail.points] == kept


def test_trail_records_no_flow():
    tree = Condition("c0")
    belief = randgen.random_belief(random.Random(1), ["c0"])
    with pytest.raises(ValueError):
        simulate(tree, belief, record_flow=True, trail=Trail())


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
    trail = Trail()
    simulate(Condition("c0"), belief, trail=trail)
    with pytest.raises(ValueError):
        simulate(Condition("c0"), belief, trail=trail)
