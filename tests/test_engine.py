import random

import pytest

from bbt.belief import ActionInstance, BeliefState, Outcome, PhysicalState
from bbt.classic import ClassicRuns, LeafProgram
from bbt.engine import (
    SimulationLimits,
    apply_delayed,
    belief_tick,
    simulate,
)
from bbt.errors import EntryLimitExceeded, NoPending, TickLimitExceeded
from bbt.status import Status
from bbt.tree import ActionNode, Condition, Fallback, Sequence, Skipper, TreeTables

import oracle
import randgen
from helpers import assignment_of

S, F, R = Status.S, Status.F, Status.R
MASS_TOL = 1e-12


def state(r=R, latches=None, pending=None, **values):
    return PhysicalState(
        {k: Status(v) for k, v in values.items()}, r, pending=pending, latches=latches
    )


def detect(name="detect", literal="seen"):
    return ActionInstance(
        name,
        (),
        (Outcome(0.5, ((literal, S),), S), Outcome(0.5, ((literal, F),), F)),
    )


def sure(name="sure", post=(("x", S),), report=S):
    return ActionInstance(name, (), (Outcome(1.0, tuple(post), report),))


class TestBeliefTick:
    def test_sequence_hand_enumeration(self):
        # first entry fails at b, second at a; b never evaluated for the second
        tree = Sequence([Condition("a"), Condition("b")])
        m = BeliefState([(0.5, state(a="S", b="F")), (0.5, state(a="F", b="S"))])
        out = belief_tick(tree, m, TreeTables(tree))
        assert all(s.r is F for _, s in out)
        assert out.mass == pytest.approx(1.0, abs=MASS_TOL)
        # the a=F entry stopped at child 0, so it is returned first
        assert [s.value("a") for _, s in out] == [F, S]

    def test_fallback_first_child_success_leaves_rest_untouched(self):
        tree = Fallback([Condition("a"), Condition("missing")])
        m = BeliefState([(0.7, state(a="S", b="S")), (0.3, state(a="S", b="F"))])
        out = belief_tick(tree, m, TreeTables(tree))
        assert all(s.r is S for _, s in out)
        assert len(out) == 2

    def test_skipper_schedules_behind_unknown(self):
        action = ActionNode(detect())
        tree = Skipper([Condition("seen"), Sequence([action])])
        out = belief_tick(tree, BeliefState.point(state(seen="R")), TreeTables(tree))
        ((_, result),) = out.entries
        assert result.r is R
        assert result.pending is not None
        assert result.pending[1].id == "detect"

    def test_unchanged_entry_is_the_same_object(self):
        tree = Sequence([Condition("a"), Condition("b")])
        same, moved = state(r=S, a="S", b="S"), state(r=S, a="S", b="F")
        # the b=F entry stops at child 1; the other runs past the last child
        stopped, passed = tick_once(tree, same, moved)
        assert passed is same
        assert stopped is not moved and (stopped.r, stopped.blame) == (F, tree.children[1].node_id)
        # a changed entry is built once, around the state's own parts
        assert stopped.values is moved.values and stopped.latches is moved.latches

    def test_entry_limit(self):
        # a tick holds no more entries than it starts with, so the limit is
        # checked on the belief each root tick starts with
        tree = Sequence([Condition("a")])
        m = BeliefState([(0.5, state(a="S")), (0.25, state(a="F")), (0.25, state(a="R"))])
        with pytest.raises(EntryLimitExceeded, match="holds 3 entries, limit is 2"):
            simulate(tree, m, SimulationLimits(max_entries=2))
        assert len(simulate(tree, m, SimulationLimits(max_entries=3)).terminal) == 3


def tick_once(tree, *states):
    """One belief tick of ``tree`` over equally weighted ``states``."""
    m = BeliefState((1.0 / len(states), s) for s in states)
    return [s for _, s in belief_tick(tree, m, TreeTables(tree))]


class TestScheduleDelayed:
    """Action leaves in a belief tick: latch replay, else R and one pending action."""

    def test_fresh_entry_schedules(self):
        node = ActionNode(sure("goto(table1)", (("at", S),)))
        (s,) = tick_once(node, state(at="F"))
        assert s.r is R
        assert s.pending == (node.node_id, node.action)
        # the pending key holds the node id and the action id
        assert s.key[3] == (node.node_id, "goto(table1)")
        assert s == state(at="F", pending=(node.node_id, node.action))

    def test_latched_entry_replays(self):
        node = ActionNode(sure("goto"))
        for report in (S, F):
            (s,) = tick_once(node, state(at="F", latches={node.node_id: report}))
            assert s.r is report
            assert s.pending is None
        # a replayed S passes on to the next action, which is scheduled
        second = ActionNode(sure("other"))
        tree = Sequence([node, second])
        (s,) = tick_once(tree, state(at="F", latches={node.node_id: S}))
        assert s.r is R
        assert s.pending == (second.node_id, second.action)
        assert s.key[3] == (second.node_id, "other")

    def test_second_action_same_tick_not_scheduled(self):
        first = ActionNode(detect())
        second = ActionNode(sure("other"))
        # a Skipper goes on past R, so the second action is ticked while the
        # first is pending: it returns R and leaves the first pending
        tree = Skipper([first, second])
        (s,) = tick_once(tree, state(seen="R", x="F"))
        assert s.r is R
        assert s.pending == (first.node_id, first.action)
        assert s.key[3] == (first.node_id, "detect")
        # so does an entry that starts the tick with an action pending, and
        # a latched action still replays its report
        pending = (first.node_id, first.action)
        fresh, done = tick_once(
            Fallback([second]),
            state(x="F", pending=pending),
            state(x="F", pending=pending, latches={second.node_id: F}),
        )
        assert (fresh.r, fresh.pending) == (R, pending)
        assert (done.r, done.pending) == (F, pending)


class TestApplyDelayed:
    def test_detect_splits_and_latches(self):
        node = ActionNode(detect("detect(soda)"))
        tables = TreeTables(node)
        m = belief_tick(node, BeliefState.point(state(seen="R")), tables)
        out = apply_delayed(m, tables)
        assert len(out) == 2
        for p, s in out.entries:
            assert p == pytest.approx(0.5, abs=MASS_TOL)
            assert s.pending is None
            assert s.latches[node.node_id] is s.value("seen")

    def test_deterministic_outcome_single_entry(self):
        node = ActionNode(sure("light_on", (("lum", S),)))
        tables = TreeTables(node)
        m = belief_tick(node, BeliefState.point(state(lum="F")), tables)
        out = apply_delayed(m, tables)
        ((p, s),) = out.entries
        assert p == pytest.approx(1.0, abs=MASS_TOL)
        assert s.value("lum") is S
        assert s.latches[node.node_id] is S

    def test_entries_expand_independently(self):
        node_a = ActionNode(detect("d1", "x"))
        node_b = ActionNode(sure("s1", (("y", S),)))
        m = BeliefState(
            [
                (0.5, state(x="R", y="F", pending=(node_a.node_id, node_a.action))),
                (0.5, state(x="R", y="F", pending=(node_b.node_id, node_b.action))),
            ]
        )
        out = apply_delayed(m, TreeTables(Sequence([node_a, node_b])))
        masses = sorted(p for p, _ in out.entries)
        assert masses == [pytest.approx(0.25), pytest.approx(0.25), pytest.approx(0.5)]
        assert out.mass == pytest.approx(1.0, abs=MASS_TOL)

    def test_no_pending_raises(self):
        with pytest.raises(NoPending):
            apply_delayed(BeliefState.point(state(a="S")), TreeTables(Condition("a")))


class TestSimulate:
    def test_single_condition(self):
        result = simulate(Sequence([Condition("seen")]), BeliefState.point(state(seen="S")))
        assert result.ticks_used == 1
        ((p, s),) = result.terminal.entries
        assert p == pytest.approx(1.0, abs=MASS_TOL)
        assert s.r is S

    def test_unknown_condition_settles_as_running(self):
        result = simulate(Sequence([Condition("seen")]), BeliefState.point(state(seen="R")))
        ((_, s),) = result.terminal.entries
        assert s.r is R
        assert result.terminal.success_probability() == 0

    def test_fixpoint_rule(self):
        # settled entries are unchanged by one more root tick
        rng = random.Random(11)
        for _ in range(30):
            literals = randgen.random_literals(rng)
            actions = randgen.random_actions(rng, literals)
            tree = randgen.random_tree(rng, literals, actions)
            initial = BeliefState.point(
                PhysicalState(randgen.random_assignment(rng, literals))
            )
            result = simulate(tree, initial)
            for p, s in result.terminal.entries:
                out = belief_tick(tree, BeliefState.point(s), result.tables)
                ((_, again),) = out.entries
                assert again.pending is None
                assert assignment_of(again) == assignment_of(s)
                assert again.latches == s.latches
                assert again.r is s.r

    def test_terminal_of_another_tree_starts_a_run(self):
        first = Condition("a")
        tree = Sequence([Fallback([first, Condition("b")])])
        result = simulate(tree, BeliefState.point(state(a="F", b="F")))
        ((_, done),) = result.terminal.entries
        assert done.blame == first.node_id  # leftmost of the two at depth 2
        # a blame naming a node of another tree counts as none
        goal = Condition("b")
        ((_, again),) = simulate(Sequence([goal]), BeliefState.point(done)).terminal.entries
        assert again.blame == goal.node_id

    def test_termination_bound_all_latched(self):
        rng = random.Random(23)
        for _ in range(50):
            literals = randgen.random_literals(rng)
            actions = randgen.random_actions(rng, literals)
            tree = randgen.random_tree(rng, literals, actions)
            action_nodes = sum(1 for n in tree.iter_nodes() if isinstance(n, ActionNode))
            initial = BeliefState.point(
                PhysicalState(randgen.random_assignment(rng, literals))
            )
            result = simulate(tree, initial)
            assert result.ticks_used <= action_nodes + 1

    def test_mass_conservation(self):
        rng = random.Random(31)
        for _ in range(50):
            literals = randgen.random_literals(rng)
            actions = randgen.random_actions(rng, literals)
            tree = randgen.random_tree(rng, literals, actions)
            m = randgen.random_belief(rng, literals)
            ticked = belief_tick(tree, m, TreeTables(tree))
            assert ticked.mass == pytest.approx(m.mass, abs=MASS_TOL)
            result = simulate(tree, m)
            assert result.terminal.mass + result.pruned_mass == pytest.approx(
                m.mass, abs=MASS_TOL
            )

    def test_matches_oracle_on_random_trees(self):
        rng = random.Random(47)
        for _ in range(60):
            literals = randgen.random_literals(rng)
            actions = randgen.random_actions(rng, literals)
            tree = randgen.random_tree(rng, literals, actions)
            assignment = randgen.random_assignment(rng, literals)
            expected = oracle.enumerate_terminals(tree, assignment)
            result = simulate(tree, BeliefState.point(PhysicalState(assignment)))
            oracle.assert_distributions_match(
                expected, oracle.simulation_to_terminals(result)
            )

    def test_blame_matches_oracle_on_random_trees(self):
        # the charged condition of every terminal entry, mass by mass
        rng = random.Random(53)
        charged = 0
        for _ in range(1000):
            literals = randgen.random_literals(rng)
            actions = randgen.random_actions(rng, literals)
            tree = randgen.random_tree(rng, literals, actions, max_nodes=14)
            assignment = randgen.random_assignment(rng, literals)
            expected = oracle.enumerate_terminals(tree, assignment)
            result = simulate(tree, BeliefState.point(PhysicalState(assignment)))
            oracle.assert_distributions_match(
                expected, oracle.simulation_to_terminals(result)
            )
            charged += sum(1 for _, _, blame in expected if blame is not None)
        assert charged > 400

    def test_singleton_deterministic_equals_classic(self):
        rng = random.Random(59)
        for _ in range(100):
            literals = randgen.random_literals(rng)
            actions = randgen.random_actions(rng, literals, deterministic=True)
            tree = randgen.random_tree(rng, literals, actions)
            assignment = randgen.random_assignment(rng, literals)
            result = simulate(tree, BeliefState.point(PhysicalState(assignment)))
            ((_, terminal),) = result.terminal.entries
            (status,) = ClassicRuns(LeafProgram(result.tables), assignment).statuses(1, [0])
            assert terminal.r is status

    def test_monte_carlo_agreement_on_stochastic_tree(self):
        rng = random.Random(61)
        literals = ["a", "b", "c"]
        actions = randgen.random_actions(rng, literals, max_actions=3)
        tree = Fallback(
            [
                Sequence([Condition("a"), ActionNode(actions[0])]),
                Skipper([Condition("b"), Sequence([ActionNode(actions[-1])])]),
            ]
        )
        assignment = {"a": F, "b": R, "c": F}
        analytical = simulate(
            tree, BeliefState.point(PhysicalState(assignment))
        ).terminal.success_probability()
        runs = ClassicRuns(LeafProgram(TreeTables(tree)), assignment)
        n = 20000
        # run i draws as CounterRng(99, i) would
        hits = sum(status is S for status in runs.statuses(99, range(n)))
        rate = hits / n
        bound = 3 * (max(analytical * (1 - analytical), 1e-9) / n) ** 0.5
        assert abs(rate - analytical) <= max(bound, 1e-9) + 3e-3

    def test_tick_limit(self):
        action = ActionNode(detect())
        tree = Skipper([Condition("seen"), Sequence([action])])
        with pytest.raises(TickLimitExceeded):
            simulate(
                tree,
                BeliefState.point(state(seen="R")),
                SimulationLimits(max_root_ticks=1),
            )

    def test_entry_limit_on_expansion(self):
        actions = [detect(f"d{i}", lit) for i, lit in enumerate(("a", "b", "c"))]
        tree = Sequence(
            [Skipper([Condition(lit), Sequence([ActionNode(act)])]) for lit, act in zip(("a", "b", "c"), actions)]
        )
        with pytest.raises(EntryLimitExceeded):
            simulate(
                tree,
                BeliefState.point(state(a="R", b="R", c="R")),
                SimulationLimits(max_entries=1),
            )

    def test_entry_limit_on_initial_belief(self):
        # a bare condition: the root tick has no child to check, so only the
        # check before the tick sees the initial belief over the limit
        m = BeliefState([(0.5, state(a="S")), (0.25, state(a="F")), (0.25, state(a="R"))])
        with pytest.raises(EntryLimitExceeded, match="holds 3 entries, limit is 2"):
            simulate(Condition("a"), m, SimulationLimits(max_entries=2))

    def test_prune_epsilon_reports_unresolved_mass(self):
        action = ActionNode(
            ActionInstance(
                "skew", (), (Outcome(0.9375, (("a", S),), S), Outcome(0.0625, (("a", F),), F))
            )
        )
        tree = Fallback([Condition("a"), Sequence([action])])
        result = simulate(
            tree,
            BeliefState.point(state(a="F")),
            SimulationLimits(prune_epsilon=0.1),
        )
        assert result.pruned_mass == pytest.approx(0.0625, abs=MASS_TOL)
        assert result.terminal.mass == pytest.approx(0.9375, abs=MASS_TOL)

    def test_mass_flow_log(self):
        action = ActionNode(detect())
        tree = Skipper([Condition("seen"), Sequence([action])])
        result = simulate(tree, BeliefState.point(state(seen="R")), record_flow=True)
        assert result.mass_flow
        assert result.mass_flow[0].startswith("tick 1 ")


def coin(name):
    return ActionInstance(name, (), (Outcome(0.5, (), S), Outcome(0.5, (), F)))


class TestCanonicalLatchViews:
    def test_settled_subtree_folds_into_one_latch(self):
        post = (("y", S),)
        inner = Sequence([ActionNode(sure("a1", post)), ActionNode(sure("a2", post))])
        tree = Sequence([inner, Condition("x")])
        result = simulate(tree, BeliefState.point(state(x="F", y="F")))
        ((p, s),) = result.terminal.entries
        assert s.latches == {inner.node_id: S}
        assert s.r is F

    def test_histories_with_one_future_merge(self):
        # heads on the first coin, or tails then heads, both settle the
        # fallback at S: two histories, one state; two tails settle the root
        inner = Fallback([ActionNode(coin("c1")), ActionNode(coin("c2"))])
        tree = Sequence([inner, Condition("z")])
        result = simulate(tree, BeliefState.point(state(z="S")))
        masses = {(s.r, tuple(s.latches.items())): p for p, s in result.terminal.entries}
        assert masses == {
            (S, ((inner.node_id, S),)): pytest.approx(0.75, abs=MASS_TOL),
            (F, ((tree.node_id, F),)): pytest.approx(0.25, abs=MASS_TOL),
        }

    def test_unsettled_scan_keeps_child_latches(self):
        action = ActionNode(sure("a"))
        tree = Sequence([Condition("x"), action])
        result = simulate(tree, BeliefState.point(state(x="S")))
        ((_, s),) = result.terminal.entries
        assert s.latches == {action.node_id: S}

    def test_foldable_nodes(self):
        leaf = ActionNode(sure("a"))
        nested = Sequence([leaf, Condition("x")])
        outer = Fallback([nested])
        guarded = Skipper([Condition("x"), ActionNode(sure("b"))])
        root = Sequence([guarded, outer])
        tables = TreeTables(root)
        assert tables.foldable == {nested.node_id, outer.node_id}

    def test_latch_views_stay_canonical(self):
        # the invariants that make folding a child's latches enough: no latch
        # below a latched node, none after a sibling that settled at a
        # stopping status, and every control node settled by latches folded
        rng = random.Random(71)
        for _ in range(200):
            literals = randgen.random_literals(rng)
            actions = randgen.random_actions(rng, literals)
            tree = randgen.random_tree(rng, literals, actions, max_nodes=16)
            result = simulate(tree, randgen.random_belief(rng, literals))
            for _, s in result.terminal.entries:
                assert_canonical(tree, s.latches)


def assert_canonical(node, latches, covered=False):
    """Check ``latches`` is a canonical view of the subtree under ``node``."""
    if covered:
        assert node.node_id not in latches
    covered = covered or node.node_id in latches
    children = node.children
    if children and not covered:
        scanned_settled = True
        for child in children:
            status = latches.get(child.node_id)
            if status is None:
                scanned_settled = False
                break
            if status is not node.continue_status:
                break
        assert not scanned_settled, f"{node!r} is settled but not folded"
    stopped = False
    for child in children:
        if stopped:
            assert not any(n.node_id in latches for n in child.iter_nodes())
        assert_canonical(child, latches, covered)
        status = latches.get(child.node_id)
        stopped = stopped or (status is not None and status is not node.continue_status)
