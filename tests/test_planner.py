import random

import pytest

from bbt.belief import ActionInstance, BeliefState, Outcome, PhysicalState
from bbt.domain import ground, parse_domain
from bbt.engine import simulate
from bbt.errors import (
    EmptyGoal,
    IterationLimit,
    NoResolver,
    NothingFailed,
    UnresolvableThreat,
)
from bbt.planner import (
    FailedConditionReport,
    find_failed_condition,
    find_threat,
    initial_tree,
    plan_request_from_domain,
    refine_tree,
    resolve_by_insert,
    resolve_threat,
    select_resolver,
)
from bbt.rng import CounterRng
from bbt.status import Status
from bbt.tree import (
    ActionNode,
    Condition,
    Fallback,
    Sequence,
    Skipper,
    TreeTables,
)
from bbt.treefile import dumps_tree

import oracle
import randgen
from helpers import assignment_of, physical_state, template

S, F, R = Status.S, Status.F, Status.R


def state(r=R, **values):
    return physical_state({k: Status(v) for k, v in values.items()}, r)


def terminal_of(tree, **values):
    return simulate(tree, BeliefState.point(state(**values))).terminal


# soda planned to 0.999; planning to 0.99 stops after the first six rounds
SODA_LOG_0999 = [
    "1\tinsert\tseen(soda)\t0.000000",
    "2\tinsert\tluminousity_ok\t0.500000",
    "3\tinsert\tseen(soda)\t0.862187",
    "4\tinsert\tseen(soda)\t0.962015",
    "5\tinsert\tseen(soda)\t0.989531",
    "6\tinsert\tseen(soda)\t0.997114",
    "7\tinsert\tseen(soda)\t0.999205",
]

CONFLICT_DOMAIN = """
condition a values { S F }
condition b values { S F }
action make_a {
  pre { }
  outcome 1 -> S { a = S ; b = F }
}
action make_b {
  pre { }
  outcome 1 -> S { b = S }
}
initial { a = F ; b = F }
goal { a = S ; b = S } prob 0.9
"""


class TestInitialTree:
    def test_single_goal(self):
        tree = initial_tree(["seen(soda)"])
        assert isinstance(tree, Sequence)
        assert [c.literal for c in tree.children] == ["seen(soda)"]

    def test_two_goals_in_order(self):
        tree = initial_tree(["a", "b"])
        assert [c.literal for c in tree.children] == ["a", "b"]

    def test_empty_goal(self):
        with pytest.raises(EmptyGoal):
            initial_tree([])


class TestFindFailedCondition:
    def test_argmax_by_mass(self):
        tree = Sequence([Condition("a"), Condition("b")])
        result = simulate(
            tree,
            BeliefState([(0.6, state(r=F, a="F", b="S")), (0.4, state(r=F, a="S", b="F"))]),
        )
        report = find_failed_condition(result.terminal, result.tables)
        assert report.node.literal == "a"
        assert report.observed is F
        assert sum(p for p, _ in report.supporting) == pytest.approx(0.6)
        assert len(report.supporting) == 1  # the entry charged with b is not the target's

    def test_deeper_condition_wins_at_equal_mass(self):
        deep = Condition("q")
        shallow = Condition("t")
        tree = Sequence(
            [Fallback([Condition("p"), Sequence([deep, Condition("rr")])]), shallow]
        )
        initial = BeliefState(
            [
                (0.5, state(r=F, p="F", q="F", rr="S", t="S")),  # deepest failed: q
                (0.5, state(r=F, p="F", q="S", rr="S", t="F")),  # deepest failed: p
            ]
        )
        result = simulate(tree, initial)
        report = find_failed_condition(result.terminal, result.tables)
        assert report.node is deep

    def test_running_condition_counts_as_failed(self):
        tree = Sequence([Condition("seen")])
        report = find_failed_condition(terminal_of(tree, seen="R"), TreeTables(tree))
        assert report.observed is R
        assert sum(p for p, _ in report.supporting) == pytest.approx(1.0)

    def test_nothing_failed_when_all_succeed(self):
        tree = Sequence([Condition("a")])
        with pytest.raises(NothingFailed):
            find_failed_condition(terminal_of(tree, a="S"), TreeTables(tree))

    def test_mass_matches_indicator_table(self):
        tree = Sequence([Condition("a"), Condition("b")])
        initial = BeliefState(
            [
                (0.25, state(r=F, a="F", b="S")),
                (0.35, state(r=F, a="F", b="F")),
                (0.4, state(r=F, a="S", b="F")),
            ]
        )
        result = simulate(tree, initial)
        terminal = result.terminal
        report = find_failed_condition(terminal, result.tables)
        from_table = sum(
            p
            for p, s in terminal.entries
            if s.blame == report.node.node_id and s.value(report.node.literal) is report.observed
        )
        assert sum(p for p, _ in report.supporting) == pytest.approx(from_table, abs=1e-12)
        assert report.node.literal == "a"
        assert sum(p for p, _ in report.supporting) == pytest.approx(0.6, abs=1e-12)

    def test_only_final_tick_conditions_charged(self, soda_det_domain):
        # mirror of the second refinement round: everything fails at the
        # luminousity guard, not at the unknown seen condition above it
        detect = soda_det_domain.actions_by_id["detect(soda)"]
        guard = Condition("luminousity_ok")
        tree = Sequence(
            [Skipper([Condition("seen(soda)"), Sequence([guard, ActionNode(detect)])])]
        )
        terminal = simulate(tree, soda_det_domain.initial_belief()).terminal
        report = find_failed_condition(terminal, TreeTables(tree))
        assert report.node is guard
        assert report.observed is F
        assert sum(p for p, _ in report.supporting) == pytest.approx(1.0)

    def test_no_terminal_entries(self):
        tree = Sequence([Condition("a")])
        with pytest.raises(NothingFailed, match="^no terminal entries$"):
            find_failed_condition(BeliefState(), TreeTables(tree))

    def test_folded_control_latch_replays(self):
        # `attempt` latches F, which fixes the inner sequence: its subtree
        # folds into one latch and the unscanned `hidden` is never charged
        attempt = ActionNode(
            ActionInstance("attempt", (), (Outcome(1.0, (("y", S),), F),))
        )
        inner = Sequence([attempt, Condition("hidden")])
        goal = Condition("goal")
        tree = Fallback([inner, goal])
        terminal = terminal_of(tree, y="F", hidden="F", goal="F")
        ((p, entry),) = terminal.entries
        assert entry.latches == {inner.node_id: F}
        assert entry.r is F
        report = find_failed_condition(terminal, TreeTables(tree))
        assert report.node is goal
        assert report.observed is F
        assert sum(p for p, _ in report.supporting) == pytest.approx(1.0)
        assert report.supporting == terminal.entries


    def test_supporting_entries_are_the_targets_in_terminal_order(self):
        a = Condition("a")
        tree = Sequence([a, Condition("b")])
        initial = BeliefState(
            [
                (0.2, state(r=F, a="F", b="S")),
                (0.1, state(r=F, a="R", b="S")),
                (0.3, state(r=F, a="F", b="F")),
                (0.15, state(r=F, a="S", b="F")),
                (0.05, state(r=F, a="F", b="R")),
                (0.2, state(r=F, a="S", b="S")),
            ]
        )
        terminal = simulate(tree, initial).terminal
        report = find_failed_condition(terminal, TreeTables(tree))
        assert (report.node, report.observed) == (a, F)
        charged = tuple(
            (p, s) for p, s in terminal.entries if s.blame == a.node_id and s.value("a") is F
        )
        assert len(charged) == 3
        assert report.supporting == charged
        # the other failing entries were charged with (a, R) and (b, F)
        assert len([s for _, s in terminal.entries if s.r is not S]) == 5


class TestSelectResolver:
    def _report(self, literal, observed, supporting):
        return FailedConditionReport(Condition(literal), observed, tuple(supporting))

    def test_unknown_target_needs_perception(self, soda_domain):
        support = [(1.0, soda_domain.initial_belief().entries[0][1])]
        resolver = select_resolver(self._report("seen(soda)", R, support), soda_domain, {})
        assert resolver.id == "detect(soda)"

    def test_false_luminousity_resolved_by_light_on(self, soda_domain):
        support = [(1.0, soda_domain.initial_belief().entries[0][1])]
        resolver = select_resolver(self._report("luminousity_ok", F, support), soda_domain, {})
        assert resolver.id == "light_on"

    def test_false_seen_resolved_by_find(self, soda_domain):
        initial = soda_domain.initial_belief().entries[0][1]
        failing = PhysicalState({**assignment_of(initial), "seen(soda)": F})
        resolver = select_resolver(
            self._report("seen(soda)", F, [(1.0, failing)]), soda_domain, {}
        )
        assert resolver.id == "find(soda)"

    def test_declared_probability_ranks_candidates(self):
        text = """
condition seen values { S F R }
action strong {
  pre { seen = F }
  outcome 0.8 -> S { seen = S }
  outcome 0.2 -> F { }
}
action weak {
  pre { seen = F }
  outcome 0.3 -> S { seen = S }
  outcome 0.7 -> F { }
}
"""
        domain = ground(parse_domain(text))
        failing = PhysicalState({"seen": F})
        resolver = select_resolver(self._report("seen", F, [(1.0, failing)]), domain, {})
        assert resolver.id == "strong"

    def test_history_penalty_breaks_near_ties(self):
        text = """
condition seen values { S F R }
action first {
  pre { seen = F }
  outcome 0.5 -> S { seen = S }
  outcome 0.5 -> F { }
}
action second {
  pre { seen = F }
  outcome 0.5 -> S { seen = S }
  outcome 0.5 -> F { }
}
"""
        domain = ground(parse_domain(text))
        failing = PhysicalState({"seen": F})
        fresh = select_resolver(self._report("seen", F, [(1.0, failing)]), domain, {})
        assert fresh.id == "first"  # id tie-break
        after = select_resolver(self._report("seen", F, [(1.0, failing)]), domain, {"first": 1})
        assert after.id == "second"  # 0.9 penalty demotes the used one

    def test_no_resolver_names_literal(self, soda_domain):
        support = [(1.0, soda_domain.initial_belief().entries[0][1])]
        with pytest.raises(NoResolver) as err:
            select_resolver(self._report("at(table1)", R, support), soda_domain, {})
        assert err.value.literal == "at(table1)"


class TestResolveByInsert:
    def test_unknown_gets_skipper_with_guard(self, soda_domain):
        target = Condition("seen(soda)")
        tree = Sequence([target])
        detect = soda_domain.actions_by_id["detect(soda)"]
        resolve_by_insert(target, R, detect, TreeTables(tree), {})
        wrapper = tree.children[0]
        assert isinstance(wrapper, Skipper)
        assert wrapper.children[0] is target
        resolver = wrapper.children[1]
        assert isinstance(resolver, Sequence)
        guard, action = resolver.children
        assert guard.literal == "luminousity_ok"  # S-valued precondition only
        assert isinstance(action, ActionNode) and action.action.id == "detect(soda)"

    def test_false_gets_fallback(self, soda_domain):
        target = Condition("luminousity_ok")
        tree = Sequence([target])
        light_on = soda_domain.actions_by_id["light_on"]
        resolve_by_insert(target, F, light_on, TreeTables(tree), {})
        wrapper = tree.children[0]
        assert isinstance(wrapper, Fallback)
        assert dumps_tree(wrapper.children[1]) == dumps_tree(Sequence([ActionNode(light_on)]))

    def test_repeat_insert_appends_to_existing_wrapper(self, soda_domain):
        target = Condition("seen(soda)")
        tree = Sequence([target])
        find = template(soda_domain, "find(soda)")
        wrappers = {}
        resolve_by_insert(target, F, find, TreeTables(tree), wrappers)
        resolve_by_insert(target, F, find, TreeTables(tree), wrappers)
        wrapper = tree.children[0]
        assert isinstance(wrapper, Fallback)
        assert len(wrapper.children) == 3  # condition + two resolver subtrees
        assert dumps_tree(wrapper.children[1]) == dumps_tree(wrapper.children[2])


    def test_wrapping_a_bare_root_leaves_the_wrapper_first(self, soda_domain):
        target = Condition("luminousity_ok")
        tables = TreeTables(target)
        light_on = soda_domain.actions_by_id["light_on"]
        assert resolve_by_insert(target, F, light_on, tables, {}) == 0
        root = tables.order[0]
        assert isinstance(root, Fallback) and root.children[0] is target
        assert tables.order == TreeTables(root).order


class TestThreats:
    def test_threat_found_and_reordered(self):
        domain = ground(parse_domain(CONFLICT_DOMAIN))
        make_a = ActionNode(domain.actions_by_id["make_a"])
        target = Condition("b")
        tree = Sequence([Fallback([Condition("a"), Sequence([make_a])]), target])
        conflict = find_threat(TreeTables(tree), target, "b")
        assert conflict is make_a
        resolve_threat(target, conflict, TreeTables(tree))
        assert tree.children[0] is target

    def test_no_conflict_means_no_threat(self):
        domain = ground(parse_domain(CONFLICT_DOMAIN))
        make_b = ActionNode(domain.actions_by_id["make_b"])
        target = Condition("a")
        tree = Sequence([Sequence([make_b]), target])
        assert find_threat(TreeTables(tree), target, "a") is None

    def test_clobbers_match_the_outcome_scan(self):
        # the scan find_threat made before actions carried their clobbers
        def scanned_threat(tables, target, literal):
            for node in tables.order[: tables.rank[target.node_id]]:
                if isinstance(node, ActionNode) and any(
                    lit == literal and value is not S
                    for outcome in node.action.outcomes
                    for lit, value in outcome.postconditions
                ):
                    return node
            return None

        rng = random.Random(2828)
        checks = threats = 0
        for _ in range(2000):
            literals = randgen.random_literals(rng)
            actions = randgen.random_actions(rng, literals)
            tables = TreeTables(randgen.random_tree(rng, literals, actions, max_nodes=12))
            for target in tables.order:
                if not isinstance(target, Condition):
                    continue
                for literal in literals:
                    want = scanned_threat(tables, target, literal)
                    assert find_threat(tables, target, literal) is want
                    checks += 1
                    threats += want is not None
        assert threats > 500 and checks - threats > 2000, (checks, threats)

    def test_unresolvable_threat_reported(self):
        domain = ground(parse_domain(CONFLICT_DOMAIN))
        make_a = ActionNode(domain.actions_by_id["make_a"])  # not attached to tree
        target = Condition("b")
        tree = Sequence([target, Condition("a")])
        with pytest.raises(UnresolvableThreat):
            resolve_threat(target, make_a, TreeTables(tree))

    def test_unresolvable_threat_when_target_not_in_tree(self):
        domain = ground(parse_domain(CONFLICT_DOMAIN))
        make_a = ActionNode(domain.actions_by_id["make_a"])
        target = Condition("b")  # not attached to tree
        tree = Sequence([Sequence([make_a]), Condition("a")])
        with pytest.raises(UnresolvableThreat):
            resolve_threat(target, make_a, TreeTables(tree))

    def test_reorder_matches_the_ancestor_chains(self):
        # the lowest common ancestor as resolve_threat found it before it
        # climbed the tables: both ancestor chains, matched from the target's
        def reference(tables, target, conflict):
            def ancestors(node):
                chain = [node]
                while chain[-1].node_id in tables.parent:
                    chain.append(tables.parent[chain[-1].node_id])
                return chain

            target_chain = ancestors(target)
            conflict_chain = ancestors(conflict)
            conflict_ids = {n.node_id: i for i, n in enumerate(conflict_chain)}
            for i, node in enumerate(target_chain):
                if node.node_id in conflict_ids:
                    target_child = target_chain[i - 1]
                    conflict_child = conflict_chain[conflict_ids[node.node_id] - 1]
                    children = list(node.children)
                    children.remove(target_child)
                    children.insert(children.index(conflict_child), target_child)
                    rank = min(
                        tables.rank[target_child.node_id], tables.rank[conflict_child.node_id]
                    )
                    return node, children, rank
            raise AssertionError("two nodes of one tree share the root")

        rng = random.Random(3131)
        pairs = below_root = 0
        for _ in range(2000):
            literals = randgen.random_literals(rng)
            actions = randgen.random_actions(rng, literals)
            tree = randgen.random_tree(rng, literals, actions, max_nodes=16)
            nodes = list(tree.iter_nodes())
            for target in nodes:
                if not isinstance(target, Condition):
                    continue
                for conflict in nodes:
                    if not isinstance(conflict, ActionNode):
                        continue
                    tables = TreeTables(tree)
                    lca, children, rank = reference(tables, target, conflict)
                    before = list(lca.children)
                    assert resolve_threat(target, conflict, tables) == rank
                    assert lca.children == children
                    lca.children[:] = before
                    pairs += 1
                    below_root += lca is not tree
        assert pairs > 2000 and below_root > 1000, (pairs, below_root)

    def test_three_child_reorder_preserves_bystander(self):
        domain = ground(parse_domain(CONFLICT_DOMAIN))
        make_a = ActionNode(domain.actions_by_id["make_a"])
        conflict_child = Sequence([make_a])
        bystander = Condition("a")
        target = Condition("b")
        target_child = Fallback([target, Sequence([Condition("a")])])
        tree = Sequence([conflict_child, bystander, target_child])
        resolve_threat(target, make_a, TreeTables(tree))
        assert tree.children == [target_child, conflict_child, bystander]


class TestRefineTree:
    def test_soda_deterministic_trace(self, planned_det):
        probabilities = [record.probability for record in planned_det.log]
        assert probabilities == pytest.approx([0.0, 0.5, 0.875, 0.96875], abs=1e-12)
        assert [record.kind for record in planned_det.log] == ["insert"] * 4
        assert [record.literal for record in planned_det.log] == [
            "seen(soda)",
            "luminousity_ok",
            "seen(soda)",
            "seen(soda)",
        ]
        assert planned_det.achieved == pytest.approx(0.96875, abs=1e-12)

    def test_log_probabilities_non_decreasing(self, planned_det, planned_stochastic):
        for result in (planned_det, planned_stochastic):
            probabilities = [record.probability for record in result.log]
            assert probabilities == sorted(probabilities)

    def test_no_second_light_on(self, planned_det):
        # once luminousity holds everywhere it survives, it is never re-resolved
        actions = [
            n.action.id
            for n in planned_det.tree.iter_nodes()
            if isinstance(n, ActionNode)
        ]
        assert actions.count("light_on") == 1

    def test_replay_matches_logged_probability(self, soda_det_domain, planned_det):
        result = simulate(planned_det.tree, soda_det_domain.initial_belief())
        assert result.terminal.success_probability() == planned_det.achieved

    def test_goal_already_satisfied(self, soda_det_path):
        text = soda_det_path.read_text(encoding="utf-8")
        old = "initial { seen(soda) = R"
        assert old in text
        domain = ground(parse_domain(text.replace(old, "initial { seen(soda) = S")))
        request = plan_request_from_domain(domain)
        result = refine_tree(request)
        assert result.log == ()
        assert dumps_tree(result.tree) == dumps_tree(Sequence([Condition("seen(soda)")]))
        assert result.achieved == pytest.approx(1.0)

    def test_unreachable_goal_reports_literal(self):
        text = """
condition c values { S F }
initial { c = F }
goal { c = S } prob 0.5
"""
        domain = ground(parse_domain(text))
        with pytest.raises(NoResolver) as err:
            refine_tree(plan_request_from_domain(domain))
        assert err.value.literal == "c"

    def test_iteration_limit(self):
        text = """
condition c values { S F }
action weak {
  pre { }
  outcome 0.5 -> S { c = S }
  outcome 0.5 -> F { }
}
initial { c = F }
goal { c = S } prob 0.999999
"""
        domain = ground(parse_domain(text))
        request = plan_request_from_domain(domain, max_iterations=3)
        with pytest.raises(IterationLimit):
            refine_tree(request)

    def test_threat_resolution_end_to_end(self):
        domain = ground(parse_domain(CONFLICT_DOMAIN))
        result = refine_tree(plan_request_from_domain(domain))
        kinds = [record.kind for record in result.log]
        assert "threat-reorder" in kinds
        assert result.achieved == pytest.approx(1.0)
        # goal conditions ended up reordered: b's wrapper now ticks first
        first, second = result.tree.children
        literals = [n.literal for n in result.tree.iter_nodes() if isinstance(n, Condition)]
        assert literals.index("b") < literals.index("a")

    def test_deterministic_across_runs(self, soda_domain):
        first = refine_tree(plan_request_from_domain(soda_domain))
        second = refine_tree(plan_request_from_domain(soda_domain))
        assert dumps_tree(first.tree) == dumps_tree(second.tree)
        assert first.log_lines() == second.log_lines()

    @pytest.mark.parametrize("prob,iterations", [(0.99, 6), (0.999, 7)])
    def test_soda_deep_log_pinned(self, soda_domain, prob, iterations):
        result = refine_tree(plan_request_from_domain(soda_domain, target_probability=prob))
        assert result.log_lines() == SODA_LOG_0999[:iterations]

    def test_soda_0999_achieved(self, soda_domain):
        result = refine_tree(plan_request_from_domain(soda_domain, target_probability=0.999))
        assert result.achieved == pytest.approx(0.9992046412955161, abs=1e-9)

    def test_log_line_format(self, planned_det):
        assert planned_det.log_lines()[1] == "2\tinsert\tluminousity_ok\t0.500000"


class TestPlannedTreeShape:
    def test_synthesized_tree_shape(self, planned_det):
        # root sequence -> skipper over the goal condition's fallback wrapper
        # and the guarded detect
        root = planned_det.tree
        assert isinstance(root, Sequence) and len(root.children) == 1
        skipper = root.children[0]
        assert isinstance(skipper, Skipper) and len(skipper.children) == 2
        seen_wrapper, detect_seq = skipper.children
        assert isinstance(seen_wrapper, Fallback)
        assert seen_wrapper.children[0].literal == "seen(soda)"
        assert len(seen_wrapper.children) == 3  # condition + find + find
        guard_wrapper, detect_node = detect_seq.children
        assert isinstance(guard_wrapper, Fallback)
        assert guard_wrapper.children[0].literal == "luminousity_ok"
        assert detect_node.action.id == "detect(soda)"

    def test_all_inserted_actions_are_latchable(self, planned_det, soda_det_domain):
        action_nodes = [
            n for n in planned_det.tree.iter_nodes() if isinstance(n, ActionNode)
        ]
        # detect + light_on + 2 finds x (2 gotos + 2 detects)
        assert len(action_nodes) == 10
        # latches live in each run's record, keyed by these nodes' ids
        assert ActionNode.__slots__ == ("action",)
        _, run = oracle.run_classic(
            planned_det.tree, dict(soda_det_domain.initial_assignment), CounterRng(0)
        )
        assert set(run.latches) <= {n.node_id for n in action_nodes}
