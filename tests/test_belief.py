import random
from collections import defaultdict

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bbt.belief import ActionInstance, BeliefState, Outcome
from bbt.engine import belief_tick, simulate
from bbt.errors import UnknownLiteral
from bbt.planner import find_failed_condition, plan_request_from_domain, refine_tree
from bbt.status import Status
from bbt.tree import ActionNode, Condition, Sequence, TreeTables

import randgen
from helpers import assignment_of, ended, physical_state

S, F, R = Status.S, Status.F, Status.R

MASS_TOL = 1e-12


def state(r=R, **values):
    return physical_state({k: Status(v) for k, v in values.items()}, r)


statuses = st.sampled_from([S, F, R])
assignments = st.dictionaries(
    st.sampled_from(["a", "b", "c", "d"]), statuses, min_size=1, max_size=4
)


@st.composite
def beliefs(draw):
    literals = draw(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=4, unique=True))
    n = draw(st.integers(1, 5))
    entries = []
    for _ in range(n):
        assignment = {lit: draw(statuses) for lit in literals}
        p = draw(st.integers(1, 16)) / 16.0
        entries.append((p, physical_state(assignment, draw(statuses))))
    return BeliefState(entries)


class TestPhysicalState:
    def test_equality_covers_assignment_r_latches(self):
        base = state(a="S")
        assert base == state(a="S")
        # the last one holds another literal: states over different literal
        # sets stay apart, also in one belief
        for other in (
            state(a="F"),
            state(r=S, a="S"),
            physical_state({"a": S}, R, latches={1: S}),
            state(b="S"),
        ):
            assert base != other
            assert len(BeliefState([(0.5, base), (0.5, other)])) == 2

    def test_unknown_literal(self):
        with pytest.raises(UnknownLiteral):
            state(a="S").value("b")
        with pytest.raises(UnknownLiteral):
            outcome = Outcome(1.0, (("b", S),), S)
            node = ActionNode(ActionInstance("bad", (), (outcome,)))
            state(a="S").resolved(node, outcome, TreeTables(node))

    def test_resolved_key_equals_fresh_state(self):
        rng = random.Random(6161)
        checked = 0
        for _ in range(300):
            literals = randgen.random_literals(rng, max_literals=12)
            actions = randgen.random_actions(rng, literals)
            tables = TreeTables(randgen.random_tree(rng, literals, actions))
            nodes = [n for n in tables.order if isinstance(n, ActionNode)]
            if not nodes:
                continue
            for _, s in randgen.random_belief(rng, literals, max_entries=3):
                # resolve in a chain, so derived states are resolved in turn
                for _ in range(4):
                    node = rng.choice(nodes)
                    outcome = rng.choice(node.action.outcomes)
                    s = s.ticked(rng.choice(randgen.STATUSES), s.blame)
                    s = s.resolved(node, outcome, tables)
                    fresh = physical_state(assignment_of(s), s.r, s.latches)
                    assert s.key == fresh.key
                    assert s == fresh and hash(s) == hash(fresh)
                    checked += 1
        assert checked > 1000

    def test_outcome_apply_writes_in_place(self):
        values, index = [F, R], {"a": 0, "b": 1}
        Outcome(1.0, (("a", S),), S).apply(values, index)
        assert values == [S, R]
        with pytest.raises(UnknownLiteral):
            Outcome(1.0, (("ghost", S),), S).apply(values, index)


class TestEvalCondition:
    """A condition leaf ticked on its own sets each entry's r to its stored value."""

    def test_sets_r_to_stored_value(self):
        condition = Condition("a")
        m = belief_tick(condition, BeliefState.point(state(a="R")), TreeTables(condition))
        ((_, s, r, _, _),) = m
        assert r is R
        assert s.value("a") is R

    def test_mixed_entries(self):
        m = BeliefState([(0.6, state(a="S")), (0.4, state(a="F"))])
        condition = Condition("a")
        out = belief_tick(condition, m, TreeTables(condition))
        assert [r for _, _, r, _, _ in out] == [S, F]
        assert sum(p for p, *_ in out) == pytest.approx(1.0, abs=MASS_TOL)

    @given(beliefs())
    def test_idempotent(self, m):
        condition = Condition(m.entries[0][1].literals[0])
        tables = TreeTables(condition)
        once = ended(condition, m, tables)
        twice = ended(condition, once, tables)
        assert [(p, s) for p, s in once] == [(p, s) for p, s in twice]


def expand(m, node):
    """Expand every entry of ``m`` over the outcomes of ``node``, as ``simulate`` does.

    Each entry stands for one a root tick returned R from with ``node``
    pending.  ``node`` is a lone action node: the tables are those of a
    one-node tree, so no latch has an ancestor to fold into.
    """
    tables = TreeTables(node)
    return BeliefState(
        (p * outcome.probability, s.resolved(node, outcome, tables))
        for p, s in m
        for outcome in node.action.outcomes
        if outcome.probability > 0.0
    )


class TestApplyOutcomes:
    def test_goto_outcomes(self):
        goto = ActionInstance(
            "goto(table1)",
            (),
            (Outcome(0.95, (("at", S),), S), Outcome(0.05, (), F)),
        )
        m = expand(BeliefState.point(state(at="F")), ActionNode(goto))
        by_value = {s.value("at"): p for p, s in m.entries}
        assert by_value[S] == pytest.approx(0.95, abs=MASS_TOL)
        assert by_value[F] == pytest.approx(0.05, abs=MASS_TOL)

    def test_deterministic_outcome_keeps_entry_count(self):
        light_on = ActionInstance("light_on", (), (Outcome(1.0, (("lum", S),), S),))
        m = BeliefState([(0.6, state(lum="F", x="S")), (0.4, state(lum="F", x="F"))])
        out = expand(m, ActionNode(light_on))
        assert len(out) == 2
        assert all(s.value("lum") is S for _, s in out)
        assert out.mass == pytest.approx(1.0, abs=MASS_TOL)

    def test_detect_twice_coalesces_on_overwrite(self):
        detect = ActionInstance(
            "detect(soda)",
            (),
            (Outcome(0.5, (("seen", S),), S), Outcome(0.5, (("seen", F),), F)),
        )
        node = ActionNode(detect)
        once = expand(BeliefState.point(state(seen="R")), node)
        assert len(once) == 2
        # same node: the second outcome overwrites both seen and the latch
        twice = expand(once, node)
        # SS/SF/FS/FF quarters collapse to halves once seen is overwritten
        by_value = {s.value("seen"): p for p, s in twice.entries}
        assert len(twice) == 2
        assert by_value[S] == pytest.approx(0.5, abs=MASS_TOL)
        assert by_value[F] == pytest.approx(0.5, abs=MASS_TOL)

    def test_unknown_postcondition_literal(self):
        bad = ActionInstance("bad", (), (Outcome(1.0, (("ghost", S),), S),))
        with pytest.raises(UnknownLiteral):
            expand(BeliefState.point(state(a="S")), ActionNode(bad))

    def test_matches_pairwise_enumeration(self):
        # brute force over every (entry, outcome) pair, independently
        rng = random.Random(40)
        for _ in range(50):
            literals = randgen.random_literals(rng)
            (action,) = randgen.random_actions(rng, literals, max_actions=1)
            m = randgen.random_belief(rng, literals)
            node = ActionNode(action)
            expected = defaultdict(float)
            for p, s in m.entries:
                for outcome in action.outcomes:
                    updated = assignment_of(s)
                    updated.update(outcome.postconditions)
                    key = (frozenset(updated.items()), R, ((node.node_id, outcome.report),))
                    expected[key] += p * outcome.probability
            actual = defaultdict(float)
            for p, s in expand(m, node).entries:
                key = (frozenset(assignment_of(s).items()), s.r, tuple(s.latches.items()))
                actual[key] += p
            assert set(expected) == set(actual)
            for key, p in expected.items():
                assert actual[key] == pytest.approx(p, abs=MASS_TOL)


def go(literal="b"):
    """A lone-outcome action that sets ``literal`` and reports S."""
    return ActionNode(ActionInstance("go", (), (Outcome(1.0, ((literal, S),), S),)))


class TestSplitCoalesce:
    """A root tick splits its entries: those left with no action pending end, the rest expand."""

    def test_split_by_r(self):
        # a=F returns F and ends; a=S reaches the action and returns R with it pending
        tree = Sequence([Condition("a"), go()])
        m = BeliefState([(0.5, state(a="S", b="F")), (0.5, state(a="F", b="F"))])
        out = belief_tick(tree, m, TreeTables(tree))
        assert [r for _, _, r, pending, _ in out if pending is None] == [F]
        assert [r for _, _, r, pending, _ in out if pending is not None] == [R]
        result = simulate(tree, m)
        assert result.flow == ((0.5, 0.5), (0.5, 0.0))
        assert {s.r: p for p, s in result.terminal} == {S: 0.5, F: 0.5}

    def test_split_empty(self):
        # an empty belief: the tick has no entry to end or expand
        condition = Condition("a")
        assert belief_tick(condition, BeliefState(), TreeTables(condition)) == []
        result = simulate(condition, BeliefState())
        assert len(result.terminal) == 0 and result.ticks_used == 0

    @given(beliefs())
    def test_split_always_true_is_identity(self, m):
        # a condition leaves no action pending, so every entry ends in the
        # first tick, in the state the tick left it in
        condition = Condition(m.entries[0][1].literals[0])
        result = simulate(condition, m)
        assert result.ticks_used == 1
        once = ended(condition, m, TreeTables(condition))
        assert [s for _, s in result.terminal] == [s for _, s in once]
        for (p, _), (q, _) in zip(result.terminal, once):
            assert p == pytest.approx(q, abs=MASS_TOL)

    @given(beliefs())
    def test_split_parts_recombine(self, m):
        # the ended and the pending entries of a tick are the tick's input,
        # each state untouched
        literals = m.entries[0][1].literals
        tree = Sequence([Condition(literals[0]), go(literals[-1])])
        out = belief_tick(tree, m, TreeTables(tree))
        ended_part = [(p, s.key) for p, s, _, pending, _ in out if pending is None]
        pending_part = [(p, s.key) for p, s, _, pending, _ in out if pending is not None]
        combined = sorted(ended_part + pending_part)
        original = sorted((p, s.key) for p, s in m)
        assert combined == original

    def test_construction_merges_equal_states(self):
        s1, s2 = state(a="S"), state(a="F")
        m = BeliefState([(0.3, s1), (0.5, s2), (0.2, s1)])
        assert m.entries == ((0.5, s1), (0.5, s2))  # in first-seen order

    def test_merge_keeps_the_first_blame(self):
        # equal keys, different blame: the first state seen is kept, and
        # the planner charges its condition with the whole mass
        tree = Sequence([Condition("a"), Condition("b")])
        tables = TreeTables(tree)
        first, second = tree.children
        initial = state(a="F", b="F")
        on_first = initial.ticked(F, first.node_id)
        on_second = initial.ticked(F, second.node_id)
        for kept, other in ((on_first, on_second), (on_second, on_first)):
            m = BeliefState([(0.25, kept), (0.75, other)])
            ((p, s),) = m.entries
            assert p == 1.0 and s is kept
            report = find_failed_condition(m, tables)
            assert report.node.node_id == kept.blame and report.supporting == m.entries

    @given(beliefs())
    def test_rebuilding_is_identity(self, m):
        again = BeliefState(m.entries)
        assert again.entries == m.entries
        assert all(s is t for (_, s), (_, t) in zip(again, m))

    def test_merge_against_per_state_sums(self):
        rng = random.Random(7)
        distinct = [state(a=v.value, r=r) for v in (S, F, R) for r in (S, F, R)] + [
            state(a="S", b="F")
        ]
        entries = [(rng.randint(1, 8) / 16.0, rng.choice(distinct)) for _ in range(200)]
        expected = defaultdict(float)
        for p, s in entries:
            expected[s] += p
        m = BeliefState(entries)
        assert [s for _, s in m] == list(expected)  # in first-seen order
        for p, s in m.entries:
            assert p == pytest.approx(expected[s], abs=MASS_TOL)

    @given(beliefs())
    def test_mass_conserved_by_ops(self, m):
        condition = Condition(m.entries[0][1].literals[0])
        ticked = belief_tick(condition, m, TreeTables(condition))
        assert sum(p for p, *_ in ticked) == pytest.approx(m.mass, abs=MASS_TOL)
        assert BeliefState(m.entries * 2).mass == pytest.approx(2 * m.mass, abs=MASS_TOL)
        assert simulate(condition, m).terminal.mass == pytest.approx(m.mass, abs=MASS_TOL)


class TestSuccessProbability:
    def test_half(self):
        m = BeliefState([(0.5, state(r=S, a="S")), (0.5, state(r=F, a="S"))])
        assert m.success_probability() == pytest.approx(0.5, abs=MASS_TOL)

    def test_empty(self):
        assert BeliefState().success_probability() == 0

    def test_all_success(self):
        m = BeliefState([(0.25, state(r=S, a="S")), (0.75, state(r=S, a="F"))])
        assert m.success_probability() == pytest.approx(1.0, abs=MASS_TOL)


class TestPruneAndDebug:
    def test_prune_reports_dropped_mass(self):
        m = BeliefState([(0.9, state(a="S")), (0.1, state(a="F"))])
        kept, dropped = m.prune(0.5)
        assert len(kept) == 1
        assert dropped == pytest.approx(0.1, abs=MASS_TOL)
        assert kept.mass == pytest.approx(0.9, abs=MASS_TOL)  # no renormalization

    def test_debug_lines_format(self):
        m = BeliefState([(0.5, state(r=F, b="F", a="S"))])
        (line,) = m.debug_lines(TreeTables(Condition("a")))
        assert line == "0.5 | a=S,b=F | r=F | pending=-"

    def test_debug_lines_show_latch_view(self):
        sure = ActionInstance("sure", (), (Outcome(1.0, (("a", S),), S),))
        first, second = ActionNode(sure), ActionNode(sure)
        tables = TreeTables(Sequence([first, Condition("a"), second]))
        latches = {second.node_id: F, first.node_id: S}
        m = BeliefState([(0.5, physical_state({"a": S}, F, latches=latches))])
        (line,) = m.debug_lines(tables)
        assert line == "0.5 | a=S | r=F | pending=- | latches=n1:S,n3:F"

    def test_debug_lines_distinct_on_deep_soda(self, soda_domain):
        # soda at 0.999 ends in 8 entries over 8 (assignment, r) pairs: the
        # goal's frozen literal drops the latches that once told 20 apart
        planned = refine_tree(plan_request_from_domain(soda_domain, target_probability=0.999))
        result = simulate(planned.tree, soda_domain.initial_belief())
        lines = result.terminal.debug_lines(result.tables)
        assert len(lines) == 8
        assert len(set(lines)) == 8
        assert len({line.split(" | latches=")[0].split(" | ", 1)[1] for line in lines}) == 8

    def test_rejects_non_positive_probability(self):
        with pytest.raises(ValueError):
            BeliefState([(0.0, state(a="S"))])

    def test_rejects_nan_probability(self):
        with pytest.raises(ValueError):
            BeliefState([(float("nan"), state(a="S"))])


class TestActionInstance:
    @pytest.mark.parametrize(
        "probabilities",
        [(float("nan"), 0.5), (1.5, -0.5), (float("inf"), float("-inf"))],
    )
    def test_rejects_outcome_probability_outside_zero_to_inf(self, probabilities):
        # each sums to 1 or to NaN, which the sum check alone let through
        outcomes = tuple(Outcome(p, (("a", S),), S) for p in probabilities)
        with pytest.raises(ValueError, match="is not finite and >= 0"):
            ActionInstance("bad", (), outcomes)

    def test_zero_probability_outcome_is_accepted(self):
        action = ActionInstance("sure", (), (Outcome(1.0, (("a", S),), S), Outcome(0.0, (), F)))
        terminal = simulate(ActionNode(action), BeliefState.point(state(a="F"))).terminal
        assert terminal.mass == 1.0
