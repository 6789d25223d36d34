import random
from collections import defaultdict

import pytest

from bbt import engine, plan_request_from_domain, refine_tree
from bbt.belief import ActionInstance, BeliefState, Outcome, PhysicalState
from bbt.classic import ClassicRuns, LeafProgram
from bbt.engine import SimulationLimits, Trail, belief_tick, simulate
from bbt.errors import EntryLimitExceeded, TickLimitExceeded, UnknownLiteral
from bbt.status import Status
from bbt.tree import ActionNode, Condition, Fallback, Sequence, Skipper, TreeTables

import oracle
import randgen
from helpers import assignment_of, ended, frozen_by_definition, physical_state

S, F, R = Status.S, Status.F, Status.R
MASS_TOL = 1e-12


def state(r=R, latches=None, **values):
    return physical_state({k: Status(v) for k, v in values.items()}, r, latches)


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
        assert all(r is F for _, _, r, _, _ in out)
        assert sum(p for p, *_ in out) == pytest.approx(1.0, abs=MASS_TOL)
        # the a=F entry stopped at child 0, so it is returned first
        assert [s.value("a") for _, s, *_ in out] == [F, S]

    def test_fallback_first_child_success_leaves_rest_untouched(self):
        tree = Fallback([Condition("a"), Condition("missing")])
        m = BeliefState([(0.7, state(a="S", b="S")), (0.3, state(a="S", b="F"))])
        out = belief_tick(tree, m, TreeTables(tree))
        assert all(r is S for _, _, r, _, _ in out)
        assert len(out) == 2

    def test_skipper_schedules_behind_unknown(self):
        action = ActionNode(detect())
        tree = Skipper([Condition("seen"), Sequence([action])])
        out = belief_tick(tree, BeliefState.point(state(seen="R")), TreeTables(tree))
        ((_, _, r, pending, _),) = out
        assert r is R
        assert pending is action
        assert pending.action.id == "detect"

    def test_ended_entry_shares_its_state_parts(self):
        tree = Sequence([Condition("a"), Condition("b")])
        same, moved = state(r=S, a="S", b="S"), state(r=S, a="S", b="F")
        # the b=F entry stops at child 1; the other runs past the last child
        m = BeliefState([(0.5, same), (0.5, moved)])
        stopped, passed = (s for _, s in ended(tree, m, TreeTables(tree)))
        assert passed is not same and passed == same and hash(passed) == hash(same)
        assert stopped != moved and (stopped.r, stopped.blame) == (F, tree.children[1].node_id)
        # each ended entry gets its own state, built around the state's own parts
        for end, start in ((passed, same), (stopped, moved)):
            assert end.values is start.values and end.latches is start.latches

    def test_entry_limit(self):
        # a tick holds no more entries than it starts with, so the limit is
        # checked on the belief each root tick starts with
        tree = Sequence([Condition("a")])
        m = BeliefState([(0.5, state(a="S")), (0.25, state(a="F")), (0.25, state(a="R"))])
        with pytest.raises(EntryLimitExceeded, match="holds 3 entries, limit is 2"):
            simulate(tree, m, SimulationLimits(max_entries=2))
        assert len(simulate(tree, m, SimulationLimits(max_entries=3)).terminal) == 3


def tick_once(tree, *states):
    """One belief tick of ``tree`` over equally weighted ``states``, as its tuples."""
    m = BeliefState((1.0 / len(states), s) for s in states)
    return belief_tick(tree, m, TreeTables(tree))


class TestScheduleDelayed:
    """Action leaves in a belief tick: latch replay, else R and one pending action."""

    def test_fresh_entry_schedules(self):
        node = ActionNode(sure("goto(table1)", (("at", S),)))
        start = state(at="F")
        ((_, s, r, pending, _),) = tick_once(node, start)
        assert r is R
        assert pending is node
        # the pending action is the node itself, and the state is left as it was
        assert pending.action.id == "goto(table1)"
        assert s is start and s == state(at="F")

    def test_latched_entry_replays(self):
        node = ActionNode(sure("goto"))
        for report in (S, F):
            ((_, _, r, pending, _),) = tick_once(
                node, state(at="F", latches={node.node_id: report})
            )
            assert r is report
            assert pending is None
        # a replayed S passes on to the next action, which is scheduled
        second = ActionNode(sure("other"))
        tree = Sequence([node, second])
        ((_, _, r, pending, _),) = tick_once(tree, state(at="F", latches={node.node_id: S}))
        assert r is R
        assert pending is second
        assert pending.action.id == "other"

    def test_second_action_same_tick_not_scheduled(self):
        first = ActionNode(detect())
        second = ActionNode(sure("other"))
        # a Skipper goes on past R, so the second action is ticked while the
        # first is pending: it returns R and leaves the first pending
        tree = Skipper([first, second])
        ((_, _, r, pending, _),) = tick_once(tree, state(seen="R", x="F"))
        assert r is R
        assert pending is first
        assert pending.action.id == "detect"
        # so does an action deeper in the scan, and a latched action still
        # replays its report while the first is pending; the Skipper stops
        # the F entry and goes on past its last child with the R one
        done, fresh = tick_once(
            Skipper([first, Fallback([second])]),
            state(seen="R", x="F"),
            state(seen="R", x="F", latches={second.node_id: F}),
        )
        assert (fresh[2], fresh[3]) == (R, first)
        assert (done[2], done[3]) == (F, first)


class TestApplyDelayed:
    """A root tick's pending entries go straight to one state per outcome."""

    def test_detect_splits_and_latches(self):
        node = ActionNode(detect("detect(soda)"))
        result = simulate(node, BeliefState.point(state(seen="R")))
        assert result.ticks_used == 2
        assert len(result.terminal) == 2
        for p, s in result.terminal.entries:
            assert p == pytest.approx(0.5, abs=MASS_TOL)
            # the latched action replays its report in the second tick
            assert s.r is s.value("seen")
            assert s.latches[node.node_id] is s.value("seen")

    def test_deterministic_outcome_single_entry(self):
        node = ActionNode(sure("light_on", (("lum", S),)))
        result = simulate(node, BeliefState.point(state(lum="F")))
        ((p, s),) = result.terminal.entries
        assert p == pytest.approx(1.0, abs=MASS_TOL)
        assert s.value("lum") is S
        assert s.latches[node.node_id] is S

    def test_entries_expand_independently(self):
        # the c=S entry leaves node_a pending, the c=F entry node_b; each
        # expands over its own action's outcomes in the same root tick
        node_a = ActionNode(detect("d1", "x"))
        node_b = ActionNode(sure("s1", (("y", S),)))
        tree = Fallback(
            [Sequence([Condition("c"), node_a]), Sequence([Condition("d"), node_b])]
        )
        m = BeliefState(
            [(0.5, state(c="S", d="F", x="R", y="F")), (0.5, state(c="F", d="S", x="R", y="F"))]
        )
        pending = [entry[3] for entry in belief_tick(tree, m, TreeTables(tree))]
        assert pending == [node_a, node_b]
        result = simulate(tree, m)
        assert result.ticks_used == 2
        masses = sorted(p for p, _ in result.terminal.entries)
        assert masses == [pytest.approx(0.25), pytest.approx(0.25), pytest.approx(0.5)]
        assert result.terminal.mass == pytest.approx(1.0, abs=MASS_TOL)


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
                # ended asserts that the tick leaves no action pending
                ((_, again),) = ended(tree, BeliefState.point(s), result.tables).entries
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
            assert sum(p for p, *_ in ticked) == pytest.approx(m.mass, abs=MASS_TOL)
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

    def test_retry_chain_past_underflow(self):
        # Fb[done, try x 300]: the mass of k failures, 0.05 ** k, underflows to
        # 0.0 from about k = 249; those branches are dropped, and no mass a
        # double can hold is lost
        attempt = ActionInstance(
            "try", (), (Outcome(0.95, (("done", S),), S), Outcome(0.05, (), F))
        )
        tree = Fallback([Condition("done")] + [ActionNode(attempt) for _ in range(300)])
        assignment = {"done": F}
        result = simulate(tree, BeliefState.point(PhysicalState(assignment)))
        assert result.terminal.mass == pytest.approx(1.0, abs=MASS_TOL)
        expected = oracle.enumerate_terminals(tree, assignment, max_ticks=400)
        oracle.assert_distributions_match(expected, oracle.simulation_to_terminals(result))

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

    def test_flow_records_each_tick(self):
        # tick 1 leaves detect pending on all the mass; tick 2 ends both outcomes
        action = ActionNode(detect())
        tree = Skipper([Condition("seen"), Sequence([action])])
        result = simulate(tree, BeliefState.point(state(seen="R")))
        assert result.flow == ((0.0, 1.0), (1.0, 0.0))
        assert len(result.flow) == result.ticks_used


def memo_fingerprint(tree, belief, limits=None):
    """A run's terminal entries, ticks, pruned mass and flow, or its error."""
    try:
        result = simulate(tree, belief, limits)
    except (UnknownLiteral, TickLimitExceeded, EntryLimitExceeded) as exc:
        return type(exc), str(exc)
    entries = [(p, s.key, s.blame) for p, s in result.terminal.entries]
    return entries, result.ticks_used, result.pruned_mass, result.flow


class TestTickMemo:
    """Each distinct state is ticked once per run; the dict changes no result."""

    def underflow_case(self, post):
        # Seq[a, b]: x is the state a leaves, so y reaches it one tick later.
        # x alone weighs the smallest double, so both of b's branches
        # underflow for it; y brings it a mass that resolves them.
        a = ActionInstance("a", (), (Outcome(1.0, (), S),))
        b = ActionInstance("b", (), (Outcome(0.5, post, S), Outcome(0.5, (), F)))
        tree = Sequence([ActionNode(a), ActionNode(b)])
        y = state(g="F")
        x = y.resolved(tree.children[0], a.outcomes[0], TreeTables(tree))
        return tree, x, y

    def test_underflowed_branch_resolves_for_a_heavier_entry(self):
        tree, x, y = self.underflow_case((("g", S),))
        result = simulate(tree, BeliefState([(5e-324, x), (0.5, y)]))
        assert result.terminal.mass == 0.5
        assert result.terminal.success_probability() == 0.25

    def test_underflowed_missing_literal_raises_only_with_mass(self):
        tree, x, y = self.underflow_case((("gone", S),))
        # the branch that writes the missing literal has no mass a double holds
        assert simulate(tree, BeliefState([(5e-324, x)])).terminal.mass == 0.0
        with pytest.raises(UnknownLiteral, match="gone"):
            simulate(tree, BeliefState([(5e-324, x), (0.5, y)]))

    @pytest.mark.parametrize("room", [0, 1])
    def test_results_do_not_depend_on_the_dicts_room(self, monkeypatch, soda_domain, room):
        # the soda 0.999 plan, and random trees with hundredths and missing
        # literals, tick limits and pruning
        plan = refine_tree(plan_request_from_domain(soda_domain, target_probability=0.999))
        cases = [(plan.tree, soda_domain.initial_belief(), None)]
        rng = random.Random(4111 + room)
        for _ in range(300):
            literals = randgen.random_literals(rng)
            gone = ["gone"] if rng.random() < 0.2 else []
            actions = randgen.random_actions(rng, literals + gone, total=100)
            tree = randgen.random_tree(rng, literals + gone[:1], actions, max_nodes=16)
            limits = SimulationLimits(
                max_root_ticks=rng.choice((3, 50)), prune_epsilon=rng.choice((0.0, 0.01))
            )
            cases.append((tree, randgen.random_belief(rng, literals), limits))
        want = [memo_fingerprint(*case) for case in cases]
        monkeypatch.setattr(engine, "MEMO_STATES", room)
        assert [memo_fingerprint(*case) for case in cases] == want
        assert sum(isinstance(w[0], type) for w in want) > 20  # errors are compared too


def gated_chain(rng, literals, actions):
    """A condition under zero to three wrappers, each with random later children.

    One wrapper in five is a Sequence, which continues on S, so the
    condition is a gate only when no Sequence lies above it.
    """
    node = Condition(rng.choice(literals))
    for _ in range(rng.randint(0, 3)):
        kind = rng.choice((Fallback, Skipper, Fallback, Skipper, Sequence))
        later = [randgen.random_tree(rng, literals, actions, 4) for _ in range(rng.randint(0, 2))]
        node = kind([node, *later])
    return node


def goal_root(rng, literals, actions):
    """A root Sequence of goal-like children, gated chains or random subtrees."""
    children = [
        gated_chain(rng, literals, actions)
        if rng.random() < 0.75
        else randgen.random_tree(rng, literals, actions, 6)
        for _ in range(rng.randint(1, 5))
    ]
    return Sequence(children)


def gate_belief(rng, literals, gate_literals):
    """Entries whose gate literals read S in all, some or none of them, by literal."""
    modes = {literal: rng.choice(("all", "some", "none")) for literal in gate_literals}
    entries = []
    for p in randgen.dyadic_parts(rng, rng.randint(1, 5)):
        assignment = randgen.random_assignment(rng, literals)
        for literal, mode in modes.items():
            if mode == "all" or (mode == "some" and rng.random() < 0.5):
                assignment[literal] = S
            else:
                assignment[literal] = rng.choice((F, R))
        entries.append((p, physical_state(assignment, rng.choice(randgen.STATUSES))))
    return BeliefState(entries)


def plain_tick(root, mem, tables):
    """A root tick that scans every child: ``_tick`` without the root's gates."""
    reached = [root]
    entries = [(p, s, s.r, None, s.blame) for p, s in mem]
    result = engine._tick(root, entries, tables.depth, reached)
    return result, reached[0]


def assert_same_tick(root, mem, tables):
    """``belief_tick`` returns the plain tick's tuples, in order, and reaches as far."""
    reached = [root]
    got = belief_tick(root, mem, tables, reached)
    want, want_reached = plain_tick(root, mem, tables)
    assert [(p, id(s), r, pending, blame) for p, s, r, pending, blame in got] == [
        (p, id(s), r, pending, blame) for p, s, r, pending, blame in want
    ]
    assert reached[0] is want_reached


class TestRootPass:
    def test_equals_plain_tick_on_random_roots(self):
        rng = random.Random(83)
        every_child_passed = 0
        for _ in range(1500):
            literals = randgen.random_literals(rng)
            actions = randgen.random_actions(rng, literals)
            root = goal_root(rng, literals, actions)
            tables = TreeTables(root)
            gate_literals = sorted({gate.literal for gate in tables.gates.values()})
            mem = gate_belief(rng, literals, gate_literals)
            assert_same_tick(root, mem, tables)
            every_child_passed += all(
                child.node_id in tables.gates
                and all(s.value(tables.gates[child.node_id].literal) is S for _, s in mem)
                for child in root.children
            )
        assert every_child_passed > 100

    def test_state_lacking_a_gate_literal_is_scanned(self):
        # the entries that hold the literal read S at its gate; the one that
        # lacks it fails where the plain scan fails
        rng = random.Random(89)
        raised = 0
        for _ in range(300):
            literals = randgen.random_literals(rng)
            actions = randgen.random_actions(rng, literals)
            root = goal_root(rng, literals, actions)
            tables = TreeTables(root)
            gate_literals = sorted({gate.literal for gate in tables.gates.values()})
            if not gate_literals:
                continue
            mem = gate_belief(rng, literals, gate_literals)
            missing = rng.choice(gate_literals)
            p, s = mem.entries[-1]
            held = {lit: v for lit, v in zip(s.literals, s.values) if lit != missing}
            mem = BeliefState([*mem.entries[:-1], (p, physical_state(held, s.r))])
            try:
                plain_tick(root, mem, tables)
            except UnknownLiteral as exc:
                raised += 1
                with pytest.raises(UnknownLiteral, match=f"^{exc}$"):
                    belief_tick(root, mem, tables)
            else:
                assert_same_tick(root, mem, tables)
        assert raised > 50

    def test_simulate_matches_oracle_and_plain_ticks(self, monkeypatch):
        # every root tick of a run, latch views included, against a plain tick
        rng = random.Random(97)
        root_tick = engine.belief_tick

        def checked(node, mem, tables, reached=None, prefix=0):
            want, want_reached = plain_tick(node, mem, tables)
            got = root_tick(node, mem, tables, reached, prefix)
            assert got == want
            assert reached is None or reached[0] is want_reached
            return got

        monkeypatch.setattr(engine, "belief_tick", checked)
        for _ in range(300):
            literals = randgen.random_literals(rng)
            actions = randgen.random_actions(rng, literals)
            root = goal_root(rng, literals, actions)
            gate_literals = sorted({g.literal for g in TreeTables(root).gates.values()})
            assignment = randgen.random_assignment(rng, literals)
            for literal in gate_literals:
                if rng.random() < 0.5:
                    assignment[literal] = S
            expected = oracle.enumerate_terminals(root, assignment)
            result = simulate(root, BeliefState.point(PhysicalState(assignment)))
            oracle.assert_distributions_match(expected, oracle.simulation_to_terminals(result))

    def test_frozen_prefix_ticks_equal_plain_ticks(self, monkeypatch):
        # goal children Fb[g, Seq[retry]] whose retries set their goal and may
        # clobber another, so some gate literals are frozen and some are not;
        # every root tick, the prefix passed in included, against a plain tick
        rng = random.Random(101)
        root_tick = engine.belief_tick
        prefixed = whole = 0

        def checked(node, mem, tables, reached=None, prefix=0):
            nonlocal prefixed, whole
            prefixed += prefix > 0
            whole += prefix == len(node.children)
            want, want_reached = plain_tick(node, mem, tables)
            got = root_tick(node, mem, tables, reached, prefix)
            assert got == want
            assert reached[0] is want_reached
            return got

        monkeypatch.setattr(engine, "belief_tick", checked)
        for _ in range(1000):
            goals = [f"g{i}" for i in range(rng.randint(2, 6))]
            literals = [*goals, "x"]
            children = []
            for goal in goals:
                post = [(goal, S)]
                if rng.random() < 0.3:
                    other = rng.choice([lit for lit in literals if lit != goal])
                    post.append((other, rng.choice((F, R))))
                outcomes = (Outcome(0.875, tuple(post), S), Outcome(0.125, (), F))
                if rng.random() < 0.5:
                    outcomes = (Outcome(1.0, tuple(post), S),)
                retry = ActionInstance(f"try_{goal}", (), outcomes)
                wrapper = rng.choice((Fallback, Skipper))
                children.append(wrapper([Condition(goal), Sequence([ActionNode(retry)])]))
            if rng.random() < 0.3:
                actions = randgen.random_actions(rng, literals)
                extra = randgen.random_tree(rng, literals, actions)
                children.insert(rng.randint(0, len(children)), extra)
            root = Sequence(children)
            belief = BeliefState(
                (p, PhysicalState({**{g: rng.choice((S, F, F)) for g in goals}, "x": F}))
                for p in randgen.dyadic_parts(rng, rng.randint(1, 3))
            )
            result = simulate(root, belief)
            assert sum(p for p, _ in result.terminal) == pytest.approx(1.0)
        assert prefixed > 400 and whole > 10


def by_assignment_and_status(terminals):
    """Oracle-keyed terminal masses summed over the blame."""
    out = defaultdict(float)
    for (assignment, r, _), p in terminals.items():
        out[assignment, r] += p
    return out


class TestFrozenLiterals:
    def test_goal_child_latches_drop_once_its_literal_holds(self):
        # b sets g, so once it has run g's child is passed for good, and
        # neither a's latch nor b's is kept
        a, b = ActionNode(sure("a", (("x", S),))), ActionNode(sure("b", (("g", S),)))
        goal = Fallback([Condition("g"), Sequence([a, b])])
        tree = Sequence([goal, Condition("h")])
        tables = TreeTables(tree)
        assert tables.frozen == {"g", "h"}
        assert tables.gated["g"] == {goal}
        assert tables.top[b.node_id] is goal
        result = simulate(tree, BeliefState.point(state(g="F", h="S", x="F")))
        ((_, s),) = result.terminal.entries
        assert (s.r, s.latches) == (S, {})

    def test_clobber_outside_the_gated_children_unfreezes(self):
        undo = ActionNode(sure("undo", (("g", F),)))
        tree = Sequence([Fallback([Condition("g"), ActionNode(sure("b", (("g", S),)))]), undo])
        tables = TreeTables(tree)
        assert tables.frozen == set() == frozen_by_definition(tree)
        # g gates the first child, but undo, a root child of its own, clobbers g
        assert tables.gated["g"] == {tree.children[0]}
        assert tables.clobberers["g"] == {undo} and tables.top[undo.node_id] is undo

    def test_masses_match_oracle_on_goal_roots(self):
        # per (assignment, r) the terminal mass is the oracle's, and so is that
        # of a run with no literal frozen, which keeps every latch; dropping
        # only merges entries, and leaves no latch in a child passed for good
        rng = random.Random(101)
        merged = 0
        for _ in range(400):
            literals = randgen.random_literals(rng)
            actions = randgen.random_actions(rng, literals)
            if rng.random() < 0.5:
                actions = achieving(actions)
            root = achiever_root(rng, literals, actions)
            assignment = dict.fromkeys(literals, F)
            expected = by_assignment_and_status(oracle.enumerate_terminals(root, assignment))
            belief = BeliefState.point(PhysicalState(assignment))
            result = simulate(root, belief)
            kept = Trail(root)
            kept.tables.frozen = set()
            full = simulate(root, belief, trail=kept)
            for run in (result, full):
                actual = by_assignment_and_status(oracle.simulation_to_terminals(run))
                oracle.assert_distributions_match(expected, actual)
            assert len(result.terminal) <= len(full.terminal)
            merged += len(result.terminal) < len(full.terminal)
            tables = result.tables
            for _, s in result.terminal:
                for literal in tables.frozen:
                    if s.value(literal) is S:
                        dead = tables.gated[literal]
                        assert not any(tables.top[k] in dead for k in s.latches)
        assert merged > 30


def achieving(actions):
    """``actions`` with every outcome setting to S each literal some outcome sets.

    No literal is clobbered, and the outcomes of one action differ only in
    their report.
    """
    out = []
    for action in actions:
        post = tuple(sorted({(lit, S) for o in action.outcomes for lit, _ in o.postconditions}))
        outcomes = tuple(Outcome(o.probability, post, o.report) for o in action.outcomes)
        out.append(ActionInstance(action.id, action.preconditions, outcomes))
    return out


def achiever_root(rng, literals, actions):
    """A root Sequence of goal children ``Fb[l, ...]`` whose later children hold random actions."""
    children = []
    for literal in rng.sample(literals, rng.randint(1, len(literals))):
        later = [randgen.random_tree(rng, literals, actions, 4) for _ in range(rng.randint(1, 2))]
        children.append(Fallback([Condition(literal), *later]))
    return Sequence(children)


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

    def test_latched_control_node_replays_its_latch(self):
        # a hand-built view: no tick latches a node whose leftmost leaf is a
        # condition, but a latched control node replays its status unscanned
        inner = Fallback([Condition("x"), ActionNode(sure("a"))])
        tree = Sequence([inner, Condition("y")])
        start = state(latches={inner.node_id: S}, x="F", y="S")
        result = simulate(tree, BeliefState.point(start))
        ((p, s),) = result.terminal.entries
        assert (p, s.r, result.ticks_used) == (1.0, S, 1)
        assert s.value("x") is F  # a never ran

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
