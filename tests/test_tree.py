import pytest

from bbt.belief import ActionInstance, Outcome
from bbt.classic import ClassicRuns, LeafProgram
from bbt.dot import to_dot
from bbt.errors import TickLimitExceeded, UnknownLiteral
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
from helpers import tree_to_doc, validate_tree, walk_leaves

S, F, R = Status.S, Status.F, Status.R


def coin(name="coin", post=("x",)):
    return ActionInstance(
        name,
        (),
        (
            Outcome(0.5, tuple((lit, S) for lit in post), S),
            Outcome(0.5, tuple((lit, F) for lit in post), F),
        ),
    )


def sure(name="sure", post=(("x", S),), report=S):
    return ActionInstance(name, (), (Outcome(1.0, tuple(post), report),))


def compiled(tree):
    return LeafProgram(TreeTables(tree))


def walk(tree, state, latches=None):
    """One root tick's leaf walk, checked against the oracle's recursive walk.

    Returns the root status and the first fresh action reached, or None.
    """
    latches = {} if latches is None else latches
    got = walk_leaves(compiled(tree), state, latches)
    started = []
    status = oracle._classic_walk(tree, state, latches, started)
    assert got == (status, started[0] if started else None)
    return got


def tick(tree, state):
    """The root status of one tick with fresh latches."""
    return walk(tree, state)[0]


def runs(tree, initial, seed=0, streams=(0,), max_ticks=10000):
    """The final status of each run of ``tree`` from ``initial``."""
    return list(ClassicRuns(compiled(tree), initial).statuses(seed, streams, max_ticks))


class TestControlSemantics:
    def test_sequence_all_success(self):
        tree = Sequence([Condition("a"), Condition("b")])
        assert tick(tree, {"a": S, "b": S}) is S

    def test_fallback_recovers(self):
        tree = Fallback([Condition("a"), Condition("b")])
        assert tick(tree, {"a": F, "b": S}) is S

    def test_skipper_skips_running_then_stops_on_failure(self):
        tree = Skipper([Condition("a"), Condition("b")])
        assert tick(tree, {"a": R, "b": F}) is F

    @pytest.mark.parametrize(
        "kind,continue_status",
        [(Sequence, S), (Fallback, F), (Skipper, R)],
    )
    def test_generic_scan(self, kind, continue_status):
        # every kind returns the first non-continue child status, else the
        # continue status itself
        for other in set(Status) - {continue_status}:
            tree = kind([Condition("a"), Condition("b"), Condition("c")])
            state = {"a": continue_status, "b": other, "c": continue_status}
            assert tick(tree, state) is other
        tree = kind([Condition("a"), Condition("b")])
        assert tick(tree, {"a": continue_status, "b": continue_status}) is continue_status

    def test_later_children_not_ticked_after_stop(self):
        tree = Sequence([Condition("a"), Condition("missing")])
        assert tick(tree, {"a": F}) is F

    def test_unknown_literal(self):
        with pytest.raises(UnknownLiteral):
            tick(Condition("ghost"), {"a": S})


class TestActionsAndLatches:
    def test_action_returns_running_then_outcome_applies(self):
        node = ActionNode(sure(report=F))
        tree = Fallback([Condition("x"), node])
        assert walk(tree, {"x": F}) == (R, node)
        # the outcome lands before the next tick, which reads x = S
        assert runs(tree, {"x": F}) == [S]
        with pytest.raises(TickLimitExceeded):
            runs(tree, {"x": F}, max_ticks=1)

    def test_latched_action_replays_status(self):
        node = ActionNode(sure(report=F))
        # latched: the action replays F and starts nothing, whatever x is
        assert walk(node, {"x": F}, {node.node_id: F}) == (F, None)
        assert runs(node, {"x": F}) == [F]

    def test_one_action_per_tick(self):
        first, second = ActionNode(sure("a1")), ActionNode(sure("a2", post=(("y", S),)))
        tree = Skipper([first, second])
        # both are fresh; the second returns R without starting
        assert walk(tree, {"x": F, "y": F}) == (R, first)

    def test_actions_execute_at_most_once_per_lifetime(self):
        tree = Sequence([ActionNode(coin()), Condition("x")])
        # the action starts in the first tick; the second replays its latch
        # and starts nothing, so every run ends there
        assert set(runs(tree, {"x": R}, seed=9, streams=range(50), max_ticks=2)) == {S, F}

    def test_tree_holds_no_run_state(self):
        # latches live in each run; nodes carry structure only
        assert ActionNode.__slots__ == ("action",)
        node = ActionNode(sure())
        tree = Sequence([node, Condition("x")])
        before = tree_to_doc(tree)
        assert runs(tree, {"x": F}) == [S]
        assert tree_to_doc(tree) == before
        assert not hasattr(node, "__dict__")

    def test_new_run_starts_fresh(self):
        node = ActionNode(sure())
        program = compiled(node)
        first = ClassicRuns(program, {"x": F})
        assert list(first.statuses(0, [0], 2)) == [S]
        # another run, of the same executor or of a new one on the same
        # program, starts with no latches: its first tick starts the action
        for executor in (first, ClassicRuns(program, {"x": F})):
            with pytest.raises(TickLimitExceeded):
                next(executor.statuses(0, [1], 1))


class TestDeterminism:
    def test_same_seed_reproduces_trace(self):
        actions = [coin("c0", ("x",)), coin("c1", ("y",))]
        tree = Fallback(
            [
                Sequence([Condition("x"), ActionNode(actions[0])]),
                Sequence([ActionNode(actions[1]), Condition("y")]),
            ]
        )
        # the same program twice, with no reset in between
        program = compiled(tree)
        first, second = (
            list(ClassicRuns(program, {"x": F, "y": R}).statuses(123, range(200)))
            for _ in range(2)
        )
        assert first == second
        assert set(first) == {S, F}  # c1's outcome decides each run
        # and so does the oracle's run with the same draws
        for stream, status in enumerate(first[:20]):
            want, _ = oracle.run_classic(tree, {"x": F, "y": R}, CounterRng(123, stream))
            assert status is want


class TestStructure:
    def test_control_needs_children(self):
        with pytest.raises(ValueError):
            Sequence([])

    def test_validate_unique_ids(self):
        tree = Sequence([Condition("a"), ActionNode(sure())])
        validate_tree(tree)

    def test_depth_and_order(self):
        inner = Sequence([Condition("b")])
        tree = Sequence([Condition("a"), inner])
        tables = TreeTables(tree)
        depths, order = tables.depth, tables.rank
        assert depths[tree.node_id] == 0
        assert depths[inner.children[0].node_id] == 2
        assert order[tree.node_id] == 0
        assert order[tree.children[0].node_id] < order[inner.children[0].node_id]
        assert tables.order == [tree, tree.children[0], inner, inner.children[0]]

    def test_deep_chain_walks_without_recursion(self):
        leaf = Condition("a")
        tree = leaf
        for _ in range(3000):
            tree = Sequence([tree])
        nodes = list(tree.iter_nodes())
        assert len(nodes) == 3001 and nodes[0] is tree and nodes[-1] is leaf
        tables = TreeTables(tree)
        assert tables.order == nodes
        assert tables.depth[leaf.node_id] == 3000
        assert tables.parent[leaf.node_id].children == [leaf]
        validate_tree(tree)
        assert to_dot(tree).count("->") == 3000

    def test_gates(self):
        # a gate ends a leftmost path of Fallbacks and Skippers below a Sequence root
        gate, last = Condition("g"), Condition("z")
        chained = Fallback([Skipper([gate, Condition("x")]), Condition("y")])
        sequenced = Fallback([Sequence([Condition("h"), Condition("x")])])
        acting = Skipper([ActionNode(sure()), Condition("x")])
        tables = TreeTables(Sequence([chained, sequenced, acting, last]))
        assert tables.gates == {chained.node_id: gate, last.node_id: last}
        assert TreeTables(Fallback([chained])).gates == {}

    def test_splice_keeps_gates_current(self):
        first = Condition("a")
        tree = Sequence([first])
        tables = TreeTables(tree)
        # a wrapper in place of a root child takes over its gate
        wrapper = Fallback([first, ActionNode(sure())])
        tree.children[0] = wrapper
        tables.splice(first, wrapper)
        assert tables.gates == {wrapper.node_id: first}
        # a child added to the root gets its own
        added = Condition("b")
        tree.children.append(added)
        tables.splice(tree, tree)
        assert tables.gates == {wrapper.node_id: first, added.node_id: added}
        # an edit below a root child recomputes that child's gate
        inner = Sequence([first, Condition("c")])
        wrapper.children[0] = inner
        tables.splice(first, inner)
        assert tables.gates == {added.node_id: added}
        # a new root above the old one
        root = Sequence([tree, Condition("d")])
        tables.splice(tree, root)
        assert tables.gates == {root.children[1].node_id: root.children[1]}

    def test_structural_equality_ignores_ids(self):
        a = Sequence([Condition("a"), ActionNode(sure())])
        b = Sequence([Condition("a"), ActionNode(sure())])
        assert a.node_id != b.node_id
        assert dumps_tree(a) == dumps_tree(b)
