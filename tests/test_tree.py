import pytest

from bbt.belief import ActionInstance, Outcome
from bbt.classic import ExecutionTrace, LeafProgram, classic_tick
from bbt.dot import to_dot
from bbt.errors import UnknownLiteral
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
from bbt.treefile import dumps_tree, tree_to_doc

from helpers import validate_tree
from oracle import run_classic

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


def tick(tree, state):
    """One root tick with fresh latches."""
    return classic_tick(compiled(tree), state, CounterRng(0), ExecutionTrace())


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
        node = ActionNode(sure())
        state, run = {"x": F}, ExecutionTrace()
        assert classic_tick(compiled(node), state, CounterRng(0), run) is R
        # outcome landed between ticks
        assert state["x"] is S
        assert run.latches == {node.node_id: S}

    def test_latched_action_replays_status(self):
        node = ActionNode(sure(report=F))
        program = compiled(node)
        state, run = {"x": F}, ExecutionTrace()
        classic_tick(program, state, CounterRng(0), run)
        assert run.latches[node.node_id] is F
        state["x"] = F
        assert classic_tick(program, state, CounterRng(0), run) is F
        assert state["x"] is F  # not re-executed

    def test_one_action_per_tick(self):
        first, second = ActionNode(sure("a1")), ActionNode(sure("a2", post=(("y", S),)))
        tree = Skipper([first, second])
        state, run = {"x": F, "y": F}, ExecutionTrace()
        classic_tick(compiled(tree), state, CounterRng(0), run)
        assert run.latches == {first.node_id: S}
        assert state["y"] is F

    def test_actions_execute_at_most_once_per_lifetime(self):
        action = ActionNode(coin())
        tree = Sequence([action, Condition("x")])
        status, run = run_classic(compiled(tree), {"x": R}, CounterRng(9))
        assert [aid for aid, _ in run.outcomes] == ["coin"]
        assert status is run.latches[action.node_id]

    def test_tree_holds_no_run_state(self):
        # latches live in the run record; nodes carry structure only
        assert ActionNode.__slots__ == ("action",)
        node = ActionNode(sure())
        tree = Sequence([node, Condition("x")])
        before = tree_to_doc(tree)
        run_classic(compiled(tree), {"x": F}, CounterRng(0))
        assert tree_to_doc(tree) == before
        assert not hasattr(node, "__dict__")

    def test_new_run_starts_fresh(self):
        node = ActionNode(sure())
        program = compiled(node)
        first = ExecutionTrace()
        classic_tick(program, {"x": F}, CounterRng(0), first)
        assert first.latches == {node.node_id: S}
        # the same program, no reset: a new run executes the action again
        state, second = {"x": F}, ExecutionTrace()
        assert classic_tick(program, state, CounterRng(0), second) is R
        assert state["x"] is S
        assert second.outcomes == [("sure", 0)]


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
        runs = []
        for _ in range(2):
            status, run = run_classic(program, {"x": F, "y": R}, CounterRng(123))
            runs.append((status, run.outcomes))
        assert runs[0] == runs[1]
        assert runs[0][1]  # an action actually ran


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
        assert not tables.foldable
        validate_tree(tree)
        assert to_dot(tree).count("->") == 3000

    def test_structural_equality_ignores_ids(self):
        a = Sequence([Condition("a"), ActionNode(sure())])
        b = Sequence([Condition("a"), ActionNode(sure())])
        assert a.node_id != b.node_id
        assert dumps_tree(a) == dumps_tree(b)
