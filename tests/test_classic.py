"""The compiled leaf program of bbt.classic against the recursive reference."""

import random

from bbt.belief import ActionInstance, Outcome
from bbt.classic import ExecutionTrace, LeafProgram, classic_tick, run_classic
from bbt.errors import UnknownLiteral
from bbt.rng import CounterRng
from bbt.status import Status
from bbt.tree import ActionNode, Condition, Sequence, Skipper, TreeTables

import oracle
import randgen

S, F, R = Status.S, Status.F, Status.R


def sure(post, report=S):
    return ActionInstance("sure", (), (Outcome(1.0, tuple(post), report),))


def _tick_or_raise(tick, tree_or_program, state, rng, run):
    try:
        return tick(tree_or_program, state, rng, run)
    except UnknownLiteral as exc:
        return ("unknown", exc.args)


def test_program_matches_reference_walk():
    rng = random.Random(7070)
    ticks = started = unknown = 0
    for case in range(2000):
        literals = randgen.random_literals(rng)
        actions = randgen.random_actions(rng, literals)
        # a few random subtrees under one random control node, for deeper scans
        subtrees = [
            randgen.random_tree(rng, literals, actions, max_nodes=10)
            for _ in range(rng.randint(1, 4))
        ]
        tree = rng.choice(randgen.CONTROLS)(subtrees)
        assignment = randgen.random_assignment(rng, literals)
        if rng.random() < 0.2:
            del assignment[rng.choice(literals)]
        program = LeafProgram(TreeTables(tree))
        got_state, want_state = dict(assignment), dict(assignment)
        got_run, want_run = ExecutionTrace(), ExecutionTrace()
        got_rng, want_rng = CounterRng(case), CounterRng(case)
        for _ in range(50):
            before = len(want_run.outcomes)
            got = _tick_or_raise(classic_tick, program, got_state, got_rng, got_run)
            want = _tick_or_raise(oracle.classic_tick, tree, want_state, want_rng, want_run)
            ticks += 1
            assert got == want, (case, got, want)
            assert got_run.latches == want_run.latches, case
            assert got_run.outcomes == want_run.outcomes, case
            assert got_state == want_state, case
            if isinstance(want, tuple):
                unknown += 1
                break
            if len(want_run.outcomes) == before:
                break
            started += 1
        else:
            raise AssertionError(f"case {case} did not terminate")
    assert ticks > 2500 and started > 800 and unknown > 200


def test_deep_chain_executes_without_recursion():
    action = ActionNode(sure((("x", S),)))
    tree = action
    for _ in range(3000):
        tree = Sequence([tree])
    program = LeafProgram(TreeTables(tree))
    state = {"x": F}
    status, run = run_classic(program, state, CounterRng(0))
    assert status is S
    assert run.outcomes == [("sure", 0)]
    assert run.latches == {action.node_id: S}
    assert state == {"x": S}


def test_wide_skipper_scans_every_child():
    # 2999 unknown conditions, then an action that makes the first one S
    action = ActionNode(sure((("r", S),)))
    tree = Skipper([*(Condition("r") for _ in range(2999)), action])
    program = LeafProgram(TreeTables(tree))
    state = {"r": R}
    run = ExecutionTrace()
    assert classic_tick(program, state, CounterRng(0), run) is R
    assert run.outcomes == [("sure", 0)] and state == {"r": S}
    status, run = run_classic(program, {"r": R}, CounterRng(0))
    assert status is S and len(run.outcomes) == 1
