"""bbt.classic against the oracle's references: the compiled leaf walk against
the recursive walk, and the memoised runs against the oracle's tick-by-tick
runs."""

import bisect
import random
from collections import Counter

import pytest

from bbt import classic
from bbt.belief import ActionInstance, Outcome
from bbt.classic import ClassicRuns, LeafProgram
from bbt.errors import TickLimitExceeded, UnknownLiteral
from bbt.rng import _LANES, BlockDraw, CounterRng, draw
from bbt.status import Status
from bbt.tree import ActionNode, Condition, Sequence, Skipper, TreeTables

import oracle
import randgen
from helpers import walk_leaves

S, F, R = Status.S, Status.F, Status.R


def sure(post, report=S):
    return ActionInstance("sure", (), (Outcome(1.0, tuple(post), report),))


def _walks(program, tree, state, latches):
    """One tick's leaf walk and the reference walk: root status, first fresh action."""
    try:
        got = walk_leaves(program, state, latches)
    except UnknownLiteral as exc:
        got = ("unknown", exc.args)
    started = []
    try:
        status = oracle._classic_walk(tree, state, latches, started)
        want = (status, started[0] if started else None)
    except UnknownLiteral as exc:
        want = ("unknown", exc.args)
    return got, want


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
        state, run, draws = dict(assignment), oracle.ClassicRun(), CounterRng(case)
        for _ in range(50):
            # each tick of the run, walked both ways from the same state
            got, want = _walks(program, tree, state, run.latches)
            ticks += 1
            assert got == want, (case, got, want)
            if want[0] == "unknown":
                unknown += 1
                break
            if want[1] is None:
                break
            try:
                oracle.classic_tick(tree, state, draws, run)
            except UnknownLiteral:
                # the drawn outcome writes a literal the state lacks
                unknown += 1
                break
            started += 1
        else:
            raise AssertionError(f"case {case} did not terminate")
    assert ticks > 2500 and started > 800 and unknown > 200, (ticks, started, unknown)


def _run_or_raise(run):
    try:
        return run()
    except (UnknownLiteral, TickLimitExceeded) as exc:
        return (type(exc), str(exc))


def test_memoised_runs_match_reference_runs(monkeypatch):
    walks = applies = 0
    walk_leaves, apply, memo_slots = classic._walk_leaves, Outcome.apply, classic.MEMO_SLOTS
    reference_tick, reference_sample = oracle.classic_tick, oracle.sample_outcome_index

    def counted_walk(*args):
        nonlocal walks
        walks += 1
        return walk_leaves(*args)

    def counted_tick(*args):
        nonlocal walks
        walks += 1
        return reference_tick(*args)

    def counted_apply(*args):
        nonlocal applies
        applies += 1
        return apply(*args)

    def counted_sample(*args):
        # the reference applies the one outcome it samples, in its own dict
        nonlocal applies
        applies += 1
        return reference_sample(*args)

    monkeypatch.setattr(classic, "_walk_leaves", counted_walk)
    monkeypatch.setattr(oracle, "classic_tick", counted_tick)
    monkeypatch.setattr(Outcome, "apply", counted_apply)
    monkeypatch.setattr(oracle, "sample_outcome_index", counted_sample)
    rng = random.Random(9090)
    ended = {Status: 0, UnknownLiteral: 0, TickLimitExceeded: 0}
    ticks = total_walks = memo_only = 0
    for case in range(2000):
        literals = randgen.random_literals(rng)
        actions = randgen.random_actions(rng, literals)
        subtrees = [
            randgen.random_tree(rng, literals, actions, max_nodes=10)
            for _ in range(rng.randint(1, 4))
        ]
        tree = rng.choice(randgen.CONTROLS)(subtrees)
        assignment = randgen.random_assignment(rng, literals)
        if rng.random() < 0.2:
            del assignment[rng.choice(literals)]
        program = LeafProgram(TreeTables(tree))
        # a quarter of the tries fill up, so runs also go on past a full one
        room = rng.choice((0, 2, 5)) if rng.random() < 0.25 else memo_slots
        monkeypatch.setattr(classic, "MEMO_SLOTS", room)
        # one executor for every run of the case, so later runs hit the trie
        runs = ClassicRuns(program, assignment)
        for run_index in range(20):
            max_ticks = rng.randint(1, 6)
            walks = applies = 0
            got = _run_or_raise(lambda: next(runs.statuses(case, [run_index], max_ticks)))
            got_walks, got_applies = walks, applies
            walks = applies = 0
            want_rng = CounterRng(case, run_index)
            want = _run_or_raise(
                lambda: oracle.run_classic(tree, dict(assignment), want_rng, max_ticks)[0]
            )
            assert got == want, (case, run_index, got, want)
            # a memoised run walks and applies no more than a tick-by-tick run
            assert got_walks <= walks and got_applies <= applies, (case, run_index)
            ticks += walks
            total_walks += got_walks
            ended[want[0] if isinstance(want, tuple) else Status] += 1
            memo_only += got_walks == 0
    # every ending is exercised, and most runs never leave the trie
    assert min(ended.values()) > 1000, ended
    assert memo_only > 20000 and total_walks < ticks / 4


def test_each_draw_is_the_counter_draw_of_its_run_and_tick(monkeypatch):
    # every comparison a run makes: (thresholds it compares against, draw)
    compared = []

    def recorded_bisect(thresholds, u):
        compared.append((len(thresholds), u))
        return bisect.bisect_right(thresholds, u)

    monkeypatch.setattr(classic, "bisect_right", recorded_bisect)
    rng = random.Random(5151)
    # seeds outside [0, 2**64) are masked to 64 bits, as draw() does
    seeds = (0, 1, 415, -1, -5, -(2**70), 2**64, 2**64 + 5, 2**70)
    draws = skipped = 0
    for case in range(400):
        literals = randgen.random_literals(rng)
        actions = randgen.random_actions(rng, literals)
        by_id = {action.id: action for action in actions}
        subtrees = [
            randgen.random_tree(rng, literals, actions, max_nodes=10)
            for _ in range(rng.randint(1, 4))
        ]
        tree = rng.choice(randgen.CONTROLS)(subtrees)
        assignment = randgen.random_assignment(rng, literals)
        program = LeafProgram(TreeTables(tree))
        seed = seeds[case % len(seeds)]
        compared.clear()
        got = list(ClassicRuns(program, assignment).statuses(seed, range(8)))
        want, want_compared = [], []
        for run_index in range(8):
            status, trace = oracle.run_classic(tree, dict(assignment), CounterRng(seed, run_index))
            want.append(status)
            # tick t starts the run's t-th action; one outcome draws nothing
            for tick, (action_id, _) in enumerate(trace.outcomes):
                n_outcomes = len(by_id[action_id].outcomes)
                if n_outcomes > 1:
                    want_compared.append((n_outcomes - 1, draw(seed, run_index, tick)))
                else:
                    skipped += 1
        assert got == want, case
        # a block's runs draw tick by tick, not run by run: compare the
        # draws as a multiset, each with the thresholds it was compared with
        assert sorted(compared) == sorted(want_compared), case
        draws += len(compared)
    assert draws > 1000 and skipped > 400, (draws, skipped)


def _record_draws(monkeypatch) -> list:
    """Every comparison runs make from now on: (thresholds compared against, draw)."""
    compared = []

    def recorded_bisect(thresholds, u):
        compared.append((len(thresholds), u))
        return bisect.bisect_right(thresholds, u)

    monkeypatch.setattr(classic, "bisect_right", recorded_bisect)
    return compared


def _oracle_runs(tree, assignment, seed, streams, max_ticks=10000):
    """The oracle run of each stream: statuses, and the comparisons of their draws."""
    by_id = {
        node.action.id: node.action
        for node in TreeTables(tree).order
        if isinstance(node, ActionNode)
    }
    statuses, compared = [], []
    for stream in streams:
        rng = CounterRng(seed, stream)
        status, run = oracle.run_classic(tree, dict(assignment), rng, max_ticks)
        statuses.append(status)
        # tick t starts the run's t-th action; one outcome draws nothing
        for tick, (action_id, _) in enumerate(run.outcomes):
            n_outcomes = len(by_id[action_id].outcomes)
            if n_outcomes > 1:
                compared.append((n_outcomes - 1, draw(seed, stream, tick)))
    return statuses, compared


def _scattered_streams(rng, size):
    """``size`` streams out of order: negative, past 2**64 and repeated ones."""
    streams = []
    for _ in range(size):
        kind = rng.random()
        if streams and kind < 0.15:
            streams.append(rng.choice(streams))
        elif kind < 0.35:
            streams.append(-rng.randrange(1, 2**40))
        elif kind < 0.55:
            streams.append(2**64 + rng.randrange(2**40))
        else:
            streams.append(rng.randrange(2**40))
    return streams


def test_runs_across_blocks_match_reference_runs(monkeypatch):
    compared = _record_draws(monkeypatch)
    rng = random.Random(6161)
    sizes = (1, _LANES - 1, _LANES + 1, 2 * _LANES + 3)
    ended = {S: 0, F: 0, R: 0}
    for case in range(16):
        literals = randgen.random_literals(rng)
        actions = randgen.random_actions(rng, literals)
        subtrees = [
            randgen.random_tree(rng, literals, actions, max_nodes=10)
            for _ in range(rng.randint(1, 4))
        ]
        tree = rng.choice(randgen.CONTROLS)(subtrees)
        assignment = randgen.random_assignment(rng, literals)
        program = LeafProgram(TreeTables(tree))
        seed = rng.choice((0, -1, 2**64 + 5, rng.getrandbits(70)))
        streams = _scattered_streams(rng, sizes[case % len(sizes)])
        # every other case reads its streams from a generator
        source = streams if case % 2 else (stream for stream in streams)
        compared.clear()
        got = list(ClassicRuns(program, assignment).statuses(seed, source))
        want, want_compared = _oracle_runs(tree, assignment, seed, streams)
        assert got == want, case
        assert sorted(compared) == sorted(want_compared), case
        for status in got:
            ended[status] += 1
    assert min(ended[S], ended[F]) > 200, ended


def _statuses_or_error(run_statuses):
    """The statuses a run of ``statuses`` yields, and the error that ends it or ``None``."""
    got = []
    try:
        for status in run_statuses:
            got.append(status)
    except (UnknownLiteral, TickLimitExceeded) as exc:
        return got, (type(exc), str(exc))
    return got, None


def test_runs_with_failures_match_reference_runs(monkeypatch):
    rng = random.Random(8181)
    errors = Counter()
    for case in range(300):
        literals = randgen.random_literals(rng)
        actions = randgen.random_actions(rng, literals)
        subtrees = [
            randgen.random_tree(rng, literals, actions, max_nodes=10)
            for _ in range(rng.randint(1, 4))
        ]
        tree = rng.choice(randgen.CONTROLS)(subtrees)
        assignment = randgen.random_assignment(rng, literals)
        if rng.random() < 0.3:
            del assignment[rng.choice(literals)]
        # blocks of 1 and 3 runs, and one block; a trie that fills up at once
        monkeypatch.setattr(classic, "_LANES", rng.choice((1, 3, _LANES)))
        monkeypatch.setattr(classic, "MEMO_SLOTS", rng.choice((0, 5, 1 << 16)))
        runs = ClassicRuns(LeafProgram(TreeTables(tree)), assignment)
        # a cold trie, then a warm one
        for seed in (case, case + 1):
            max_ticks = rng.randint(0, 6)
            streams = _scattered_streams(rng, rng.randint(1, 40))
            got = _statuses_or_error(runs.statuses(seed, streams, max_ticks))
            # the oracle runs stream by stream until the first that fails
            want = _statuses_or_error(
                oracle.run_classic(tree, dict(assignment), CounterRng(seed, stream), max_ticks)[0]
                for stream in streams
            )
            assert got == want, (case, seed)
            errors[want[1] and want[1][0]] += 1
    assert min(errors[None], errors[UnknownLiteral], errors[TickLimitExceeded]) > 60, errors


# a two-outcome first action then a one-outcome second: outcome 0 ends the
# run F in two ticks, outcome 1 needs a third tick, and outcome 2 writes a
# literal the state lacks
_FIRST = ActionInstance("first", (), (
    Outcome(0.4, (("x", S),), F),
    Outcome(0.3, (("x", S),), S),
    Outcome(0.3, (("ghost", S),), S),
))


@pytest.mark.parametrize("outcome,error", [(1, TickLimitExceeded), (2, UnknownLiteral)])
def test_failing_run_in_second_block_ends_the_runs(outcome, error):
    tree = Sequence([ActionNode(_FIRST), ActionNode(sure((("x", S),)))])
    program = LeafProgram(TreeTables(tree))
    seed, thresholds = 415, [0.4, 0.7]
    first = [s for s in range(10000) if bisect.bisect_right(thresholds, draw(seed, s, 0)) == 0]
    failing = next(
        s for s in range(10000) if bisect.bisect_right(thresholds, draw(seed, s, 0)) == outcome
    )
    before = first[: _LANES + 5]
    streams = [*before, failing, *first[_LANES + 5 :]]
    # the failing run fails in the oracle too; every earlier run ends F
    with pytest.raises(error):
        oracle.run_classic(tree, {"x": F}, CounterRng(seed, failing), 2)
    assert _oracle_runs(tree, {"x": F}, seed, before, 2)[0] == [F] * len(before)
    got = []
    with pytest.raises(error):
        for status in ClassicRuns(program, {"x": F}).statuses(seed, iter(streams), 2):
            got.append(status)
    assert got == [F] * len(before)


@pytest.mark.parametrize("late_first", [True, False])
def test_first_failing_stream_in_a_block_raises_its_error(late_first):
    # outcome 1 of _FIRST starts five more actions, one a tick, so its run
    # is still running when the budget of five ticks ends; outcome 2 fails
    # in tick 1, when its ghost literal is applied
    tree = Sequence([ActionNode(_FIRST), *(ActionNode(sure((("x", S),))) for _ in range(5))])
    program = LeafProgram(TreeTables(tree))
    seed, thresholds, max_ticks = 415, [0.4, 0.7], 5
    by_outcome = {0: [], 1: [], 2: []}
    for s in range(10000):
        by_outcome[bisect.bisect_right(thresholds, draw(seed, s, 0))].append(s)
    late, early = by_outcome[1][0], by_outcome[2][0]
    with pytest.raises(TickLimitExceeded):
        oracle.run_classic(tree, {"x": F}, CounterRng(seed, late), max_ticks)
    with pytest.raises(UnknownLiteral):
        oracle.run_classic(tree, {"x": F}, CounterRng(seed, early), max_ticks)
    before, after = by_outcome[0][:20], by_outcome[0][20:40]
    assert _oracle_runs(tree, {"x": F}, seed, before, max_ticks)[0] == [F] * len(before)
    # one block: the earlier failing stream fails in a later tick
    first, second = (late, early) if late_first else (early, late)
    streams = [*before, first, second, *after]
    assert len(streams) <= _LANES
    got = []
    with pytest.raises(TickLimitExceeded if late_first else UnknownLiteral):
        for status in ClassicRuns(program, {"x": F}).statuses(seed, streams, max_ticks):
            got.append(status)
    assert got == [F] * len(before)


def test_memo_miss_runs_match_reference_runs(monkeypatch):
    # 20 items, each rolled by an 8-outcome action whose outcomes all report
    # S: 8**20 histories, so the runs share little more than their first ticks
    rolls = [
        ActionNode(ActionInstance(
            f"roll{item}", (), tuple(Outcome(0.125, ((f"rolled{item}", S),), S) for _ in range(8))
        ))
        for item in range(20)
    ]
    tree = Sequence(rolls)
    assignment = {f"rolled{item}": F for item in range(20)}
    walks = 0
    walk_leaves = classic._walk_leaves

    def counted_walk(*args):
        nonlocal walks
        walks += 1
        return walk_leaves(*args)

    monkeypatch.setattr(classic, "_walk_leaves", counted_walk)
    compared = _record_draws(monkeypatch)
    got = list(ClassicRuns(LeafProgram(TreeTables(tree)), assignment).statuses(7, range(300)))
    want, want_compared = _oracle_runs(tree, assignment, 7, range(300))
    assert got == want == [S] * 300
    assert sorted(compared) == sorted(want_compared) and len(compared) == 300 * 20
    assert walks > 300 * 15, walks


def test_deep_chain_executes_without_recursion():
    action = ActionNode(sure((("x", S),)))
    tree = action
    for _ in range(3000):
        tree = Sequence([tree])
    program = LeafProgram(TreeTables(tree))
    assert walk_leaves(program, {"x": F}, {}) == (R, action)
    assert walk_leaves(program, {"x": S}, {action.node_id: S}) == (S, None)
    runs = ClassicRuns(program, {"x": F})
    # the action starts in the first tick and the second returns its latch
    with pytest.raises(TickLimitExceeded):
        next(runs.statuses(0, [0], 1))
    assert list(runs.statuses(0, [0], 2)) == [S]


def test_wide_skipper_scans_every_child():
    # 2999 unknown conditions, then an action that makes the first one S
    action = ActionNode(sure((("r", S),)))
    tree = Skipper([*(Condition("r") for _ in range(2999)), action])
    program = LeafProgram(TreeTables(tree))
    assert walk_leaves(program, {"r": R}, {}) == (R, action)
    assert walk_leaves(program, {"r": S}, {action.node_id: S}) == (S, None)
    runs = ClassicRuns(program, {"r": R})
    with pytest.raises(TickLimitExceeded):
        next(runs.statuses(0, [0], 1))
    assert list(runs.statuses(0, [0], 2)) == [S]
    status, run = oracle.run_classic(tree, {"r": R}, CounterRng(0))
    assert status is S and run.outcomes == [("sure", 0)]


def test_block_mixes_fewer_than_twice_the_runs_still_running(
    monkeypatch, planned_stochastic, soda_domain
):
    # the exec-soda workload: the soda goal tree, 20,000 runs at seed 42
    tree, assignment = planned_stochastic.tree, soda_domain.initial_assignment
    seed, runs = 42, 20000
    mixed = []  # (block, tick, lanes mixed) of every tick a block draws at

    class CountedDraw(BlockDraw):
        def __init__(self, seed, streams):
            super().__init__(seed, streams)
            # streams are range(runs), so a block's lowest stream names it
            self.block, self.lanes = min(streams) // _LANES, len(streams)

        def words(self, tick):
            mixed.append((self.block, tick, self.lanes))
            return super().words(tick)

    monkeypatch.setattr(classic, "BlockDraw", CountedDraw)
    compared = _record_draws(monkeypatch)
    got = list(ClassicRuns(LeafProgram(TreeTables(tree)), assignment).statuses(seed, range(runs)))
    # a run is still running at tick t when its tick t happens: it started
    # an action in each tick before t
    running = Counter()
    want = []
    for stream in range(runs):
        status, run = oracle.run_classic(tree, dict(assignment), CounterRng(seed, stream))
        want.append(status)
        for tick in range(len(run.outcomes) + 1):
            running[stream // _LANES, tick] += 1
    assert got == want
    for block, tick, lanes in mixed:
        assert lanes < 2 * running[block, tick], (block, tick, lanes)
    assert len(compared) == 58058
    assert sum(lanes for _, _, lanes in mixed) == 91583
