"""Pinned workload counters of the bundled domains.

Each row is (planner iterations, tree nodes, terminal belief entries, root
ticks used by the final simulation, root ticks the planner executes).  The
last counts, over every round's simulation, the root ticks that tick at
least one unseen state: a simulation ticks each distinct state once, so a
root tick whose states were all ticked before runs no belief tick, and the
ticks a resumed simulation reuses run none either.  A round that appends
a resolver to an existing wrapper resumes at the first root tick that
exhausted the wrapper, not at the first that read its condition, which
on soda is tick 0: at 0.999 the planner executes 32 root ticks (60 when
appends resumed at the condition) and sends 137 entries through the
belief tick (206).  These are deterministic, so they are gated exactly.  A change may only tighten them (for example a latch-view
canonicalization that merges more belief entries lowers the terminal count);
never loosen a pin to make a change pass.

The wide row plans the 24-item domain of ``perfbench/widegen.py`` (seed 0):
many goals over a large tree with few belief entries, so it guards the
scan and merge order of the tick rather than latch-view merging.  The deep
row plans ``tests/deepgen.py`` with 5 objects, whose belief splits three
ways per detect: there the latches dropped under frozen goal literals take
the final simulation from 620 terminal entries to 11.

``STATES_BUILT`` pins the physical states the final simulation builds,
constructed or derived from another state, on soda at 0.999 and on the
wide row.  ``ENTRIES_TICKED`` pins the belief entries sent through the
belief tick, by the planner and by the final simulation: one per distinct
state a simulation meets, however many root ticks hold it.  A state still
running returns R whatever its last tick returned, so states that differ
only there are one state.

The node-visit pins count ``engine._tick`` calls, the root scans included.
A root tick passes a settled goal child at its gate without visiting it, so
visits grow with the goal frontier, not with the number of settled goals.
The gate-read pins count the ``get`` calls on the root's gate table, by
the root scans and by the frozen prefix checks: a scan starts after the
prefix of goal children settled for good, so reads grow with the rounds,
not with the rounds times the settled goals.  Resuming appends at the
wrapper's first exhausting tick takes a few ticks off the wide plans, so
their visits and gate reads dropped a little with it (1,050 to 1,026
visits on wide-24, 1,287 and 2,567 to 1,281 and 2,561 reads on wide-96
and wide-192).
"""

import pytest

from bbt import (
    PhysicalState,
    engine,
    ground,
    parse_domain,
    plan_request_from_domain,
    refine_tree,
    simulate,
)
from bbt.tree import TreeTables

PINS = [
    ("soda_domain", None, (4, 26, 8, 11, 17)),
    ("soda_domain", 0.99, (6, 42, 8, 19, 27)),
    ("soda_det_domain", None, (4, 26, 4, 11, 17)),
    ("soda_det_domain", 0.99, (5, 34, 4, 15, 22)),
    ("soda_domain", 0.999, (7, 50, 8, 23, 32)),
    ("soda_det_domain", 0.999, (7, 50, 4, 23, 32)),
    ("wide_domain", None, (53, 232, 3, 54, 151)),
    ("deep_domain", None, (21, 74, 11, 17, 67)),
]


@pytest.mark.parametrize("domain_fixture,prob,pinned", PINS)
def test_counters_pinned(request, monkeypatch, domain_fixture, prob, pinned):
    domain = request.getfixturevalue(domain_fixture)
    executed = 0
    root_tick = engine.belief_tick

    def counted(*args, **kwargs):
        nonlocal executed
        executed += 1
        return root_tick(*args, **kwargs)

    # simulate runs each root tick through this module binding
    monkeypatch.setattr(engine, "belief_tick", counted)
    result = refine_tree(plan_request_from_domain(domain, target_probability=prob))
    monkeypatch.undo()
    replay = simulate(result.tree, domain.initial_belief())
    counters = (
        len(result.log),
        sum(1 for _ in result.tree.iter_nodes()),
        len(replay.terminal),
        replay.ticks_used,
        executed,
    )
    assert counters == pinned


STATES_BUILT = [
    ("soda_domain", 0.999, 119),
    ("wide_domain", None, 62),
]


@pytest.mark.parametrize("domain_fixture,prob,pinned", STATES_BUILT)
def test_states_built_pinned(request, monkeypatch, domain_fixture, prob, pinned):
    domain = request.getfixturevalue(domain_fixture)
    result = refine_tree(plan_request_from_domain(domain, target_probability=prob))
    initial = domain.initial_belief()
    built = 0

    def counted(method):
        def wrapper(*args, **kwargs):
            nonlocal built
            built += 1
            return method(*args, **kwargs)

        return wrapper

    # every state is built by the constructor or derived by _derived
    for name in ("__init__", "_derived"):
        monkeypatch.setattr(PhysicalState, name, counted(getattr(PhysicalState, name)))
    simulate(result.tree, initial)
    monkeypatch.undo()
    assert built == pinned


ENTRIES_TICKED = [
    ("soda_domain", 0.999, (137, 64)),
    ("wide_domain", None, (161, 58)),
    ("deep_domain", None, (274, 34)),
]


def count_entries_ticked(monkeypatch, run):
    """``run()`` and the belief entries its root ticks send through ``belief_tick``."""
    ticked = 0
    root_tick = engine.belief_tick

    def counted(node, mem, tables, reached=None, prefix=0):
        nonlocal ticked
        mem = list(mem)
        ticked += len(mem)
        return root_tick(node, mem, tables, reached, prefix)

    with monkeypatch.context() as patch:
        # simulate runs each root tick through this module binding
        patch.setattr(engine, "belief_tick", counted)
        return run(), ticked


@pytest.mark.parametrize("domain_fixture,prob,pinned", ENTRIES_TICKED)
def test_entries_ticked_pinned(request, monkeypatch, domain_fixture, prob, pinned):
    domain = request.getfixturevalue(domain_fixture)
    request_ = plan_request_from_domain(domain, target_probability=prob)
    result, planned = count_entries_ticked(monkeypatch, lambda: refine_tree(request_))
    initial = domain.initial_belief()
    _, simulated = count_entries_ticked(monkeypatch, lambda: simulate(result.tree, initial))
    assert (planned, simulated) == pinned


def test_memo_without_room_ticks_every_entry(monkeypatch, soda_domain):
    # a dict that keeps no state leaves every root tick to tick every entry:
    # 230 on the soda 0.999 tree, against its 64 distinct states
    tree = refine_tree(plan_request_from_domain(soda_domain, target_probability=0.999)).tree
    initial = soda_domain.initial_belief()
    _, stored = count_entries_ticked(monkeypatch, lambda: simulate(tree, initial))
    monkeypatch.setattr(engine, "MEMO_STATES", 0)
    _, unstored = count_entries_ticked(monkeypatch, lambda: simulate(tree, initial))
    assert (stored, unstored) == (64, 230)


def test_deep_perception_pinned(deep_domain):
    # one terminal entry per (assignment, r): no latch splits entries whose
    # futures agree
    plan = refine_tree(plan_request_from_domain(deep_domain))
    replay = simulate(plan.tree, deep_domain.initial_belief())
    assert f"{plan.achieved:.6f}" == "0.526247"
    assert len(replay.terminal) == len({(s.values, s.r) for _, s in replay.terminal}) == 11


def count_visits(monkeypatch, run):
    """``run()`` and the node visits of its belief ticks."""
    visits = 0
    visit = engine._tick

    def counted(*args):
        nonlocal visits
        visits += 1
        return visit(*args)

    # the tick recurses through this module binding
    monkeypatch.setattr(engine, "_tick", counted)
    try:
        return run(), visits
    finally:
        monkeypatch.undo()


def plan_visits(monkeypatch, domain, max_iterations=64):
    request = plan_request_from_domain(domain, max_iterations=max_iterations)
    return count_visits(monkeypatch, lambda: refine_tree(request))


def test_wide_visits_pinned(monkeypatch, wide_domain):
    result, planned = plan_visits(monkeypatch, wide_domain)
    _, simulated = count_visits(
        monkeypatch, lambda: simulate(result.tree, wide_domain.initial_belief())
    )
    assert (planned, simulated) == (1026, 457)


@pytest.fixture(scope="module")
def wide_96(widegen):
    return ground(parse_domain(widegen.generate(96, seed=0)))


def test_wide_96_plan_visits_pinned(monkeypatch, wide_96):
    _, visits = plan_visits(monkeypatch, wide_96, max_iterations=1000)
    assert visits == 3834


def test_wide_96_latch_view_pinned(monkeypatch, wide_96):
    # the largest latch view of any entry of the final simulation: the
    # latches of settled goal children are dropped (197 pairs before)
    plan = refine_tree(plan_request_from_domain(wide_96, max_iterations=1000))
    views = []
    root_tick = engine.belief_tick

    def viewed(node, mem, tables, reached=None, prefix=0):
        views.extend(len(s.latches) for _, s in mem)
        return root_tick(node, mem, tables, reached, prefix)

    monkeypatch.setattr(engine, "belief_tick", viewed)
    result = simulate(plan.tree, wide_96.initial_belief())
    views.extend(len(s.latches) for _, s in result.terminal)
    assert max(views) == 2


@pytest.fixture(scope="module")
def wide_192(widegen):
    return ground(parse_domain(widegen.generate(192, seed=0)))


def test_wide_plan_visits_grow_linearly(monkeypatch, wide_96, wide_192):
    # doubling the goals about doubles the visits; a rescan of every settled
    # goal child at every root tick would near quadruple them
    _, small = plan_visits(monkeypatch, wide_96, max_iterations=1000)
    _, large = plan_visits(monkeypatch, wide_192, max_iterations=1000)
    assert large <= 2.2 * small


class CountedGates(dict):
    """A gate table that counts its ``get`` calls."""

    reads = 0

    def get(self, key, default=None):
        CountedGates.reads += 1
        return dict.get(self, key, default)


def plan_gate_reads(monkeypatch, domain):
    """The root gate reads of planning ``domain``: the root scans' and the prefix checks'."""
    file_all = TreeTables._file_all

    def counted(self):
        file_all(self)
        self.gates = CountedGates(self.gates)

    monkeypatch.setattr(CountedGates, "reads", 0)
    with monkeypatch.context() as patch:
        patch.setattr(TreeTables, "_file_all", counted)
        refine_tree(plan_request_from_domain(domain, max_iterations=1000))
    return CountedGates.reads


# the root gate reads of planning the wide domains, by item count
GATE_READS = {24: 321, 96: 1281, 192: 2561}


def test_wide_plan_gate_reads_pinned_and_linear(monkeypatch, wide_domain, wide_96, wide_192):
    # the root scan starts after the frozen prefix of settled goal children,
    # so a round reads a few gates however many goals have settled: 2,142,
    # 32,346 and 128,144 reads when every root tick read every settled
    # child's gate
    small = plan_gate_reads(monkeypatch, wide_96)
    large = plan_gate_reads(monkeypatch, wide_192)
    assert plan_gate_reads(monkeypatch, wide_domain) == GATE_READS[24]
    assert (small, large) == (GATE_READS[96], GATE_READS[192])
    assert large <= 2.2 * small
