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

Every count comes from one harness, ``counted`` of ``scripts/bench.py``,
which also writes the counters of the committed ``BENCH_*.json`` records:
it wraps the module bindings the engine runs through and restores them.
Only the latch-view pin patches a binding of its own, as that harness
does not count latch views.

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

import importlib.util
from pathlib import Path

import pytest

from bbt import engine, ground, parse_domain, plan_request_from_domain, refine_tree, simulate

# scripts/bench.py, which is not on the import path: its counted() takes every count here
spec = importlib.util.spec_from_file_location(
    "bench", Path(__file__).resolve().parent.parent / "scripts" / "bench.py"
)
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)


def counted_plan(domain, prob=None, max_iterations=64):
    """The plan of ``domain`` to ``prob`` and the counts of planning it."""
    request = plan_request_from_domain(
        domain, target_probability=prob, max_iterations=max_iterations
    )
    return bench.counted(lambda: refine_tree(request))


def counted_simulation(domain, tree):
    """The simulation of ``tree`` from ``domain``'s initial belief and its counts."""
    initial = domain.initial_belief()
    return bench.counted(lambda: simulate(tree, initial))


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
def test_counters_pinned(request, domain_fixture, prob, pinned):
    domain = request.getfixturevalue(domain_fixture)
    result, planned = counted_plan(domain, prob)
    replay = simulate(result.tree, domain.initial_belief())
    counters = (
        len(result.log),
        sum(1 for _ in result.tree.iter_nodes()),
        len(replay.terminal),
        replay.ticks_used,
        planned["root_ticks"],
    )
    assert counters == pinned


STATES_BUILT = [
    ("soda_domain", 0.999, 119),
    ("wide_domain", None, 62),
]


@pytest.mark.parametrize("domain_fixture,prob,pinned", STATES_BUILT)
def test_states_built_pinned(request, domain_fixture, prob, pinned):
    domain = request.getfixturevalue(domain_fixture)
    result, _ = counted_plan(domain, prob)
    _, simulated = counted_simulation(domain, result.tree)
    assert simulated["states_built"] == pinned


ENTRIES_TICKED = [
    ("soda_domain", 0.999, (137, 64)),
    ("wide_domain", None, (161, 58)),
    ("deep_domain", None, (274, 34)),
]


@pytest.mark.parametrize("domain_fixture,prob,pinned", ENTRIES_TICKED)
def test_entries_ticked_pinned(request, domain_fixture, prob, pinned):
    domain = request.getfixturevalue(domain_fixture)
    result, planned = counted_plan(domain, prob)
    _, simulated = counted_simulation(domain, result.tree)
    assert (planned["entries_ticked"], simulated["entries_ticked"]) == pinned


def test_memo_without_room_ticks_every_entry(monkeypatch, soda_domain):
    # a dict that keeps no state leaves every root tick to tick every entry:
    # 230 on the soda 0.999 tree, against its 64 distinct states
    tree = counted_plan(soda_domain, 0.999)[0].tree
    _, stored = counted_simulation(soda_domain, tree)
    monkeypatch.setattr(engine, "MEMO_STATES", 0)
    _, unstored = counted_simulation(soda_domain, tree)
    assert (stored["entries_ticked"], unstored["entries_ticked"]) == (64, 230)


def test_deep_perception_pinned(deep_domain):
    # one terminal entry per (assignment, r): no latch splits entries whose
    # futures agree
    plan = refine_tree(plan_request_from_domain(deep_domain))
    replay = simulate(plan.tree, deep_domain.initial_belief())
    assert f"{plan.achieved:.6f}" == "0.526247"
    assert len(replay.terminal) == len({(s.values, s.r) for _, s in replay.terminal}) == 11


# the node visits of planning and of simulating the wide-24 plan, and of planning wide-96
WIDE_VISITS = (1026, 457)
WIDE_96_PLAN_VISITS = 3834


def test_wide_visits_pinned(wide_domain):
    result, planned = counted_plan(wide_domain)
    _, simulated = counted_simulation(wide_domain, result.tree)
    assert (planned["visits"], simulated["visits"]) == WIDE_VISITS


@pytest.fixture(scope="module")
def wide_96(widegen):
    return ground(parse_domain(widegen.generate(96, seed=0)))


@pytest.fixture(scope="module")
def wide_192(widegen):
    return ground(parse_domain(widegen.generate(192, seed=0)))


@pytest.fixture(scope="module")
def wide_planned(wide_96, wide_192):
    """The plan and the counts of planning the wide domains of 96 and 192 items."""
    return {
        96: counted_plan(wide_96, max_iterations=1000),
        192: counted_plan(wide_192, max_iterations=1000),
    }


def test_wide_96_plan_visits_pinned(wide_planned):
    assert wide_planned[96][1]["visits"] == WIDE_96_PLAN_VISITS


def test_wide_96_latch_view_pinned(monkeypatch, wide_96, wide_planned):
    # the largest latch view of any entry of the final simulation: the
    # latches of settled goal children are dropped (197 pairs before)
    plan = wide_planned[96][0]
    views = []
    root_tick = engine.belief_tick

    def viewed(node, mem, tables, reached=None, prefix=0):
        views.extend(len(s.latches) for _, s in mem)
        return root_tick(node, mem, tables, reached, prefix)

    monkeypatch.setattr(engine, "belief_tick", viewed)
    result = simulate(plan.tree, wide_96.initial_belief())
    views.extend(len(s.latches) for _, s in result.terminal)
    assert max(views) == 2


def test_wide_plan_visits_grow_linearly(wide_planned):
    # doubling the goals about doubles the visits; a rescan of every settled
    # goal child at every root tick would near quadruple them
    assert wide_planned[192][1]["visits"] <= 2.2 * wide_planned[96][1]["visits"]


# the root gate reads of planning the wide domains, by item count
GATE_READS = {24: 321, 96: 1281, 192: 2561}


def test_wide_plan_gate_reads_pinned_and_linear(wide_domain, wide_planned):
    # the root scan starts after the frozen prefix of settled goal children,
    # so a round reads a few gates however many goals have settled: 2,142,
    # 32,346 and 128,144 reads when every root tick read every settled
    # child's gate
    small, large = (wide_planned[size][1]["gate_reads"] for size in (96, 192))
    assert counted_plan(wide_domain)[1]["gate_reads"] == GATE_READS[24]
    assert (small, large) == (GATE_READS[96], GATE_READS[192])
    assert large <= 2.2 * small
