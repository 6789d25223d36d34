"""Pinned workload counters of the bundled domains.

Each row is (planner iterations, tree nodes, terminal belief entries, root
ticks used by the final simulation, root ticks the planner executes).  The
last counts the ticks that every round's simulation actually runs, not the
ticks a resumed simulation reuses.  These are deterministic, so they are
gated exactly.  A change may only tighten them (for example a latch-view
canonicalization that merges more belief entries lowers the terminal count);
never loosen a pin to make a change pass.

The wide row plans the 24-item domain of ``perfbench/widegen.py`` (seed 0):
many goals over a large tree with few belief entries, so it guards the
scan and merge order of the tick rather than latch-view merging.
"""

import pytest

from bbt import engine, plan_request_from_domain, refine_tree, simulate

PINS = [
    ("soda_domain", None, (4, 26, 11, 11, 23)),
    ("soda_domain", 0.99, (6, 42, 17, 19, 57)),
    ("soda_det_domain", None, (4, 26, 5, 11, 23)),
    ("soda_det_domain", 0.99, (5, 34, 6, 15, 38)),
    ("soda_domain", 0.999, (7, 50, 20, 23, 80)),
    ("soda_det_domain", 0.999, (7, 50, 8, 23, 80)),
    ("wide_domain", None, (53, 232, 7, 54, 156)),
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
