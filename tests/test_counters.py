"""Pinned workload counters of the bundled domains.

Each row is (planner iterations, tree nodes, terminal belief entries, root
ticks used by the final simulation).  These are deterministic, so they are
gated exactly.  A change may only tighten them (for example a latch-view
canonicalization that merges more belief entries lowers the terminal count);
never loosen a pin to make a change pass.
"""

import pytest

from bbt import plan_request_from_domain, refine_tree, simulate

PINS = [
    ("soda_domain", None, (4, 26, 11, 11)),
    ("soda_domain", 0.99, (6, 42, 17, 19)),
    ("soda_det_domain", None, (4, 26, 5, 11)),
    ("soda_det_domain", 0.99, (5, 34, 6, 15)),
    ("soda_domain", 0.999, (7, 50, 20, 23)),
    ("soda_det_domain", 0.999, (7, 50, 8, 23)),
]


@pytest.mark.parametrize("domain_fixture,prob,pinned", PINS)
def test_counters_pinned(request, domain_fixture, prob, pinned):
    domain = request.getfixturevalue(domain_fixture)
    result = refine_tree(plan_request_from_domain(domain, target_probability=prob))
    replay = simulate(result.tree, domain.initial_belief())
    counters = (
        len(result.log),
        sum(1 for _ in result.tree.iter_nodes()),
        len(replay.terminal),
        replay.ticks_used,
    )
    assert counters == pinned
