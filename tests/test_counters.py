"""Pinned workload counters of the bundled domains.

Each row is (planner iterations, tree nodes, terminal belief entries, root
ticks used by the final simulation).  These are deterministic, so they are
gated exactly.  A change may only tighten them (for example a latch-view
canonicalization that merges more belief entries lowers the terminal count);
never loosen a pin to make a change pass.

The wide row plans the 24-item domain of ``perfbench/widegen.py`` (seed 0):
many goals over a large tree with few belief entries, so it guards the
scan and merge order of the tick rather than latch-view merging.
"""

import importlib.util
from pathlib import Path

import pytest

from bbt import ground, parse_domain, plan_request_from_domain, refine_tree, simulate

WIDEGEN = Path(__file__).resolve().parent.parent / "perfbench" / "widegen.py"

PINS = [
    ("soda_domain", None, (4, 26, 11, 11)),
    ("soda_domain", 0.99, (6, 42, 17, 19)),
    ("soda_det_domain", None, (4, 26, 5, 11)),
    ("soda_det_domain", 0.99, (5, 34, 6, 15)),
    ("soda_domain", 0.999, (7, 50, 20, 23)),
    ("soda_det_domain", 0.999, (7, 50, 8, 23)),
    ("wide_domain", None, (53, 232, 7, 54)),
]


@pytest.fixture(scope="module")
def wide_domain():
    spec = importlib.util.spec_from_file_location("widegen", WIDEGEN)
    widegen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(widegen)
    return ground(parse_domain(widegen.generate(24, seed=0)))


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
