"""Time planning of ``domains/soda.bbt`` and of the ``perfbench/widegen.py``
domains (seed 0) in-process, with the planner's rounds, root ticks and
root gate reads.

First, for soda planned to 0.99 and to 0.999, prints the rounds
``refine_tree`` takes, the root ticks the plan executes (those that tick
at least one unseen state: the ticks a resumed round reuses run none) and
the fastest of ``--repeats`` calls of ``refine_tree``.  Then, for each
wide size, prints the rounds, the ``get`` calls the plan makes on the
root's gate table (the root scans' and the frozen prefix checks'), and the
fastest of ``--repeats`` calls of ``refine_tree`` and of ``simulate`` on
the planned tree.  Ticks and reads are counted in a separate, untimed
plan.  A plan whose cost follows its edits shows wide rounds, reads and
times that each about double with the size.

Usage: python3 scripts/plan_rate.py [--sizes 24 96 192 384] [--repeats 3]
"""

from __future__ import annotations

import argparse
import importlib.util
import time
from pathlib import Path

from bbt import engine, ground, parse_domain, plan_request_from_domain, refine_tree, simulate
from bbt.tree import TreeTables

REPO = Path(__file__).resolve().parent.parent


def _widegen():
    spec = importlib.util.spec_from_file_location("widegen", REPO / "perfbench" / "widegen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _CountedGates(dict):
    """A gate table that counts its ``get`` calls."""

    reads = 0

    def get(self, key, default=None):
        _CountedGates.reads += 1
        return dict.get(self, key, default)


def gate_reads(request) -> int:
    """The root gate reads of planning ``request``."""
    file_all = TreeTables._file_all

    def counted(self):
        file_all(self)
        self.gates = _CountedGates(self.gates)

    _CountedGates.reads = 0
    TreeTables._file_all = counted
    try:
        refine_tree(request)
    finally:
        TreeTables._file_all = file_all
    return _CountedGates.reads


def root_ticks(request) -> int:
    """The root ticks planning ``request`` executes."""
    belief_tick = engine.belief_tick
    ticks = 0

    def counted(*args):
        nonlocal ticks
        ticks += 1
        return belief_tick(*args)

    # simulate runs each root tick through this module binding
    engine.belief_tick = counted
    try:
        refine_tree(request)
    finally:
        engine.belief_tick = belief_tick
    return ticks


def best_s(call, repeats: int) -> float:
    """The fastest of ``repeats`` calls, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[24, 96, 192, 384])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    soda = ground(parse_domain((REPO / "domains" / "soda.bbt").read_text(encoding="utf-8")))
    for prob in (0.99, 0.999):
        request = plan_request_from_domain(soda, target_probability=prob)
        rounds = len(refine_tree(request).log)
        ticks = root_ticks(request)
        plan_s = best_s(lambda: refine_tree(request), args.repeats)
        print(f"soda-{prob} rounds {rounds} root_ticks {ticks} refine_tree {plan_s:.4f} s")
    widegen = _widegen()
    for size in args.sizes:
        domain = ground(parse_domain(widegen.generate(size, 0)))
        request = plan_request_from_domain(domain, max_iterations=10 * size)
        plan = refine_tree(request)
        initial = domain.initial_belief()
        reads = gate_reads(request)
        plan_s = best_s(lambda: refine_tree(request), args.repeats)
        simulate_s = best_s(lambda: simulate(plan.tree, initial), args.repeats)
        print(
            f"wide-{size} rounds {len(plan.log)} gate_reads {reads}"
            f" refine_tree {plan_s:.4f} s simulate {simulate_s:.4f} s"
        )


if __name__ == "__main__":
    main()
