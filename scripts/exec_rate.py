"""Time the Monte Carlo loop of ``bbt exec`` in-process: ``ClassicRuns.statuses``
on the soda tree planned to its goal and to 0.999, as runs per second.

Plans ``domains/soda.bbt`` to each target once, then times the runs of
fresh executors (so every repeat builds its own memo) and prints the
fastest repeat, one line per tree.  The 0.999 tree is long-tailed: a few
runs retry for many ticks after the others end.  Planning, loading and
simulating are left out.

Usage: python3 scripts/exec_rate.py [--runs 20000] [--seed 42] [--repeats 5]
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from bbt import (
    ClassicRuns,
    LeafProgram,
    Status,
    ground,
    parse_domain,
    plan_request_from_domain,
    refine_tree,
)
from bbt.tree import TreeTables

REPO = Path(__file__).resolve().parent.parent


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    text = (REPO / "domains" / "soda.bbt").read_text(encoding="utf-8")
    domain = ground(parse_domain(text))
    for prob in (None, 0.999):
        request = plan_request_from_domain(domain, target_probability=prob)
        program = LeafProgram(TreeTables(refine_tree(request).tree))
        best = float("inf")
        for _ in range(args.repeats):
            runs = ClassicRuns(program, domain.initial_assignment)
            start = time.perf_counter()
            successes, success = 0, Status.S
            for status in runs.statuses(args.seed, range(args.runs)):
                successes += status is success
            best = min(best, time.perf_counter() - start)
        print(
            f"prob {prob or 'goal'} runs {args.runs} successes {successes}"
            f" best {best:.4f} s {args.runs / best:.0f} runs/s"
        )


if __name__ == "__main__":
    main()
