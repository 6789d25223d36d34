#!/usr/bin/env python3
"""Compare exact belief-space probabilities against Monte Carlo rates.

Plans a domain, then runs batches of sampled executions under several seeds
and prints the deviation of each batch from the analytical value in units of
the binomial standard error.

Usage: python scripts/cross_validate.py [--domain PATH] [--runs N] [--seeds K]
"""

import argparse
from pathlib import Path

from bbt import (
    ClassicRuns,
    LeafProgram,
    Status,
    ground,
    parse_domain,
    plan_request_from_domain,
    refine_tree,
    simulate,
)

REPO = Path(__file__).resolve().parent.parent


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--domain", type=Path, default=REPO / "domains" / "soda.bbt")
    parser.add_argument("--runs", type=int, default=20000)
    parser.add_argument("--seeds", type=int, default=5)
    args = parser.parse_args()

    domain = ground(parse_domain(args.domain.read_text(encoding="utf-8")))
    result = refine_tree(plan_request_from_domain(domain))
    replay = simulate(result.tree, domain.initial_belief())
    analytical = replay.terminal.success_probability()
    # compiled and memoised once: every run of every seed shares the trie
    runs = ClassicRuns(LeafProgram(replay.tables), domain.initial_assignment)
    stderr = (analytical * (1 - analytical) / args.runs) ** 0.5
    print(f"analytical success probability {analytical:.6f}")
    print(f"binomial standard error at n={args.runs}: {stderr:.6f}")
    print("seed\tempirical\tdeviation/se")
    for seed in range(args.seeds):
        hits = sum(status is Status.S for status in runs.statuses(seed, range(args.runs)))
        rate = hits / args.runs
        sigmas = (rate - analytical) / stderr if stderr else 0.0
        print(f"{seed}\t{rate:.6f}\t{sigmas:+.2f}")


if __name__ == "__main__":
    main()
