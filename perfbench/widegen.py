"""Seeded generator of wide bbt domains: many independent items, few outcomes.

Each of ``size`` items needs ``grab(tool)`` for its seeded tool, then its own
``prepare_<item>``, then ``finish(item)``; the goal is every ``done(item) = S``
in a seeded item order.  ``FAILING`` items give ``prepare`` a failure
outcome, so the planner also inserts retries.  The planned tree grows with
``size`` while belief entries stay few, which is the opposite of the deep
soda plan.

The failing items sit at fixed, evenly spaced goal positions: where the
belief splits sets how many entries every later tick carries, so fixing the
positions keeps the work per seed the same while names, order and tools vary.
The text is a pure function of ``(size, seed)`` and does not import bbt.

Usage: python3 perfbench/widegen.py [--size N] [--seed S]
"""

from __future__ import annotations

import argparse
import random

DEFAULT_SIZE = 24
TOOLS = 3
FAILING = 2
PREPARE_SUCCESS = 0.8
GOAL_PROBABILITY = 0.9


def generate(size: int = DEFAULT_SIZE, seed: int = 0) -> str:
    """Domain text for ``size`` items; same arguments, byte-identical text."""
    if size < FAILING:
        raise ValueError(f"size must be at least {FAILING}, got {size}")
    rng = random.Random(seed)
    items = [f"i{k:02d}" for k in range(size)]
    rng.shuffle(items)
    tools = [f"t{k}" for k in range(TOOLS)]
    owner = {item: rng.choice(tools) for item in items}
    failing = {items[(k + 1) * size // (FAILING + 1)] for k in range(FAILING)}
    lines = [
        f"# wide domain: size {size}, seed {seed}",
        f"param tool {{ {' '.join(tools)} }}",
        f"param item {{ {' '.join(items)} }}",
        "",
        "condition holding(tool) values { S F }",
        "condition prepared(item) values { S F }",
        "condition done(item) values { S F }",
        "",
        "action grab(tool) {",
        "  pre { }",
        "  outcome 1 -> S { holding(tool) = S }",
        "}",
        "",
        "action finish(item) {",
        "  pre { prepared(item) = S }",
        "  outcome 1 -> S { done(item) = S }",
        "}",
    ]
    for item in items:
        lines += ["", f"action prepare_{item} {{", f"  pre {{ holding({owner[item]}) = S }}"]
        if item in failing:
            lines += [
                f"  outcome {PREPARE_SUCCESS} -> S {{ prepared({item}) = S }}",
                f"  outcome {1 - PREPARE_SUCCESS:.1f} -> F {{ }}",
            ]
        else:
            lines.append(f"  outcome 1 -> S {{ prepared({item}) = S }}")
        lines.append("}")
    goal = " ; ".join(f"done({item}) = S" for item in items)
    lines += ["", f"goal {{ {goal} }} prob {GOAL_PROBABILITY}"]
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=DEFAULT_SIZE)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    print(generate(args.size, args.seed), end="")
