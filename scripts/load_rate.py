"""Time the domain front end in-process: ``parse_domain`` and ``ground`` on
``domains/soda.bbt`` and on the ``perfbench/widegen.py`` domains of 24 and 96
items (seed 0).

Each step is timed as the fastest of ``--repeats`` repeats of ``--loops``
calls and printed per call, one line per domain.  ``parse_domain`` covers
tokenizing, parsing and validation; ``ground`` grounds the spec it returned.

Usage: python3 scripts/load_rate.py [--repeats 5] [--loops 20]
"""

from __future__ import annotations

import argparse
import importlib.util
import time
from pathlib import Path

from bbt import ground, parse_domain

REPO = Path(__file__).resolve().parent.parent


def _widegen():
    spec = importlib.util.spec_from_file_location("widegen", REPO / "perfbench" / "widegen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def best_ms(call, repeats: int, loops: int) -> float:
    """The fastest of ``repeats`` repeats of ``loops`` calls, in ms per call."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            call()
        best = min(best, time.perf_counter() - start)
    return best / loops * 1e3


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--loops", type=int, default=20)
    args = parser.parse_args()
    widegen = _widegen()
    texts = {
        "soda": (REPO / "domains" / "soda.bbt").read_text(encoding="utf-8"),
        "wide-24": widegen.generate(24, 0),
        "wide-96": widegen.generate(96, 0),
    }
    for name, text in texts.items():
        spec = parse_domain(text)
        domain = ground(spec)
        parse_ms = best_ms(lambda: parse_domain(text), args.repeats, args.loops)
        ground_ms = best_ms(lambda: ground(spec), args.repeats, args.loops)
        print(
            f"{name} literals {len(domain.literals)} resolvers {len(domain.resolvers())}"
            f" parse_domain {parse_ms:.4f} ms ground {ground_ms:.4f} ms"
        )


if __name__ == "__main__":
    main()
