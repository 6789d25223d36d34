"""Count and time the library's workloads in-process, one line per workload;
with ``--out FILE``, also write them as a JSON record.

The workloads call the library directly, outside ``perfbench/run.py``:

- ``plan-*``: ``refine_tree`` on soda at 0.99 and 0.999, on the
  ``tests/deepgen.py`` domain of 6 objects at 0.99, and on the
  ``perfbench/widegen.py`` domains of 24, 96, 192 and 384 items (seed 0) at
  their goal, then ``simulate`` on the planned tree;
- ``exec-*``: ``ClassicRuns.statuses`` on the soda trees planned to the
  goal and to 0.999, 20,000 runs at seed 42, a fresh memo per repeat;
- ``load-*``: ``parse_domain`` and ``ground`` on soda, wide-24 and wide-96.

The counters are exact and come from one untimed, counted run
(:func:`counted`, through which ``tests/test_counters.py`` reads its pins
too).  A plan workload counts, while planning, the rounds, the root ticks
executed (those that tick at least one unseen state), the belief entries
they tick (``entries_ticked``), the node visits (``engine._tick`` calls)
and the ``get`` calls on the root's gate table; then the final
simulation's ``ticks_used``, terminal entries, physical states built,
entries ticked and node visits (``simulate_entries_ticked``,
``simulate_visits``).  An exec workload counts its successes, a load
workload the grounded literals and resolvers.

Each time is taken over ``--repeats`` repeats and printed as
``best/median ms`` per call; a load repeat makes 20 calls.  The record
holds the commit (``git rev-parse HEAD`` when it was written), the
interpreter, the CPU count, whether ``bbt/engine.py``'s bytecode cache file
exists, and per workload its counters and the best, median and
interquartile range (nearest-rank quartiles) of each time, in seconds.

Usage: PYTHONPATH=src python3 scripts/bench.py [--repeats 5] [--out BENCH_<PR>.json]
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

from bbt import (
    ClassicRuns,
    LeafProgram,
    PhysicalState,
    Status,
    engine,
    ground,
    parse_domain,
    plan_request_from_domain,
    refine_tree,
    simulate,
)
from bbt.tree import TreeTables

REPO = Path(__file__).resolve().parent.parent
SUITE = "bbt library workloads of scripts/bench.py, not perfbench/run.py's"
WIDE_SIZES = (24, 96, 192, 384)
DEEP_OBJECTS = 6
EXEC_RUNS = 20000
EXEC_SEED = 42
LOAD_LOOPS = 20
# above the rounds of every plan workload (wide-384 takes 773)
MAX_ITERATIONS = 1000


def load_module(path: Path):
    """The module of the source file ``path``, which is not on the import path."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def counted(call):
    """``call()`` and its counts: the root ticks and the belief entries they tick,
    the node visits, the root gate reads and the physical states built."""
    counts = dict.fromkeys(
        ("root_ticks", "entries_ticked", "visits", "gate_reads", "states_built"), 0
    )
    belief_tick, visit, file_all = engine.belief_tick, engine._tick, TreeTables._file_all
    init, derived = PhysicalState.__init__, PhysicalState._derived

    class Gates(dict):
        def get(self, key, default=None):
            counts["gate_reads"] += 1
            return dict.get(self, key, default)

    def tick(node, mem, *args):
        mem = list(mem)
        counts["root_ticks"] += 1
        counts["entries_ticked"] += len(mem)
        return belief_tick(node, mem, *args)

    def filed(self):
        file_all(self)
        self.gates = Gates(self.gates)

    def counting(key, method):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return method(*args, **kwargs)

        return wrapper

    # simulate runs each root tick through the module binding belief_tick,
    # the tick recurses through _tick, and every state is built by the
    # constructor or derived by _derived
    engine.belief_tick, engine._tick = tick, counting("visits", visit)
    TreeTables._file_all = filed
    PhysicalState.__init__ = counting("states_built", init)
    PhysicalState._derived = counting("states_built", derived)
    try:
        return call(), counts
    finally:
        engine.belief_tick, engine._tick, TreeTables._file_all = belief_tick, visit, file_all
        PhysicalState.__init__, PhysicalState._derived = init, derived


def timed(call, repeats: int, loops: int = 1) -> dict[str, float]:
    """Best, median and IQR of ``repeats`` repeats of ``loops`` calls, in seconds per call."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            call()
        samples.append((time.perf_counter() - start) / loops)
    samples.sort()
    iqr = samples[3 * len(samples) // 4] - samples[len(samples) // 4]
    return {"best": samples[0], "median": statistics.median(samples), "iqr": iqr}


def plan(domain, prob, repeats: int):
    """The counters and times of planning ``domain`` to ``prob`` and simulating the plan."""
    request = plan_request_from_domain(domain, prob, max_iterations=MAX_ITERATIONS)
    result, planned = counted(lambda: refine_tree(request))
    initial = domain.initial_belief()
    replay, simulated = counted(lambda: simulate(result.tree, initial))
    counters = {
        "rounds": len(result.log),
        "root_ticks": planned["root_ticks"],
        "entries_ticked": planned["entries_ticked"],
        "visits": planned["visits"],
        "gate_reads": planned["gate_reads"],
        "ticks_used": replay.ticks_used,
        "terminal_entries": len(replay.terminal),
        "states_built": simulated["states_built"],
        "simulate_entries_ticked": simulated["entries_ticked"],
        "simulate_visits": simulated["visits"],
    }
    times = {
        "refine_tree": timed(lambda: refine_tree(request), repeats),
        "simulate": timed(lambda: simulate(result.tree, initial), repeats),
    }
    return counters, times


def execute(domain, prob, repeats: int):
    """The counters and times of the Monte Carlo runs of ``domain``'s tree planned to ``prob``."""
    program = LeafProgram(TreeTables(refine_tree(plan_request_from_domain(domain, prob)).tree))

    def successes():
        runs = ClassicRuns(program, domain.initial_assignment)
        return [*runs.statuses(EXEC_SEED, range(EXEC_RUNS))].count(Status.S)

    return {"runs": EXEC_RUNS, "successes": successes()}, {"statuses": timed(successes, repeats)}


def load(text: str, repeats: int):
    """The counters and per-call times of parsing and grounding ``text``."""
    spec = parse_domain(text)
    domain = ground(spec)
    counters = {"literals": len(domain.literals), "resolvers": len(domain.resolvers())}
    times = {
        "parse_domain": timed(lambda: parse_domain(text), repeats, LOAD_LOOPS),
        "ground": timed(lambda: ground(spec), repeats, LOAD_LOOPS),
    }
    return counters, times


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    widegen = load_module(REPO / "perfbench" / "widegen.py")
    deepgen = load_module(REPO / "tests" / "deepgen.py")
    texts = {
        "soda": (REPO / "domains" / "soda.bbt").read_text(encoding="utf-8"),
        "deep-6": deepgen.generate(DEEP_OBJECTS),
        **{f"wide-{size}": widegen.generate(size, 0) for size in WIDE_SIZES},
    }
    domains = {name: ground(parse_domain(text)) for name, text in texts.items()}
    runs = [
        ("plan-soda-0.99", plan, domains["soda"], 0.99),
        ("plan-soda-0.999", plan, domains["soda"], 0.999),
        ("plan-deep-6-0.99", plan, domains["deep-6"], 0.99),
        *((f"plan-wide-{size}", plan, domains[f"wide-{size}"], None) for size in WIDE_SIZES),
        ("exec-soda-goal", execute, domains["soda"], None),
        ("exec-soda-0.999", execute, domains["soda"], 0.999),
        *((f"load-{name}", load, texts[name]) for name in ("soda", "wide-24", "wide-96")),
    ]
    workloads = {}
    for name, run, *inputs in runs:
        counters, times = run(*inputs, args.repeats)
        workloads[name] = {"counters": counters, "times_s": times}
        fields = [f"{key} {value}" for key, value in counters.items()]
        fields += [
            f"{key} {t['best'] * 1e3:.3f}/{t['median'] * 1e3:.3f} ms" for key, t in times.items()
        ]
        print(name, *fields)
    if args.out is None:
        return
    # None outside a git checkout
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True)
    record = {
        "suite": SUITE,
        "commit": git.stdout.strip() or None,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "cpu_count": os.cpu_count(),
        "pyc": Path(engine.__cached__).exists(),
        "repeats": args.repeats,
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
