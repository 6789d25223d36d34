#!/usr/bin/env python3
"""bbt benchmark: closed-loop CLI ops on three workloads, one process each.

Usage (from the repository root):

    python3 perfbench/run.py --workload plan-soda-deep --seed 1 --seconds 30 --trace 0

One op runs ``bbt plan``, then ``bbt simulate`` of the tree the plan wrote,
then ``bbt exec`` of that tree, each through ``bbt.cli.main(argv)`` in this
process with its output captured and checked; the next op starts when the
previous one returns.  ``--trace 0`` prints the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` measures untraced for half the time and traced
for the other half, and prints the per-layer metrics.  The last line of
standard output is the result object; the line before it holds the recorded
figures (tails, sample counts, counters, tracing overhead).  See NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))
import widegen  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 9
LOAD_REPEATS = 5
MAX_ITERATIONS = 64
EXEC_SIGMAS = 5.0
MASS_TOL = 1e-12
ACHIEVED_TOL = 1e-9

# `bbt plan` log of the deterministic soda variant (README and paper trace).
GOLDEN_DETERMINISTIC = [
    "1\tinsert\tseen(soda)\t0.000000",
    "2\tinsert\tluminousity_ok\t0.500000",
    "3\tinsert\tseen(soda)\t0.875000",
    "4\tinsert\tseen(soda)\t0.968750",
]


@dataclass(frozen=True)
class Workload:
    domain: str  # "soda" or "wide"
    prob: str | None  # --prob for bbt plan; None keeps the domain's goal
    exec_runs: int
    achieved: float | None  # exact success probability at the seed commit


WORKLOADS = {
    # Belief blow-up: 2048 terminal entries, engine and belief do the work.
    "plan-soda-deep": Workload("soda", "0.999", 1000, 0.9992046412955161),
    # Many literals and nodes, few entries: per-node and planner overhead.
    "plan-wide": Workload("wide", None, 100, None),
    # Monte Carlo: classic ticks and rng draws; bypasses engine changes.
    "exec-soda": Workload("soda", None, 20000, 0.9620154296874999),
}


class SetupError(Exception):
    pass


class OpFailed(Exception):
    pass


TIMINGS = ("load_s", "plan_s", "simulate_s", "exec_runs_per_s")

# Timings are reported in nominal seconds: wall seconds scaled by
# REF_NOMINAL_S / (median time of reference_work() around the same op).
# The host switches between speed regimes about 1.6x apart, for seconds to
# minutes at a time; the reference, timed before the op and after each of
# its steps, cancels most of that.  Raw wall times are recorded next to them.
REF_NOMINAL_S = 0.010
REF_ITERATIONS = 1500


class _Slot:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def _walk(depth: int) -> int:
    return 0 if depth == 0 else 1 + _walk(depth - 1)


def reference_work() -> int:
    """Fixed work shaped like bbt's hot paths: small dicts, sorted tuples, hashing, recursion."""
    seen: dict[int, int] = {}
    for i in range(REF_ITERATIONS):
        state = {f"c{j}": (i >> j) & 3 for j in range(6)}
        slot = _Slot(tuple(sorted(state.items())), _walk(i & 7))
        seen[hash(slot.key)] = seen.get(hash(slot.key), 0) + slot.value
    return len(seen)


def reference_s() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def nominal(name: str, raw: float, ref: float) -> float:
    """Scale a raw timing (or a rate, for ``exec_runs_per_s``) to nominal seconds."""
    if name == "exec_runs_per_s":
        return raw * ref / REF_NOMINAL_S
    return raw * REF_NOMINAL_S / ref


@dataclass
class Context:
    workload: Workload
    seed: int
    work: Path
    domain_path: Path
    domain_text: str
    target: float
    sizes: dict
    modules: dict = field(default_factory=dict)
    fixture_tree: bytes | None = None
    first: tuple | None = None


@dataclass
class Phase:
    samples: dict = field(default_factory=lambda: {k: [] for k in TIMINGS})
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    layers: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    op_ref: float = REF_NOMINAL_S


def fresh_import() -> dict:
    """Import bbt from this checkout's ``src``, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "bbt" or n.startswith("bbt.")]:
        del sys.modules[name]
    try:
        cli = importlib.import_module("bbt.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import bbt from {ROOT / 'src'}: {exc}") from exc
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SetupError(f"bbt imported from {cli.__file__}, not from this checkout")
    return {name: sys.modules[f"bbt.{name}"] for name in ("cli", "domain", "planner", "treefile")}


def invoke(ctx: Context, argv: list[str]) -> tuple[list[str], float]:
    """Run one CLI verb in-process; return its stdout lines and wall time."""
    out, err = io.StringIO(), io.StringIO()
    main = ctx.modules["cli"].main  # looked up per call so tracing can wrap it
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
    if code != 0:
        raise OpFailed(f"bbt {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue().splitlines(), elapsed


def set_up(name: str, seed: int, work: Path) -> Context:
    """Import bbt, make the workload's domain, check the golden trace, build fixtures."""
    workload = WORKLOADS[name]
    modules = fresh_import()
    if workload.domain == "wide":
        text = widegen.generate(widegen.DEFAULT_SIZE, seed)
        if widegen.generate(widegen.DEFAULT_SIZE, seed) != text:
            raise SetupError("wide generator is not a pure function of (size, seed)")
        domain_path = work / "wide.bbt"
        domain_path.write_text(text, encoding="utf-8")
    else:
        domain_path = ROOT / "domains" / f"{workload.domain}.bbt"
        text = domain_path.read_text(encoding="utf-8")
    domain = modules["domain"]
    grounded = domain.ground(domain.parse_domain(text))
    target = float(workload.prob) if workload.prob is not None else grounded.goal_probability
    sizes = {"domain.literals": len(grounded.allowed_values),
             "domain.resolvers": len(grounded.resolvers())}
    ctx = Context(workload, seed, work, domain_path, text, target, sizes, modules)

    deterministic = ROOT / "domains" / "soda_deterministic.bbt"
    lines, _ = invoke(ctx, ["plan", "--domain", str(deterministic), "--out", str(work / "golden.json")])
    if lines != GOLDEN_DETERMINISTIC:
        raise SetupError(f"soda_deterministic trace changed: {lines}")

    if name == "exec-soda":
        planner = modules["planner"]
        result = planner.refine_tree(planner.plan_request_from_domain(grounded))
        if abs(result.achieved - workload.achieved) > ACHIEVED_TOL:
            raise SetupError(f"soda plans to {result.achieved!r}, expected {workload.achieved!r}")
        ctx.fixture_tree = modules["treefile"].dumps_tree(result.tree).encode()
    return ctx


def parse_plan(lines: list[str], target: float) -> str:
    """Check a plan log; return its final probability as printed."""
    if not lines or len(lines) > MAX_ITERATIONS:
        raise OpFailed(f"plan log has {len(lines)} iterations")
    printed = lines[-1].split("\t")[-1]
    if float(printed) < target - 1e-6:
        raise OpFailed(f"plan reached {printed}, below the goal {target}")
    return printed


def check_simulate(lines: list[str], printed: str) -> float:
    """Check masses sum to 1 and the probability matches the plan's; return it exactly."""
    masses, success = [], []
    for line in lines:
        if " | " not in line:
            continue
        fields = line.split(" | ")
        masses.append(float(fields[0]))
        if fields[2] == "r=S":
            success.append(float(fields[0]))
    if abs(math.fsum(masses) - 1.0) > MASS_TOL:
        raise OpFailed(f"simulate masses sum to {math.fsum(masses)!r}")
    if lines[-1] != f"success_probability {printed}":
        raise OpFailed(f"simulate printed {lines[-1]!r}, plan reached {printed}")
    return math.fsum(success)


def check_exec(lines: list[str], runs: int, printed: str, exact: float) -> None:
    values = dict(line.split(" ", 1) for line in lines)
    if values.get("runs") != str(runs) or values.get("analytical_success_probability") != printed:
        raise OpFailed(f"exec printed {lines}")
    empirical = float(values["empirical_success_rate"])
    sigma = math.sqrt(exact * (1.0 - exact) / runs)
    if abs(empirical - exact) > EXEC_SIGMAS * sigma + 1e-6:
        raise OpFailed(f"exec rate {empirical} is over {EXEC_SIGMAS} SE from {exact!r}")


def run_op(ctx: Context, op: int, phase: Phase) -> None:
    """One closed-loop op: parse+ground, plan, simulate, exec; raise on a wrong output."""
    w, work, domain = ctx.workload, ctx.work, str(ctx.domain_path)
    tree, dot = work / "tree.json", work / "tree.dot"
    refs, steps = [reference_s()], []
    try:
        domain_mod = ctx.modules["domain"]
        for _ in range(LOAD_REPEATS):
            start = time.perf_counter()
            domain_mod.ground(domain_mod.parse_domain(ctx.domain_text))
            steps.append(("load_s", time.perf_counter() - start))
        refs.append(reference_s())
        argv = ["plan", "--domain", domain, "--out", str(tree), "--dot", str(dot)]
        if w.prob is not None:
            argv += ["--prob", w.prob]
        plan_lines, seconds = invoke(ctx, argv)
        steps.append(("plan_s", seconds))
        refs.append(reference_s())
        sim_lines, seconds = invoke(ctx, ["simulate", "--domain", domain, "--tree", str(tree)])
        steps.append(("simulate_s", seconds))
        refs.append(reference_s())
        exec_argv = ["exec", "--domain", domain, "--tree", str(tree), "--seed", str(ctx.seed + op),
                     "--runs", str(w.exec_runs)]
        exec_lines, seconds = invoke(ctx, exec_argv)
        steps.append(("exec_runs_per_s", w.exec_runs / seconds))
        refs.append(reference_s())
    finally:
        phase.op_ref = statistics.median(refs)
        for name, raw in steps:
            phase.samples[name].append((raw, phase.op_ref))

    printed = parse_plan(plan_lines, ctx.target)
    exact = check_simulate(sim_lines, printed)
    if w.achieved is not None and abs(exact - w.achieved) > ACHIEVED_TOL:
        raise OpFailed(f"achieved {exact!r}, expected {w.achieved!r}")
    check_exec(exec_lines, w.exec_runs, printed, exact)
    outputs = (plan_lines, tree.read_bytes(), dot.read_bytes(), sim_lines)
    if ctx.fixture_tree is not None and outputs[1] != ctx.fixture_tree:
        raise OpFailed("planned tree differs from the set-up fixture")
    if ctx.first is None:
        ctx.first = outputs
        phase.outputs = {
            "iterations": len(plan_lines),
            "achieved": printed,
            "terminal_entries": sum(" | " in line for line in sim_lines),
        }
    elif outputs != ctx.first:
        raise OpFailed("plan, tree, DOT or simulate output differs from the run's first op")


def measure(ctx: Context, seconds: float, tracer: Tracer | None = None) -> Phase:
    phase = Phase()
    deadline = time.perf_counter() + seconds
    op = 0
    while op == 0 or time.perf_counter() < deadline:
        root = tracer.begin_op(op) if tracer else -1
        try:
            run_op(ctx, op, phase)
        except OpFailed as exc:
            phase.failed += 1
            phase.errors.append(f"op {op}: {exc}")
        except Exception as exc:  # an op that crashes counts as failed; keep measuring
            phase.failed += 1
            phase.errors.append(f"op {op}: {type(exc).__name__}: {exc}")
        finally:
            if tracer:
                tracer.close(root)
        if tracer:
            metrics, residual = tracer.op_metrics(root)
            scale = REF_NOMINAL_S / phase.op_ref
            phase.layers.append({
                name: value * scale if name.endswith(("_s", ".s")) else value
                for name, value in metrics.items()
            })
            phase.residuals.append(residual)
        phase.attempted += 1
        op += 1
    return phase


def tail(values: list[float], higher_is_better: bool) -> dict | None:
    """The worst-side percentile that still has at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values, reverse=higher_is_better)
    return {"pct": 100.0 * (n - 10) / n, "value": ordered[n - 11]}


def summary(phase: Phase) -> dict:
    """Per timing: nominal median and tail, raw wall-time median and tail, sample count."""
    out = {}
    for name, pairs in phase.samples.items():
        higher = name == "exec_runs_per_s"
        raw = [r for r, _ in pairs]
        norm = [nominal(name, r, ref) for r, ref in pairs]
        out[name] = {
            "median": statistics.median(norm) if norm else None,
            "tail": tail(norm, higher),
            "raw_median": statistics.median(raw) if raw else None,
            "raw_tail": tail(raw, higher),
            "n": len(pairs),
            "samples": norm,
        }
    return out


def program_digest() -> str:
    """Hash of the code and data a run depends on, to key stored counters."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "domains").glob("*.bbt"),
                        *BENCH.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


COUNTERS = (
    "planner.iterations", "engine.root_ticks", "engine.terminal_entries",
    "engine.peak_live_entries", "belief.physical_state.constructed",
    "belief.coalesce.entries_in", "belief.coalesce.entries_out",
    "classic.root_ticks", "rng.draws",
)

SPLITS = {
    "plan-soda-deep": ("engine.peak_live_entries >= 1000 and planner.iterations < 10",
                       lambda m: m["engine.peak_live_entries"] >= 1000 and m["planner.iterations"] < 10),
    "plan-wide": ("engine.peak_live_entries <= 16 and planner.iterations >= 40",
                  lambda m: m["engine.peak_live_entries"] <= 16 and m["planner.iterations"] >= 40),
    "exec-soda": ("engine.simulate time < 5% of the op",
                  lambda m: m["engine.share"] < 0.05),
}


def check_counters(name: str, seed: int, counters: dict) -> str | None:
    """Compare op 0's counters with an earlier traced run of the same seed and program."""
    path = OUT / "counters" / f"{name}-s{seed}-{program_digest()}.json"
    if path.exists():
        stored = json.loads(path.read_text(encoding="utf-8"))
        if stored != counters:
            return f"counters differ from an earlier run of seed {seed}: {stored} != {counters}"
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counters, sort_keys=True), encoding="utf-8")
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="bbt benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    os.environ.pop("BBT_LOG", None)
    sys.path.insert(0, str(ROOT / "src"))

    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setups, refs = [], [reference_s()]
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            ctx = set_up(args.workload, args.seed, work)
            setups.append(time.perf_counter() - start)
            refs.append(reference_s())
        setup_nominal = [nominal("setup_s", t, statistics.median(refs)) for t in setups]
        if not args.trace:
            phase = measure(ctx, args.seconds)
            stats = summary(phase)
            values = {name: stats[name]["median"] for name in TIMINGS}
            values["setup_s"] = statistics.median(setup_nominal)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics_spec, traced = spec["end_to_end"], None
            correct_extra = None
        else:
            phase = measure(ctx, args.seconds / 2)
            stats = summary(phase)
            tracer = Tracer()
            tracer.install()
            try:
                traced = measure(ctx, args.seconds / 2, tracer)
            finally:
                tracer.restore()
            tracer.dump(OUT / f"spans-{args.workload}.json")
            values = {
                name: statistics.median(m[name] for m in traced.layers) for name in traced.layers[0]
            }
            values.update(ctx.sizes)
            counters = {name: traced.layers[0][name] for name in COUNTERS}
            correct_extra = check_counters(args.workload, args.seed, counters)
            metrics_spec = spec["per_layer"]
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = phase.attempted + (traced.attempted if traced else 0)
    failed = phase.failed + (traced.failed if traced else 0)
    recorded = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": {"median": statistics.median(setup_nominal), "samples": setup_nominal,
                    "raw_samples": setups},
        "timings": stats,
        "outputs": phase.outputs,
        "error_rate": failed / attempted,
        "errors": (phase.errors + (traced.errors if traced else []))[:5],
    }
    if traced:
        traced_stats = summary(traced)
        recorded["trace"] = {
            "counters": counters,
            "counters_check": correct_extra or "ok",
            "overhead": {
                name: traced_stats[name]["median"] - stats[name]["median"]
                for name in ("plan_s", "simulate_s", "exec_runs_per_s")
                if stats[name]["n"] and traced_stats[name]["n"]
            },
            "traced_timings": traced_stats,
            "self_time_residual_max_s": max(abs(r) for r in traced.residuals),
            "split": {"claim": SPLITS[args.workload][0],
                      "holds": SPLITS[args.workload][1](values)},
            "engine_share": values["engine.share"],
            "harness_self_share": values["op.self_s"] / values["op.wall_s"],
            "missing_bindings": tracer.missing,
        }
    if correct_extra:
        print(correct_extra, file=sys.stderr)
    for error in recorded["errors"]:
        print(error, file=sys.stderr)
    print(json.dumps({"recorded": recorded}))
    result = {
        "correct": failed == 0 and correct_extra is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics_spec},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
