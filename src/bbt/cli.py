"""Command-line surface: plan, simulate, exec, and export-dot subcommands.

Exit codes: 0 success, 1 file/parse errors and invalid arguments, 2
planning failures, 3 simulation limits.  ``BBT_LOG`` (error|info|debug),
read by each :func:`main` call, controls diagnostics on standard error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from .classic import ClassicRuns, LeafProgram
from .domain import GroundedDomain, ground, parse_domain
from .dot import to_dot
from .engine import SimulationLimits, simulate
from .errors import (
    BbtError,
    EmptyGoal,
    EntryLimitExceeded,
    IterationLimit,
    NoResolver,
    NothingFailed,
    TickLimitExceeded,
    UnresolvableThreat,
)
from .planner import plan_request_from_domain, refine_tree
from .status import Status
from .treefile import load_tree, save_tree

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PLANNING = 2
EXIT_LIMITS = 3

_PLANNING_ERRORS = (EmptyGoal, NoResolver, NothingFailed, IterationLimit, UnresolvableThreat)
_LIMIT_ERRORS = (TickLimitExceeded, EntryLimitExceeded)
_LEVELS = {"info": 1, "debug": 2}


def _say(line: str) -> None:
    """Print ``line`` on the ``sys.stderr`` of the moment; drop it if that cannot be written."""
    try:
        print(line, file=sys.stderr)
    except OSError:
        pass


def _load_domain(args) -> GroundedDomain:
    try:
        # newline="" keeps every "\r", so positions match parse_domain's on the same text
        with open(args.domain, encoding="utf-8", newline="") as file:
            text = file.read()
    except UnicodeDecodeError:
        raise BbtError(f"{args.domain}: not UTF-8 text") from None
    return ground(parse_domain(text))


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as file:
        file.write(text)


def _limits(args) -> SimulationLimits:
    """The simulation budgets of ``args``; rejects those that cannot mean anything."""
    for flag, value in (("--max-ticks", args.max_ticks), ("--max-entries", args.max_entries)):
        if value < 1:
            raise BbtError(f"{flag} must be at least 1, got {value}")
    if not (math.isfinite(args.prune_epsilon) and 0.0 <= args.prune_epsilon < 1.0):
        raise BbtError(f"--prune-epsilon must be finite and in [0, 1), got {args.prune_epsilon!r}")
    return SimulationLimits(
        max_root_ticks=args.max_ticks,
        max_entries=args.max_entries,
        prune_epsilon=args.prune_epsilon,
    )


def cmd_plan(args, level) -> int:
    limits = _limits(args)
    if args.prob is not None and not 0.0 < args.prob <= 1.0:
        raise BbtError(f"--prob must be in (0, 1], got {args.prob!r}")
    domain = _load_domain(args)
    request = plan_request_from_domain(domain, target_probability=args.prob, limits=limits)
    result = refine_tree(request)
    save_tree(result.tree, args.out)
    for line in result.log_lines():
        print(line)
    if args.dot:
        _write(args.dot, to_dot(result.tree))
    if level:
        reached = f"{result.achieved:.6f} in {len(result.log)} iterations"
        _say(f"INFO bbt.cli: plan reached probability {reached}")
    return EXIT_OK


def cmd_simulate(args, level) -> int:
    limits = _limits(args)
    domain = _load_domain(args)
    tree = load_tree(args.tree, domain)
    result = simulate(tree, domain.initial_belief(), limits)
    if level == 2:
        for tick, (ended, pending) in enumerate(result.flow, 1):
            _say(f"DEBUG bbt.cli: tick {tick} ended {ended:.6f} pending {pending:.6f}")
    for line in result.terminal.debug_lines(result.tables):
        print(line)
    if result.pruned_mass > 0.0:
        print(f"unresolved_mass {result.pruned_mass:.6f}")
    print(f"success_probability {result.terminal.success_probability():.6f}")
    return EXIT_OK


def cmd_exec(args, level) -> int:
    limits = _limits(args)
    if args.runs < 1:
        raise BbtError(f"--runs must be at least 1, got {args.runs}")
    domain = _load_domain(args)
    tree = load_tree(args.tree, domain)
    analytical = simulate(tree, domain.initial_belief(), limits)
    runs = ClassicRuns(LeafProgram(analytical.tables), domain.initial_assignment)
    successes, success = 0, Status.S
    for status in runs.statuses(args.seed, range(args.runs), args.max_ticks):
        successes += status is success
    rate = successes / args.runs
    print(f"runs {args.runs}")
    print(f"empirical_success_rate {rate:.6f}")
    if analytical.pruned_mass > 0.0:
        print(f"unresolved_mass {analytical.pruned_mass:.6f}")
    print(f"analytical_success_probability {analytical.terminal.success_probability():.6f}")
    return EXIT_OK


def cmd_export_dot(args, level) -> int:
    domain = _load_domain(args)
    tree = load_tree(args.tree, domain)
    text = to_dot(tree)
    if args.out:
        _write(args.out, text)
    else:
        print(text, end="")
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    defaults = SimulationLimits()
    parser.add_argument("--domain", required=True, help="domain definition file")
    parser.add_argument(
        "--max-ticks", type=int, default=defaults.max_root_ticks, help="root tick budget"
    )
    parser.add_argument(
        "--max-entries", type=int, default=defaults.max_entries, help="belief entry budget"
    )
    parser.add_argument(
        "--prune-epsilon",
        type=float,
        default=defaults.prune_epsilon,
        help="drop belief entries below this mass (reported, not renormalized)",
    )


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors end like any other invalid input.

    argparse prints a usage block and exits 2, the planning-failure code;
    this parser raises instead, so :func:`main` prints one line and
    returns 1.  Its subcommand parsers are of the same class.
    """

    def error(self, message: str):
        raise BbtError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built on the first call and shared by later ones.

    Parsing leaves it unchanged, and argparse reads the help width when it
    formats, so one parser serves every :func:`main` call in a process.
    """
    parser = _Parser(
        prog="bbt",
        description="Belief behavior trees: plan, simulate, execute, export.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="synthesize a tree for the domain's goal")
    _add_common(plan)
    plan.add_argument("--out", required=True, help="tree file to write")
    plan.add_argument("--dot", help="also write a DOT rendering here")
    plan.add_argument("--prob", type=float, help="override the domain's goal probability")
    plan.set_defaults(func=cmd_plan)

    simulate_cmd = sub.add_parser("simulate", help="exact belief-space simulation of a tree")
    _add_common(simulate_cmd)
    simulate_cmd.add_argument("--tree", required=True, help="tree file to simulate")
    simulate_cmd.set_defaults(func=cmd_simulate)

    exec_cmd = sub.add_parser("exec", help="Monte Carlo execution with sampled outcomes")
    _add_common(exec_cmd)
    exec_cmd.add_argument("--tree", required=True, help="tree file to execute")
    exec_cmd.add_argument("--seed", type=int, required=True, help="64-bit seed")
    exec_cmd.add_argument("--runs", type=int, required=True, help="number of runs")
    exec_cmd.set_defaults(func=cmd_exec)

    # export-dot never simulates, so it takes no budgets
    export = sub.add_parser("export-dot", help="render a tree file as Graphviz DOT")
    export.add_argument("--domain", required=True, help="domain definition file")
    export.add_argument("--tree", required=True, help="tree file to render")
    export.add_argument("--out", help="output path (stdout when omitted)")
    export.set_defaults(func=cmd_export_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one CLI command; return its exit code.

    ``BBT_LOG`` is read on each call.  At ``info``, ``plan`` writes the
    probability it reached; at ``debug``, ``simulate`` also writes each
    root tick's flow; at any other value the call writes only failures.
    Every line goes to the standard error stream of the moment, and a line
    that stream cannot take is dropped, so the exit code stands.
    """
    level = _LEVELS.get(os.environ.get("BBT_LOG", "").lower(), 0)
    try:
        args = build_parser().parse_args(argv)
        return args.func(args, level)
    except _PLANNING_ERRORS as exc:
        _say(f"planning failed: {exc}")
        return EXIT_PLANNING
    except _LIMIT_ERRORS as exc:
        _say(f"simulation limit: {exc}")
        return EXIT_LIMITS
    except (BbtError, OSError) as exc:
        _say(f"error: {exc}")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
