"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time

from bbt.belief import BeliefState, PhysicalState
from bbt.classic import ClassicRuns, LeafProgram
from bbt.cli import main
from bbt.domain import ground, parse_domain
from bbt.engine import belief_tick, simulate
from bbt.planner import plan_request_from_domain, refine_tree
from bbt.status import Status
from bbt.tree import ActionNode, TreeTables
from bbt.treefile import dumps_tree

import oracle
import randgen
from helpers import serialize_domain

MASS_TOL = 1e-12


def report(n: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {n} ({name}): {verdict}{' — ' + detail if detail else ''}")
    assert ok, f"criterion {n} ({name}): {detail}"


def test_criterion_1_reference_trace(soda_det_domain):
    start = time.perf_counter()
    result = refine_tree(plan_request_from_domain(soda_det_domain))
    elapsed = time.perf_counter() - start
    initial = soda_det_domain.initial_assignment
    setup_ok = (
        initial["seen(soda)"] is Status.R
        and initial["at(table1)"] is Status.F
        and initial["at(table2)"] is Status.F
        and initial["luminousity_ok"] is Status.F
        and soda_det_domain.goal == (("seen(soda)", Status.S),)
    )
    probabilities = [record.probability for record in result.log]
    milestones = probabilities[-3:]
    trace_ok = (
        len(milestones) == 3
        and abs(milestones[0] - 0.5) <= 1e-9
        and abs(milestones[1] - 0.875) <= 1e-9
        and abs(milestones[2] - 0.96875) <= 1e-9
        and abs(result.achieved - 0.96875) <= 1e-9
    )
    ok = setup_ok and trace_ok and elapsed < 1.0
    report(
        1,
        "reference trace, deterministic goto",
        ok,
        f"probabilities={['%.6f' % p for p in probabilities]} in {elapsed:.3f}s",
    )


def test_criterion_2_stochastic_goto_oracle(soda_domain, planned_stochastic):
    start = time.perf_counter()
    tree = planned_stochastic.tree
    depth = max(TreeTables(tree).depth.values())
    goto = soda_domain.actions_by_id["goto(table1)"]
    prob_ok = goto.outcomes[0].probability == 0.95
    expected = oracle.enumerate_terminals(tree, soda_domain.initial_assignment)
    result = simulate(tree, soda_domain.initial_belief())
    actual = oracle.simulation_to_terminals(result)
    keys = set(expected) | set(actual)
    worst = max(abs(expected.get(k, 0.0) - actual.get(k, 0.0)) for k in keys)
    elapsed = time.perf_counter() - start
    ok = prob_ok and worst <= MASS_TOL and depth <= 6 and elapsed < 10.0
    report(
        2,
        "exhaustive oracle, stochastic goto",
        ok,
        f"worst mass delta {worst:.2e}, depth {depth}, {elapsed:.2f}s",
    )


def test_criterion_3_monte_carlo(tmp_path, soda_path, planned_stochastic, capsys):
    start = time.perf_counter()
    tree_path = tmp_path / "tree.json"
    tree_path.write_text(dumps_tree(planned_stochastic.tree), encoding="utf-8")
    runs = 100000
    code = main(
        [
            "exec",
            "--domain",
            str(soda_path),
            "--tree",
            str(tree_path),
            "--seed",
            "42",
            "--runs",
            str(runs),
        ]
    )
    out = capsys.readouterr().out.splitlines()
    elapsed = time.perf_counter() - start
    empirical = float(out[1].split()[1])
    analytical = float(out[2].split()[1])
    bound = 3 * (analytical * (1 - analytical) / runs) ** 0.5
    ok = code == 0 and abs(empirical - analytical) <= bound and elapsed < 30.0
    with capsys.disabled():
        report(
            3,
            "Monte Carlo cross-validation",
            ok,
            f"|{empirical:.6f} - {analytical:.6f}| <= {bound:.6f}, {elapsed:.1f}s",
        )


def test_criterion_4_mass_conservation():
    rng = random.Random(404)
    failures = 0
    for _ in range(1000):
        literals = randgen.random_literals(rng)
        actions = randgen.random_actions(rng, literals)
        tree = randgen.random_tree(rng, literals, actions, max_nodes=8)
        belief = randgen.random_belief(rng, literals, max_entries=6)
        ticked = belief_tick(tree, belief, TreeTables(tree))
        result = simulate(tree, belief)
        if abs(sum(p for p, *_ in ticked) - belief.mass) > MASS_TOL:
            failures += 1
        elif abs(result.terminal.mass + result.pruned_mass - belief.mass) > MASS_TOL:
            failures += 1
    report(4, "mass conservation x1000", failures == 0, f"{failures} failures")


def test_criterion_5_singleton_equivalence():
    rng = random.Random(505)
    mismatches = 0
    for _ in range(1000):
        literals = randgen.random_literals(rng)
        actions = randgen.random_actions(rng, literals, deterministic=True)
        tree = randgen.random_tree(rng, literals, actions, max_nodes=8)
        assignment = randgen.random_assignment(rng, literals)
        result = simulate(tree, BeliefState.point(PhysicalState(assignment)))
        ((_, terminal),) = result.terminal.entries
        (status,) = ClassicRuns(LeafProgram(result.tables), assignment).statuses(0, [0])
        if terminal.r is not status:
            mismatches += 1
    report(5, "singleton equivalence x1000", mismatches == 0, f"{mismatches} mismatches")


def test_criterion_6_termination_bound():
    rng = random.Random(606)
    violations = 0
    for _ in range(200):
        literals = randgen.random_literals(rng)
        actions = randgen.random_actions(rng, literals)
        tree = randgen.random_tree(rng, literals, actions, max_nodes=8)
        n_actions = sum(1 for n in tree.iter_nodes() if isinstance(n, ActionNode))
        result = simulate(tree, BeliefState.point(
            PhysicalState(randgen.random_assignment(rng, literals))
        ))
        if result.ticks_used > n_actions + 1:
            violations += 1
    report(6, "termination bound x200", violations == 0, f"{violations} violations")


def test_criterion_7_parser_round_trip(soda_path):
    rng = random.Random(707)
    broken = 0
    for _ in range(500):
        spec = randgen.random_domain_spec(rng)
        text = serialize_domain(spec)
        if serialize_domain(parse_domain(text)) != text:
            broken += 1
    grounded = ground(parse_domain(soda_path.read_text(encoding="utf-8")))
    counts_ok = (
        len(grounded.literals) == 5
        and len(grounded.actions) + len(grounded.templates) == 7
    )
    report(
        7,
        "parser round-trip x500 + soda counts",
        broken == 0 and counts_ok,
        f"{broken} broken round-trips, {len(grounded.literals)} literals, "
        f"{len(grounded.actions) + len(grounded.templates)} instances",
    )


def test_criterion_8_planner_determinism(soda_domain):
    first = refine_tree(plan_request_from_domain(soda_domain))
    second = refine_tree(plan_request_from_domain(soda_domain))
    same_tree = dumps_tree(first.tree) == dumps_tree(second.tree)
    same_log = first.log_lines() == second.log_lines()
    report(8, "planner determinism", same_tree and same_log)
