"""Engine masses against the rational oracle, bounded in ulps.

``oracle.enumerate_terminals(..., exact=True)`` gives each terminal key's
mass as a :class:`~fractions.Fraction`: the value the tree's double outcome
probabilities define, with nothing rounded.  The engine rounds every
product and every merge to a double, so its masses may differ from those by
a few units in the last place.  Projected onto the oracle's keys, with the
entries of one key summed exactly, every key's mass must lie within
``KEY_ULPS`` ulps of the exact value, and the success probability the
engine reports within ``SUCCESS_ULPS``; an ulp is that of the double
nearest the exact value.  The engine merges masses with correctly rounded
sums (:func:`math.fsum`), so only the products round on their way there.
The worst errors measured when these bounds were set were 1.45 ulp for a
key, on the soda plan at 0.99, and 0.71 ulp for the success probability,
on a random tree; with sums in input order they were 2.09 and 2.09, on the
deep-perception plan with 4 objects.  A lost or doubled outcome branch is
off by far more.
"""

import math
import random
from collections import defaultdict
from fractions import Fraction

import pytest

from bbt import ground, parse_domain, plan_request_from_domain, refine_tree
from bbt.belief import ActionInstance, BeliefState, Outcome, PhysicalState
from bbt.engine import simulate
from bbt.status import Status

import deepgen
import oracle
import randgen

KEY_ULPS = 2
SUCCESS_ULPS = 1


def ulps(value, exact: Fraction) -> float:
    """How far ``value`` lies from ``exact``, in ulps of the double nearest ``exact``."""
    return float(abs(Fraction(value) - exact) / Fraction(math.ulp(float(exact))))


def worst_errors(tree, assignment: dict) -> tuple[float, float]:
    """The engine's largest key error and its success probability error, in ulps."""
    expected = oracle.enumerate_terminals(tree, assignment, max_ticks=400, exact=True)
    result = simulate(tree, BeliefState.point(PhysicalState(assignment)))
    actual: dict = defaultdict(Fraction)
    for p, s in result.terminal.entries:
        actual[frozenset(zip(s.literals, s.values)), s.r, s.blame] += Fraction(p)
    keys = set(expected) | set(actual)
    key_error = max(ulps(actual.get(k, 0), expected.get(k, Fraction(0))) for k in keys)
    success = sum(m for (_, r, _), m in expected.items() if r is Status.S)
    return key_error, ulps(result.terminal.success_probability(), success)


def planned(text: str, prob: float | None = None):
    domain = ground(parse_domain(text))
    plan = refine_tree(plan_request_from_domain(domain, target_probability=prob))
    return plan.tree, domain.initial_assignment


def decimal_actions(rng: random.Random, actions):
    """``actions`` with outcome probabilities in hundredths, which doubles round."""
    out = []
    for action in actions:
        parts = randgen.dyadic_parts(rng, len(action.outcomes), total=100)
        outcomes = tuple(
            Outcome(p, o.postconditions, o.report) for p, o in zip(parts, action.outcomes)
        )
        out.append(ActionInstance(action.id, action.preconditions, outcomes))
    return out


@pytest.mark.parametrize("prob", [None, 0.99, 0.999])
def test_soda_plans_within_ulps(soda_path, prob):
    key_error, success_error = worst_errors(*planned(soda_path.read_text(encoding="utf-8"), prob))
    assert key_error <= KEY_ULPS
    assert success_error <= SUCCESS_ULPS


@pytest.mark.parametrize("k", [4, 5])
def test_deep_perception_plans_within_ulps(k):
    key_error, success_error = worst_errors(*planned(deepgen.generate(k)))
    assert key_error <= KEY_ULPS
    assert success_error <= SUCCESS_ULPS


def test_random_trees_within_ulps():
    rng = random.Random(7331)
    rounded = 0
    for _ in range(400):
        literals = randgen.random_literals(rng)
        actions = decimal_actions(rng, randgen.random_actions(rng, literals))
        tree = randgen.random_tree(rng, literals, actions, max_nodes=16)
        key_error, success_error = worst_errors(tree, randgen.random_assignment(rng, literals))
        assert key_error <= KEY_ULPS
        assert success_error <= SUCCESS_ULPS
        rounded += key_error > 0
    assert rounded > 20  # hundredths make the engine round
