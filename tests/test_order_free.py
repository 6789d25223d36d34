"""Coalesced beliefs and their sums do not depend on the order of the entries.

``BeliefState.coalesce`` merges a state's probabilities with a correctly
rounded sum, and ``mass``, ``success_probability`` and the mass ``prune``
drops sum the same way, so any order of the same entries gives the same
doubles, bit for bit.  The beliefs checked here are those that simulations
of random trees coalesce, with outcome probabilities in hundredths and
thirds, which doubles round: summed left to right, their merged masses
would move with the order.
"""

import itertools
import random

from bbt.belief import BeliefState, PhysicalState
from bbt.engine import simulate
from bbt.status import Status

import randgen


def coalesced_beliefs(monkeypatch, rng, runs):
    """The entry tuples every coalesce of ``runs`` random simulations receives."""
    beliefs = []
    coalesce = BeliefState.coalesce

    def recorded(self):
        beliefs.append(self.entries)
        return coalesce(self)

    with monkeypatch.context() as patch:
        patch.setattr(BeliefState, "coalesce", recorded)
        for _ in range(runs):
            literals = randgen.random_literals(rng)
            total = rng.choice((100, 3))
            actions = randgen.random_actions(rng, literals, total=total)
            tree = randgen.random_tree(rng, literals, actions, max_nodes=16)
            simulate(tree, randgen.random_belief(rng, literals))
    return beliefs


def summed_in_order(entries):
    """Each state's probabilities added left to right, by state."""
    merged = {}
    for p, s in entries:
        merged[s] = merged.get(s, 0.0) + p
    return merged


def test_shuffled_entries_coalesce_bit_identically(monkeypatch):
    rng = random.Random(5151)
    beliefs = coalesced_beliefs(monkeypatch, rng, 400)
    order_shows = 0
    for entries in beliefs:
        want = BeliefState(entries)
        merged = want.coalesce()
        for _ in range(3):
            shuffled = list(entries)
            rng.shuffle(shuffled)
            got = BeliefState(shuffled)
            assert got.mass == want.mass
            assert got.success_probability() == want.success_probability()
            assert [(p, s.key) for p, s in got.coalesce()] == [(p, s.key) for p, s in merged]
            order_shows += summed_in_order(shuffled) != summed_in_order(entries)
    assert order_shows > 20  # sums in input order would differ in these


def test_pruned_mass_is_the_same_in_every_order():
    # left to right, (0.1 + 0.2) + 0.3 and 0.1 + (0.2 + 0.3) are different doubles
    states = [PhysicalState({"x": value}) for value in Status]
    entries = list(zip((0.1, 0.2, 0.3), states))
    dropped = set()
    for order in itertools.permutations(entries):
        kept, mass = BeliefState(order).prune(0.5)
        assert not len(kept)
        dropped.add(mass)
    assert dropped == {0.6}
