"""Beliefs, their sums and their printed lines do not depend on the order of the entries.

A ``BeliefState`` merges the entries of equal states with a correctly
rounded sum as it is built, and ``mass``, ``success_probability`` and the
mass ``prune`` drops sum the same way, so any order of the same entries
gives each state the same double, bit for bit; ``debug_lines`` sorts, so
it prints the same lines.  The beliefs checked here are those that
simulations of random trees build, with outcome probabilities in
hundredths and thirds, which doubles round: summed left to right, their
merged masses would move with the order.
"""

import itertools
import random

from bbt.belief import ActionInstance, BeliefState, Outcome, PhysicalState
from bbt.engine import simulate
from bbt.status import Status
from bbt.tree import ActionNode, TreeTables

import randgen
from helpers import physical_state


def built_beliefs(monkeypatch, rng, runs):
    """The entry tuples every ``BeliefState`` of ``runs`` random simulations is built from."""
    beliefs = []
    build = BeliefState.__init__

    def recorded(self, entries=()):
        entries = tuple(entries)
        beliefs.append(entries)
        build(self, entries)

    with monkeypatch.context() as patch:
        patch.setattr(BeliefState, "__init__", recorded)
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


def test_shuffled_entries_merge_bit_identically(monkeypatch):
    rng = random.Random(5151)
    beliefs = built_beliefs(monkeypatch, rng, 400)
    order_shows = 0
    for entries in beliefs:
        want = BeliefState(entries)
        for _ in range(3):
            shuffled = list(entries)
            rng.shuffle(shuffled)
            got = BeliefState(shuffled)
            assert got.mass == want.mass
            assert got.success_probability() == want.success_probability()
            assert {s.key: p for p, s in got} == {s.key: p for p, s in want}
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


def test_debug_lines_are_the_same_in_every_order():
    S, F, R = Status.S, Status.F, Status.R
    node = ActionNode(ActionInstance("go", (), (Outcome(1.0, (("x", S),), S),)))
    states = [
        physical_state({"x": S}, S),
        physical_state({"x": F}, F),
        physical_state({"x": R}, R),
        physical_state({"x": S}, R, {node.node_id: S}),
    ]
    entries = list(zip((0.1, 0.2, 0.3, 0.4), states))
    tables = TreeTables(node)
    orders = itertools.permutations(entries)
    printed = {tuple(BeliefState(order).debug_lines(tables)) for order in orders}
    assert len(printed) == 1
