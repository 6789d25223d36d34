"""Seeded random domains, trees and belief states for property suites.

Outcome probabilities are dyadic (k/16) so distributions sum to exactly 1.0
in doubles and mass checks stay sharp.
"""

from __future__ import annotations

import random
from typing import Iterable

from bbt.belief import ActionInstance, BeliefState, Outcome
from bbt.domain import (
    ActionSchema,
    Assignment,
    BodyControl,
    BodyLeaf,
    ConditionSchema,
    DomainSpec,
    OutcomeSpec,
    ParamSpace,
    TemplateSchema,
)
from bbt.status import Status
from bbt.tree import ActionNode, BTNode, Condition, Fallback, Sequence, Skipper

from helpers import physical_state

STATUSES = (Status.S, Status.F, Status.R)
CONTROLS = (Sequence, Fallback, Skipper)


def dyadic_parts(rng: random.Random, n: int, total: int = 16) -> list[float]:
    """n positive dyadic fractions summing to exactly 1.0."""
    cuts = sorted(rng.sample(range(1, total), n - 1)) if n > 1 else []
    bounds = [0, *cuts, total]
    return [(bounds[i + 1] - bounds[i]) / total for i in range(n)]


def random_literals(rng: random.Random, max_literals: int = 4) -> list[str]:
    count = rng.randint(1, max_literals)
    return [f"c{i}" for i in range(count)]


def random_actions(
    rng: random.Random,
    literals: list[str],
    max_actions: int = 3,
    max_outcomes: int = 3,
    deterministic: bool = False,
    total: int = 16,
) -> list[ActionInstance]:
    """Random actions over ``literals``; outcome probabilities are multiples of 1/``total``."""
    actions = []
    for index in range(rng.randint(1, max_actions)):
        n_outcomes = 1 if deterministic else rng.randint(1, max_outcomes)
        outcomes = []
        for prob in dyadic_parts(rng, n_outcomes, total):
            n_post = rng.randint(0, len(literals))
            post = tuple(
                (lit, rng.choice(STATUSES))
                for lit in rng.sample(literals, n_post)
            )
            outcomes.append(Outcome(prob, post, rng.choice((Status.S, Status.F))))
        actions.append(ActionInstance(f"a{index}", (), tuple(outcomes)))
    return actions


def random_tree(
    rng: random.Random,
    literals: list[str],
    actions: list[ActionInstance],
    max_nodes: int = 8,
) -> BTNode:
    budget = rng.randint(1, max_nodes)

    def leaf() -> BTNode:
        if actions and rng.random() < 0.4:
            return ActionNode(rng.choice(actions))
        return Condition(rng.choice(literals))

    def build(nodes_left: int) -> tuple[BTNode, int]:
        if nodes_left <= 1 or rng.random() < 0.35:
            return leaf(), nodes_left - 1
        nodes_left -= 1
        children = []
        n_children = rng.randint(1, 3)
        for _ in range(n_children):
            if nodes_left <= 0:
                break
            child, nodes_left = build(nodes_left)
            children.append(child)
        if not children:
            return leaf(), nodes_left
        return rng.choice(CONTROLS)(children), nodes_left

    tree, _ = build(budget)
    return tree


def random_assignment(rng: random.Random, literals: list[str]) -> dict[str, Status]:
    return {lit: rng.choice(STATUSES) for lit in literals}


def random_belief(
    rng: random.Random, literals: list[str], max_entries: int = 6
) -> BeliefState:
    n = rng.randint(1, max_entries)
    return BeliefState(
        (p, physical_state(random_assignment(rng, literals), rng.choice(STATUSES)))
        for p in dyadic_parts(rng, n)
    )


def random_domain_spec(rng: random.Random) -> DomainSpec:
    """A small, always-valid random spec for serializer round-trips."""
    n_spaces = rng.randint(1, 2)
    spaces = tuple(
        ParamSpace(f"p{i}", tuple(f"i{i}{j}" for j in range(rng.randint(1, 3))))
        for i in range(n_spaces)
    )

    def space(name: str) -> ParamSpace:
        return next(s for s in spaces if s.name == name)

    conditions = tuple(
        ConditionSchema(
            f"c{i}",
            tuple(s.name for s in rng.sample(spaces, rng.randint(0, len(spaces)))),
            (Status.S, Status.F, Status.R) if rng.random() < 0.5 else (Status.S, Status.F),
        )
        for i in range(rng.randint(1, 3))
    )

    def random_asgn(params: tuple[str, ...], value_pool=(Status.S, Status.F)) -> Assignment:
        cond = rng.choice(conditions)
        args = tuple(
            p if p in params else rng.choice(space(p).instances) for p in cond.params
        )
        values = [v for v in value_pool if v in cond.values]
        return Assignment(cond.name, args, rng.choice(values or [Status.F]))

    def distinct(assignments: Iterable[Assignment]) -> tuple[Assignment, ...]:
        """The assignments, each literal's first only: a clause assigns a literal once."""
        kept: dict[tuple[str, tuple[str, ...]], Assignment] = {}
        for asgn in assignments:
            kept.setdefault((asgn.name, asgn.args), asgn)
        return tuple(kept.values())

    actions = []
    for i in range(rng.randint(1, 3)):
        params = tuple(s.name for s in rng.sample(spaces, rng.randint(0, len(spaces))))
        n_outcomes = rng.randint(1, 3)
        weights = [rng.randint(1, 4) for _ in range(n_outcomes)]
        probs = [w / 16 for w in weights]
        probs[-1] = (16 - sum(weights[:-1])) / 16
        outcomes = tuple(
            OutcomeSpec(
                probs[j],
                rng.choice([Status.S, Status.F, None]),
                distinct(random_asgn(params) for _ in range(rng.randint(0, 2))),
            )
            for j in range(n_outcomes)
        )
        actions.append(ActionSchema(f"a{i}", params, (random_asgn(params),), outcomes))
    actions = tuple(actions)

    templates = ()
    if rng.random() < 0.7:
        act = rng.choice(actions)
        first = spaces[0]
        leaf_args = tuple(
            first.name if p == first.name else space(p).instances[0] for p in act.params
        )
        body = BodyControl(
            rng.choice(["seq", "fb", "skip"]),
            (BodyLeaf("act", act.name, leaf_args),),
        )
        templates = (
            TemplateSchema("t0", (first.name,), (), (OutcomeSpec(1.0, None, ()),), body),
        )

    initial, seen = [], set()
    for _ in range(rng.randint(0, 3)):
        asgn = random_asgn(())
        if (asgn.name, asgn.args) not in seen:
            seen.add((asgn.name, asgn.args))
            initial.append(asgn)
    goal = (random_asgn((), value_pool=(Status.S,)),) if rng.random() < 0.8 else ()
    return DomainSpec(
        params=spaces,
        conditions=conditions,
        actions=actions,
        templates=templates,
        initial=tuple(initial),
        goal=goal,
        goal_probability=rng.randint(1, 10) / 10 if goal else None,
    )
