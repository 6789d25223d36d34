"""Belief behavior trees.

Behavior trees whose conditions take values in {success, failure, unknown}
and whose actions have probabilistic, latched outcomes; plus exact
belief-space self-simulation and an iterative planner that grows a tree
until a goal holds with a target probability.
"""

from .belief import ActionInstance, BeliefState, Outcome, PhysicalState
from .classic import ClassicRuns, LeafProgram
from .domain import DomainSpec, GroundedDomain, TemplateInstance, ground, parse_domain
from .dot import to_dot
from .engine import SimulationLimits, SimulationResult, simulate
from .planner import (
    PlanRequest,
    PlanResult,
    plan_request_from_domain,
    refine_tree,
)
from .rng import CounterRng, draw
from .status import Status
from .tree import (
    ActionNode,
    BTNode,
    Condition,
    ControlNode,
    Fallback,
    Sequence,
    Skipper,
)
from .treefile import dumps_tree, load_tree, save_tree, tree_from_doc

__all__ = [
    "ActionInstance",
    "ActionNode",
    "BTNode",
    "BeliefState",
    "ClassicRuns",
    "Condition",
    "ControlNode",
    "CounterRng",
    "DomainSpec",
    "Fallback",
    "GroundedDomain",
    "LeafProgram",
    "Outcome",
    "PhysicalState",
    "PlanRequest",
    "PlanResult",
    "Sequence",
    "SimulationLimits",
    "SimulationResult",
    "Skipper",
    "Status",
    "TemplateInstance",
    "draw",
    "dumps_tree",
    "ground",
    "load_tree",
    "parse_domain",
    "plan_request_from_domain",
    "refine_tree",
    "save_tree",
    "simulate",
    "to_dot",
    "tree_from_doc",
]
