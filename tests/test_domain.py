import random

import pytest

from bbt.domain import (
    Assignment,
    ConditionSchema,
    DomainSpec,
    ground,
    parse_domain,
)
from bbt.errors import ParseError, SemanticError
from bbt.status import Status
from bbt.tree import ActionNode, Fallback, Sequence
from bbt.treefile import dumps_tree

import frontend_corpus
import randgen
from helpers import serialize_domain

S, F, R = Status.S, Status.F, Status.R


MINI = """
param obj { ball cup }
condition held(obj) values { S F R }
condition near values { S F }
action grab(obj) {
  pre { near = S }
  outcome 0.75 -> S { held(obj) = S }
  outcome 0.25 -> F { held(obj) = F }
}
initial { near = F }
goal { held(ball) = S } prob 0.5
"""


class TestParser:
    def test_soda_counts(self, soda_path):
        spec = parse_domain(soda_path.read_text(encoding="utf-8"))
        assert len(spec.params) == 2
        assert len(spec.conditions) == 3
        assert len(spec.actions) + len(spec.templates) == 4
        assert spec.goal_probability == pytest.approx(0.9)

    def test_parse_mini(self):
        spec = parse_domain(MINI)
        assert [p.name for p in spec.params] == ["obj"]
        grab = spec.actions[0]
        assert grab.preconditions[0] == Assignment("near", (), S)
        assert grab.outcomes[0].probability == pytest.approx(0.75)
        assert grab.outcomes[0].report is S

    def test_syntax_error_carries_location(self):
        with pytest.raises(ParseError) as err:
            parse_domain("param p { a b }\ncondition q values S F }\n")
        assert err.value.line == 2
        assert err.value.col > 0
        assert "{" in err.value.expected

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as err:
            parse_domain("param p { a % }")
        assert err.value.line == 1

    def test_probability_sum_check(self):
        text = MINI.replace("outcome 0.25 -> F", "outcome 0.15 -> F")
        with pytest.raises(SemanticError) as err:
            parse_domain(text)
        assert "0.9" in str(err.value)

    def test_unknown_parameter_space(self):
        with pytest.raises(SemanticError) as err:
            parse_domain("condition held(thing) values { S F }")
        assert "thing" in str(err.value)

    def test_duplicate_names(self):
        with pytest.raises(SemanticError):
            parse_domain("param p { a }\nparam p { b }")

    def test_duplicate_instances(self):
        # grounded twice otherwise: c(x) twice in literals, a(x) in actions
        text = "param q { y }\nparam p { x x }\ncondition c(p) values { S F }\n"
        with pytest.raises(SemanticError, match=r"^2:1: duplicate instance 'x'$") as err:
            parse_domain(text)
        assert (err.value.line, err.value.col) == (2, 1)

    @pytest.mark.parametrize(
        "old,new,message",
        [
            (
                "outcome 0.5 -> S { seen(object) = S }",
                "outcome 0.5 -> S { seen(object) = S ; seen(object) = F }",
                r"^20:41: 'seen\(soda\)' is assigned twice in an outcome of detect\(soda\)$",
            ),
            (
                # object grounds to soda, so the two collide for detect(soda) only
                "outcome 0.5 -> S { seen(object) = S }",
                "outcome 0.5 -> S { seen(object) = S ; seen(soda) = F }",
                r"^20:41: 'seen\(soda\)' is assigned twice in an outcome of detect\(soda\)$",
            ),
            (
                "pre { luminousity_ok = S ; seen(object) = R }",
                "pre { luminousity_ok = S ; luminousity_ok = F ; seen(object) = R }",
                r"^19:30: 'luminousity_ok' is assigned twice"
                r" in the preconditions of detect\(soda\)$",
            ),
            (
                "declared 0.8 { seen(object) = S }",
                "declared 0.8 { seen(object) = S ; seen(object) = F }",
                r"^31:37: 'seen\(soda\)' is assigned twice in a declared outcome of find\(soda\)$",
            ),
            (
                "goal { seen(soda) = S }",
                "goal { seen(soda) = S ; seen(soda) = S }",
                r"^46:25: 'seen\(soda\)' is assigned twice in the goal$",
            ),
            (
                "initial { seen(soda) = R ;",
                "initial { seen(soda) = R ; seen(soda) = F ;",
                r"^45:28: 'seen\(soda\)' is assigned twice in the initial state$",
            ),
            (
                "condition seen(object) values { S F R }",
                "condition seen(object) values { S S F }",
                r"^10:1: condition 'seen' repeats value S$",
            ),
        ],
        ids=[
            "outcome", "outcome-parameter-collision", "pre", "declared", "goal", "initial",
            "values",
        ],
    )
    def test_clause_assigns_each_literal_once(self, soda_det_path, old, new, message):
        # accepted, the last write wins: a repeat in detect's first outcome
        # planned luminousity_ok at 0.000000 instead of 0.500000
        text = soda_det_path.read_text(encoding="utf-8")
        assert old in text
        with pytest.raises(SemanticError, match=message):
            ground(parse_domain(text.replace(old, new)))

    def test_value_outside_allowed_set(self):
        text = MINI.replace("initial { near = F }", "initial { near = R }")
        with pytest.raises(SemanticError) as err:
            parse_domain(text)
        assert "near" in str(err.value)

    def test_goal_must_require_success(self):
        text = MINI.replace("goal { held(ball) = S }", "goal { held(ball) = F }")
        with pytest.raises(SemanticError):
            parse_domain(text)

    def test_report_status_must_not_be_running(self):
        text = MINI.replace("outcome 0.75 -> S", "outcome 0.75 -> R")
        with pytest.raises(SemanticError):
            parse_domain(text)

    def test_action_without_outcomes_rejected(self):
        with pytest.raises(SemanticError) as err:
            parse_domain("condition c values { S F }\naction noop { pre { } }")
        assert "noop" in str(err.value)

    def test_recursive_template_rejected(self):
        text = """
param obj { ball }
condition held(obj) values { S F }
template loop(obj) {
  pre { }
  body seq { tmpl loop(obj) }
}
"""
        with pytest.raises(SemanticError) as err:
            parse_domain(text)
        assert "loop" in str(err.value)

    def test_indirect_template_cycle_names_its_first_repeat(self):
        # a reaches the cycle b -> c -> b; the check names b, the first
        # template it meets again on its path
        text = """
param obj { ball }
condition held(obj) values { S F }
template a(obj) { pre { } body seq { cond held(obj) tmpl b(obj) } }
template b(obj) { pre { } body fb { tmpl c(obj) } }
template c(obj) { pre { } body seq { tmpl b(obj) } }
"""
        with pytest.raises(SemanticError, match=r"^template 'b' expands into itself$"):
            parse_domain(text)


class TestRoundTrip:
    def test_parse_serialize_parse_identity(self, soda_path):
        text = soda_path.read_text(encoding="utf-8")
        spec = parse_domain(text)
        canonical = serialize_domain(spec)
        assert parse_domain(canonical) == spec

    def test_serialize_is_fixpoint(self, soda_path):
        spec = parse_domain(soda_path.read_text(encoding="utf-8"))
        once = serialize_domain(spec)
        twice = serialize_domain(parse_domain(once))
        assert once == twice


class TestGrounding:
    def test_soda_literals_and_instances(self, soda_domain):
        assert soda_domain.literals == (
            "at(table1)",
            "at(table2)",
            "seen(soda)",
            "seen(sprayer)",
            "luminousity_ok",
        )
        instance_ids = [a.id for a in soda_domain.actions] + [
            t.id for t in soda_domain.templates
        ]
        assert instance_ids == [
            "goto(table1)",
            "goto(table2)",
            "detect(soda)",
            "detect(sprayer)",
            "light_on",
            "find(soda)",
            "find(sprayer)",
        ]

    @pytest.mark.parametrize("domain_fixture", ["soda_domain", "wide_domain"])
    def test_resolver_index_matches_full_scan(self, request, domain_fixture):
        domain = request.getfixturevalue(domain_fixture)
        indexed = 0
        for literal in domain.literals:
            scan = []
            for candidate in domain.resolvers():
                gain = sum(
                    o.probability
                    for o in candidate.outcomes
                    if (literal, S) in o.postconditions
                )
                if gain > 0.0:
                    scan.append((candidate, gain))
            index = domain.establishing(literal)
            assert len(index) == len(scan)
            assert all(a is b for (a, _), (b, _) in zip(index, scan))
            assert [gain for _, gain in index] == [gain for _, gain in scan]
            indexed += len(index)
        assert indexed >= len(domain.resolvers())

    def test_grounding_deterministic(self, soda_path):
        text = soda_path.read_text(encoding="utf-8")
        a, b = ground(parse_domain(text)), ground(parse_domain(text))
        assert a.literals == b.literals
        assert [x.id for x in a.actions] == [x.id for x in b.actions]
        assert [x.id for x in a.templates] == [x.id for x in b.templates]

    def test_goto_outcomes_grounded(self, soda_domain):
        goto = soda_domain.actions_by_id["goto(table1)"]
        assert goto.outcomes[0].postconditions == (("at(table1)", S),)
        assert goto.outcomes[0].probability == pytest.approx(0.95)
        assert goto.outcomes[1].postconditions == ()
        assert goto.outcomes[1].report is F

    def test_initial_defaults_unknown_when_allowed(self, soda_domain):
        initial = soda_domain.initial_assignment
        assert initial["seen(sprayer)"] is R  # not mentioned, R allowed
        assert initial["seen(soda)"] is R
        assert initial["luminousity_ok"] is F

    def test_empty_space_grounds_to_nothing(self, caplog):
        text = """
param obj { ball }
param ghost_space { g }
condition held(obj) values { S F }
"""
        spec = parse_domain(text)
        object.__setattr__(spec.params[1], "instances", ())
        with caplog.at_level("WARNING"):
            grounded = ground(
                DomainSpec(
                    params=spec.params,
                    conditions=(
                        spec.conditions[0],
                        ConditionSchema("spooky", ("ghost_space",), (S, F)),
                    ),
                )
            )
        assert [lit for lit in grounded.literals if "spooky" in lit] == []
        assert "ghost_space" in caplog.text

    def test_report_status_default_rule(self):
        text = """
param obj { ball }
condition held(obj) values { S F }
action grab(obj) {
  pre { }
  outcome 0.5 { held(obj) = S }
  outcome 0.5 { held(obj) = F }
}
"""
        grounded = ground(parse_domain(text))
        grab = grounded.actions_by_id["grab(ball)"]
        assert grab.outcomes[0].report is S
        assert grab.outcomes[1].report is F


class TestTemplates:
    def test_find_instantiation_shape(self, soda_domain):
        body = soda_domain.templates_by_id["find(soda)"].instantiate()
        assert isinstance(body, Fallback)
        assert len(body.children) == 2
        for child, table in zip(body.children, ("table1", "table2")):
            assert isinstance(child, Sequence)
            goto, det = child.children
            assert isinstance(goto, ActionNode) and goto.action.id == f"goto({table})"
            assert isinstance(det, ActionNode) and det.action.id == "detect(soda)"

    def test_instantiate_twice_is_latch_independent(self, soda_domain):
        first = soda_domain.templates_by_id["find(soda)"].instantiate()
        second = soda_domain.templates_by_id["find(soda)"].instantiate()
        assert dumps_tree(first) == dumps_tree(second)
        first_ids = {n.node_id for n in first.iter_nodes()}
        second_ids = {n.node_id for n in second.iter_nodes()}
        assert not first_ids & second_ids

    def test_instantiate_by_name_with_bindings(self, soda_domain):
        tree = soda_domain.templates_by_id["find(sprayer)"].instantiate()
        actions = [n.action.id for n in tree.iter_nodes() if isinstance(n, ActionNode)]
        assert "detect(sprayer)" in actions

    def test_nested_templates_expand(self):
        text = """
param place { t1 t2 }
param obj { ball }
condition at(place) values { S F }
condition seen(obj) values { S F R }
action go(place) {
  pre { }
  outcome 1 -> S { at(place) = S }
}
action look(obj) {
  pre { }
  outcome 0.5 -> S { seen(obj) = S }
  outcome 0.5 -> F { seen(obj) = F }
}
template search_in(obj, place) {
  pre { }
  body seq { act go(place) act look(obj) }
}
template search(obj) {
  pre { seen(obj) = F }
  declared 0.75 { seen(obj) = S }
  declared 0.25 { seen(obj) = F }
  body fb { tmpl search_in(obj, t1) tmpl search_in(obj, t2) }
}
"""
        grounded = ground(parse_domain(text))
        tree = grounded.templates_by_id["search(ball)"].instantiate()
        assert isinstance(tree, Fallback)
        leaves = [n.action.id for n in tree.iter_nodes() if isinstance(n, ActionNode)]
        assert leaves == ["go(t1)", "look(ball)", "go(t2)", "look(ball)"]


class TestGeneratedRoundTrip:
    def test_serialize_parse_serialize_fixpoint(self):
        rng = random.Random(2024)
        for _ in range(200):
            spec = randgen.random_domain_spec(rng)
            text = serialize_domain(spec)
            reparsed = parse_domain(text)
            assert serialize_domain(reparsed) == text
            assert reparsed == parse_domain(serialize_domain(reparsed))

    def test_grounding_sizes_are_products_of_space_cardinalities(self):
        rng = random.Random(11)
        for _ in range(50):
            spec = randgen.random_domain_spec(rng)
            grounded = ground(spec)
            sizes = {p.name: len(p.instances) for p in spec.params}

            def product(params):
                n = 1
                for name in params:
                    n *= sizes[name]
                return n

            assert len(grounded.literals) == sum(product(c.params) for c in spec.conditions)
            assert len(grounded.actions) == sum(product(a.params) for a in spec.actions)
            assert len(grounded.templates) == sum(
                product(t.params) for t in spec.templates
            )
            for action in grounded.actions:
                assert abs(sum(o.probability for o in action.outcomes) - 1.0) <= 1e-12


def test_front_end_corpus_matches_golden():
    expected = frontend_corpus.GOLDEN.read_text(encoding="utf-8").splitlines()
    actual = frontend_corpus.render().splitlines()
    assert len(expected) >= 300
    assert [line.split("\t")[0] for line in actual] == [line.split("\t")[0] for line in expected]
    for want, got in zip(expected, actual):
        assert got == want
