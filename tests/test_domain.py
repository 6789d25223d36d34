import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbt.domain import (
    Assignment,
    ConditionSchema,
    DomainSpec,
    ParamSpace,
    _tokenize,
    ground,
    parse_domain,
    validate_domain,
)
from bbt.errors import BbtError, ParseError, SemanticError
from bbt.status import Status
from bbt.engine import simulate
from bbt.planner import plan_request_from_domain, refine_tree
from bbt.tree import ActionNode, Condition, Fallback, Sequence
from bbt.treefile import dumps_tree

import domain_records
import frontend_corpus
import oracle
import randgen
from helpers import serialize_domain, template

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

    def test_probability_sum_just_off_one_never_prints_as_one(self):
        # a sum outside PROB_SUM_TOL printed with .6g read "sum to 1, not 1"
        text = MINI.replace("outcome 0.75 -> S", "outcome 0.75000001 -> S")
        with pytest.raises(
            SemanticError,
            match=r"^5:1: outcome probabilities of action 'grab' sum to 1\.00000001, not 1$",
        ):
            parse_domain(text)

    @pytest.mark.parametrize("prob", ["0", "1.5"])
    def test_goal_probability_error_carries_location(self, prob):
        text = MINI.replace("prob 0.5", f"prob {prob}")
        with pytest.raises(
            SemanticError, match=rf"^11:1: goal probability {float(prob)!r} not in \(0, 1\]$"
        ):
            parse_domain(text)

    @pytest.mark.parametrize(
        "text,message",
        [
            (
                "condition c values { S F }\ntemplate t { pre { } body cond c }\n",
                r"^2:12: expected '\(', found '\{' \(expected \(\)$",
            ),
            (
                "param p { x }\ncondition c values { S F }\n"
                "template t(p) { pre { } declared 1 -> S { c = S } body cond c }\n",
                r"^3:36: expected '\{', found '->' \(expected \{\)$",
            ),
            (
                "condition c values { S F }\naction a { pre { } declared 1 { c = S } }\n",
                r"^2:20: expected '\}', found 'declared' \(expected \}\)$",
            ),
            (
                "param p { x }\ncondition c values { S F }\n"
                "template t(p) { pre { } outcome 1 -> S { c = S } body cond c }\n",
                r"^3:25: expected 'body', found 'outcome' \(expected body\)$",
            ),
        ],
        ids=[
            "template-without-signature", "report-after-declared", "declared-in-action",
            "outcome-in-template",
        ],
    )
    def test_resolver_clauses_follow_their_keyword(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_domain(text)

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
        # located at the reference that closes the cycle, in c's body
        with pytest.raises(SemanticError, match=r"^6:38: template 'b' expands into itself$"):
            parse_domain(text)


def _scan(tokenize, text: str):
    """``tokenize``'s tokens as ``(kind, text, (line, col))``, or its error."""
    try:
        tokens = tokenize(text)
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.col)
    return [t if isinstance(t, tuple) else (t.kind, t.text, (t.line, t.col)) for t in tokens]


# with the corpus's edit characters: the rest of the punctuation, a
# non-ASCII digit, and words that join characters into tokens
_SCAN_WORDS = (
    "(", ")", ",", "=", "x_1", "\u0663", "->", "1.5", "2e-3", "0.9e", "1.e5", "prob",
    "# c ", "#\rx", "\r\n",
)


class TestTokenizer:
    @given(
        st.lists(st.sampled_from(frontend_corpus._CHARS + _SCAN_WORDS), max_size=40).map(
            "".join
        )
    )
    def test_matches_reference_on_generated_text(self, text):
        assert _scan(_tokenize, text) == _scan(oracle.tokenize, text)

    def test_matches_reference_under_character_edits(self, soda_path, soda_det_path, wide_text):
        bases = [
            soda_path.read_text(encoding="utf-8"),
            soda_det_path.read_text(encoding="utf-8"),
            wide_text,
        ]
        for b, text in enumerate(bases):
            crlf = text.replace("\n", "\r\n")
            for k in range(120):
                rng = random.Random(8000 + 1000 * b + k)
                mutated = frontend_corpus._char_mutate(crlf if k % 4 == 3 else text, rng)
                assert _scan(_tokenize, mutated) == _scan(oracle.tokenize, mutated), (b, k)

    def test_positions_count_characters_and_only_newline_ends_a_line(self):
        tokens = _tokenize("a\r\n\tb\x85c # d\r e\n\u2028f")
        assert tokens == [
            ("name", "a", (1, 1)),
            ("name", "b", (2, 2)),
            ("name", "c", (2, 4)),
            ("name", "f", (3, 2)),
            ("eof", "", (3, 3)),
        ]


def _front_end_error(text: str) -> BbtError | None:
    """The error parsing and grounding ``text`` raised, or None; any other exception escapes."""
    try:
        ground(parse_domain(text))
    except BbtError as exc:
        return exc
    return None


def _token_ends(text: str) -> list[int]:
    """The offset just past each token of ``text``."""
    starts = [0]
    for line in text.split("\n"):
        starts.append(starts[-1] + len(line) + 1)
    return [starts[line - 1] + col - 1 + len(tok) for _, tok, (line, col) in _tokenize(text)[:-1]]


_SOUP = st.lists(
    st.sampled_from(frontend_corpus._POOL + frontend_corpus._CHARS), max_size=60
)
_BUNDLED = ("soda", "soda_deterministic")


class TestFrontEndRaisesOnlyBbtErrors:
    """Malformed text ends in a :class:`BbtError`, never in an ``IndexError`` or the like.

    The parser looks ahead by index and relies on the ``eof`` token to stop
    it, so input that ends anywhere must still end in a located error.
    """

    @settings(max_examples=300)
    @given(_SOUP, st.sampled_from((" ", "")))
    def test_token_soups(self, words, sep):
        # joined without a space, words and characters glue into other tokens
        _front_end_error(sep.join(words))

    @pytest.mark.parametrize("name", _BUNDLED)
    def test_truncations_at_every_token_end(self, name):
        text = (frontend_corpus.REPO / "domains" / f"{name}.bbt").read_text(encoding="utf-8")
        ends = _token_ends(text)
        assert len(ends) > 200
        for end in ends[:-1]:
            error = _front_end_error(text[:end])
            if isinstance(error, ParseError):
                # the error sits at the end of the cut text, or before it
                assert (error.line, error.col) <= _tokenize(text[:end])[-1][2], end

    @settings(max_examples=200)
    @given(st.sampled_from(_BUNDLED), st.integers(0, 1300), st.integers(0, 1300))
    def test_cut_out_spans(self, name, i, j):
        text = (frontend_corpus.REPO / "domains" / f"{name}.bbt").read_text(encoding="utf-8")
        _front_end_error(text[:i] + text[max(i, j):])


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

    def test_rescale_divides_by_the_correctly_rounded_total(self, soda_path):
        # detect's outcomes sum to 1 - 2.2e-10, so grounding rescales them;
        # left to right they sum to 0.9999999997825, one ulp below their
        # correctly rounded total, so each interpreter's sum gives one answer
        raw = (0.789, 0.094, 0.028, 0.0889999997825)
        total = math.fsum(raw)
        assert raw[0] + raw[1] + raw[2] + raw[3] != total
        reports = ("S { seen(object) = S }", "F { seen(object) = F }",
                   "F { seen(object) = F }", "F { }")
        text = soda_path.read_text(encoding="utf-8").replace(
            "  outcome 0.5 -> S { seen(object) = S }\n  outcome 0.5 -> F { seen(object) = F }\n",
            "".join(f"  outcome {p!r} -> {rest}\n" for p, rest in zip(raw, reports)),
        )
        detect = ground(parse_domain(text)).actions_by_id["detect(soda)"]
        assert [o.probability for o in detect.outcomes] == [p / total for p in raw]

    def test_initial_defaults_unknown_when_allowed(self, soda_domain):
        initial = soda_domain.initial_assignment
        assert initial["seen(sprayer)"] is R  # not mentioned, R allowed
        assert initial["seen(soda)"] is R
        assert initial["luminousity_ok"] is F

    def test_empty_space_is_rejected(self):
        # the parser refuses "param ghost { }", so only a hand-built spec has one
        spec = parse_domain(MINI)
        ghost = ParamSpace("ghost_space", (), (3, 1))
        conditions = spec.conditions + (ConditionSchema("spooky", ("ghost_space",), (S, F)),)
        bad = DomainSpec(params=spec.params + (ghost,), conditions=conditions, goal=spec.goal)
        with pytest.raises(SemanticError, match=r"^3:1: parameter space 'ghost_space' is empty$"):
            validate_domain(bad)
        with pytest.raises(ParseError, match="expected an instance name"):
            parse_domain("param ghost_space { }\n")

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
        body = template(soda_domain, "find(soda)").instantiate()
        assert isinstance(body, Fallback)
        assert len(body.children) == 2
        for child, table in zip(body.children, ("table1", "table2")):
            assert isinstance(child, Sequence)
            goto, det = child.children
            assert isinstance(goto, ActionNode) and goto.action.id == f"goto({table})"
            assert isinstance(det, ActionNode) and det.action.id == "detect(soda)"

    def test_instantiate_twice_is_latch_independent(self, soda_domain):
        first = template(soda_domain, "find(soda)").instantiate()
        second = template(soda_domain, "find(soda)").instantiate()
        assert dumps_tree(first) == dumps_tree(second)
        first_ids = {n.node_id for n in first.iter_nodes()}
        second_ids = {n.node_id for n in second.iter_nodes()}
        assert not first_ids & second_ids

    def test_instantiate_by_name_with_bindings(self, soda_domain):
        tree = template(soda_domain, "find(sprayer)").instantiate()
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
        tree = template(grounded, "search(ball)").instantiate()
        assert isinstance(tree, Fallback)
        leaves = [n.action.id for n in tree.iter_nodes() if isinstance(n, ActionNode)]
        assert leaves == ["go(t1)", "look(ball)", "go(t2)", "look(ball)"]

    def test_condition_leaf_in_body(self):
        # finish needs ready, which nothing sets, so the planner can only
        # establish done with the template, whose body runs finish itself
        text = """
param place { b }
condition at(place) values { S F }
condition ready values { S F }
condition done values { S F }
action go(place) {
  pre { }
  outcome 0.9 -> S { at(place) = S }
  outcome 0.1 -> F { }
}
action finish {
  pre { ready = S }
  outcome 1 -> S { done = S }
}
template reach(place) {
  pre { }
  declared 1 { done = S }
  body seq { fb { cond at(place) act go(place) } act finish() }
}
initial { at(b) = F ; ready = F ; done = F }
goal { done = S } prob 0.9
"""
        grounded = ground(parse_domain(text))
        tree = template(grounded, "reach(b)").instantiate()
        assert isinstance(tree, Sequence)
        fallback, finish = tree.children
        assert isinstance(fallback, Fallback)
        at, go = fallback.children
        assert isinstance(at, Condition) and at.literal == "at(b)"
        assert isinstance(go, ActionNode) and go.action.id == "go(b)"
        assert isinstance(finish, ActionNode) and finish.action.id == "finish"
        plan = refine_tree(plan_request_from_domain(grounded))
        assert plan.log_lines() == ["1\tinsert\tdone\t0.900000"]
        assert [n.literal for n in plan.tree.iter_nodes() if isinstance(n, Condition)] == [
            "done", "at(b)"
        ]
        result = simulate(plan.tree, grounded.initial_belief())
        expected = oracle.enumerate_terminals(plan.tree, grounded.initial_assignment)
        oracle.assert_distributions_match(expected, oracle.simulation_to_terminals(result))
        assert result.terminal.success_probability() == pytest.approx(0.9, abs=1e-12)


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


def test_domain_records_match_golden():
    # every field of each parsed spec and grounded domain, locations,
    # clobbers, template bindings and float bits included
    expected = domain_records.GOLDEN.read_text(encoding="utf-8").splitlines()
    actual = domain_records.render().splitlines()
    assert len(expected) >= 130
    assert [line.split("\t")[0] for line in actual] == [line.split("\t")[0] for line in expected]
    for want, got in zip(expected, actual):
        assert got == want
