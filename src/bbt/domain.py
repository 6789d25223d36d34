"""The domain-definition language: parsing, validation, grounding, templates.

A domain file declares parameter spaces, condition schemas (with their
allowed status values), action schemas (preconditions plus a probabilistic
outcome list), node templates (parameterized subtrees with advisory declared
outcomes), an initial assignment, and a goal with a target probability.
Grounding expands every schema over the cartesian product of its parameter
spaces into literal-level objects.

Format by example::

    param place { table1 table2 }
    condition at(place) values { S F }
    action goto(place) {
      pre { }
      outcome 0.95 -> S { at(place) = S }
      outcome 0.05 -> F { }
    }
    template find(object) {
      pre { seen(object) = F }
      declared 0.8 { seen(object) = S }
      declared 0.2 { seen(object) = F }
      body fb { seq { act goto(table1) act detect(object) } ... }
    }
    initial { at(table1) = F }
    goal { seen(soda) = S } prob 0.9

Parameter names in signatures are the names of parameter spaces; inside a
schema an argument is either such a parameter or a concrete instance of the
space expected at that position.  ``#`` starts a comment that runs to the
end of its line.

No token holds ``#``, so the tokenizer cuts each line at its first ``#`` and
scans the rest with one regular-expression match per token.  The parser
reads the tokens' kinds, texts and locations as parallel tuples.  Grounding
works out what depends on a schema alone (its outcomes' report statuses and
probabilities, rescaled if need be) once per schema, and only the clauses
per binding.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Callable, Iterable, Iterator, Mapping
from math import fsum

from .belief import PROB_TOL, ActionInstance, BeliefState, Outcome, PhysicalState
from .errors import ParseError, SemanticError
from .status import Status
from .tree import ActionNode, BTNode, Condition, CONTROL_KINDS
from .value import Frozen

PROB_SUM_TOL = 1e-9

Loc = tuple[int, int]
_NO_LOC: Loc = (0, 0)


# ---------------------------------------------------------------------------
# Parsed representation


class Assignment(Frozen):
    """``name(args) = value`` — a condition reference paired with a status.

    Like every parsed item's, its ``loc``, the source position, is left out
    of equality and ``repr``.
    """

    __slots__ = ("name", "args", "value", "loc")
    _compared = 3
    _defaults = (_NO_LOC,)


class OutcomeSpec(Frozen):
    """One outcome clause; ``report`` is None when left to the default rule."""

    __slots__ = ("probability", "report", "assignments", "loc")
    _compared = 3
    _defaults = (_NO_LOC,)


class ParamSpace(Frozen):
    __slots__ = ("name", "instances", "loc")
    _compared = 2
    _defaults = (_NO_LOC,)


class ConditionSchema(Frozen):
    __slots__ = ("name", "params", "values", "loc")
    _compared = 3
    _defaults = (_NO_LOC,)


class ActionSchema(Frozen):
    __slots__ = ("name", "params", "preconditions", "outcomes", "loc")
    _compared = 4
    _defaults = (_NO_LOC,)


class BodyControl(Frozen):
    """A composite of a template body: ``op`` is "seq", "fb" or "skip"."""

    __slots__ = ("op", "children")


class BodyLeaf(Frozen):
    """A leaf of a template body: ``ref`` is "act", "cond" or "tmpl"."""

    __slots__ = ("ref", "name", "args", "loc")
    _compared = 3
    _defaults = (_NO_LOC,)


BodyExpr = BodyControl | BodyLeaf


class TemplateSchema(Frozen):
    __slots__ = ("name", "params", "preconditions", "declared", "body", "loc")
    _compared = 5
    _defaults = (_NO_LOC,)


class DomainSpec(Frozen):
    __slots__ = (
        "params", "conditions", "actions", "templates", "initial", "goal", "goal_probability",
        "goal_loc",
    )
    _compared = 7
    _defaults = ((), (), (), (), (), (), None, _NO_LOC)


# ---------------------------------------------------------------------------
# Tokenizer


# each match takes the whitespace before its token, so a line's scan makes
# one match per token; ``bad`` catches every other character that starts no
# token.  Comments are cut off before the scan.
_TOKEN_RE = re.compile(
    r"""
    \s*(?:
      (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<punct>->|[{}(),;=])
    | (?P<bad>\S)
    )
    """,
    re.VERBOSE,
)

# (kind, text, loc): kind is "name", "number", "punct" or "eof"
Token = tuple[str, str, Loc]


def _tokenize(text: str) -> list[Token]:
    """The tokens of ``text``, each a ``(kind, text, (line, col))`` tuple, then one ``eof``.

    Positions are 1-based and counted in characters.  Only ``"\\n"`` ends a
    line, a ``"\\r"`` is whitespace and a tab counts as one column, so a CRLF
    text reports the positions of its LF copy.  The ``eof`` token, whose text
    is empty, sits just past the last character of the last line.

    No token holds ``#``, so each line is cut at its first ``#`` before it
    is scanned, and a comment costs no match.  Each match takes a token
    with the whitespace before it, so the token ends where the match does.
    """
    tokens = []
    lines = text.split("\n")
    for line_no, line in enumerate(lines, 1):
        cut = line.find("#")
        for m in _TOKEN_RE.finditer(line if cut < 0 else line[:cut]):
            kind = m.lastgroup
            token = m[kind]
            if kind == "bad":
                raise ParseError(f"unexpected character {token!r}", line_no, m.end())
            tokens.append((kind, token, (line_no, m.end() - len(token) + 1)))
    tokens.append(("eof", "", (len(lines), len(lines[-1]) + 1)))
    return tokens


# ---------------------------------------------------------------------------
# Recursive-descent parser


_DECL_KEYWORDS = ("param", "condition", "action", "template", "initial", "goal")
_BODY_KEYWORDS = ("seq", "fb", "skip", "act", "cond", "tmpl")
# a dict lookup costs less than calling the enum
_STATUSES = {status.value: status for status in Status}


class _Parser:
    """Recursive descent over the tokens, read as parallel ``kinds``, ``texts`` and ``locs``.

    Only the ``eof`` token has empty text, so comparing the current text
    with a keyword or punctuation also checks that input remains, and the
    parser never moves past ``eof``.
    """

    def __init__(self, tokens: list[Token]):
        self.kinds, self.texts, self.locs = zip(*tokens)
        self.pos = 0

    def error(self, message: str, *expected: str) -> ParseError:
        found = self.texts[self.pos] or "end of input"
        return ParseError(f"{message}, found {found!r}", *self.locs[self.pos], expected)

    def expect(self, text: str) -> Loc:
        """Step past ``text`` and return its location."""
        pos = self.pos
        if self.texts[pos] != text:
            raise self.error(f"expected {text!r}", text)
        self.pos = pos + 1
        return self.locs[pos]

    def expect_name(self, what: str = "a name") -> str:
        pos = self.pos
        if self.kinds[pos] != "name":
            raise self.error(f"expected {what}", "NAME")
        self.pos = pos + 1
        return self.texts[pos]

    def expect_number(self) -> float:
        pos = self.pos
        if self.kinds[pos] != "number":
            raise self.error("expected a number", "NUMBER")
        self.pos = pos + 1
        return float(self.texts[pos])

    def expect_value(self) -> Status:
        value = _STATUSES.get(self.texts[self.pos])
        if value is None:
            raise self.error("expected a status value", "S", "F", "R")
        self.pos += 1
        return value

    def at(self, text: str) -> bool:
        return self.texts[self.pos] == text

    def parse_list(
        self, open_: str, item: Callable[[], object], close: str, sep: str = ""
    ) -> tuple:
        """``open_``, items, ``close``: items joined by ``sep``, or up to ``close`` without one."""
        self.expect(open_)
        items = [item()]
        while self.at(sep) if sep else not self.at(close):
            if sep:
                self.pos += 1
            items.append(item())
        self.expect(close)
        return tuple(items)

    # -- grammar productions

    def parse_file(self) -> DomainSpec:
        params, conditions, actions, templates = [], [], [], []
        initial: tuple[Assignment, ...] | None = None
        goal: tuple[tuple[Assignment, ...], float, Loc] | None = None
        while self.kinds[self.pos] != "eof":
            text, loc = self.texts[self.pos], self.locs[self.pos]
            if text == "param":
                params.append(self.parse_param())
            elif text == "condition":
                conditions.append(self.parse_condition())
            elif text in ("action", "template"):
                (actions if text == "action" else templates).append(self.parse_resolver())
            elif text == "initial":
                if initial is not None:
                    raise SemanticError("duplicate initial section", *loc)
                self.pos += 1
                initial = self.parse_asgnset()
            elif text == "goal":
                if goal is not None:
                    raise SemanticError("duplicate goal section", *loc)
                self.pos += 1
                goal_set = self.parse_asgnset()
                self.expect("prob")
                goal = (goal_set, self.expect_number(), loc)
            else:
                raise self.error("expected a declaration", *_DECL_KEYWORDS)
        return DomainSpec(
            params=tuple(params),
            conditions=tuple(conditions),
            actions=tuple(actions),
            templates=tuple(templates),
            initial=initial or (),
            goal=goal[0] if goal else (),
            goal_probability=goal[1] if goal else None,
            goal_loc=goal[2] if goal else _NO_LOC,
        )

    def parse_param(self) -> ParamSpace:
        loc = self.expect("param")
        name = self.expect_name("a parameter space name")
        instances = self.parse_list("{", lambda: self.expect_name("an instance name"), "}")
        return ParamSpace(name, instances, loc)

    def parse_signature(self) -> tuple[str, ...]:
        return self.parse_list("(", lambda: self.expect_name("a parameter name"), ")", ",")

    def parse_condition(self) -> ConditionSchema:
        loc = self.expect("condition")
        name = self.expect_name("a condition name")
        params = self.parse_signature() if self.at("(") else ()
        self.expect("values")
        values = self.parse_list("{", self.expect_value, "}")
        return ConditionSchema(name, params, values, loc)

    def parse_args(self) -> tuple[str, ...]:
        """``( name , ... )``, possibly empty."""
        kinds, texts = self.kinds, self.texts
        self.expect("(")
        args = []
        if texts[self.pos] != ")":
            while True:
                if kinds[self.pos] != "name":
                    raise self.error("expected an argument", "NAME")
                args.append(texts[self.pos])
                self.pos += 1
                if texts[self.pos] != ",":
                    break
                self.pos += 1
        self.expect(")")
        return tuple(args)

    def parse_asgnset(self) -> tuple[Assignment, ...]:
        """``{ name(args) = value ; ... }``, possibly empty."""
        kinds, texts = self.kinds, self.texts
        self.expect("{")
        items = []
        if texts[self.pos] != "}":
            while True:
                pos = self.pos
                if kinds[pos] != "name":
                    raise self.error("expected a condition name", "NAME")
                self.pos = pos + 1
                args = self.parse_args() if texts[pos + 1] == "(" else ()
                self.expect("=")
                items.append(Assignment(texts[pos], args, self.expect_value(), self.locs[pos]))
                if texts[self.pos] != ";":
                    break
                self.pos += 1
        self.expect("}")
        return tuple(items)

    def parse_outcome(self, keyword: str) -> OutcomeSpec:
        """One ``keyword`` clause; only an action's ``outcome`` may name a report."""
        loc = self.expect(keyword)
        probability = self.expect_number()
        report = None
        if keyword == "outcome" and self.at("->"):
            self.pos += 1
            report = self.expect_value()
        assignments = self.parse_asgnset()
        return OutcomeSpec(probability, report, assignments, loc)

    def parse_resolver(self) -> ActionSchema | TemplateSchema:
        """An ``action`` or a ``template``: a name, a signature and a ``pre`` clause.

        An action's signature is optional and its clauses are ``outcome``; a
        template's signature is required, its clauses are ``declared`` and
        it ends in a ``body``.
        """
        action = self.texts[self.pos] == "action"
        loc = self.locs[self.pos]
        self.pos += 1
        name = self.expect_name("an action name" if action else "a template name")
        params = self.parse_signature() if not action or self.at("(") else ()
        self.expect("{")
        self.expect("pre")
        preconditions = self.parse_asgnset()
        keyword = "outcome" if action else "declared"
        outcomes = []
        while self.at(keyword):
            outcomes.append(self.parse_outcome(keyword))
        if action:
            self.expect("}")
            return ActionSchema(name, params, preconditions, tuple(outcomes), loc)
        self.expect("body")
        try:
            body = self.parse_btexpr()
        except RecursionError:
            # parse_btexpr recurses once per level of the body
            raise ParseError("template body nested too deeply", *loc) from None
        self.expect("}")
        return TemplateSchema(name, params, preconditions, tuple(outcomes), body, loc)

    def parse_btexpr(self) -> BodyExpr:
        text, loc = self.texts[self.pos], self.locs[self.pos]
        if text in ("seq", "fb", "skip"):
            self.pos += 1
            self.expect("{")
            children = [self.parse_btexpr()]
            while not self.at("}"):
                children.append(self.parse_btexpr())
            self.expect("}")
            return BodyControl(text, tuple(children))
        if text in ("act", "cond", "tmpl"):
            self.pos += 1
            name = self.expect_name("a referenced name")
            return BodyLeaf(text, name, self.parse_args(), loc)
        raise self.error("expected a tree expression", *_BODY_KEYWORDS)


# ---------------------------------------------------------------------------
# Validation


def _check_duplicates(names: Iterable[tuple[str, Loc]], what: str) -> None:
    seen: dict[str, Loc] = {}
    for name, loc in names:
        if name in seen:
            raise SemanticError(f"duplicate {what} {name!r}", *loc)
        seen[name] = loc


def _validate_reference(
    spaces: dict[str, ParamSpace],
    enclosing_params: tuple[str, ...],
    signature: tuple[str, ...],
    name: str,
    args: tuple[str, ...],
    loc: Loc,
) -> None:
    """Check one ``name(args)`` reference against the target's signature."""
    if len(args) != len(signature):
        raise SemanticError(
            f"{name!r} takes {len(signature)} argument(s), got {len(args)}", *loc
        )
    for arg, space_name in zip(args, signature):
        if arg in enclosing_params:
            if arg != space_name:
                raise SemanticError(
                    f"argument {arg!r} of {name!r} must range over space {space_name!r}", *loc
                )
        elif arg not in spaces[space_name].instances:
            raise SemanticError(
                f"{arg!r} is neither a parameter here nor an instance of {space_name!r}", *loc
            )


def _validate_assignments(
    spaces: dict[str, ParamSpace],
    conditions: dict[str, ConditionSchema],
    assignments: tuple[Assignment, ...],
    enclosing_params: tuple[str, ...],
    context: str,
) -> None:
    for asgn in assignments:
        schema = conditions.get(asgn.name)
        if schema is None:
            raise SemanticError(f"unknown condition {asgn.name!r} in {context}", *asgn.loc)
        _validate_reference(
            spaces, enclosing_params, schema.params, asgn.name, asgn.args, asgn.loc
        )
        if asgn.value not in schema.values:
            raise SemanticError(
                f"condition {asgn.name!r} cannot hold value {asgn.value}", *asgn.loc
            )


def _validate_signature_spaces(
    spaces: dict[str, ParamSpace], params: tuple[str, ...], owner: str, loc: Loc
) -> None:
    for p in params:
        if p not in spaces:
            raise SemanticError(f"{owner} references unknown parameter space {p!r}", *loc)
    if len(set(params)) != len(params):
        raise SemanticError(f"{owner} repeats a parameter space in its signature", *loc)


def _validate_outcomes(
    outcomes: tuple[OutcomeSpec, ...], owner: str, loc: Loc, what: str
) -> None:
    if not outcomes:
        return
    for outcome in outcomes:
        if outcome.probability <= 0.0:
            raise SemanticError(
                f"{what} probability of {owner} must be positive", *outcome.loc
            )
        if outcome.report is Status.R:
            raise SemanticError(f"{what} report status of {owner} must be S or F", *outcome.loc)
    total = fsum(o.probability for o in outcomes)
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise SemanticError(f"{what} probabilities of {owner} sum to {total:.12g}, not 1", *loc)


def validate_domain(spec: DomainSpec) -> None:
    """Raise :class:`SemanticError` on the first well-formedness violation."""
    _check_duplicates(((p.name, p.loc) for p in spec.params), "parameter space")
    for space in spec.params:
        if not space.instances:
            raise SemanticError(f"parameter space {space.name!r} is empty", *space.loc)
        _check_duplicates(((i, space.loc) for i in space.instances), "instance")
    _check_duplicates(((c.name, c.loc) for c in spec.conditions), "condition")
    _check_duplicates(
        itertools.chain(
            ((a.name, a.loc) for a in spec.actions),
            ((t.name, t.loc) for t in spec.templates),
        ),
        "action or template",
    )
    spaces = {p.name: p for p in spec.params}
    conditions = {c.name: c for c in spec.conditions}
    actions = {a.name: a for a in spec.actions}
    templates = {t.name: t for t in spec.templates}

    for cond in spec.conditions:
        _validate_signature_spaces(spaces, cond.params, f"condition {cond.name!r}", cond.loc)
        for i, value in enumerate(cond.values):
            if value in cond.values[:i]:
                raise SemanticError(f"condition {cond.name!r} repeats value {value}", *cond.loc)

    # an action's outcomes and a template's declared outcomes follow one
    # rule, but only an action must have some
    resolvers = itertools.chain(
        (("action", a, a.outcomes, "outcome", "outcome of") for a in spec.actions),
        (("template", t, t.declared, "declared", "declared outcome of") for t in spec.templates),
    )
    for kind, schema, outcomes, what, context in resolvers:
        owner = f"{kind} {schema.name!r}"
        _validate_signature_spaces(spaces, schema.params, owner, schema.loc)
        _validate_assignments(
            spaces, conditions, schema.preconditions, schema.params,
            f"preconditions of {schema.name!r}",
        )
        if kind == "action" and not outcomes:
            raise SemanticError(f"{owner} declares no outcomes", *schema.loc)
        _validate_outcomes(outcomes, owner, schema.loc, what)
        for outcome in outcomes:
            _validate_assignments(
                spaces, conditions, outcome.assignments, schema.params,
                f"{context} {schema.name!r}",
            )

    # bodies may reference templates declared later, so validate them after
    # every signature is known
    targets = {"act": actions, "cond": conditions, "tmpl": templates}
    for template in spec.templates:
        for leaf in _body_leaves(template.body):
            target = targets[leaf.ref].get(leaf.name)
            if target is None:
                raise SemanticError(
                    f"body of {template.name!r} references unknown {leaf.ref} {leaf.name!r}",
                    *leaf.loc,
                )
            _validate_reference(
                spaces, template.params, target.params, leaf.name, leaf.args, leaf.loc
            )

    _check_template_cycles(templates)

    _validate_assignments(spaces, conditions, spec.initial, (), "initial state")
    _validate_assignments(spaces, conditions, spec.goal, (), "goal")
    for asgn in spec.goal:
        if asgn.value is not Status.S:
            raise SemanticError("goal conditions must require value S", *asgn.loc)
    if spec.goal_probability is not None and not 0.0 < spec.goal_probability <= 1.0:
        raise SemanticError(
            f"goal probability {spec.goal_probability!r} not in (0, 1]", *spec.goal_loc
        )


def _body_leaves(body: BodyExpr) -> Iterator[BodyLeaf]:
    """The leaves of ``body`` from left to right, walked with an explicit stack."""
    stack = [body]
    while stack:
        expr = stack.pop()
        if isinstance(expr, BodyControl):
            stack.extend(reversed(expr.children))
        else:
            yield expr


def _check_template_cycles(templates: dict[str, TemplateSchema]) -> None:
    def refs(name: str) -> Iterator[BodyLeaf]:
        return (leaf for leaf in _body_leaves(templates[name].body) if leaf.ref == "tmpl")

    # depth-first with an explicit stack, so a long chain of templates
    # costs no Python recursion
    done: set[str] = set()
    for root in templates:
        if root in done:
            continue
        # the templates on the path from ``root``, each with its unvisited references
        visiting = {root}
        stack = [(root, refs(root))]
        while stack:
            name, pending = stack[-1]
            leaf = next(pending, None)
            if leaf is None:
                stack.pop()
                visiting.discard(name)
                done.add(name)
            elif leaf.name in visiting:
                raise SemanticError(f"template {leaf.name!r} expands into itself", *leaf.loc)
            elif leaf.name not in done:
                visiting.add(leaf.name)
                stack.append((leaf.name, refs(leaf.name)))


def parse_domain(text: str) -> DomainSpec:
    """Parse and validate domain text, with line/column diagnostics."""
    spec = _Parser(_tokenize(text)).parse_file()
    validate_domain(spec)
    return spec


# ---------------------------------------------------------------------------
# Grounding


def format_literal(name: str, args: tuple[str, ...]) -> str:
    return f"{name}({','.join(args)})" if args else name


class TemplateInstance(Frozen):
    """A grounded template: advisory outcome distribution plus a body factory.

    ``outcomes`` are the template's declared outcomes, grounded; like an
    action's, they are what the planner scores the template by.  The body
    is built from the ``schema`` under ``bindings``, with the domain's
    ``actions_by_id`` and ``template_schemas`` (by name); these four are
    left out of equality and ``repr``.  Holding those two tables rather
    than the domain keeps a grounded domain free of reference cycles, so
    reference counting frees it when it is dropped.
    """

    __slots__ = (
        "id", "preconditions", "outcomes", "schema", "bindings", "actions_by_id",
        "template_schemas",
    )
    _compared = 3

    def instantiate(self) -> BTNode:
        """Build a new subtree; repeated calls share structure, not node ids."""
        try:
            return _expand_body(
                self.actions_by_id, self.template_schemas, self.schema, dict(self.bindings)
            )
        except RecursionError:
            # _expand_body recurses once or twice per level of the body
            raise SemanticError("template body nested too deeply", *self.schema.loc) from None


Resolver = ActionInstance | TemplateInstance


class GroundedDomain:
    """Literal-level view of a validated spec.

    Immutable after construction; grounding order is deterministic
    (declaration order crossed with instance-list order).
    """

    def __init__(self, spec: DomainSpec):
        self.spec = spec
        self._spaces = {p.name: p.instances for p in spec.params}
        self._template_schemas = {t.name: t for t in spec.templates}

        self.allowed_values: dict[str, tuple[Status, ...]] = {}
        for cond in spec.conditions:
            for _, literal in self._bindings(cond.name, cond.params):
                self.allowed_values[literal] = cond.values
        self.literals: tuple[str, ...] = tuple(self.allowed_values)

        self.actions: tuple[ActionInstance, ...] = tuple(
            ActionInstance(name, preconditions, outcomes)
            for a in spec.actions
            for _, name, preconditions, outcomes in self._ground_resolver(
                a, a.outcomes, "an outcome of ", rescale=True
            )
        )
        self.actions_by_id = {a.id: a for a in self.actions}

        self.templates: tuple[TemplateInstance, ...] = tuple(
            TemplateInstance(
                id=name,
                preconditions=preconditions,
                outcomes=outcomes,
                schema=t,
                bindings=tuple(binding.items()),
                actions_by_id=self.actions_by_id,
                template_schemas=self._template_schemas,
            )
            for t in spec.templates
            for binding, name, preconditions, outcomes in self._ground_resolver(
                t, t.declared, "a declared outcome of ", rescale=False
            )
        )

        # per literal, the resolvers with an outcome setting it to S and the
        # outcome mass that does, in resolvers() order
        self._assignable: set[tuple[str, Status]] = set()
        self._establishing: dict[str, list[tuple[Resolver, float]]] = {}
        for resolver in self.resolvers():
            gains: dict[str, list[float]] = {}
            for outcome in resolver.outcomes:
                self._assignable.update(outcome.postconditions)
                for literal, value in outcome.postconditions:
                    if value is Status.S:
                        gains.setdefault(literal, []).append(outcome.probability)
            for literal, probabilities in gains.items():
                gain = fsum(probabilities)
                if gain > 0.0:
                    self._establishing.setdefault(literal, []).append((resolver, gain))

        self.goal = self._ground_clause(spec.goal, {}, "the goal", "")
        self.goal_probability = spec.goal_probability
        self.initial_assignment = self._build_initial()

    # -- construction helpers

    def _bindings(
        self, name: str, params: tuple[str, ...]
    ) -> Iterable[tuple[dict[str, str], str]]:
        """Each binding of ``params``, in grounding order, with ``name`` grounded under it."""
        if not params:
            return (({}, name),)
        return (
            (dict(zip(params, combo)), f"{name}({','.join(combo)})")
            for combo in itertools.product(*(self._spaces[p] for p in params))
        )

    def _ground_clause(
        self, clause: tuple[Assignment, ...], binding: Mapping[str, str], owner: str, name: str
    ) -> tuple[tuple[str, Status], ...]:
        """Ground one clause's assignments, rejecting a literal assigned twice.

        Checked after grounding, so a parameter that grounds to an instance
        named elsewhere in the clause counts as a repeat.  The error names
        the clause as ``owner`` followed by ``name``.
        """
        # list comprehensions: these tuples are short, and a generator costs
        # more to start than it saves; literals are formatted as
        # format_literal does, without its call
        grounded = tuple([
            (f"{a.name}({','.join([binding.get(x, x) for x in a.args])})" if a.args else a.name,
             a.value)
            for a in clause
        ])
        if len(grounded) > 1 and len(dict(grounded)) < len(grounded):
            literals = [literal for literal, _ in grounded]
            i = next(i for i, literal in enumerate(literals) if literal in literals[:i])
            raise SemanticError(
                f"{literals[i]!r} is assigned twice in {owner}{name}", *clause[i].loc
            )
        return grounded

    def _report_status(self, outcome: OutcomeSpec) -> Status:
        if outcome.report is not None:
            return outcome.report
        # default: an outcome that establishes something counts as a success
        if any(a.value is Status.S for a in outcome.assignments):
            return Status.S
        return Status.F

    def _ground_resolver(
        self,
        schema: ActionSchema | TemplateSchema,
        outcomes: tuple[OutcomeSpec, ...],
        what: str,
        rescale: bool,
    ) -> Iterator[tuple[dict[str, str], str, tuple[tuple[str, Status], ...], tuple[Outcome, ...]]]:
        """The binding, id, preconditions and outcomes of each grounding of ``schema``.

        The outcomes' report statuses and probabilities depend on the schema
        alone, so they are worked out once.  With ``rescale``, probabilities
        whose sum is off 1 by more than ``PROB_TOL`` are divided by it:
        validation allows ``PROB_SUM_TOL``, and downstream mass checks need
        less.  ``what`` names one of ``outcomes`` in an error.
        """
        statuses = [self._report_status(o) for o in outcomes]
        probabilities = [o.probability for o in outcomes]
        total = fsum(probabilities) if rescale else 1.0
        if abs(total - 1.0) > PROB_TOL:
            probabilities = [p / total for p in probabilities]
        ground_clause = self._ground_clause
        for binding, name in self._bindings(schema.name, schema.params):
            grounded = tuple([
                Outcome(p, ground_clause(o.assignments, binding, what, name), status)
                for p, o, status in zip(probabilities, outcomes, statuses)
            ])
            preconditions = ground_clause(
                schema.preconditions, binding, "the preconditions of ", name
            )
            yield binding, name, preconditions, grounded

    def _build_initial(self) -> dict[str, Status]:
        # unassigned literals default to unknown when the condition allows it
        assignment = {}
        for literal in self.literals:
            values = self.allowed_values[literal]
            assignment[literal] = Status.R if Status.R in values else Status.F
        assignment.update(self._ground_clause(self.spec.initial, {}, "the initial state", ""))
        return assignment

    # -- public surface

    def initial_belief(self) -> BeliefState:
        """The declared initial state as a point distribution."""
        return BeliefState.point(PhysicalState(self.initial_assignment))

    def resolvers(self) -> tuple[Resolver, ...]:
        return self.actions + self.templates

    def assignable(self, literal: str, value: Status) -> bool:
        """True if some action or template outcome sets ``literal`` to ``value``."""
        return (literal, value) in self._assignable

    def establishing(self, literal: str) -> list[tuple[Resolver, float]]:
        """The resolvers that can set ``literal`` to S, each with its gain.

        The gain is the outcome mass that sets it; resolvers are listed in
        :meth:`resolvers` order, and those with no such outcome are left out.
        """
        return self._establishing.get(literal, [])


def ground(spec: DomainSpec) -> GroundedDomain:
    """Expand a validated spec over its parameter spaces."""
    return GroundedDomain(spec)


def _expand_body(
    actions_by_id: Mapping[str, ActionInstance],
    template_schemas: Mapping[str, TemplateSchema],
    schema: TemplateSchema,
    binding: dict[str, str],
) -> BTNode:
    def resolve_args(args: tuple[str, ...]) -> tuple[str, ...]:
        return tuple(binding.get(a, a) for a in args)

    def walk(expr: BodyExpr) -> BTNode:
        if isinstance(expr, BodyControl):
            op = {"seq": "sequence", "fb": "fallback", "skip": "skipper"}[expr.op]
            return CONTROL_KINDS[op]([walk(c) for c in expr.children])
        args = resolve_args(expr.args)
        name = format_literal(expr.name, args)
        if expr.ref == "act":
            return ActionNode(actions_by_id[name])
        if expr.ref == "cond":
            return Condition(name)
        inner = template_schemas[expr.name]
        return _expand_body(actions_by_id, template_schemas, inner, dict(zip(inner.params, args)))

    return walk(schema.body)

