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
space expected at that position.  ``#`` starts a comment.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Callable, Iterable, Iterator, Mapping

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


# whitespace matches no alternative, so finditer skips it; ``bad`` catches
# every other character that starts no token
_TOKEN_RE = re.compile(
    r"""
    (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>->|[{}(),;=])
  | (?P<comment>\#.*)
  | (?P<bad>\S)
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
    """
    tokens = []
    lines = text.split("\n")
    for line_no, line in enumerate(lines, 1):
        for m in _TOKEN_RE.finditer(line):
            kind = m.lastgroup
            if kind == "comment":
                break
            if kind == "bad":
                raise ParseError(f"unexpected character {m.group()!r}", line_no, m.start() + 1)
            tokens.append((kind, m.group(), (line_no, m.start() + 1)))
    tokens.append(("eof", "", (len(lines), len(lines[-1]) + 1)))
    return tokens


# ---------------------------------------------------------------------------
# Recursive-descent parser


_DECL_KEYWORDS = ("param", "condition", "action", "template", "initial", "goal")
_BODY_KEYWORDS = ("seq", "fb", "skip", "act", "cond", "tmpl")


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token[0] != "eof":
            self.pos += 1
        return token

    def error(self, message: str, *expected: str) -> ParseError:
        token = self.peek()
        found = token[1] if token[0] != "eof" else "end of input"
        return ParseError(f"{message}, found {found!r}", *token[2], expected)

    def expect(self, text: str) -> Token:
        token = self.peek()
        if token[1] != text or token[0] == "eof":
            raise self.error(f"expected {text!r}", text)
        return self.advance()

    def expect_name(self, what: str = "a name") -> Token:
        token = self.peek()
        if token[0] != "name":
            raise self.error(f"expected {what}", "NAME")
        return self.advance()

    def expect_number(self) -> float:
        token = self.peek()
        if token[0] != "number":
            raise self.error("expected a number", "NUMBER")
        self.advance()
        return float(token[1])

    def expect_value(self) -> Status:
        token = self.peek()
        if token[0] != "name" or token[1] not in ("S", "F", "R"):
            raise self.error("expected a status value", "S", "F", "R")
        self.advance()
        return Status(token[1])

    def at(self, text: str) -> bool:
        token = self.peek()
        return token[0] != "eof" and token[1] == text

    def parse_list(
        self, open_: str, item: Callable[[], object], close: str, sep: str = "", empty: bool = False
    ) -> tuple:
        """``open_``, items, ``close``: items joined by ``sep``, or up to ``close`` without one.

        ``empty`` admits a list with no items.
        """
        self.expect(open_)
        items = [] if empty and self.at(close) else [item()]
        while self.at(sep) if sep else not self.at(close):
            if sep:
                self.advance()
            items.append(item())
        self.expect(close)
        return tuple(items)

    # -- grammar productions

    def parse_file(self) -> DomainSpec:
        params, conditions, actions, templates = [], [], [], []
        initial: tuple[Assignment, ...] | None = None
        goal: tuple[tuple[Assignment, ...], float, Loc] | None = None
        while self.peek()[0] != "eof":
            token = self.peek()
            if token[1] == "param":
                params.append(self.parse_param())
            elif token[1] == "condition":
                conditions.append(self.parse_condition())
            elif token[1] in ("action", "template"):
                (actions if token[1] == "action" else templates).append(self.parse_resolver())
            elif token[1] == "initial":
                if initial is not None:
                    raise SemanticError("duplicate initial section", *token[2])
                self.advance()
                initial = self.parse_asgnset()
            elif token[1] == "goal":
                if goal is not None:
                    raise SemanticError("duplicate goal section", *token[2])
                self.advance()
                goal_set = self.parse_asgnset()
                self.expect("prob")
                goal = (goal_set, self.expect_number(), token[2])
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
        start = self.expect("param")
        name = self.expect_name("a parameter space name")
        instances = self.parse_list("{", lambda: self.expect_name("an instance name")[1], "}")
        return ParamSpace(name[1], instances, start[2])

    def parse_signature(self) -> tuple[str, ...]:
        return self.parse_list("(", lambda: self.expect_name("a parameter name")[1], ")", ",")

    def parse_condition(self) -> ConditionSchema:
        start = self.expect("condition")
        name = self.expect_name("a condition name")
        params = self.parse_signature() if self.at("(") else ()
        self.expect("values")
        values = self.parse_list("{", self.expect_value, "}")
        return ConditionSchema(name[1], params, values, start[2])

    def parse_args(self) -> tuple[str, ...]:
        return self.parse_list(
            "(", lambda: self.expect_name("an argument")[1], ")", ",", empty=True
        )

    def parse_asgn(self) -> Assignment:
        name = self.expect_name("a condition name")
        args = self.parse_args() if self.at("(") else ()
        self.expect("=")
        value = self.expect_value()
        return Assignment(name[1], args, value, name[2])

    def parse_asgnset(self) -> tuple[Assignment, ...]:
        return self.parse_list("{", self.parse_asgn, "}", ";", empty=True)

    def parse_outcome(self, keyword: str) -> OutcomeSpec:
        """One ``keyword`` clause; only an action's ``outcome`` may name a report."""
        start = self.expect(keyword)
        probability = self.expect_number()
        report = None
        if keyword == "outcome" and self.at("->"):
            self.advance()
            report = self.expect_value()
        assignments = self.parse_asgnset()
        return OutcomeSpec(probability, report, assignments, start[2])

    def parse_resolver(self) -> ActionSchema | TemplateSchema:
        """An ``action`` or a ``template``: a name, a signature and a ``pre`` clause.

        An action's signature is optional and its clauses are ``outcome``; a
        template's signature is required, its clauses are ``declared`` and
        it ends in a ``body``.
        """
        start = self.advance()
        action = start[1] == "action"
        loc = start[2]
        name = self.expect_name("an action name" if action else "a template name")[1]
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
        token = self.peek()
        if token[1] in ("seq", "fb", "skip"):
            self.advance()
            self.expect("{")
            children = [self.parse_btexpr()]
            while not self.at("}"):
                children.append(self.parse_btexpr())
            self.expect("}")
            return BodyControl(token[1], tuple(children))
        if token[1] in ("act", "cond", "tmpl"):
            self.advance()
            name = self.expect_name("a referenced name")
            args = self.parse_args()
            return BodyLeaf(token[1], name[1], args, token[2])
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
    total = sum(o.probability for o in outcomes)
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
            for binding in self._bindings(cond.params):
                literal = format_literal(cond.name, tuple(binding[p] for p in cond.params))
                self.allowed_values[literal] = cond.values
        self.literals: tuple[str, ...] = tuple(self.allowed_values)

        self.actions: tuple[ActionInstance, ...] = tuple(
            self._ground_action(a, binding)
            for a in spec.actions
            for binding in self._bindings(a.params)
        )
        self.actions_by_id = {a.id: a for a in self.actions}

        self.templates: tuple[TemplateInstance, ...] = tuple(
            self._ground_template(t, binding)
            for t in spec.templates
            for binding in self._bindings(t.params)
        )

        # per literal, the resolvers with an outcome setting it to S and the
        # outcome mass that does, in resolvers() order
        self._assignable: set[tuple[str, Status]] = set()
        self._establishing: dict[str, list[tuple[Resolver, float]]] = {}
        for resolver in self.resolvers():
            outcomes = resolver.outcomes
            established = set()
            for outcome in outcomes:
                self._assignable.update(outcome.postconditions)
                established.update(
                    literal for literal, value in outcome.postconditions if value is Status.S
                )
            for literal in established:
                gain = sum(
                    o.probability for o in outcomes if (literal, Status.S) in o.postconditions
                )
                if gain > 0.0:
                    self._establishing.setdefault(literal, []).append((resolver, gain))

        self.goal = self._ground_clause(spec.goal, {}, "the goal", "")
        self.goal_probability = spec.goal_probability
        self.initial_assignment = self._build_initial()

    # -- construction helpers

    def _bindings(self, params: tuple[str, ...]) -> Iterator[dict[str, str]]:
        for combo in itertools.product(*(self._spaces[p] for p in params)):
            yield dict(zip(params, combo))

    def _ground_clause(
        self, clause: tuple[Assignment, ...], binding: Mapping[str, str], owner: str, name: str
    ) -> tuple[tuple[str, Status], ...]:
        """Ground one clause's assignments, rejecting a literal assigned twice.

        Checked after grounding, so a parameter that grounds to an instance
        named elsewhere in the clause counts as a repeat.  The error names
        the clause as ``owner`` followed by ``name``.
        """
        # list comprehensions: these tuples are short, and a generator costs
        # more to start than it saves
        grounded = tuple([
            (format_literal(a.name, tuple([binding.get(x, x) for x in a.args])), a.value)
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
        binding: dict[str, str],
        what: str,
    ) -> tuple[str, tuple[tuple[str, Status], ...], tuple[Outcome, ...]]:
        """The id, preconditions and outcomes of ``schema`` under ``binding``.

        ``what`` names one of ``outcomes`` in an error.
        """
        name = format_literal(schema.name, tuple(binding[p] for p in schema.params))
        grounded = tuple(
            Outcome(
                o.probability,
                self._ground_clause(o.assignments, binding, what, name),
                self._report_status(o),
            )
            for o in outcomes
        )
        preconditions = self._ground_clause(
            schema.preconditions, binding, "the preconditions of ", name
        )
        return name, preconditions, grounded

    def _ground_action(self, schema: ActionSchema, binding: dict[str, str]) -> ActionInstance:
        name, preconditions, outcomes = self._ground_resolver(
            schema, schema.outcomes, binding, "an outcome of "
        )
        total = sum(o.probability for o in outcomes)
        if abs(total - 1.0) > PROB_TOL:
            # validation allows PROB_SUM_TOL; rescale so downstream mass checks hold
            outcomes = tuple(
                Outcome(o.probability / total, o.postconditions, o.report) for o in outcomes
            )
        return ActionInstance(id=name, preconditions=preconditions, outcomes=outcomes)

    def _ground_template(
        self, schema: TemplateSchema, binding: dict[str, str]
    ) -> TemplateInstance:
        name, preconditions, outcomes = self._ground_resolver(
            schema, schema.declared, binding, "a declared outcome of "
        )
        return TemplateInstance(
            id=name,
            preconditions=preconditions,
            outcomes=outcomes,
            schema=schema,
            bindings=tuple(binding.items()),
            actions_by_id=self.actions_by_id,
            template_schemas=self._template_schemas,
        )

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

