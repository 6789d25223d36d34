"""Value semantics of the library's record types, and what importing the CLI loads.

Every record but ``ActionInstance`` is built by the constructor its
``__slots__`` and ``_defaults`` generate: fields in slot order, by position
or by keyword, the last ones defaulted.  Frozen records have read-only
fields, compare and hash by their compared fields and print as
``Name(field=value, ...)``; source locations and derived fields are left
out of all three.  The two result records stay mutable and
unhashable.  A dropped grounded domain holds no reference cycle, importing
the CLI leaves ``pathlib`` out, and no CLI call loads ``logging``, whatever
``BBT_LOG`` asks for.
"""

import copy
import gc
import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from bbt import (
    ActionInstance,
    BeliefState,
    DomainSpec,
    Outcome,
    PlanRequest,
    SimulationLimits,
    TemplateInstance,
    ground,
    parse_domain,
    refine_tree,
    simulate,
)
from bbt.domain import Assignment, ParamSpace
from bbt.status import Status
from bbt.value import Record

S, F = Status.S, Status.F
SRC = Path(__file__).resolve().parent.parent / "src"


def record_classes():
    """Every record class of the package, by qualified name."""
    found, stack = [], [Record]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            if cls.__module__.startswith("bbt.") and cls.__slots__:
                found.append(cls)
    return sorted(found, key=lambda cls: cls.__qualname__)


GENERATED = [cls for cls in record_classes() if cls is not ActionInstance]


def outcome(probability=1.0, literal="done"):
    return Outcome(probability, ((literal, S),), S)


def action(name="try"):
    return ActionInstance(name, (("ready", S),), (outcome(0.75), outcome(0.25, "other")))


def template(domain):
    return next(r for r in domain.resolvers() if isinstance(r, TemplateInstance))


@pytest.fixture()
def frozen_values(soda_domain):
    return {
        "Outcome": (outcome(), "probability"),
        "ActionInstance": (action(), "outcomes"),
        "TemplateInstance": (template(soda_domain), "preconditions"),
        "DomainSpec": (soda_domain.spec, "goal_probability"),
        "SimulationLimits": (SimulationLimits(), "max_entries"),
        "PlanRequest": (PlanRequest(soda_domain, 0.9), "target_probability"),
    }


@pytest.mark.parametrize(
    "name",
    [
        "Outcome",
        "ActionInstance",
        "TemplateInstance",
        "DomainSpec",
        "SimulationLimits",
        "PlanRequest",
    ],
)
def test_frozen_fields_are_read_only(frozen_values, name):
    value, field = frozen_values[name]
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) is before


def test_equal_values_hash_equal():
    assert outcome() == outcome() and hash(outcome()) == hash(outcome())
    assert outcome() != outcome(0.5)
    assert action() == action() and hash(action()) == hash(action())
    assert action() != action("other")
    assert action() != outcome()
    assert SimulationLimits() == SimulationLimits(10000, 100000, 0.0)
    assert hash(SimulationLimits()) == hash(SimulationLimits(10000, 100000, 0.0))


def test_locations_are_left_out_of_equality_hash_and_repr():
    here = Assignment("held", ("ball",), S, (3, 7))
    there = Assignment("held", ("ball",), S, (9, 1))
    assert here == there and hash(here) == hash(there)
    assert repr(here) == "Assignment(name='held', args=('ball',), value=Status.S)"
    assert ParamSpace("obj", ("ball",), (1, 1)) == ParamSpace("obj", ("ball",))
    assert DomainSpec(goal_loc=(4, 2)) == DomainSpec()


def test_derived_fields_are_left_out_of_the_constructor_equality_and_repr(soda_domain):
    made = action()
    assert made.clobbers == frozenset()
    assert ActionInstance("a", (), (Outcome(1.0, (("x", F),), F),)).clobbers == {"x"}
    assert repr(made) == (
        "ActionInstance(id='try', preconditions=(('ready', Status.S),), outcomes=("
        "Outcome(probability=0.75, postconditions=(('done', Status.S),), report=Status.S), "
        "Outcome(probability=0.25, postconditions=(('other', Status.S),), report=Status.S)))"
    )
    found = template(soda_domain)
    assert repr(found).startswith(f"TemplateInstance(id={found.id!r}, preconditions=")
    assert "schema" not in repr(found) and "domain" not in repr(found)


def test_invalid_outcome_probabilities_are_rejected():
    with pytest.raises(ValueError, match="sum to"):
        ActionInstance("a", (), (outcome(0.5),))
    with pytest.raises(ValueError, match="not finite"):
        ActionInstance("a", (), (outcome(float("nan")),))


def test_defaults():
    limits = SimulationLimits()
    assert (limits.max_root_ticks, limits.max_entries, limits.prune_epsilon) == (10000, 100000, 0.0)
    assert repr(limits) == (
        "SimulationLimits(max_root_ticks=10000, max_entries=100000, prune_epsilon=0.0)"
    )
    assert DomainSpec().goal_probability is None and DomainSpec().params == ()


def test_only_action_instance_writes_its_own_constructor():
    # it checks its outcomes and derives clobbers; a generated one is compiled from a string
    written = [cls for cls in record_classes() if cls.__init__.__code__.co_filename != "<string>"]
    assert written == [ActionInstance]
    assert len(GENERATED) == 17


@pytest.mark.parametrize("cls", GENERATED, ids=lambda cls: cls.__qualname__)
def test_generated_constructors_take_fields_by_position_or_keyword(cls):
    fields = cls.__slots__
    values = [object() for _ in fields]
    made = cls(*values)
    assert [getattr(made, name) for name in fields] == values
    assert cls(**dict(zip(fields, values))) == made
    assert list(inspect.signature(cls).parameters) == list(fields)
    required = len(fields) - len(cls._defaults)
    defaulted = cls(*values[:required])
    assert [getattr(defaulted, name) for name in fields] == values[:required] + list(cls._defaults)


@pytest.mark.parametrize("cls", GENERATED, ids=lambda cls: cls.__qualname__)
def test_generated_constructors_reject_bad_calls_by_class_name(cls):
    fields = cls.__slots__
    values = [object() for _ in fields]
    bad = [
        lambda: cls(*values, object()),
        lambda: cls(*values, no_such_field=None),
        lambda: cls(*values, **{fields[0]: None}),
    ]
    required = len(fields) - len(cls._defaults)
    if required:
        bad.append(lambda: cls(*values[: required - 1]))
    for call in bad:
        with pytest.raises(TypeError, match=rf"^{cls.__qualname__}\.__init__\(\) "):
            call()


def test_results_are_mutable_and_unhashable(soda_det_domain):
    result = refine_tree(PlanRequest(soda_det_domain, 0.9))
    run = simulate(result.tree, soda_det_domain.initial_belief())
    for value, field in ((result, "achieved"), (run, "ticks_used")):
        setattr(value, field, 0)
        assert getattr(value, field) == 0
        with pytest.raises(TypeError):
            hash(value)
    assert repr(result.log[1]) == (
        "IterationRecord(iteration=2, kind='insert', literal='luminousity_ok', probability=0.5)"
    )


def test_no_mass_is_the_float_zero(soda_det_domain):
    first = refine_tree(PlanRequest(soda_det_domain, 0.9)).log[0]
    assert repr(first) == (
        "IterationRecord(iteration=1, kind='insert', literal='seen(soda)', probability=0.0)"
    )
    assert type(first.probability) is float
    belief = soda_det_domain.initial_belief()
    for empty in (belief.success_probability(), BeliefState().mass):
        assert empty == 0.0 and type(empty) is float


def test_a_dropped_domain_leaves_no_cycles(soda_path):
    text = soda_path.read_text(encoding="utf-8")
    ground(parse_domain(text))
    gc.collect()
    gc.disable()
    try:
        ground(parse_domain(text))
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0
    # a template outlives its domain and still builds its body
    kept = template(ground(parse_domain(text)))
    assert len(kept.instantiate().children) > 0


def test_values_survive_pickle_and_copy(soda_domain):
    request = PlanRequest(soda_domain, 0.9)
    restored = pickle.loads(pickle.dumps(request))
    assert restored.limits == request.limits and restored.domain.spec == soda_domain.spec
    assert restored.domain.resolvers() == soda_domain.resolvers()
    assert refine_tree(restored).log_lines() == refine_tree(request).log_lines()
    assert copy.deepcopy(soda_domain.spec) == soda_domain.spec
    assert copy.copy(action()).clobbers == action().clobbers


def run_bare(code, bbt_log=None):
    """Run ``code`` in a fresh ``python -S``, which imports nothing for ``site``; return stdout.

    ``bbt_log`` is the ``BBT_LOG`` of the run; None leaves it unset.
    """
    env = {k: v for k, v in os.environ.items() if k != "BBT_LOG"}
    env["PYTHONPATH"] = str(SRC)
    if bbt_log is not None:
        env["BBT_LOG"] = bbt_log
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


def test_importing_the_cli_loads_no_heavy_module():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import bbt.cli\n"
        "heavy = {'dataclasses', 'inspect', 'ast', 'dis', 'typing', 'logging'}\n"
        "print(sorted(heavy & (set(sys.modules) - before)))\n"
    )
    assert run_bare(code) == "[]\n"


def test_importing_the_cli_leaves_pathlib_out():
    # pathlib brings urllib.parse, ipaddress and fnmatch; files are read with open()
    assert run_bare("import sys\nimport bbt.cli\nprint('pathlib' in sys.modules)\n") == "False\n"


@pytest.mark.parametrize("bbt_log", [None, "error", "INFO", "debug"])
def test_no_cli_call_loads_logging(soda_det_path, tmp_path, bbt_log):
    argv = ["plan", "--domain", str(soda_det_path), "--out", str(tmp_path / "tree.json")]
    code = (
        "import contextlib, io, sys\n"
        "import bbt.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        f"    code = bbt.cli.main({argv!r})\n"
        "print(code, 'logging' in sys.modules)\n"
    )
    assert run_bare(code, bbt_log) == "0 False\n"
