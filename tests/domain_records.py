"""A digest of every field of each parsed spec and grounded domain.

``frontend_corpus.record`` digests what grounding exposes through equality
and ``repr``.  This digest adds what those leave out: every spec record's
``loc``, each action's ``clobbers``, the assignable pairs, each template's
``bindings`` and its tables, and the order of ``allowed_values``,
``actions_by_id`` and ``initial_assignment``.  Floats are written with
``float.hex``, so a one-ulp change shows.  The inputs are the corpus inputs
that parse and the ``perfbench/widegen.py`` 24-item domains of seeds 0-3.

``tests/golden/domain-records.txt`` holds one ``<input>\\t<digest>`` line per
input.  To rewrite it after a deliberate change, run
``PYTHONPATH=src python tests/domain_records.py``.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from bbt.domain import GroundedDomain, ground, parse_domain
from bbt.errors import BbtError
from bbt.status import Status
from bbt.value import Record

import frontend_corpus

GOLDEN = Path(__file__).resolve().parent / "golden" / "domain-records.txt"


def dump(value) -> str:
    """``value`` with every field of every record, floats in hex and sets sorted.

    Tuples show as ``(...)`` and lists as ``[...]``, so a changed container
    type shows too.
    """
    if isinstance(value, Record):
        fields = ", ".join(f"{name}={dump(getattr(value, name))}" for name in value.__slots__)
        return f"{type(value).__qualname__}({fields})"
    if isinstance(value, Status):
        return value.value
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return f"({', '.join(dump(v) for v in value)})"
    if isinstance(value, list):
        return f"[{', '.join(dump(v) for v in value)}]"
    if isinstance(value, (set, frozenset)):
        return f"{{{', '.join(sorted(dump(v) for v in value))}}}"
    if isinstance(value, dict):
        return f"{{{', '.join(f'{dump(k)}: {dump(v)}' for k, v in value.items())}}}"
    return repr(value)


def _tables(domain: GroundedDomain, resolver) -> str:
    # a template holds the domain's own tables, by reference
    assert resolver.actions_by_id is domain.actions_by_id
    return dump(list(resolver.template_schemas.items()))


def dump_domain(domain: GroundedDomain) -> str:
    """Every field of ``domain`` and of its spec, one line each."""
    templates = [
        (dump(t.id), dump(t.preconditions), dump(t.outcomes), dump(t.schema), dump(t.bindings),
         _tables(domain, t))
        for t in domain.templates
    ]
    return "\n".join((
        dump(domain.spec),
        dump(domain.literals),
        dump(domain.allowed_values),
        dump(domain.actions),
        dump(list(domain.actions_by_id)),
        repr(templates),
        dump([r.id for r in domain.resolvers()]),
        dump(sorted((lit, v.value) for lit, v in domain._assignable)),
        dump([(lit, [(r.id, gain) for r, gain in domain.establishing(lit)]) for lit in domain.literals]),
        dump(domain.goal),
        dump(domain.goal_probability),
        dump(domain.initial_assignment),
    ))


def inputs() -> dict[str, str]:
    """The corpus inputs that parse, then the wide-24 domains of seeds 0-3."""
    corpus = {}
    for name, text in frontend_corpus.inputs().items():
        try:
            ground(parse_domain(text))
        except BbtError:
            continue
        corpus[name] = text
    widegen = frontend_corpus._widegen()
    for seed in range(4):
        corpus[f"wide24-seed{seed}"] = widegen.generate(24, seed=seed)
    return corpus


def render() -> str:
    lines = []
    for name, text in inputs().items():
        digest = hashlib.sha256(dump_domain(ground(parse_domain(text))).encode()).hexdigest()
        lines.append(f"{name}\t{digest[:32]}\n")
    return "".join(lines)


if __name__ == "__main__":
    GOLDEN.write_text(render(), encoding="utf-8")
    print(f"wrote {GOLDEN.relative_to(frontend_corpus.REPO)}")
