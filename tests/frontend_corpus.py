"""A seeded corpus of domain texts and what parsing and grounding make of each.

The corpus pins the domain front end (``parse_domain`` then ``ground``):
the bundled domains, a ``perfbench/widegen.py`` domain and ``randgen``
specs, each as written and under seeded word-level mutations (a word
deleted, repeated, swapped or replaced), plus a few inputs that assign a
literal twice in ``initial``.  Character-level inputs follow, with their
own seed: CRLF line endings, tabs, Unicode whitespace, a comment on a last
line that has no newline, and stray characters that start no token, as
written and under seeded character-level edits.  They reach the
tokenizer's whitespace, comment and line logic, which word-level edits,
made on text stripped of its comments, never do.  Last come soda edits
that each raise one error no other input raises.  Each input records
either the error it raised (class, message, line, column, expected list)
or a digest of the grounded domain.  Nothing in a record depends on ``PYTHONHASHSEED``.

``tests/golden/domain-front-end.txt`` holds one ``<input>\\t<record>`` line
per input.  To rewrite it after a deliberate change, run
``PYTHONPATH=src python tests/frontend_corpus.py``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import random
import re
from pathlib import Path

from bbt.domain import ground, parse_domain
from bbt.errors import BbtError
from bbt.tree import ActionNode, BTNode, Condition

import randgen
from helpers import serialize_domain

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "domain-front-end.txt"

# a line break is a word too, so positions stay close to the original's
_WORD_RE = re.compile(r"\n|->|[A-Za-z0-9_.]+|[^\sA-Za-z0-9_.]")
_POOL = (
    "param", "condition", "action", "template", "initial", "goal", "values", "pre",
    "outcome", "declared", "body", "prob", "seq", "fb", "skip", "act", "cond", "tmpl",
    "S", "F", "R", "{", "}", "(", ")", ",", ";", "=", "->", "%",
    "0", "1", "0.5", "0.25", "1e-10", "2", "x", "table1",
)


def _widegen():
    spec = importlib.util.spec_from_file_location("widegen", REPO / "perfbench" / "widegen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _kind(word: str) -> str:
    return "number" if word[0].isdigit() else "name" if word[0].isalpha() else word


def _mutate(text: str, rng: random.Random) -> str:
    """``text`` without comments, with one or two word-level edits."""
    words = _WORD_RE.findall(re.sub(r"#[^\n]*", "", text))
    for _ in range(rng.choice((1, 1, 2))):
        i = rng.randrange(len(words))
        op = rng.randrange(6)
        if op == 0:
            del words[i]
        elif op == 1:
            words.insert(i, words[i])
        elif op == 2:
            j = rng.randrange(len(words))
            words[i], words[j] = words[j], words[i]
        elif op == 5:
            words[i] = rng.choice(_POOL)
        else:
            # a word of the same kind, which more often parses
            words[i] = rng.choice([w for w in words if _kind(w) == _kind(words[i])])
    return " ".join(words)


# inserted by character-level edits: whitespace that is not ``" "`` or
# ``"\n"`` (``"\x85"``, ``"\x1c"`` and ``"\u2028"`` end a line for
# ``str.splitlines`` but not for the language), characters that begin a
# token or a comment, and characters that begin none
_CHARS = (
    "\r", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2003", "\u2028", " ", "\n",
    "#", "-", ">", ".", "e", "E", "+", "0", "7", "\u00e9", "%", "{", "}", ";",
)
_UNICODE_WS = ("\t", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2003", "\u2028")


def _char_mutate(text: str, rng: random.Random) -> str:
    """``text`` with one to three characters deleted, inserted or replaced."""
    chars = list(text)
    for _ in range(rng.choice((1, 1, 2, 3))):
        i = rng.randrange(len(chars))
        op = rng.randrange(3)
        if op == 0:
            del chars[i]
        elif op == 1:
            chars.insert(i, rng.choice(_CHARS))
        else:
            chars[i] = rng.choice(_CHARS)
    return "".join(chars)


def _char_inputs(bases: dict[str, str]) -> dict[str, str]:
    """The character-level inputs of the bundled domains and of ``wide6``."""
    corpus = {}
    for b, name in enumerate(("soda", "soda_deterministic", "wide6")):
        text = bases[name]
        rng = random.Random(5000 + b)
        crlf = text.replace("\n", "\r\n")
        unterminated = text.rstrip("\n") + "\n# a comment on a last line with no newline"
        corpus[f"{name}/crlf"] = crlf
        corpus[f"{name}/tabs"] = text.replace("  ", "\t").replace(" ", "\t ")
        corpus[f"{name}/unicode-ws"] = "".join(
            rng.choice(_UNICODE_WS) if c == " " else c for c in text
        )
        corpus[f"{name}/last-line-comment"] = unterminated
        corpus[f"{name}/last-line-comment-crlf"] = unterminated.replace("\n", "\r\n")
        # the end of input inside a comment, after a CRLF line
        corpus[f"{name}/crlf-cut"] = crlf[: crlf.rindex("}")] + "# cut\r\n\t"
        for k in range(12 if name == "soda" else 8):
            source = crlf if k % 3 == 2 else text
            corpus[f"{name}/char{k:03d}"] = _char_mutate(source, random.Random(6000 + 100 * b + k))
    soda = bases["soda"]
    stray = {
        "stray-minus": ("goal {", "- goal {"),
        "stray-arrow-gap": ("outcome 0.95 -> S", "outcome 0.95 - > S"),
        "stray-dot": ("prob 0.9", "prob .9"),
        "stray-trailing-dot": ("prob 0.9", "prob 0.9."),
        "stray-e": ("prob 0.9", "prob 0.9e"),
        "stray-e-sign": ("prob 0.9", "prob 0.9e-"),
        "stray-exponent": ("prob 0.9", "prob 9e-1"),
        "stray-nonascii": ("param object", "param obj\u00e9ct"),
        "stray-tab-column": ("goal {", "\t\t% goal {"),
        "stray-after-comment": ("goal {", "# % -\r\n\xa0%goal {"),
    }
    for name, (old, new) in stray.items():
        assert old in soda, name
        corpus[f"soda/{name}"] = soda.replace(old, new, 1)
    return corpus


def _repeat_initial(text: str, value: str | None) -> str:
    """``text`` with the first assignment of ``initial`` repeated at its end.

    ``value`` replaces the repeat's status; None keeps it.
    """
    head, _, rest = text.partition("initial {")
    clause, _, tail = rest.partition("}")
    first = clause.split(";")[0].strip()
    if value is not None:
        first = first.rsplit("=", 1)[0] + f"= {value}"
    return f"{head}initial {{{clause.rstrip()} ; {first} }}{tail}"


def inputs() -> dict[str, str]:
    """Every input of the corpus, by name, in a fixed order."""
    bases = {
        name: (REPO / "domains" / f"{name}.bbt").read_text(encoding="utf-8")
        for name in ("soda", "soda_deterministic")
    }
    bases["wide6"] = _widegen().generate(6, seed=3)
    spec_rng = random.Random(19)
    for k in range(20):
        bases[f"randgen{k:02d}"] = serialize_domain(randgen.random_domain_spec(spec_rng))
    counts = {"soda": 120, "soda_deterministic": 80, "wide6": 60}
    corpus = {}
    for b, (name, text) in enumerate(bases.items()):
        corpus[name] = text
        for k in range(counts.get(name, 3)):
            corpus[f"{name}/mut{k:03d}"] = _mutate(text, random.Random(1000 * b + k))
    bases["wide6"] += "initial { holding(t0) = F }\n"
    for name in ("soda", "soda_deterministic", "wide6"):
        text = bases[name]
        corpus[f"{name}/initial-repeat-same"] = _repeat_initial(text, None)
        corpus[f"{name}/initial-repeat-other"] = _repeat_initial(text, "S")
    # a repeat in initial is reported before, or after, other faults
    soda = bases["soda"]
    corpus["soda/initial-repeat-bad-goal"] = _repeat_initial(soda, None).replace(
        "goal { seen(soda) = S }", "goal { seen(soda) = F }"
    )
    corpus["soda/initial-repeat-outcome-repeat"] = _repeat_initial(soda, None).replace(
        "outcome 0.5 -> S { seen(object) = S }",
        "outcome 0.5 -> S { seen(object) = S ; seen(object) = F }",
    )
    corpus["soda/initial-repeat-unknown"] = _repeat_initial(soda, None).replace(
        "initial { seen(soda) = R", "initial { seen(cup) = R"
    )
    # rules that random edits seldom reach
    edits = {
        "rescale": ("outcome 0.95 -> S", "outcome 0.9500000004 -> S"),
        "declared-near-one": ("declared 0.8", "declared 0.8000000004"),
        "sum-off": ("outcome 0.95 -> S", "outcome 0.95000001 -> S"),
        "no-outcomes": ("outcome 1 -> S { luminousity_ok = S }", ""),
        "empty-args": ("act detect(object)", "act light_on()"),
        "cycle": ("act goto(table2)", "tmpl find(object)"),
        "prob-zero": ("prob 0.9", "prob 0"),
        "prob-over-one": ("prob 0.9", "prob 1.5"),
        "pre-repeat": ("pre { seen(object) = F }", "pre { seen(object) = F ; seen(soda) = F }"),
        "no-declared": (
            "declared 0.8 { seen(object) = S }\n  declared 0.2 { seen(object) = F }", ""
        ),
        "first-bad-leaf": (
            "act goto(table1)\n      act detect(object)", "act fly()\n      act swim()"
        ),
    }
    for name, (old, new) in edits.items():
        assert old in soda, name
        corpus[f"soda/{name}"] = soda.replace(old, new)
    corpus.update(_char_inputs(bases))
    # errors that no other input raises
    checks = {
        "duplicate-initial": ("goal {", "initial { luminousity_ok = F }\ngoal {"),
        "duplicate-goal": ("initial {", "goal { seen(soda) = F } prob 0.5\ninitial {"),
        "argument-space": (
            "action light_on {",
            "param thing { cup }\naction grab(thing) {\n  pre { at(thing) = S }\n"
            "  outcome 1 -> S { }\n}\n\naction light_on {",
        ),
        "signature-repeat": ("action goto(place)", "action goto(place, place)"),
        "outcome-zero": ("outcome 0.05 -> F { }", "outcome 0 -> F { }"),
    }
    for name, (old, new) in checks.items():
        assert old in soda, name
        corpus[f"soda/{name}"] = soda.replace(old, new, 1)
    return corpus


def _shape(node: BTNode) -> str:
    if isinstance(node, Condition):
        return f"cond {node.literal}"
    if isinstance(node, ActionNode):
        return f"act {node.action.id}"
    return f"{node.kind}[{', '.join(_shape(c) for c in node.children)}]"


def _outcomes(resolver) -> list:
    return [(repr(o.probability), o.postconditions, o.report.value) for o in resolver.outcomes]


def record(text: str) -> str:
    """What parsing and grounding ``text`` gives, on one line."""
    try:
        domain = ground(parse_domain(text))
        facts = [
            domain.literals,
            [(lit, [v.value for v in vals]) for lit, vals in domain.allowed_values.items()],
            [(a.id, a.preconditions, _outcomes(a)) for a in domain.actions],
            [(t.id, t.preconditions, _outcomes(t)) for t in domain.templates],
            [_shape(t.instantiate()) for t in domain.templates],
            domain.goal,
            repr(domain.goal_probability),
            [(lit, v.value) for lit, v in domain.initial_assignment.items()],
            [
                (lit, [(r.id, repr(gain)) for r, gain in domain.establishing(lit)])
                for lit in domain.literals
            ],
        ]
    except BbtError as exc:
        return "\t".join((
            type(exc).__name__,
            str(exc),
            str(exc.line),
            str(exc.col),
            " ".join(getattr(exc, "expected", ())),
        ))
    digest = hashlib.sha256(repr(facts).encode()).hexdigest()[:32]
    return f"ok\t{digest}"


def render() -> str:
    return "".join(f"{name}\t{record(text)}\n" for name, text in inputs().items())


if __name__ == "__main__":
    GOLDEN.write_text(render(), encoding="utf-8")
    print(f"wrote {GOLDEN.relative_to(REPO)}")
