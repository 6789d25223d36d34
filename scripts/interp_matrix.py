"""Run the bbt CLI under several CPython interpreters and compare their outputs.

Each interpreter runs the same matrix of ``python -m bbt`` calls, each in
a fresh process, in a working directory of its own, on the package under
``src/``:

- ``plan --dot``, ``simulate`` under ``BBT_LOG=debug``, ``exec --seed 7
  --runs 2000`` and ``export-dot --out`` of the tree the plan wrote;
- on ``domains/soda.bbt``, ``domains/soda_deterministic.bbt``, the
  24-item domain of ``perfbench/widegen.py`` (seed 0) and ``inexact``, soda
  with outcome probabilities whose sum is not exactly 1 in doubles (see
  :func:`inexact_soda`), at the domain's goal, 0.99 and 0.999;
- ``simulate``, ``exec --seed 7 --runs 10`` and ``export-dot`` of tree files
  ``bbt.treefile.MAX_DEPTH`` levels deep and one level deeper.

A call's exit code, standard output, standard error and the files it
wrote must equal, byte for byte, those of the reference interpreter: the
first 3.11 given, else the first given.  Without ``--python``, the
interpreters are those under ``~/.pyenv/versions/3.1*``.  Every call gets
``PYTHONHASHSEED=0`` and writes no bytecode.  Prints one line per
interpreter, the reference's with the count of each exit code, and each
differing call; exits 1 when any call differs and 2 when no interpreter is
found.

Usage: python3 scripts/interp_matrix.py [--python PATH ...]
       [--domain soda|soda_deterministic|wide|inexact ...]
       [--prob goal|0.99|0.999 ...]
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from bbt.treefile import MAX_DEPTH  # noqa: E402

DOMAINS = ("soda", "soda_deterministic", "wide", "inexact")
PROBS = ("goal", "0.99", "0.999")


def interpreters() -> list[Path]:
    """The CPython 3.1x interpreters under ``~/.pyenv/versions``, oldest first."""
    found = []
    for version in (Path.home() / ".pyenv" / "versions").glob("3.1*"):
        python = version / "bin" / "python"
        if python.is_file():
            key = tuple(int(part) for part in version.name.split(".") if part.isdigit())
            found.append((key, python))
    return [python for _, python in sorted(found)]


def inexact_soda() -> str:
    """``domains/soda.bbt`` with ``detect`` given four outcomes that sum to 1 - 2.2e-10.

    Validation accepts the sum and grounding rescales the outcomes by it,
    so a total that rounds differently shows in every mass downstream.
    Summed left to right, the four give 0.9999999997825; their correctly
    rounded sum is 0.9999999997825001.
    """
    text = (REPO / "domains" / "soda.bbt").read_text(encoding="utf-8")
    exact = "  outcome 0.5 -> S { seen(object) = S }\n  outcome 0.5 -> F { seen(object) = F }\n"
    inexact = (
        "  outcome 0.789 -> S { seen(object) = S }\n"
        "  outcome 0.094 -> F { seen(object) = F }\n"
        "  outcome 0.028 -> F { seen(object) = F }\n"
        "  outcome 0.0889999997825 -> F { }\n"
    )
    if exact not in text:
        raise SystemExit("domains/soda.bbt no longer holds detect's two outcomes")
    return text.replace(exact, inexact)


def domain_texts(names: list[str]) -> dict[str, str]:
    """Domain file name -> text."""
    texts = {}
    for name in names:
        if name == "wide":
            spec = importlib.util.spec_from_file_location(
                "widegen", REPO / "perfbench" / "widegen.py"
            )
            widegen = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(widegen)
            texts["wide.bbt"] = widegen.generate(24, seed=0)
        elif name == "inexact":
            texts["inexact.bbt"] = inexact_soda()
        else:
            texts[f"{name}.bbt"] = (REPO / "domains" / f"{name}.bbt").read_text(encoding="utf-8")
    return texts


def chain(levels: int) -> str:
    """A tree file of one-child Sequences over a soda condition, ``levels`` nodes deep."""
    leaf = '{"kind": "condition", "literal": "seen(soda)"}'
    body = '{"kind": "sequence", "children": [' * (levels - 1) + leaf + "]}" * (levels - 1)
    return '{"format": 1, "root": ' + body + "}\n"


def matrix(domains: list[str], probs: list[str]) -> list[tuple[str, list[str], str, list[str]]]:
    """(case name, CLI arguments, BBT_LOG, files the call writes), in run order."""
    cases = []
    for name in domains:
        domain = f"{name}.bbt"
        for prob in probs:
            tag = f"{name}-{prob}"
            tree = f"{tag}.json"
            plan = ["plan", "--domain", domain, "--out", tree, "--dot", f"{tag}.plan.dot"]
            if prob != "goal":
                plan += ["--prob", prob]
            on_tree = ["--domain", domain, "--tree", tree]
            cases += [
                (f"{tag} plan", plan, "error", [tree, f"{tag}.plan.dot"]),
                (f"{tag} simulate", ["simulate", *on_tree], "debug", []),
                (f"{tag} exec", ["exec", *on_tree, "--seed", "7", "--runs", "2000"], "error", []),
                (f"{tag} export-dot", ["export-dot", *on_tree, "--out", f"{tag}.dot"], "error",
                 [f"{tag}.dot"]),
            ]
    for levels in (MAX_DEPTH, MAX_DEPTH + 1):
        on_tree = ["--domain", "soda.bbt", "--tree", f"chain-{levels}.json"]
        cases += [
            (f"chain-{levels} simulate", ["simulate", *on_tree], "error", []),
            (f"chain-{levels} exec", ["exec", *on_tree, "--seed", "7", "--runs", "10"], "error",
             []),
            (f"chain-{levels} export-dot", ["export-dot", *on_tree], "error", []),
        ]
    return cases


def run_matrix(python: Path, work: Path, texts: dict[str, str], cases) -> dict[str, tuple]:
    """Case name -> (exit code, stdout, stderr, written files) under ``python``."""
    work.mkdir()
    for name, text in texts.items():
        (work / name).write_text(text, encoding="utf-8")
    for levels in (MAX_DEPTH, MAX_DEPTH + 1):
        (work / f"chain-{levels}.json").write_text(chain(levels), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONHASHSEED="0")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    results = {}
    for name, args, log, written in cases:
        env["BBT_LOG"] = log
        proc = subprocess.run(
            [str(python), "-m", "bbt", *args], cwd=work, env=env, capture_output=True, timeout=600
        )
        files = [(work / f).read_bytes() if (work / f).exists() else None for f in written]
        results[name] = (proc.returncode, proc.stdout, proc.stderr, files)
    return results


def version(python: Path) -> str:
    proc = subprocess.run(
        [str(python), "-c", "import platform; print(platform.python_version())"],
        capture_output=True, text=True, check=True,
    )
    return proc.stdout.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--python", action="append", type=Path, help="interpreter to run")
    parser.add_argument("--domain", action="append", choices=DOMAINS)
    parser.add_argument("--prob", action="append", choices=PROBS)
    args = parser.parse_args()
    pythons = args.python or interpreters()
    if not pythons:
        print("no interpreter found", file=sys.stderr)
        return 2
    versions = [version(python) for python in pythons]
    ref = next((i for i, v in enumerate(versions) if v.startswith("3.11.")), 0)
    order = [ref, *(i for i in range(len(pythons)) if i != ref)]
    domains = args.domain or list(DOMAINS)
    # the depth-limit files are trees of the soda domain
    texts = domain_texts(sorted({*domains, "soda"}))
    cases = matrix(domains, args.prob or list(PROBS))
    differs = False
    with tempfile.TemporaryDirectory() as tmp:
        for i in order:
            results = run_matrix(pythons[i], Path(tmp) / str(i), texts, cases)
            if i == ref:
                want = results
                codes = [result[0] for result in results.values()]
                counts = ", ".join(f"{codes.count(c)} x {c}" for c in sorted(set(codes)))
                print(f"{versions[i]}: reference, {len(cases)} calls, exit codes {counts}")
                continue
            bad = [name for name in want if results[name] != want[name]]
            differs = differs or bool(bad)
            print(f"{versions[i]}: {len(cases) - len(bad)} of {len(cases)} calls identical")
            for name in bad:
                print(f"  differs: {name}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
