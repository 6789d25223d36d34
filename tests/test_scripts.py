"""Smoke tests: the scripts under ``scripts/`` run end to end as subprocesses."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bbt import PhysicalState, engine, plan_request_from_domain, refine_tree
from bbt.tree import TreeTables

import test_counters
from test_counters import (
    ENTRIES_TICKED,
    GATE_READS,
    PINS,
    STATES_BUILT,
    WIDE_96_PLAN_VISITS,
    WIDE_VISITS,
)

REPO = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_run_soda(tmp_path):
    proc = run_script("run_soda.py", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    achieved = [line for line in proc.stdout.splitlines() if line.startswith("achieved")]
    assert achieved == [
        "achieved 0.968750 (replay 0.968750, 11 root ticks)",
        "achieved 0.962015 (replay 0.962015, 11 root ticks)",
    ]
    for name in ("soda", "soda_deterministic"):
        assert (tmp_path / f"{name}.tree.json").stat().st_size > 0
        assert (tmp_path / f"{name}.dot").read_text(encoding="utf-8").startswith("digraph")


def test_cross_validate():
    proc = run_script("cross_validate.py", "--runs", "500", "--seeds", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "analytical success probability 0.962015"
    assert lines[2] == "seed\tempirical\tdeviation/se"
    seed, rate, sigmas = lines[3].split("\t")
    assert seed == "0"
    assert 0.0 <= float(rate) <= 1.0
    assert abs(float(sigmas)) <= 5.0


def test_cross_validate_deep_soda(tmp_path):
    # canonical latch views keep soda at 0.999 to 8 terminal belief
    # entries, small enough to plan and simulate in a smoke test
    text = (REPO / "domains" / "soda.bbt").read_text(encoding="utf-8")
    assert text.count("} prob 0.9\n") == 1
    domain = tmp_path / "soda_deep.bbt"
    domain.write_text(text.replace("} prob 0.9\n", "} prob 0.999\n"), encoding="utf-8")
    proc = run_script(
        "cross_validate.py", "--domain", str(domain), "--runs", "5000", "--seeds", "2"
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "analytical success probability 0.999205"
    assert lines[2] == "seed\tempirical\tdeviation/se"
    assert [line.split("\t")[0] for line in lines[3:]] == ["0", "1"]
    for line in lines[3:]:
        assert abs(float(line.split("\t")[2])) <= 5.0


def test_code_lines(tmp_path):
    (tmp_path / "a.py").write_text(
        '"""Module docstring,\n\nover three lines."""\n'
        "\n"
        "# a comment\n"
        "def f():\n"
        '    """Function docstring."""\n'
        '    text = """not a docstring\n'
        '    """\n'
        "    return text  # counted\n"
        "\n"
        "class C:\n"
        "    '''Class docstring.'''\n"
        "    x = 1\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text("x = 1\n", encoding="utf-8")
    proc = run_script("code_lines.py", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["     6  a.py", "     1  b.py", "     7  total"]
    package = run_script("code_lines.py")
    assert package.returncode == 0, package.stderr
    lines = package.stdout.splitlines()
    counts = [int(line.split()[0]) for line in lines]
    assert lines[-1].split()[1] == "total" and counts[-1] == sum(counts[:-1])
    assert any(line.endswith("  domain.py") for line in lines)


# the keys of a scripts/bench.py record, which every BENCH_*.json holds
RECORD_KEYS = {"suite", "commit", "python", "cpu_count", "pyc", "repeats", "workloads"}


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """The printed lines and the record of one ``bench.py --repeats 1 --out`` run."""
    out = tmp_path_factory.mktemp("bench") / "bench.json"
    proc = run_script("bench.py", "--repeats", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = {line.split()[0]: line for line in proc.stdout.splitlines()}
    return lines, json.loads(out.read_text(encoding="utf-8"))


def counter_heads(lines, prefix, fields):
    """The ``name field value ...`` heads of the lines of workloads named ``prefix*``."""
    heads = []
    for name, line in lines.items():
        if name.startswith(prefix):
            words = line.split()
            pairs = dict(zip(words[1::2], words[2::2]))
            heads.append(" ".join([name, *(f"{key} {pairs[key]}" for key in fields)]))
    return heads


def test_bench(bench):
    lines, record = bench
    assert set(record) == RECORD_KEYS
    workloads = record["workloads"]
    assert list(lines) == list(workloads)
    for workload in workloads.values():
        assert workload["times_s"]
        for timing in workload["times_s"].values():
            assert set(timing) == {"best", "median", "iqr"}
    for name, line in lines.items():
        for key in workloads[name]["times_s"]:
            assert f" {key} " in line
        assert line.endswith(" ms")


def test_plan_rate(bench):
    lines, record = bench
    # the soda and wide-24 rounds, root ticks and gate reads of the deleted
    # scripts/plan_rate.py, now printed by bench.py
    assert counter_heads(lines, "plan-", ("rounds", "root_ticks", "gate_reads")) == [
        "plan-soda-0.99 rounds 6 root_ticks 27 gate_reads 31",
        "plan-soda-0.999 rounds 7 root_ticks 32 gate_reads 36",
        "plan-deep-6-0.99 rounds 84 root_ticks 579 gate_reads 3136",
        "plan-wide-24 rounds 53 root_ticks 151 gate_reads 321",
        "plan-wide-96 rounds 197 root_ticks 583 gate_reads 1281",
        "plan-wide-192 rounds 389 root_ticks 1159 gate_reads 2561",
        "plan-wide-384 rounds 773 root_ticks 2311 gate_reads 5121",
    ]
    for name, line in lines.items():
        if name.startswith("plan-"):
            assert " refine_tree " in line and " simulate " in line
    counters = {name: workload["counters"] for name, workload in record["workloads"].items()}
    # each counter the record shares with a pin of tests/test_counters.py equals it
    names = {
        ("soda_domain", 0.99): "plan-soda-0.99",
        ("soda_domain", 0.999): "plan-soda-0.999",
        ("wide_domain", None): "plan-wide-24",
    }
    shared = ("rounds", "terminal_entries", "ticks_used", "root_ticks")
    for fixture, prob, (rounds, _, terminal, ticks_used, root_ticks) in PINS:
        if (fixture, prob) in names:
            got = counters[names[fixture, prob]]
            assert tuple(got[k] for k in shared) == (rounds, terminal, ticks_used, root_ticks)
    for fixture, prob, pinned in STATES_BUILT:
        assert counters[names[fixture, prob]]["states_built"] == pinned
    for fixture, prob, pinned in ENTRIES_TICKED:
        if (fixture, prob) in names:
            got = counters[names[fixture, prob]]
            assert (got["entries_ticked"], got["simulate_entries_ticked"]) == pinned
    for size, reads in GATE_READS.items():
        assert counters[f"plan-wide-{size}"]["gate_reads"] == reads
    wide = counters["plan-wide-24"]
    assert (wide["visits"], wide["simulate_visits"]) == WIDE_VISITS
    assert counters["plan-wide-96"]["visits"] == WIDE_96_PLAN_VISITS
    assert counters["plan-deep-6-0.99"]["rounds"] == 84


def test_exec_rate(bench):
    lines, record = bench
    # the golden soda-goal exec reads 0.961200 over these 20,000 runs at seed 42
    assert counter_heads(lines, "exec-", ("runs", "successes")) == [
        "exec-soda-goal runs 20000 successes 19224",
        "exec-soda-0.999 runs 20000 successes 19982",
    ]
    counters = record["workloads"]
    assert counters["exec-soda-goal"]["counters"] == {"runs": 20000, "successes": 19224}
    assert counters["exec-soda-0.999"]["counters"] == {"runs": 20000, "successes": 19982}
    for name in ("exec-soda-goal", "exec-soda-0.999"):
        assert " statuses " in lines[name]


def test_load_rate(bench):
    lines, record = bench
    assert counter_heads(lines, "load-", ("literals", "resolvers")) == [
        "load-soda literals 5 resolvers 7",
        "load-wide-24 literals 51 resolvers 51",
        "load-wide-96 literals 195 resolvers 195",
    ]
    counters = record["workloads"]
    assert counters["load-soda"]["counters"] == {"literals": 5, "resolvers": 7}
    assert counters["load-wide-24"]["counters"] == {"literals": 51, "resolvers": 51}
    assert counters["load-wide-96"]["counters"] == {"literals": 195, "resolvers": 195}
    for name in ("load-soda", "load-wide-24", "load-wide-96"):
        assert " parse_domain " in lines[name] and " ground " in lines[name]


def test_bench_counted_run_restores_the_bindings(soda_domain):
    # the timed runs that follow a counted one must run the unpatched code,
    # also when the counted call raises
    bench = test_counters.bench
    patched = (
        (engine, "belief_tick"),
        (engine, "_tick"),
        (TreeTables, "_file_all"),
        (PhysicalState, "__init__"),
        (PhysicalState, "_derived"),
    )
    before = [getattr(owner, name) for owner, name in patched]
    request = plan_request_from_domain(soda_domain)
    bench.counted(lambda: refine_tree(request))
    assert [getattr(owner, name) for owner, name in patched] == before
    with pytest.raises(ZeroDivisionError):
        bench.counted(lambda: 1 / 0)
    assert [getattr(owner, name) for owner, name in patched] == before


def test_bench_records():
    # every committed record keeps the shape of the first, so later ones compare with it
    paths = sorted(REPO.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        record = json.loads(path.read_text(encoding="utf-8"))
        assert RECORD_KEYS <= set(record), path.name
        for workload in record["workloads"].values():
            for value in workload["counters"].values():
                assert type(value) is int, path.name


def test_newest_record_holds_this_trees_counters(bench):
    # the newest record by number, so BENCH_100 comes after BENCH_99
    _, record = bench
    newest = max(REPO.glob("BENCH_*.json"), key=lambda path: int(path.stem.split("_")[1]))
    committed = json.loads(newest.read_text(encoding="utf-8"))["workloads"]
    for name, workload in record["workloads"].items():
        if name in committed:
            assert committed[name]["counters"] == workload["counters"], (newest.name, name)


def test_interp_matrix():
    # one interpreter, its own reference: the goal plan of the deterministic
    # domain and both depth-limit files; the deeper file exits 1
    proc = run_script(
        "interp_matrix.py", "--python", sys.executable,
        "--domain", "soda_deterministic", "--prob", "goal",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith(": reference, 10 calls, exit codes 7 x 0, 3 x 1\n")
