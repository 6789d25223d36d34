import contextlib
import io
import json
import logging
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbt import cli, treefile
from bbt.cli import main
from bbt.domain import ground, parse_domain
from bbt.dot import to_dot
from bbt.errors import ParseError, SemanticError
from bbt.planner import plan_request_from_domain, refine_tree
from bbt.tree import ActionNode, Condition, Fallback, Sequence, Skipper
from bbt.treefile import MAX_DEPTH, dumps_tree, load_tree, save_tree, tree_from_doc

import randgen
from helpers import tree_to_doc


SODA_GOAL_20000 = (
    "runs 20000\n"
    "empirical_success_rate 0.961200\n"
    "analytical_success_probability 0.962015\n"
)
SODA_999_2000 = (
    "runs 2000\n"
    "empirical_success_rate 0.998500\n"
    "analytical_success_probability 0.999205\n"
)


def run_bbt(*args):
    """Run ``python -m bbt`` in a fresh interpreter, capturing its output."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "bbt", *args],
        capture_output=True, text=True, env=env, timeout=60,
    )


class _Unwritable:
    """A standard error stream that a full disk or a closed descriptor stands behind."""

    def write(self, text):
        raise OSError(28, "No space left on device")


@pytest.fixture()
def planned_paths(tmp_path, soda_path):
    tree = tmp_path / "tree.json"
    dot = tmp_path / "tree.dot"
    code = main(
        [
            "plan",
            "--domain",
            str(soda_path),
            "--out",
            str(tree),
            "--dot",
            str(dot),
        ]
    )
    assert code == 0
    return tree, dot


class TestPlan:
    def test_plan_log_and_exit(self, tmp_path, soda_det_path, capsys):
        out = tmp_path / "tree.json"
        code = main(["plan", "--domain", str(soda_det_path), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.strip().splitlines()
        assert lines[-1].endswith("0.968750")
        assert lines[1].split("\t") == ["2", "insert", "luminousity_ok", "0.500000"]
        assert out.exists()

    def test_plan_prob_override(self, tmp_path, soda_det_path, capsys):
        out = tmp_path / "tree.json"
        code = main(
            ["plan", "--domain", str(soda_det_path), "--out", str(out), "--prob", "0.6"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1].endswith("0.875000")

    def test_unsatisfiable_goal_exits_2(self, tmp_path, capsys):
        domain = tmp_path / "impossible.bbt"
        domain.write_text(
            "condition c values { S F }\ninitial { c = F }\ngoal { c = S } prob 0.5\n",
            encoding="utf-8",
        )
        out = tmp_path / "tree.json"
        code = main(["plan", "--domain", str(domain), "--out", str(out)])
        assert code == 2
        assert "'c'" in capsys.readouterr().err

    def test_malformed_domain_exits_1_with_location(self, tmp_path, capsys):
        domain = tmp_path / "broken.bbt"
        domain.write_text("param p { a\ncondition", encoding="utf-8")
        out = tmp_path / "tree.json"
        code = main(["plan", "--domain", str(domain), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "2:" in err

    def test_lone_carriage_return_does_not_end_a_line(self, tmp_path, capsys):
        # only "\n" ends a line, in the CLI as in parse_domain
        text = "param p { a }\r%"
        domain = tmp_path / "cr.bbt"
        domain.write_bytes(text.encode("utf-8"))
        with pytest.raises(ParseError) as raised:
            parse_domain(text)
        assert (raised.value.line, raised.value.col) == (1, 15)
        code = main(["plan", "--domain", str(domain), "--out", str(tmp_path / "tree.json")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {raised.value}\n"

    def test_crlf_file_reports_and_plans_as_its_lf_copy(self, tmp_path, soda_det_path, capsys):
        good = soda_det_path.read_text(encoding="utf-8")
        bad = good.replace("initial {", "initial % {", 1)

        def plan(text, line_end):
            path, out = tmp_path / "domain.bbt", tmp_path / "tree.json"
            path.write_bytes(text.replace("\n", line_end).encode("utf-8"))
            out.unlink(missing_ok=True)
            code = main(["plan", "--domain", str(path), "--out", str(out)])
            captured = capsys.readouterr()
            return code, captured.out, captured.err, out.exists() and out.read_bytes()

        assert plan(good, "\r\n") == plan(good, "\n")
        assert plan(bad, "\r\n") == plan(bad, "\n")
        code, _, err, _ = plan(bad, "\n")
        assert code == 1 and "unexpected character '%'" in err

    @pytest.mark.parametrize("prob", ["0", "-0.5", "1.5", "nan"])
    def test_prob_outside_unit_interval_exits_1(self, tmp_path, soda_det_path, capsys, prob):
        out = tmp_path / "tree.json"
        code = main(["plan", "--domain", str(soda_det_path), "--out", str(out), "--prob", prob])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: --prob") and err.count("\n") == 1
        assert not out.exists()

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code = main(
            ["plan", "--domain", str(tmp_path / "nope.bbt"), "--out", str(tmp_path / "t")]
        )
        assert code == 1


class TestSimulate:
    def test_reports_probability(self, planned_paths, soda_path, capsys):
        tree, _ = planned_paths
        code = main(["simulate", "--domain", str(soda_path), "--tree", str(tree)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.strip().splitlines()[-1] == "success_probability 0.962015"

    def test_trivial_success_tree(self, tmp_path, soda_path, capsys):
        domain = ground(parse_domain(soda_path.read_text(encoding="utf-8")))
        tree = Sequence([Condition("at(table1)")])
        path = tmp_path / "trivial.json"
        save_tree(tree, path)
        text = soda_path.read_text(encoding="utf-8").replace(
            "initial { seen(soda) = R ; at(table1) = F ; at(table2) = F ; luminousity_ok = F }",
            "initial { at(table1) = S }",
        )
        domain_path = tmp_path / "sat.bbt"
        domain_path.write_text(text, encoding="utf-8")
        code = main(["simulate", "--domain", str(domain_path), "--tree", str(path)])
        assert code == 0
        assert (
            capsys.readouterr().out.strip().splitlines()[-1]
            == "success_probability 1.000000"
        )

    def test_deterministic_fixture_probability(self, tmp_path, soda_det_path, capsys):
        tree = tmp_path / "det.json"
        main(["plan", "--domain", str(soda_det_path), "--out", str(tree)])
        capsys.readouterr()
        code = main(["simulate", "--domain", str(soda_det_path), "--tree", str(tree)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.strip().splitlines()[-1] == "success_probability 0.968750"

    def test_tick_limit_exits_3(self, planned_paths, soda_path, capsys):
        tree, _ = planned_paths
        code = main(
            [
                "simulate",
                "--domain",
                str(soda_path),
                "--tree",
                str(tree),
                "--max-ticks",
                "1",
            ]
        )
        assert code == 3

    def test_wide_skipper_does_not_recurse_per_sibling(self, tmp_path, soda_path, capsys):
        # 3000 siblings: far past Python's default recursion limit of 1000
        tree = Skipper([Condition("seen(soda)") for _ in range(3000)])
        path = tmp_path / "wide.json"
        save_tree(tree, path)
        code = main(["simulate", "--domain", str(soda_path), "--tree", str(path)])
        assert code == 0
        assert capsys.readouterr().out.strip().splitlines()[-1] == "success_probability 0.000000"

    def test_round_trip_reproduces_planned_probability(
        self, planned_paths, soda_path, capsys, planned_stochastic
    ):
        tree, _ = planned_paths
        main(["simulate", "--domain", str(soda_path), "--tree", str(tree)])
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert line == f"success_probability {planned_stochastic.achieved:.6f}"

    def test_long_retry_chain_exits_0(self, tmp_path):
        # Fb[done, try x 300]: the mass of k failures, 0.05 ** k, underflows
        # to 0.0 from about k = 249, and those branches are dropped
        domain = tmp_path / "retry.bbt"
        domain.write_text(
            "condition done values { S F }\n"
            "action try { pre { } outcome 0.95 -> S { done = S } outcome 0.05 -> F { } }\n"
            "initial { done = F }\n"
            "goal { done = S } prob 0.9\n",
            encoding="utf-8",
        )
        children = [{"kind": "condition", "literal": "done"}]
        children += [{"kind": "action", "action": "try"}] * 300
        tree = tmp_path / "retry.json"
        tree.write_text(
            json.dumps({"format": 1, "root": {"kind": "fallback", "children": children}}),
            encoding="utf-8",
        )
        common = ["--domain", str(domain), "--tree", str(tree)]
        proc = run_bbt("simulate", *common)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines()[-1] == "success_probability 1.000000"
        proc = run_bbt("exec", *common, "--seed", "1", "--runs", "100")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines()[-1] == "analytical_success_probability 1.000000"


class TestExec:
    def test_single_run_is_binary(self, planned_paths, soda_path, capsys):
        tree, _ = planned_paths
        code = main(
            [
                "exec",
                "--domain",
                str(soda_path),
                "--tree",
                str(tree),
                "--seed",
                "1",
                "--runs",
                "1",
            ]
        )
        assert code == 0
        rate = float(capsys.readouterr().out.splitlines()[1].split()[1])
        assert rate in (0.0, 1.0)

    def test_same_seed_same_rate(self, planned_paths, soda_path, capsys):
        tree, _ = planned_paths
        rates = []
        for _ in range(2):
            main(
                [
                    "exec",
                    "--domain",
                    str(soda_path),
                    "--tree",
                    str(tree),
                    "--seed",
                    "77",
                    "--runs",
                    "500",
                ]
            )
            rates.append(capsys.readouterr().out.splitlines()[1])
        assert rates[0] == rates[1]

    def test_different_seed_differs(self, planned_paths, soda_path, capsys):
        tree, _ = planned_paths
        rates = []
        for seed in ("1", "2"):
            main(
                [
                    "exec",
                    "--domain",
                    str(soda_path),
                    "--tree",
                    str(tree),
                    "--seed",
                    seed,
                    "--runs",
                    "500",
                ]
            )
            rates.append(capsys.readouterr().out.splitlines()[1])
        assert rates[0] != rates[1]

    @pytest.mark.parametrize(
        "verb,domain,plan_args,args,code,out,err",
        [
            # the first two rows keep the ids they had as (prob, runs, expected)
            pytest.param(
                "exec", "soda", [], ["--runs", "20000"], 0, SODA_GOAL_20000, "",
                id=f"prob0-20000-{SODA_GOAL_20000}",
            ),
            pytest.param(
                "exec", "soda", ["--prob", "0.999"], ["--runs", "2000"], 0, SODA_999_2000, "",
                id=f"prob1-2000-{SODA_999_2000}",
            ),
            pytest.param(
                "exec", "wide", [], ["--runs", "2000"], 0,
                "runs 2000\n"
                "empirical_success_rate 0.919500\n"
                "analytical_success_probability 0.921600\n",
                "",
                id="wide-2000",
            ),
            # pruning drops mass from the analytical result, and exec says how much
            pytest.param(
                "exec", "soda", ["--prob", "0.999"],
                ["--runs", "2000", "--prune-epsilon", "0.3"], 0,
                "runs 2000\n"
                "empirical_success_rate 0.998500\n"
                "unresolved_mass 0.500000\n"
                "analytical_success_probability 0.500000\n",
                "",
                id="prune-epsilon-0.3",
            ),
            # simulate says the same, below the one entry left
            pytest.param(
                "simulate", "soda", ["--prob", "0.999"], ["--prune-epsilon", "0.3"], 0,
                "0.5 | at(table1)=F,at(table2)=F,luminousity_ok=S,seen(soda)=S,seen(sprayer)=R"
                " | r=S | pending=-\n"
                "unresolved_mass 0.500000\n"
                "success_probability 0.500000\n",
                "",
                id="simulate-prune-epsilon-0.3",
            ),
            pytest.param(
                "exec", "soda", [], ["--runs", "2000", "--max-ticks", "3"], 3,
                "", "simulation limit: exceeded the limit of 3 root ticks\n",
                id="max-ticks-3",
            ),
            # seeds outside [0, 2**64) are masked to 64 bits before mixing
            pytest.param(
                "exec", "soda", [], ["--runs", "2000", "--seed", "-1"], 0,
                "runs 2000\n"
                "empirical_success_rate 0.956500\n"
                "analytical_success_probability 0.962015\n",
                "",
                id="seed-minus-1",
            ),
            pytest.param(
                "exec", "soda", [], ["--runs", "2000", "--seed", str(2**64 + 5)], 0,
                "runs 2000\n"
                "empirical_success_rate 0.965000\n"
                "analytical_success_probability 0.962015\n",
                "",
                id="seed-2**64+5",
            ),
        ],
    )
    def test_pinned_output(
        self, request, tmp_path, capsys, verb, domain, plan_args, args, code, out, err
    ):
        # the sampled runs of a seed are part of the output contract
        path = request.getfixturevalue(f"{domain}_path")
        tree = tmp_path / "tree.json"
        assert main(["plan", "--domain", str(path), "--out", str(tree), *plan_args]) == 0
        capsys.readouterr()
        argv = [verb, "--domain", str(path), "--tree", str(tree)]
        if verb == "exec":
            argv += ["--seed", "42"]
        assert main([*argv, *args]) == code
        assert capsys.readouterr() == (out, err)

    @pytest.mark.parametrize("runs", ["0", "-3"])
    def test_runs_below_one_exits_1(self, planned_paths, soda_path, capsys, runs):
        tree, _ = planned_paths
        code = main(
            ["exec", "--domain", str(soda_path), "--tree", str(tree), "--seed", "1", "--runs", runs]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: --runs") and captured.err.count("\n") == 1


class TestUsageErrors:
    @pytest.mark.parametrize(
        "args,message",
        [
            (["simulate", "--max-ticks", "abc"], "bbt simulate: argument --max-ticks: invalid int"),
            (["simulate", "--bogus"], "bbt: unrecognized arguments: --bogus"),
            ([], "bbt: the following arguments are required: command"),
        ],
    )
    def test_usage_error_exits_1_with_one_line(self, soda_path, args, message):
        # argparse alone prints a usage block and exits 2, the planning-failure code
        if args:
            args = [*args, "--domain", str(soda_path), "--tree", "tree.json"]
        proc = run_bbt(*args)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"error: {message}") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    def test_help_exits_0(self):
        proc = run_bbt("simulate", "--help")
        assert proc.returncode == 0 and proc.stdout.startswith("usage: bbt simulate")


class TestParserPerProcess:
    """One parser serves every :func:`main` call in a process."""

    def test_three_calls_build_one_parser(self, tmp_path, soda_det_path, capsys, monkeypatch):
        built = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self.prog)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        cli.build_parser.cache_clear()
        domain, tree = str(soda_det_path), str(tmp_path / "tree.json")
        assert main(["plan", "--domain", domain, "--out", tree]) == 0
        assert main(["simulate", "--domain", domain, "--tree", tree]) == 0
        assert main(["export-dot", "--domain", domain, "--tree", tree]) == 0
        assert built == ["bbt", "bbt plan", "bbt simulate", "bbt exec", "bbt export-dot"]

    def test_usage_error_then_valid_call(self, tmp_path, soda_det_path, capsys):
        domain, tree = str(soda_det_path), str(tmp_path / "tree.json")
        bad = ["simulate", "--domain", domain, "--tree", tree, "--max-ticks", "x"]
        assert main(bad) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: bbt simulate: argument --max-ticks: invalid int value: 'x'\n"
        )
        assert main(["plan", "--domain", domain, "--out", tree]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines() == [
            "1\tinsert\tseen(soda)\t0.000000",
            "2\tinsert\tluminousity_ok\t0.500000",
            "3\tinsert\tseen(soda)\t0.875000",
            "4\tinsert\tseen(soda)\t0.968750",
        ]

    def test_help_wraps_to_the_width_of_each_call(self, capsys, monkeypatch):
        helps = []
        for columns in ("40", "120"):
            monkeypatch.setenv("COLUMNS", columns)
            with pytest.raises(SystemExit) as exit_:
                main(["plan", "--help"])
            assert exit_.value.code == 0
            helps.append(capsys.readouterr().out)
            # what a fresh process prints at this width
            assert helps[-1] == run_bbt("plan", "--help").stdout
        assert helps[0] != helps[1]


class TestLimitFlags:
    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--max-ticks", "-5"),
            ("--max-ticks", "0"),
            ("--max-entries", "0"),
            ("--prune-epsilon", "nan"),
            ("--prune-epsilon", "inf"),
            ("--prune-epsilon", "-0.1"),
            ("--prune-epsilon", "1"),
            ("--prune-epsilon", "2"),
        ],
    )
    def test_bad_limit_exits_1(self, tmp_path, soda_path, capsys, flag, value):
        out = tmp_path / "tree.json"
        code = main(["plan", "--domain", str(soda_path), "--out", str(out), flag, value])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag}") and captured.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["plan", "simulate", "exec"])
    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--max-ticks", "0", "--max-ticks must be at least 1, got 0"),
            ("--max-entries", "-2", "--max-entries must be at least 1, got -2"),
            ("--prune-epsilon", "nan", "--prune-epsilon must be finite and in [0, 1), got nan"),
            ("--prune-epsilon", "1", "--prune-epsilon must be finite and in [0, 1), got 1.0"),
        ],
    )
    def test_budgets_checked_before_any_file_is_read(
        self, tmp_path, capsys, verb, flag, value, message
    ):
        # neither file exists: the budget is rejected before either is opened
        missing = str(tmp_path / "missing")
        argv = [verb, "--domain", missing, flag, value]
        argv += {
            "plan": ["--out", missing],
            "simulate": ["--tree", missing],
            "exec": ["--tree", missing, "--seed", "1", "--runs", "1"],
        }[verb]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("verb", ["simulate", "exec"])
    def test_negative_max_ticks_is_not_a_limit_hit(self, planned_paths, soda_path, capsys, verb):
        tree, _ = planned_paths
        argv = [verb, "--domain", str(soda_path), "--tree", str(tree), "--max-ticks", "-5"]
        if verb == "exec":
            argv += ["--seed", "1", "--runs", "1"]
        code = main(argv)
        assert code == 1
        assert capsys.readouterr().err == "error: --max-ticks must be at least 1, got -5\n"

    @pytest.mark.parametrize("limit,held", [(1, 2), (2, 4), (3, 4), (20, 22)])
    def test_entry_limit_pinned_on_simulate(self, tmp_path, soda_path, capsys, limit, held):
        tree = tmp_path / "tree.json"
        plan = ["plan", "--domain", str(soda_path), "--out", str(tree), "--prob", "0.999"]
        assert main(plan) == 0
        capsys.readouterr()
        argv = ["simulate", "--domain", str(soda_path), "--tree", str(tree)]
        code = main(argv + ["--max-entries", str(limit)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            f"simulation limit: belief state holds {held} entries, limit is {limit}\n"
        )

    def test_entry_limit_pinned_on_plan(self, tmp_path, soda_path, capsys):
        out = tmp_path / "tree.json"
        code = main(
            ["plan", "--domain", str(soda_path), "--out", str(out), "--prob", "0.999",
             "--max-entries", "3"]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "simulation limit: belief state holds 4 entries, limit is 3\n"
        assert not out.exists()

    def test_pruned_mass_named_when_planning_stalls(self, tmp_path, soda_path, capsys):
        # what is left after pruning all succeeds; the failure is the pruned mass
        out = tmp_path / "tree.json"
        code = main(
            ["plan", "--domain", str(soda_path), "--out", str(out), "--prune-epsilon", "0.5"]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "planning failed: every terminal entry already succeeds;"
            " mass 0.500000 was pruned unresolved\n"
        )


class TestExportDot:
    def test_counts_match_tree(self, planned_paths, soda_path, capsys, planned_stochastic):
        tree_path, dot_path = planned_paths
        code = main(["export-dot", "--domain", str(soda_path), "--tree", str(tree_path)])
        assert code == 0
        text = capsys.readouterr().out
        n_nodes = sum(1 for _ in planned_stochastic.tree.iter_nodes())
        assert text.count("shape=") == n_nodes
        assert text.count(" -> ") == n_nodes - 1
        assert dot_path.read_text(encoding="utf-8") == text

    def test_budget_flags_rejected(self, planned_paths, soda_path):
        # export-dot never simulates, so it takes no simulation budget
        tree_path, _ = planned_paths
        proc = run_bbt(
            "export-dot", "--domain", str(soda_path), "--tree", str(tree_path), "--max-ticks", "5"
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: bbt: unrecognized arguments: --max-ticks 5\n"

    def test_idempotent_bytes(self, planned_paths, soda_path, capsys):
        tree_path, _ = planned_paths
        outputs = []
        for _ in range(2):
            main(["export-dot", "--domain", str(soda_path), "--tree", str(tree_path)])
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_minimal_tree_dot(self):
        tree = Sequence([Condition("a")])
        text = to_dot(tree)
        assert 'label="→"' in text
        assert "shape=ellipse" in text
        assert text.count(" -> ") == 1


class TestTreeFile:
    def test_round_trip_structure(self, soda_domain, planned_stochastic):
        doc = tree_to_doc(planned_stochastic.tree)
        assert doc["format"] == 1
        loaded = tree_from_doc(doc, soda_domain)
        assert dumps_tree(loaded) == dumps_tree(planned_stochastic.tree)

    def test_dumps_matches_json_dumps(self, soda_domain, wide_domain):
        def check(tree):
            assert dumps_tree(tree) == json.dumps(tree_to_doc(tree), indent=2) + "\n"

        rng = random.Random(3131)
        for _ in range(500):
            literals = randgen.random_literals(rng)
            actions = randgen.random_actions(rng, literals)
            check(randgen.random_tree(rng, literals, actions, max_nodes=20))
        # strings that json.dumps escapes
        check(Sequence([Condition('q"b\\s\u00fc\n'), Skipper([Condition("\u2192")])]))
        for domain, prob in ((soda_domain, None), (soda_domain, 0.999), (wide_domain, None)):
            check(refine_tree(plan_request_from_domain(domain, prob)).tree)

    def test_deep_chain_saves_without_recursion(self, soda_domain, tmp_path):
        def chain(depth):
            tree = Condition("seen(soda)")
            for level in range(depth):
                tree = (Sequence, Fallback, Skipper)[level % 3]([tree])
            return tree

        # shallow enough for json's own indenting encoder, which recurses
        shallow = chain(300)
        assert dumps_tree(shallow) == json.dumps(tree_to_doc(shallow), indent=2) + "\n"
        tree = chain(3000)
        kinds = [node.kind for node in tree.iter_nodes()]
        loaded = tree_from_doc(tree_to_doc(tree), soda_domain)
        assert [node.kind for node in loaded.iter_nodes()] == kinds
        # the indent alone makes the file about 90 MB; check its ends
        path = tmp_path / "deep.json"
        save_tree(tree, path)
        with path.open("rb") as f:
            head = f.read(64)
            f.seek(-64, 2)
            tail = f.read()
        assert head.startswith(b'{\n  "format": 1,\n  "root": {\n    "kind": "skipper",\n')
        assert tail.endswith(b"\n        ]\n      }\n    ]\n  }\n}\n")

    def test_unknown_action_rejected(self, soda_domain, soda_path, tmp_path, capsys):
        cond = {"kind": "condition", "literal": "at(table1)"}
        bad_docs = [
            {"format": 1, "root": {"kind": "action", "action": "teleport"}},
            [1],
            "tree",
            {"format": 1, "root": {"kind": "sequence", "children": [cond, 7]}},
            {"format": 1, "root": {"kind": "sequence", "children": "ab"}},
            {"format": 1, "root": {"kind": "fallback", "children": {"a": cond}}},
            {"format": 1, "root": {"kind": "condition", "literal": ["x"]}},
            {"format": 1, "root": {"kind": "action", "action": {"id": "light_on"}}},
            {"format": 1, "root": {"kind": ["sequence"], "children": [cond]}},
            # equal to 1 but not the integer 1
            {"format": True, "root": cond},
            {"format": 1.0, "root": cond},
        ]
        path = tmp_path / "bad.json"
        for doc in bad_docs:
            path.write_text(json.dumps(doc), encoding="utf-8")
            with pytest.raises(SemanticError):
                load_tree(path, soda_domain)
            code = main(["simulate", "--domain", str(soda_path), "--tree", str(path)])
            err = capsys.readouterr().err
            assert code == 1, doc
            assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "children, message",
        [
            (..., "fallback node in tree file has no children"),
            ([], "fallback node in tree file has no children"),
            ({}, "fallback node children are not a JSON list: {}"),
            (0, "fallback node children are not a JSON list: 0"),
            ("", "fallback node children are not a JSON list: ''"),
            (False, "fallback node children are not a JSON list: False"),
            (None, "fallback node children are not a JSON list: None"),
        ],
    )
    def test_missing_and_malformed_children_messages(self, soda_domain, children, message):
        root = {"kind": "fallback"}
        if children is not ...:
            root["children"] = children
        with pytest.raises(SemanticError) as err:
            tree_from_doc({"format": 1, "root": root}, soda_domain)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "doc, value",
        [
            ({"format": "1" * 5000}, "1" * 5000),
            ({"format": 1, "root": {"kind": "sequence", "children": [[7] * 2000]}}, [7] * 2000),
            ({"format": 1, "root": {"kind": "condition", "literal": "x" * 5000}}, "x" * 5000),
            ({"format": 1, "root": {"kind": "action", "action": ["y"] * 5000}}, ["y"] * 5000),
            ({"format": 1, "root": {"kind": "sequence", "children": {"z": 1e300}}}, {"z": 1e300}),
            ({"format": 1, "root": {"kind": "k" * 5000}}, "k" * 5000),
        ],
    )
    def test_messages_cut_a_long_value(self, soda_domain, doc, value):
        # the value's repr is shown up to 60 characters, the cut marked with "..."
        with pytest.raises(SemanticError) as err:
            tree_from_doc(doc, soda_domain)
        shown = repr(value)
        shown = shown if len(shown) <= 60 else shown[:57] + "..."
        assert str(err.value).endswith(" " + shown)
        assert len(str(err.value)) < 120

    def test_misplaced_children_list_message_does_not_grow_with_the_file(
        self, soda_domain, soda_path, tmp_path, capsys
    ):
        # the soda 0.999 tree with its root's children wrapped in one more
        # list: the whole list was echoed, 2,039 characters
        tree = refine_tree(plan_request_from_domain(soda_domain, target_probability=0.999)).tree
        doc = json.loads(dumps_tree(tree))
        doc["root"]["children"] = [doc["root"]["children"]]
        path = tmp_path / "misplaced.json"
        path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
        code = main(["simulate", "--domain", str(soda_path), "--tree", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: tree node is not a JSON object: [{'kind': ")
        assert err.endswith("...\n") and len(err) == len("error: tree node is not a JSON object: ") + 61

    @staticmethod
    def write_chain(path, levels, literal="seen(soda)"):
        """A tree file of one-child Sequences over a condition, ``levels`` nodes deep."""
        leaf = json.dumps({"kind": "condition", "literal": literal})
        text = '{"kind": "sequence", "children": [' * (levels - 1) + leaf + "]}" * (levels - 1)
        path.write_text('{"format": 1, "root": ' + text + "}", encoding="utf-8")

    def test_deep_tree_file_exits_1(self, soda_path, tmp_path):
        # 1100 levels: past the JSON decoder's recursion limit on 3.11 and
        # 3.12, not on 3.13; the loader rejects it before decoding
        path = tmp_path / "deep.json"
        self.write_chain(path, 1100)
        proc = run_bbt("simulate", "--domain", str(soda_path), "--tree", str(path))
        assert proc.returncode == 1
        assert proc.stderr == f"error: {path}: tree file nested too deeply\n"
        assert "Traceback" not in proc.stderr

    def test_tree_file_depth_limit(self, soda_path, tmp_path):
        path = tmp_path / "deep.json"
        self.write_chain(path, MAX_DEPTH)
        proc = run_bbt("simulate", "--domain", str(soda_path), "--tree", str(path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.endswith("success_probability 0.000000\n")
        self.write_chain(path, MAX_DEPTH + 1)
        proc = run_bbt("export-dot", "--domain", str(soda_path), "--tree", str(path))
        assert proc.returncode == 1
        assert proc.stderr == f"error: {path}: tree file nested too deeply\n"

    def test_nesting_scan_matches_decoded_depth(self):
        rng = random.Random(4001)
        chars = '[]{}"\\/ab\n\u00fc\u2192'

        def text():
            return "".join(rng.choice(chars) for _ in range(rng.randint(0, 6)))

        def value():
            nonlocal left
            if left <= 0 or rng.random() < 0.3:
                return rng.choice((text(), 1, None, True, 2.5))
            left -= 1
            items = [value() for _ in range(rng.randint(0, 3))]
            return items if rng.random() < 0.5 else {text(): v for v in items}

        def nesting(doc):
            deepest, stack = 0, [(doc, 1)]
            while stack:
                item, level = stack.pop()
                if isinstance(item, (list, dict)):
                    deepest = max(deepest, level)
                    items = item.values() if isinstance(item, dict) else item
                    stack.extend((v, level + 1) for v in items)
            return deepest

        for _ in range(2000):
            left = rng.randint(1, 30)
            doc = value()
            depth = nesting(doc)
            dumped = json.dumps(doc, indent=rng.choice((None, 2)), ensure_ascii=rng.random() < 0.5)
            for limit in (depth - 1, depth, 0):
                assert treefile._nests_deeper(dumped, limit) == (depth > limit), dumped

    def test_brackets_in_strings_add_no_depth(self, soda_domain, tmp_path):
        path = tmp_path / "brackets.json"
        self.write_chain(path, 2, literal="[{" * MAX_DEPTH)
        with pytest.raises(SemanticError, match="unknown literal"):
            load_tree(path, soda_domain)

    def test_non_utf8_tree_file_exits_1(self, soda_path, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe")
        proc = run_bbt("simulate", "--domain", str(soda_path), "--tree", str(path))
        assert proc.returncode == 1
        assert proc.stderr == f"error: {path}: not UTF-8 text\n"
        assert "Traceback" not in proc.stderr

    def test_non_utf8_domain_file_exits_1(self, tmp_path):
        path = tmp_path / "bad.bbt"
        path.write_bytes(b"\xff\xfe")
        out = tmp_path / "tree.json"
        proc = run_bbt("plan", "--domain", str(path), "--out", str(out))
        assert proc.returncode == 1
        assert proc.stderr == f"error: {path}: not UTF-8 text\n"
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_deep_template_body_exits_1(self, tmp_path):
        # 1200 levels: past the parser's recursion limit
        depth = 1200
        body = "seq { " * depth + "act go()" + " }" * depth
        path = tmp_path / "deep.bbt"
        path.write_text(
            "param p { a }\n"
            "condition c values { S F }\n"
            "action go { pre { } outcome 1.0 -> S { c = S } }\n"
            f"template t(p) {{ pre {{ }} body {body} }}\n",
            encoding="utf-8",
        )
        proc = run_bbt("plan", "--domain", str(path), "--out", str(tmp_path / "tree.json"))
        assert proc.returncode == 1
        assert proc.stderr == "error: 4:1: template body nested too deeply\n"
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("depth", [450, 600, 900, 990])
    def test_deep_template_expansion_exits_0_or_1(self, tmp_path, depth):
        # parses, but the planner instantiates the body only the template can
        # establish the goal with, and expansion recurses
        body = "seq { " * depth + "act light_on()" + " }" * depth
        path = tmp_path / "deep.bbt"
        path.write_text(
            "param p { a }\n"
            "condition lit values { S F }\n"
            "condition done values { S F }\n"
            "action light_on { pre { } outcome 1.0 -> S { lit = S } }\n"
            f"template t(p) {{ pre {{ }} declared 1.0 {{ done = S }} body {body} }}\n"
            "initial { lit = F ; done = F }\n"
            "goal { done = S } prob 0.9\n",
            encoding="utf-8",
        )
        proc = run_bbt("plan", "--domain", str(path), "--out", str(tmp_path / "tree.json"))
        assert "Traceback" not in proc.stderr
        assert proc.returncode in (0, 1)
        if proc.returncode == 1:
            assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
            assert "nested too deeply" in proc.stderr

    def test_long_template_chain_exits_0_or_1(self, tmp_path):
        # t0 expands into t1, and so on 1500 templates deep: the cycle check
        # must not recurse once per reference
        depth = 1500
        templates = [
            f"template t{k}(p) {{ pre {{ }} body seq {{ tmpl t{k + 1}(p) }} }}\n"
            for k in range(depth - 1)
        ]
        templates.append(f"template t{depth - 1}(p) {{ pre {{ }} body seq {{ act light_on() }} }}\n")
        path = tmp_path / "chain.bbt"
        path.write_text(
            "param p { a }\n"
            "condition lit values { S F }\n"
            "condition done values { S F }\n"
            "action light_on { pre { } outcome 1.0 -> S { lit = S } }\n"
            "action finish { pre { lit = S } outcome 1.0 -> S { done = S } }\n"
            + "".join(templates)
            + "initial { lit = F ; done = F }\n"
            "goal { done = S } prob 0.9\n",
            encoding="utf-8",
        )
        proc = run_bbt("plan", "--domain", str(path), "--out", str(tmp_path / "tree.json"))
        assert "Traceback" not in proc.stderr
        assert proc.returncode in (0, 1)
        assert proc.stderr.count("\n") == (proc.returncode == 1)

    def test_template_chain_expansion_exits_1(self, tmp_path):
        # t400 expands into t399, and so on down to t0's action: the planner
        # inserts t400, the one resolver of the goal, and its expansion
        # recurses past the guard in TemplateInstance.instantiate
        depth = 400
        templates = ["template t0(x) { pre { } body seq { act a() } }\n"]
        templates += [
            f"template t{k}(x) {{ pre {{ }}"
            + (" declared 1 { g = S }" if k == depth else "")
            + f" body seq {{ tmpl t{k - 1}(x) }} }}\n"
            for k in range(1, depth + 1)
        ]
        path = tmp_path / "chain.bbt"
        path.write_text(
            "param x { x1 }\n"
            "condition g values { S F }\n"
            "condition h values { S F }\n"
            "action a { pre { } outcome 1 -> S { h = S } }\n"
            + "".join(templates)
            + "initial { g = F ; h = F }\n"
            "goal { g = S } prob 0.9\n",
            encoding="utf-8",
        )
        proc = run_bbt("plan", "--domain", str(path), "--out", str(tmp_path / "tree.json"))
        assert proc.returncode == 1
        # t400 is declared on line 405
        assert proc.stderr == "error: 405:1: template body nested too deeply\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"format": 1}', "tree file has no root node"),
            ('{"format": 1, "root": ', "{path}: not valid JSON (Expecting value: "),
            # past CPython's int-string limit (4,300 digits) the decoder raises
            # a plain ValueError, worded differently on 3.10
            ('{"format": ' + "9" * 5000 + "}", "{path}: not valid JSON ("),
        ],
    )
    def test_rootless_or_broken_tree_file_exits_1(self, soda_path, tmp_path, capsys, text, message):
        path = tmp_path / "tree.json"
        path.write_text(text, encoding="utf-8")
        code = main(["simulate", "--domain", str(soda_path), "--tree", str(path)])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err.startswith("error: " + message.format(path=path)) and err.count("\n") == 1

    def test_latches_not_serialized(self, soda_domain):
        action = ActionNode(soda_domain.actions_by_id["light_on"])
        tree = Sequence([action])
        doc = tree_to_doc(tree)
        assert "latch" not in json.dumps(doc)


def load_or_reject(path, data, domain) -> bool:
    """Whether the tree file ``data`` loads; any failure but a one-line :class:`SemanticError` raises."""
    path.write_bytes(data)
    try:
        load_tree(path, domain)
    except SemanticError as exc:
        assert "\n" not in str(exc)
        return False
    return True


class TestTreeFileBytes:
    """Any bytes in a tree file load or end in :class:`SemanticError`, never another exception."""

    # JSON syntax, values the decoder takes but the schema rejects, bytes
    # that are not UTF-8 and an integer past CPython's int-string limit
    POOL = (
        b"[", b"]", b"{", b"}", b'"', b",", b":", b"null", b"1e999", b"\xff",
        b"\\ud800", "\ud800".encode("utf-8", "surrogatepass"), b"9" * 5000,
    )

    @pytest.fixture(scope="class")
    def planned_file(self, planned_stochastic, tmp_path_factory):
        """The planned soda tree file's bytes, where its values start, and a path for mutants."""
        data = dumps_tree(planned_stochastic.tree).encode()
        starts = [match.end() for match in re.finditer(rb": |[\[,]\s*", data)]
        return data, starts, tmp_path_factory.mktemp("bytes") / "tree.json"

    def test_truncations(self, planned_file, soda_domain, soda_path, capsys):
        # every other cut, from the one that drops only the closing brace;
        # writing the file is most of each case's cost
        data, _, path = planned_file
        closed = data.rindex(b"}") + 1
        cuts = range(closed - 1, -1, -2)
        assert not any(load_or_reject(path, data[:end], soda_domain) for end in cuts)
        # every 16th cut also through the CLI: exit 1, one error line, no output
        argv = ["simulate", "--domain", str(soda_path), "--tree", str(path)]
        for end in cuts[::16]:
            path.write_bytes(data[:end])
            assert main(argv) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert load_or_reject(path, data[:closed], soda_domain)

    @settings(max_examples=150)
    @given(st.data())
    def test_span_replacements(self, planned_file, soda_domain, soda_path, draws):
        # about half the spans start where a value does, so that the decoder
        # reaches what replaced them rather than stopping at an earlier error
        data, starts, path = planned_file
        start = draws.draw(st.integers(0, len(data)) | st.sampled_from(starts))
        end = start + draws.draw(st.integers(0, 40))
        parts = draws.draw(st.lists(st.sampled_from(self.POOL), max_size=3))
        if load_or_reject(path, data[:start] + b"".join(parts) + data[end:], soda_domain):
            return
        # a rejected file also fails through the CLI: exit 1, one error line,
        # no output (hypothesis takes no function-scoped capsys)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["simulate", "--domain", str(soda_path), "--tree", str(path)])
        assert (code, out.getvalue()) == (1, "")
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


class TestLogging:
    def test_bbt_log_goes_to_stderr_only(
        self, planned_paths, soda_path, capsys, monkeypatch
    ):
        # planned_paths already ran one main() call in this process
        tree, _ = planned_paths
        capsys.readouterr()
        monkeypatch.setenv("BBT_LOG", "debug")
        code = main(["simulate", "--domain", str(soda_path), "--tree", str(tree)])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.strip().splitlines()[-1].startswith("success_probability")
        assert "tick" not in captured.out
        lines = captured.err.splitlines()
        assert lines[0].startswith("DEBUG bbt.cli: tick 1 ended ")
        assert all(line.startswith("DEBUG bbt.cli: tick ") for line in lines)

    def test_bbt_log_is_read_per_call(self, planned_paths, soda_path, capsys, monkeypatch):
        tree, _ = planned_paths
        argv = ["simulate", "--domain", str(soda_path), "--tree", str(tree)]
        logger = logging.getLogger("bbt")
        before = (logger.level, logger.propagate, list(logger.handlers))
        for level, logged in (("debug", True), ("error", False), ("debug", True)):
            monkeypatch.setenv("BBT_LOG", level)
            assert main(argv) == 0
            assert ("DEBUG bbt.cli: tick 1 ended" in capsys.readouterr().err) is logged
            assert (logger.level, logger.propagate, list(logger.handlers)) == before

    @pytest.mark.parametrize("level", ["info", "INFO"])
    def test_info_writes_one_line_for_plan_only(
        self, tmp_path, soda_det_path, capsys, monkeypatch, level
    ):
        tree = tmp_path / "tree.json"
        monkeypatch.setenv("BBT_LOG", level)
        assert main(["plan", "--domain", str(soda_det_path), "--out", str(tree)]) == 0
        assert capsys.readouterr().err == (
            "INFO bbt.cli: plan reached probability 0.968750 in 4 iterations\n"
        )
        assert main(["simulate", "--domain", str(soda_det_path), "--tree", str(tree)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("level", [None, "error", "warning"])
    def test_quiet_levels_leave_stderr_empty(
        self, tmp_path, soda_det_path, capsys, monkeypatch, level
    ):
        if level is None:
            monkeypatch.delenv("BBT_LOG", raising=False)
        else:
            monkeypatch.setenv("BBT_LOG", level)
        domain, tree = ["--domain", str(soda_det_path)], ["--tree", str(tmp_path / "tree.json")]
        for argv in (
            ["plan", *domain, "--out", str(tmp_path / "tree.json")],
            ["simulate", *domain, *tree],
            ["exec", *domain, *tree, "--seed", "7", "--runs", "20"],
            ["export-dot", *domain, *tree],
        ):
            assert main(argv) == 0
            assert capsys.readouterr().err == ""

    def test_debug_lines_dropped_when_stderr_fails(
        self, tmp_path, soda_det_path, capsys, monkeypatch
    ):
        tree = tmp_path / "tree.json"
        argv = ["simulate", "--domain", str(soda_det_path), "--tree", str(tree)]
        assert main(["plan", "--domain", str(soda_det_path), "--out", str(tree)]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        expected = capsys.readouterr().out
        monkeypatch.setenv("BBT_LOG", "debug")
        monkeypatch.setattr(sys, "stderr", _Unwritable())
        assert main(argv) == 0
        assert capsys.readouterr().out == expected

    def test_failures_keep_their_exit_codes_when_stderr_fails(
        self, tmp_path, soda_det_path, monkeypatch
    ):
        domain = tmp_path / "unplannable.bbt"
        domain.write_text(
            "condition g values { S F }\ninitial { g = F }\ngoal { g = S } prob 0.9\n",
            encoding="utf-8",
        )
        tree = tmp_path / "tree.json"
        assert main(["plan", "--domain", str(soda_det_path), "--out", str(tree)]) == 0
        monkeypatch.setattr(sys, "stderr", _Unwritable())
        plan = ["plan", "--domain", str(domain), "--out", str(tmp_path / "none.json")]
        assert main(plan) == 2
        simulate = ["simulate", "--domain", str(soda_det_path), "--tree", str(tree)]
        assert main([*simulate, "--max-ticks", "1"]) == 3
        assert main(["plan", "--no-such-flag"]) == 1

