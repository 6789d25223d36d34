"""Smoke tests: the scripts under ``scripts/`` run end to end as subprocesses."""

import os
import subprocess
import sys
from pathlib import Path

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


def test_exec_rate():
    proc = run_script("exec_rate.py", "--runs", "2000", "--repeats", "1")
    assert proc.returncode == 0, proc.stderr
    # the golden soda-goal and soda-0.999 execs: 2000 runs at seed 42 read
    # 0.960000 and 0.998500
    goal, tail = proc.stdout.splitlines()
    assert goal.startswith("prob goal runs 2000 successes 1920 best ")
    assert tail.startswith("prob 0.999 runs 2000 successes 1997 best ")
    assert goal.endswith(" runs/s") and tail.endswith(" runs/s")


def test_interp_matrix():
    # one interpreter, its own reference: the goal plan of the deterministic
    # domain and both depth-limit files; the deeper file exits 1
    proc = run_script(
        "interp_matrix.py", "--python", sys.executable,
        "--domain", "soda_deterministic", "--prob", "goal",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith(": reference, 10 calls, exit codes 7 x 0, 3 x 1\n")
