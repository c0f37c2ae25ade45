"""Each analysis script in scripts/ runs at its defaults; bench_pairs.py
refuses bad paths before any benchmark run."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["trace_table.py", "type_survey.py",
                                    "goldman_parker.py"])
def test_script_runs_at_defaults(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def bench_pairs(*args):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_pairs.py"),
                           *map(str, args)], cwd=ROOT, capture_output=True,
                          text=True, timeout=60)


def test_bench_pairs_help():
    proc = bench_pairs("--help")
    assert proc.returncode == 0 and proc.stdout.startswith("usage: bench_pairs.py")


def test_bench_pairs_refuses_bad_paths_before_running(tmp_path):
    plain = tmp_path / "plain"  # holds bench/run.py but is no git checkout
    (plain / "bench").mkdir(parents=True)
    (plain / "bench" / "run.py").write_text("raise SystemExit(1)\n")
    out = tmp_path / "out.json"
    for args in (("--base", tmp_path / "missing", "--head", ROOT),
                 ("--base", ROOT, "--head", plain),
                 ("--base", ROOT, "--head", ROOT / "src"),
                 ("--base", ROOT, "--head", ROOT, "--out", tmp_path / "no" / "x.json")):
        if "--out" not in args:
            args += ("--out", out)
        proc = bench_pairs(*args)
        assert proc.returncode == 2, args
        assert proc.stdout == "" and len(proc.stderr.splitlines()) == 1, args
        assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_bench_pairs_accepts_a_checkout_with_a_space(tmp_path):
    spaced = tmp_path / "a checkout"
    (spaced / "bench").mkdir(parents=True)
    (spaced / "bench" / "run.py").write_text("raise SystemExit(1)\n")
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c",
           "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "."], ["commit", "-qm", "x"]):
        subprocess.run(git + args, cwd=spaced, check=True, capture_output=True)
    # both sides pass; the bad --out is refused next, still before any run
    proc = bench_pairs("--base", spaced, "--head", spaced,
                       "--out", tmp_path / "no" / "x.json")
    assert proc.returncode == 2
    assert proc.stderr.startswith("bench_pairs.py: --out "), proc.stderr
