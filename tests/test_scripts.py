"""Each analysis script in scripts/ runs at its defaults, and trace_table.py
refuses a signature chtg refuses; bench_pairs.py refuses bad paths before
any benchmark run and summarises its pairs, saying whether a gain is
resolved; long_runs.py reports each run's exit code and stdout digest."""

import hashlib
import importlib.util
import json
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


@pytest.mark.parametrize("p", [("4", "4", "4.5"), ("4", "4", "-7"),
                               ("4", "4", "1")], ids=["fraction", "negative", "one"])
def test_trace_table_reads_the_signature_as_chtg_does(p):
    # 4.5 is no chtg signature entry, -7 and 1 no triangle (0 is not inf)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "trace_table.py"),
                           "--p", *p, "--max-len", "2"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("trace_table.py: ")


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


def checkout(path):
    """A one-commit git checkout at path holding a bench/run.py that fails
    and a copy of BENCHMARK.json."""
    (path / "bench").mkdir(parents=True)
    (path / "bench" / "run.py").write_text("raise SystemExit(1)\n")
    (path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c",
           "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "."], ["commit", "-qm", "x"]):
        subprocess.run(git + args, cwd=path, check=True, capture_output=True)
    return path


def test_bench_pairs_accepts_a_checkout_with_a_space(tmp_path):
    spaced = checkout(tmp_path / "a checkout")
    # both sides pass; the bad --out is refused next, still before any run
    proc = bench_pairs("--base", spaced, "--head", spaced,
                       "--out", tmp_path / "no" / "x.json")
    assert proc.returncode == 2
    assert proc.stderr.startswith("bench_pairs.py: --out "), proc.stderr


def load_script(name):
    spec = importlib.util.spec_from_file_location(f"_{name}",
                                                  ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_long_runs_reports_exit_and_stdout_digest(capsys, monkeypatch):
    module = load_script("long_runs")
    command = "scan --p 4 4 inf --t 1.9 --max-len 4 --csv"
    monkeypatch.setattr(module, "LONG_RUNS", (command,))
    monkeypatch.setattr(module, "RUNS", 2)
    want = subprocess.run([sys.executable, "-m", "chtg", *command.split()],
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, timeout=60)
    assert want.returncode == 2 and want.stdout
    assert module.main(["--base", str(ROOT), "--head", str(ROOT)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" | ")[1].split(":")[0] for line in lines] == [
        "base run 1", "head run 1", "head run 2", "base run 2", "base", "head"]
    digest = hashlib.sha256(want.stdout).hexdigest()[:12]
    assert all("exit 2, " in line and line.endswith(digest) for line in lines[:4])
    assert all(f"exit [2], stdout ['{digest}']" in line for line in lines[4:])


def test_bench_pairs_counts_equal_stdout_only_where_there_is_one(tmp_path,
                                                                 monkeypatch):
    # canned runs: sweep prints nothing, so it has no digest to compare
    module = load_script("bench_pairs")
    calls = []

    def run_once(path, workload, seed):
        calls.append((path.name, workload, seed))
        out = {"metrics": {"items_per_s": 100.0 + seed, "setup_s": 0.2,
                           "peak_rss_mb": 35.0, "ok_frac": 1.0},
               "attempted": 10, "failed": 0}
        if workload != "sweep":
            out["stdout_sha256"] = [f"{workload}-digest"]
        return out

    monkeypatch.setattr(module, "run_once", run_once)
    base, head = checkout(tmp_path / "base"), checkout(tmp_path / "head")
    out = tmp_path / "BENCH_x.json"
    assert module.main(["--base", str(base), "--head", str(head),
                        "--out", str(out)]) == 0
    assert len(calls) == 2 * module.PAIRS * len(module.WORKLOADS)
    report = json.loads(out.read_text())
    got = {w: r["stdout_equal_pairs"] for w, r in report["workloads"].items()}
    assert got == {"scan": 10, "ring": 10, "sweep": None}
    assert all(p["stdout_equal"] is None
               for p in report["workloads"]["sweep"]["pairs"])


def test_bench_pairs_says_whether_a_gain_is_resolved(tmp_path, monkeypatch):
    # canned runs, base items/s 101..110 (quartiles 103.25 and 107.75): on
    # scan the head is 20 items/s faster, on ring only 1; the head's setup
    # is 50 % slower, past the 25 % bound; peak RSS ties in every pair
    module = load_script("bench_pairs")
    gains = {"scan": 20.0, "ring": 1.0, "sweep": 0.0}

    def run_once(path, workload, seed):
        head = path.name == "head"
        return {"metrics": {"items_per_s": 100.0 + seed + head * gains[workload],
                            "setup_s": 0.3 if head else 0.2,
                            "peak_rss_mb": 35.0, "ok_frac": 1.0},
                "attempted": 10, "failed": 0}

    monkeypatch.setattr(module, "run_once", run_once)
    base, head = checkout(tmp_path / "base"), checkout(tmp_path / "head")
    out = tmp_path / "BENCH_x.json"
    assert module.main(["--base", str(base), "--head", str(head),
                        "--out", str(out)]) == 0
    report = json.loads(out.read_text())["workloads"]
    got = {w: {m: (s["head_better_pairs"], s["gain_resolved"], s["within_bound"])
               for m, s in r["summary"].items()} for w, r in report.items()}
    assert got["scan"] == {"items_per_s": (10, True, True),
                           "setup_s": (0, False, False),
                           "peak_rss_mb": (0, False, True),
                           "ok_frac": (0, False, True)}
    assert got["ring"]["items_per_s"] == (10, False, True)
    assert got["sweep"]["items_per_s"] == (0, False, True)
    assert report["ring"]["summary"]["items_per_s"]["base_iqr"] == 4.5
