"""Each analysis script in scripts/ runs at its defaults and exits as chtg
does: 64 on a usage error and 65 on a domain error, with one stderr line and
empty stdout, and 141 with empty stderr on a closed stdout; trace_table.py
reads --p and --cos-alpha as chtg does and skips the recursion at a zero
radius.  bench_pairs.py refuses bad paths before any run, pairs the long CLI
runs (exit code, stdout digest, wall time and peak RSS) and the benchmark
workloads, and summarises each group's pairs, saying whether a gain is
resolved."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chtg.words import enumerate_words

ROOT = Path(__file__).resolve().parent.parent
# every script but the benchmark harness, tested on its own below
SCRIPTS = sorted(p.name for p in (ROOT / "scripts").glob("*.py")
                 if p.name != "bench_pairs.py")


def script(name, *args, stdout=subprocess.PIPE):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=ROOT, env=env, stdout=stdout, stderr=subprocess.PIPE,
                          text=True, timeout=300)


def chtg(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "chtg", *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)


def classes(max_len):
    return sum(len(ws) for ws in enumerate_words(max_len))


@pytest.mark.parametrize("name", SCRIPTS)
def test_script_runs_at_defaults(name):
    proc = script(name)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


@pytest.mark.parametrize("name", SCRIPTS)
def test_script_exits_141_quietly_on_a_closed_stdout(name):
    r, w = os.pipe()
    os.close(r)  # the reader is gone before the first write
    try:
        proc = script(name, stdout=w)
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (141, "")


@pytest.mark.parametrize("name", SCRIPTS)
def test_script_usage_error_exits_64(name):
    proc = script(name, "--bogus")
    assert (proc.returncode, proc.stdout) == (64, "")
    assert proc.stderr == "usage error: unrecognized arguments: --bogus\n"


@pytest.mark.parametrize("name, args", [
    ("trace_table.py", ("--max-len", "0")), ("trace_table.py", ("--max-len", "25")),
    ("goldman_parker.py", ("--steps", "-1"))])
def test_script_domain_error_leaves_stdout_empty(name, args):
    proc = script(name, *args)
    assert (proc.returncode, proc.stdout) == (65, "")
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("domain error: ")
    if name == "trace_table.py":  # the word length check chtg scan makes
        want = chtg("scan", "--p", "4", "4", "4", "--cos-alpha", "0.3", *args)
        assert (want.returncode, want.stderr) == (65, proc.stderr)


_NO_TRIANGLE = "domain error: signature entries must be >= 2 or inf, got "


@pytest.mark.parametrize("p, code, err", [
    (("4", "4", "4.5"), 64, "usage error: bad signature entry '4.5'"),
    (("4", "4", "-7"), 65, _NO_TRIANGLE + "-7"),
    (("4", "4", "1"), 65, _NO_TRIANGLE + "1"),
], ids=["fraction", "negative", "one"])
def test_trace_table_reads_the_signature_as_chtg_does(p, code, err):
    # 4.5 is no chtg signature entry, -7 and 1 no triangle (0 is not inf)
    got = script("trace_table.py", "--p", *p, "--max-len", "2")
    want = chtg("scan", "--p", *p, "--cos-alpha", "0.3", "--max-len", "2")
    assert (got.returncode, got.stdout, got.stderr) == (code, "", err + "\n")
    assert (want.returncode, want.stderr) == (code, got.stderr)


def test_trace_table_reads_cos_alpha_as_chtg_does():
    args = ("--p", "inf", "inf", "inf", "--max-len", "3", "--cos-alpha")
    got = script("trace_table.py", *args, "61/64")
    want = script("trace_table.py", *args, "0.953125")
    assert (got.returncode, got.stderr) == (0, "")
    assert got.stdout == want.stdout and want.returncode == 0
    bad = script("trace_table.py", *args, "1/0")
    assert (bad.returncode, bad.stdout) == (64, "")
    assert bad.stderr == "usage error: bad fraction '1/0'\n"
    assert chtg("scan", *args, "1/0").stderr == bad.stderr


@pytest.mark.parametrize("cos_alpha", ["-61/64", "-1e-3"])
def test_trace_table_reads_a_negative_value(cos_alpha):
    # argparse alone stops at both, taking them for options
    proc = script("trace_table.py", "--p", "4", "5", "6", "--cos-alpha",
                  cos_alpha, "--max-len", "2")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(proc.stdout.splitlines()) == 1 + classes(2)


def test_trace_table_skips_the_recursion_at_a_zero_radius():
    # p = 2 gives r_1 = cos(pi/2) ~ 6e-17, where the recursion is undefined,
    # so it runs only the other two routes, as chtg trace does
    proc = script("trace_table.py", "--p", "2", "3", "7", "--cos-alpha", "0.1",
                  "--max-len", "3")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(proc.stdout.splitlines()) == 1 + classes(3)


def bench_pairs(*args):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_pairs.py"),
                           *map(str, args)], cwd=ROOT, capture_output=True,
                          text=True, timeout=60)


def test_bench_pairs_help():
    proc = bench_pairs("--help")
    assert proc.returncode == 0 and proc.stdout.startswith("usage: bench_pairs.py")


def checkout(path, src=True):
    """A one-commit git checkout at path holding a bench/run.py that fails,
    a copy of BENCHMARK.json and, for src, a link to this repository's src."""
    (path / "bench").mkdir(parents=True)
    (path / "bench" / "run.py").write_text("raise SystemExit(1)\n")
    (path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    if src:
        (path / "src").symlink_to(ROOT / "src")
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c",
           "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "."], ["commit", "-qm", "x"]):
        subprocess.run(git + args, cwd=path, check=True, capture_output=True)
    return path


def test_bench_pairs_refuses_bad_paths_before_running(tmp_path):
    plain = tmp_path / "plain"  # holds bench/run.py but is no git checkout
    (plain / "bench").mkdir(parents=True)
    (plain / "bench" / "run.py").write_text("raise SystemExit(1)\n")
    good = checkout(tmp_path / "good")
    no_src = checkout(tmp_path / "no src", src=False)
    out = tmp_path / "out.json"
    for args in (("--base", tmp_path / "missing", "--head", ROOT),
                 ("--base", ROOT, "--head", plain),
                 ("--base", ROOT, "--head", ROOT / "src"),
                 ("--base", good, "--head", no_src),
                 ("--base", ROOT, "--head", ROOT, "--out", tmp_path / "no" / "x.json")):
        if "--out" not in args:
            args += ("--out", out)
        proc = bench_pairs(*args)
        assert proc.returncode == 2, args
        assert proc.stdout == "" and len(proc.stderr.splitlines()) == 1, args
        assert "Traceback" not in proc.stderr
    assert not out.exists()


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


def canned_workload(metrics, calls):
    """A workload_run that logs each call and returns metrics(path, workload,
    seed) with a CLI digest (none for sweep), starting no child."""
    def workload_run(path, workload, seed, out_path):
        calls.append((path.name, workload))
        out = {"metrics": metrics(path, workload, seed),
               "attempted": 10, "failed": 0}
        if workload != "sweep":
            out["stdout_sha256"] = [f"{workload}-digest"]
        return out
    return workload_run


def test_bench_pairs_pairs_the_long_runs(tmp_path, monkeypatch):
    # one 4-letter scan, run for real in two pairs, before the canned
    # workloads; the head's wall time and peak RSS are halved, so it is
    # better in both pairs where lower is better
    module = load_script("bench_pairs")
    command = "scan --p 4 4 inf --t 1.9 --max-len 4 --csv"
    argv = ["-m", "chtg", *command.split()]
    monkeypatch.setattr(module, "LONG_RUNS", (command,))
    monkeypatch.setattr(module, "PAIRS", 2)
    calls = []
    monkeypatch.setattr(module, "workload_run", canned_workload(
        lambda path, workload, seed: {"items_per_s": 100.0, "setup_s": 0.2,
                                      "peak_rss_mb": 35.0, "ok_frac": 1.0},
        calls))
    run_once = module.run_once

    def halved(path, args, out_path):
        calls.append((path.name, args))
        run = run_once(path, args, out_path)
        if path.name == "head":
            run["metrics"] = {k: v / 2 for k, v in run["metrics"].items()}
        return run

    monkeypatch.setattr(module, "run_once", halved)
    base, head = checkout(tmp_path / "base"), checkout(tmp_path / "head")
    out = tmp_path / "BENCH_x.json"
    assert module.main(["--base", str(base), "--head", str(head),
                        "--out", str(out)]) == 0
    assert calls[:4] == [("base", argv), ("head", argv), ("head", argv),
                         ("base", argv)]
    assert len(calls) == 4 + 2 * 2 * len(module.WORKLOADS)
    want = subprocess.run([sys.executable, *argv], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          timeout=60)
    assert want.returncode == 2 and want.stdout
    report = json.loads(out.read_text())
    assert list(report["workloads"]) == list(module.WORKLOADS)
    group = report["long_runs"][command]
    assert [(p[s]["exit"], p[s]["stdout_sha256"]) for p in group["pairs"]
            for s in ("base", "head")] == [
        (2, hashlib.sha256(want.stdout).hexdigest())] * 4
    assert group["stdout_equal_pairs"] == 2
    summary = group["summary"]
    assert summary["peak_rss_mb"]["within_bound"] is True
    assert summary["wall_s"]["within_bound"] is None
    assert [summary[m]["head_better_pairs"] for m in ("wall_s", "peak_rss_mb")
            ] == [2, 2]


def test_bench_pairs_counts_equal_stdout_only_where_there_is_one(tmp_path,
                                                                 monkeypatch):
    # canned runs: sweep prints nothing, so it has no digest to compare
    module = load_script("bench_pairs")
    calls = []
    monkeypatch.setattr(module, "LONG_RUNS", ())
    monkeypatch.setattr(module, "workload_run", canned_workload(
        lambda path, workload, seed: {"items_per_s": 100.0 + seed,
                                      "setup_s": 0.2, "peak_rss_mb": 35.0,
                                      "ok_frac": 1.0}, calls))
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

    def metrics(path, workload, seed):
        head = path.name == "head"
        return {"items_per_s": 100.0 + seed + head * gains[workload],
                "setup_s": 0.3 if head else 0.2,
                "peak_rss_mb": 35.0, "ok_frac": 1.0}

    monkeypatch.setattr(module, "LONG_RUNS", ())
    monkeypatch.setattr(module, "workload_run", canned_workload(metrics, []))
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
