"""Paired before/after long CLI runs and benchmark runs, in one BENCH_*.json.

    python3 scripts/bench_pairs.py --base ../parent --head . --out BENCH_x.json

``--base`` and ``--head`` are two git checkouts of the repository; each is
labelled by its ``git rev-parse --short HEAD``.  Every group of runs is 10
pairs: pair i runs once in each checkout, one after the other, and the side
that goes first alternates from pair to pair, so slow drift of the machine
hits both sides alike.  The groups are, first, each command of
``LONG_RUNS`` (``python -m chtg ...``, past the 18 letters where the word
enumerator starts to chunk), then each of the ``scan``, ``ring`` and
``sweep`` workloads (``bench/run.py --workload W --seed i --seconds 40
--trace 0``).

Every child runs in its checkout with that checkout's ``src`` on
PYTHONPATH and its stdout to a file, which is hashed in 1 MiB chunks; its
wall time and peak RSS come from ``os.wait4``.  Linux starts a child's
``ru_maxrss`` at the peak RSS of the process that spawned it, so a harness
that held a large stdout would report its own peak for every later child;
this one never holds more than a chunk.

The file records every run: for a long run its exit code, stdout sha256,
``wall_s`` and ``peak_rss_mb``; for a workload run its end-to-end metrics
and CLI stdout sha256s.  Per group and metric it gives each side's median
and quartiles, the median ratio head / base, in how many pairs the head was
better, the base side's quartile spread ``base_iqr`` (q3 - q1),
``gain_resolved`` (the head better in at least nine tenths of the pairs,
ties counting for neither side, and its median better than the base median
by more than ``base_iqr``) and ``within_bound`` (the head median no worse
than the base median by more than the metric's BENCHMARK.json bound, a share
of the base median; null for a metric with no bound, such as ``wall_s``).
``wall_s`` and ``peak_rss_mb`` are lower-better.  Per group it gives in how
many pairs the two stdout digests were equal, null for ``sweep``, which
prints nothing.  The file is rewritten after each group.  A ``--base`` or
``--head`` that is not the top of a git checkout holding bench/run.py and
src/chtg, or an ``--out`` in no directory, exits 2 with one line on stderr
before any run.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

LONG_RUNS = (
    "scan --p 4 5 6 --t 1.0 --max-len 24 --csv",
    "ring-check --p 4 4 inf --n inf --max-len 24 --csv",
    "ring-check --p 4 4 inf --n 5 --max-len 22 --json",
)
WORKLOADS = ("scan", "ring", "sweep")
PAIRS = 10
SECONDS = 40


def run_once(checkout: Path, args: list, out_path: Path) -> dict:
    """One child ``python args`` in checkout, its src on PYTHONPATH and its
    stdout to out_path: exit code, stdout sha256, wall time and peak RSS."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=checkout, env=env,
                                stdout=out)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    digest = hashlib.sha256()
    with open(out_path, "rb") as f:
        while chunk := f.read(1 << 20):
            digest.update(chunk)
    return {"exit": proc.returncode, "stdout_sha256": digest.hexdigest(),
            "metrics": {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024}}


def workload_run(checkout: Path, workload: str, seed: int, out_path: Path) -> dict:
    """One ``bench/run.py`` run: its end-to-end metrics, CLI stdout digests
    and environment."""
    args = ["bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0"]
    run = run_once(checkout, args, out_path)
    if run["exit"]:
        raise subprocess.CalledProcessError(run["exit"], args)
    lines = out_path.read_text().strip().splitlines()
    result = json.loads(lines[-1])
    out = {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
           "attempted": result["attempted"], "failed": result["failed"]}
    for line in lines:
        if line.startswith("# stdout sha256 "):
            out["stdout_sha256"] = line.split(" ", 3)[3].split(", ")
        m = re.match(r"# python (\S+) .*numpy (\S+),.*nproc (\d+)", line)
        if m:
            out["env"] = {"python": m[1], "numpy": m[2], "nproc": int(m[3])}
    return out


def checkout_label(path: Path) -> str | None:
    """``git rev-parse --short HEAD`` of a git checkout's top directory that
    holds bench/run.py and src/chtg; None for any other path."""
    if not ((path / "bench" / "run.py").is_file()
            and (path / "src" / "chtg" / "__init__.py").is_file()):
        return None
    proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "--short", "HEAD"],
                          cwd=path, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or len(lines) != 2 or Path(lines[0]) != path:
        return None
    return lines[1]


def summarize(pairs, spec) -> dict:
    """Per metric of pairs: each side's quartiles and the pairwise verdicts."""
    higher = {m["name"]: m["better"] == "higher" for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for name in pairs[0]["base"]["metrics"]:
        vals = {s: [p[s]["metrics"][name] for p in pairs] for s in ("base", "head")}
        sign = 1.0 if higher.get(name) else -1.0  # wall_s: not in spec, lower
        sides = {}
        for s, v in vals.items():
            q1, med, q3 = statistics.quantiles(v, n=4, method="inclusive")
            sides[s] = {"median": med, "q1": q1, "q3": q3}
        base, head = sides["base"]["median"], sides["head"]["median"]
        iqr = sides["base"]["q3"] - sides["base"]["q1"]
        wins = sum(sign * (h - b) > 0 for h, b in zip(vals["head"], vals["base"]))
        bound = bounds.get(name)
        summary[name] = {
            **sides,
            "median_ratio_head_over_base": head / base if base else None,
            "head_better_pairs": wins,
            "base_iqr": iqr,
            "gain_resolved": wins >= 0.9 * len(pairs) and sign * (head - base) > iqr,
            "within_bound": (None if bound is None else
                             sign * (head - base) >= -bound * abs(base)),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--head", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sides = {"base": args.base.resolve(), "head": args.head.resolve()}
    labels = {s: checkout_label(path) for s, path in sides.items()}
    for side, label in labels.items():
        if label is None:
            print(f"bench_pairs.py: --{side} {getattr(args, side)} is not the top "
                  "of a git checkout holding bench/run.py and src/chtg",
                  file=sys.stderr)
            return 2
    if not args.out.resolve().parent.is_dir():
        print(f"bench_pairs.py: --out {args.out}: no such directory",
              file=sys.stderr)
        return 2
    spec = json.loads((args.head / "BENCHMARK.json").read_text())
    report = {
        "command": f"python -m chtg C for each C of long_runs, then bench/run.py "
                   f"--workload W --seed i --seconds {SECONDS} --trace 0, "
                   f"{PAIRS} alternating pairs each",
        "labels": labels,
        "machine": {"platform": platform.platform(), "nproc": os.cpu_count()},
        "long_runs": {},
        "workloads": {},
    }
    groups = [*(("long_runs", c) for c in LONG_RUNS),
              *(("workloads", w) for w in WORKLOADS)]
    with tempfile.TemporaryDirectory() as tmp:
        out_path = Path(tmp) / "stdout"
        for section, name in groups:
            pairs = []
            for i in range(PAIRS):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                # the workload's seed; a long run takes none
                pair = {"seed": i + 1, "first": order[0]}
                for side in order:
                    pair[side] = (
                        run_once(sides[side], ["-m", "chtg", *name.split()], out_path)
                        if section == "long_runs" else
                        workload_run(sides[side], name, i + 1, out_path))
                    m = pair[side]["metrics"]
                    print(f"{name} pair {i + 1} {side}: "
                          + ", ".join(f"{k}={v:.6g}" for k, v in m.items()),
                          flush=True)
                # None for a workload that prints nothing (sweep)
                base_sha = pair["base"].get("stdout_sha256")
                pair["stdout_equal"] = (None if base_sha is None else
                                        base_sha == pair["head"].get("stdout_sha256"))
                pairs.append(pair)
            group = report[section][name] = {}
            if section == "workloads":
                group["env"] = {s: pairs[0][s].get("env") for s in sides}
            group["summary"] = summarize(pairs, spec)
            # None for a workload that prints nothing, as for each pair
            group["stdout_equal_pairs"] = (
                None if pairs[0]["stdout_equal"] is None else
                sum(p["stdout_equal"] is True for p in pairs))
            group["pairs"] = pairs
            args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
