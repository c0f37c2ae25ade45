"""Paired before/after runs of the benchmark, written to one BENCH_*.json.

    python3 scripts/bench_pairs.py --base ../parent --head . --out BENCH_x.json

``--base`` and ``--head`` are two git checkouts of the repository; each is
labelled by its ``git rev-parse --short HEAD``.  For each of the ``scan``,
``ring`` and ``sweep`` workloads, pair i (i = 1..10) runs ``bench/run.py
--workload W --seed i --seconds 40 --trace 0`` once in each checkout, one
after the other; the side that goes first alternates from pair to pair, so
slow drift of the machine hits both sides alike.  The file records every
run's end-to-end metrics and CLI stdout sha256, and per metric each side's
median and quartiles, the median ratio head / base, in how many pairs the
head was better, the base side's quartile spread ``base_iqr`` (q3 - q1),
``gain_resolved`` (the head better in at least nine tenths of the pairs,
ties counting for neither side, and its median better than the base median
by more than ``base_iqr``) and ``within_bound`` (the head median no worse
than the base median by more than the metric's BENCHMARK.json bound, a share
of the base median; null for a metric with no bound); per workload, in how
many pairs the two stdout digests were equal, null for ``sweep``, which
prints nothing.  A ``--base`` or ``--head`` that is not the top of a git
checkout holding bench/run.py, or an ``--out`` in no directory, exits 2
with one line on stderr before any run.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("scan", "ring", "sweep")
PAIRS = 10
SECONDS = 40


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
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
    holds bench/run.py; None for any other path."""
    if not (path / "bench" / "run.py").is_file():
        return None
    proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "--short", "HEAD"],
                          cwd=path, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or len(lines) != 2 or Path(lines[0]) != path:
        return None
    return lines[1]


def summarize(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


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
                  "of a git checkout holding bench/run.py", file=sys.stderr)
            return 2
    if not args.out.resolve().parent.is_dir():
        print(f"bench_pairs.py: --out {args.out}: no such directory",
              file=sys.stderr)
        return 2
    spec = json.loads((args.head / "BENCHMARK.json").read_text())
    higher = {m["name"]: m["better"] == "higher" for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {
        "command": f"bench/run.py --workload W --seed i --seconds {SECONDS} "
                   f"--trace 0, {PAIRS} alternating pairs",
        "labels": labels,
        "machine": {"platform": platform.platform(), "nproc": os.cpu_count()},
        "workloads": {},
    }
    for workload in WORKLOADS:
        pairs = []
        for i in range(PAIRS):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            pair = {"seed": i + 1, "first": order[0]}
            for side in order:
                pair[side] = run_once(sides[side], workload, i + 1)
                m = pair[side]["metrics"]
                print(f"{workload} pair {i + 1} {side}: "
                      + ", ".join(f"{k}={v:.6g}" for k, v in m.items()),
                      flush=True)
            # None for a workload that prints nothing (sweep)
            base_sha = pair["base"].get("stdout_sha256")
            pair["stdout_equal"] = (None if base_sha is None else
                                    base_sha == pair["head"].get("stdout_sha256"))
            pairs.append(pair)
        summary = {}
        for name in pairs[0]["base"]["metrics"]:
            vals = {s: [p[s]["metrics"][name] for p in pairs] for s in sides}
            sign = 1.0 if higher.get(name, True) else -1.0
            sides_summary = {s: summarize(v) for s, v in vals.items()}
            base, head = (sides_summary[s]["median"] for s in ("base", "head"))
            iqr = sides_summary["base"]["q3"] - sides_summary["base"]["q1"]
            wins = sum(sign * (h - b) > 0 for h, b in zip(vals["head"], vals["base"]))
            bound = bounds.get(name)
            summary[name] = {
                **sides_summary,
                "median_ratio_head_over_base": head / base if base else None,
                "head_better_pairs": wins,
                "base_iqr": iqr,
                "gain_resolved": wins >= 0.9 * PAIRS and sign * (head - base) > iqr,
                "within_bound": (None if bound is None else
                                 sign * (head - base) >= -bound * abs(base)),
            }
        report["workloads"][workload] = {
            "env": {s: pairs[0][s].get("env") for s in sides},
            "summary": summary,
            # None for a workload that prints nothing, as for each pair
            "stdout_equal_pairs": (None if pairs[0]["stdout_equal"] is None else
                                   sum(p["stdout_equal"] is True for p in pairs)),
            "pairs": pairs,
        }
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
