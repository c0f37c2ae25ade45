"""chtg benchmark harness (standard library only).

    python3 bench/run.py --workload scan --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --smoke

Run from the root of a checkout.  Every measured repetition is a fresh
interpreter running ``worker.py``.  Repetitions run for ``--seconds``, at
least three of each kind, while ``reference.py`` measures the machine's
speed on another CPU; job and set-up times are scaled to the reference
speed.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
alternates untraced and traced repetitions and prints the per-layer
metrics.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  A run report and the spans of
the last traced repetition are written under ``.bench_out/``.  See README.md
for the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
RUN_LIMIT_S = 170.0  # a run must end within 180 s
# reference.unit() seconds at the speed that times are scaled to
REF_UNIT_S = 0.02
MIN_REPS = 3

END_TO_END = {"items_per_s": "items/s", "setup_s": "s",
              "peak_rss_mb": "MiB", "ok_frac": "frac"}
PER_LAYER = {
    "setup.numpy_import_s": "s", "setup.scipy_import_s": "s",
    "setup.chtg_import_s": "s",
    "cli.self_s": "s", "cli.out_bytes": "bytes",
    "analysis.scan_self_s": "s", "analysis.certificate_s": "s",
    "words.enumerate_s": "s", "words.yielded": "count", "words.us_per_yield": "us",
    "traces.oracle_s": "s",
    "traces.combinatorial_calls": "count", "traces.combinatorial_s": "s",
    "traces.exact_calls": "count", "traces.exact_s": "s",
    "traces.recursive_s": "s", "traces.evaluate_s": "s",
    "traces.stats_cache_hit_ratio": "frac",
    **{f"traces.{route}_us.n{n}": "us"
       for route in ("oracle", "combinatorial", "recursive", "exact", "evaluate")
       for n in workloads.PROBE_LENGTHS},
    "classify.calls": "count", "classify.s": "s",
    "triangle.realize_calls": "count", "triangle.realize_s": "s",
    "arithmetic.ring_check_self_s": "s", "arithmetic.conjugate_self_s": "s",
    "arithmetic.basis_check_s": "s",
    "trace.overhead_frac": "frac", "trace.unattributed_frac": "frac",
}


class BenchError(RuntimeError):
    pass


def _mono_ns():
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    for key in ("CHTG_TOL", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE"):
        env.pop(key, None)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(python, spec, deadline, importtime=False) -> tuple:
    """Run one worker; returns (result dict, stderr).  Set-up time is from
    just before the process starts to the worker's first timed call."""
    cmd = [python, *(["-X", "importtime"] if importtime else []),
           str(HERE / "worker.py")]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a repetition could start")
    t0 = _mono_ns()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=ROOT,
                            env=child_env())
    try:
        out, err = proc.communicate(json.dumps(spec), timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{spec['workload']} repetition timed out") from None
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited {proc.returncode}: {err[-2000:]}")
    result = json.loads(out.splitlines()[-1])
    if "t_first_ns" in result:
        result["t_spawn_ns"] = t0
        result["setup_s"] = (result["t_first_ns"] - t0) / 1e9
    return result, err


def start_reference(python):
    """The speed reference beside the repetitions, or None on one CPU, where
    it would take the job's CPU instead of watching the machine."""
    if len(os.sched_getaffinity(0)) < 2:
        return None
    return subprocess.Popen([python, str(HERE / "reference.py")],
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            text=True, cwd=ROOT, env=child_env())


def stop_reference(proc) -> list:
    """Stop the reference and return its (start ns, duration ns) samples."""
    if proc is None:
        return []
    proc.terminate()
    try:
        out, _ = proc.communicate(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("speed reference did not stop") from None
    return json.loads(out) if out.strip() else []


def slowdown(samples, start_ns, end_ns) -> float:
    """Mean reference unit time within [start_ns, end_ns] over REF_UNIT_S:
    how much slower than the reference speed the machine ran.  The mean, not
    the median, because a job's time is a sum that stalls count in too.  A
    window too short for three whole units uses the run's mean; no samples
    (one CPU) means no scaling."""
    inside = [d for t, d in samples if t >= start_ns and t + d <= end_ns]
    if len(inside) < 3:
        inside = [d for _, d in samples]
    return statistics.fmean(inside) / 1e9 / REF_UNIT_S if inside else 1.0


def scale_times(rep, samples) -> None:
    """Job and set-up seconds at the reference speed."""
    rep["job_slowdown"] = slowdown(samples, rep["t_first_ns"], rep["t_end_ns"])
    rep["setup_slowdown"] = slowdown(samples, rep["t_spawn_ns"], rep["t_first_ns"])
    rep["scaled_job_s"] = rep["job_s"] / rep["job_slowdown"]
    rep["scaled_setup_s"] = rep["setup_s"] / rep["setup_slowdown"]


def pick_python(deadline) -> tuple:
    """The first interpreter that imports chtg with numpy and scipy; its
    import also compiles the bytecode before any timed repetition."""
    spec = {"workload": "env", "src": str(SRC)}
    errors = []
    for exe in dict.fromkeys((sys.executable, shutil.which("python"),
                              shutil.which("python3"))):
        if not exe:
            continue
        try:
            return exe, spawn(exe, spec, deadline)[0]
        except BenchError as exc:
            errors.append(f"{exe}: {exc}")
    raise BenchError("no interpreter can import chtg: " + "; ".join(errors))


def import_times(stderr: str) -> dict:
    """Cumulative import time of numpy, scipy and chtg from -X importtime.

    The lines come children first.  A line counts for its family unless it
    sits inside a line of a family that ``blocked`` lists for it: chtg
    includes what it pulls in, scipy includes the numpy submodules it loads,
    numpy is numpy alone.
    """
    stack = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2]
        depth = len(name) - len(name.lstrip())
        node = (depth, name.strip(), int(fields[1]), [])
        while stack and stack[-1][0] > depth:
            node[3].append(stack.pop())
        stack.append(node)
    blocked = {"numpy": {"numpy", "scipy"}, "scipy": {"scipy"}, "chtg": {"chtg"}}
    totals = dict.fromkeys(blocked, 0)

    def walk(node, inside):
        family = node[1].split(".")[0]
        if family in blocked and not blocked[family] & inside:
            totals[family] += node[2]
        for c in node[3]:
            walk(c, inside | {family})

    for node in stack:
        walk(node, frozenset())
    return {f"setup.{k}_import_s": v / 1e6 for k, v in totals.items()}


def check_words(got, expected) -> set:
    """Rows missing, extra, repeated or out of order against the brute force."""
    bad = set(expected).symmetric_difference(got)
    bad |= {w for w, k in Counter(got).items() if k > 1}
    if not bad and got != expected:
        bad.add("row order")
    return bad


def repeat(python, spec, expected, seconds, trace, min_reps, deadline,
           spans_path) -> dict:
    """Fresh repetitions for ``seconds``; traced ones alternate with
    untraced ones when ``trace`` is set.  Each repetition's failed items are
    what its own checks and the brute-force row list reject."""
    out = {"untraced": [], "traced": [], "reasons": [], "hashes": set(),
           "attempted": 0, "failed": 0, "worst": 0.0}
    plain, traced = out["untraced"], out["traced"]
    measure_start = time.monotonic()
    last_rep_s = 0.0
    while True:
        enough = len(plain) >= min_reps and (not trace or len(traced) >= min_reps)
        # start another repetition only if it should end within --seconds
        if enough and time.monotonic() - measure_start + last_rep_s > seconds:
            return out
        rep_start = time.monotonic()
        as_traced = trace and len(traced) < len(plain)
        rep_spec = dict(spec, trace=as_traced,
                        spans_out=str(spans_path) if as_traced else None)
        rep, err = spawn(python, rep_spec, deadline, importtime=as_traced)
        last_rep_s = time.monotonic() - rep_start
        bad = set(rep.pop("failed_items"))
        out["reasons"] += rep.pop("reasons")
        if expected is not None:
            rows = check_words(rep.pop("words"), expected)
            out["reasons"] += [f"row {w}: missing, extra or out of order"
                               for w in sorted(rows)[:3]]
            bad |= rows
            rep["attempted"] = len(expected)
        rep["failed"] = min(len(bad), rep["attempted"])
        out["attempted"] += rep["attempted"]
        out["failed"] += rep["failed"]
        out["worst"] = max(out["worst"], rep["worst_rel_delta"])
        if "sha256" in rep:
            out["hashes"].add(rep["sha256"])
        if as_traced:
            rep["layers"].update(import_times(err))
            traced.append(rep)
        else:
            plain.append(rep)


def run(workload, seed, seconds, trace, smoke=False) -> dict:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    if not (SRC / "chtg" / "__init__.py").is_file():
        raise BenchError(f"no chtg sources under {SRC}")
    spec = workloads.make_inputs(workload, seed, smoke)
    spec.update(src=str(SRC), trace=False, spans_out=None)
    expected = workloads.expected_words(spec, smoke)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-seed{seed}.json"
    load_before = os.getloadavg()
    python, env = pick_python(deadline)
    reference = start_reference(python)
    try:
        reps = repeat(python, spec, expected, seconds, trace,
                      1 if smoke else MIN_REPS, deadline, spans_path)
    finally:
        samples = stop_reference(reference)
    plain, traced = reps["untraced"], reps["traced"]
    for rep in plain + traced:
        scale_times(rep, samples)
    attempted, failed = reps["attempted"], reps["failed"]
    med = statistics.median
    if trace:
        metrics = {}
        for name in PER_LAYER:
            values = [r["layers"][name] for r in traced if name in r["layers"]]
            metrics[name] = med(values) if values else 0.0
        metrics["trace.overhead_frac"] = (
            med(r["scaled_job_s"] for r in traced)
            / med(r["scaled_job_s"] for r in plain) - 1.0)
        units = PER_LAYER
    else:
        metrics = {
            "items_per_s": med((r["attempted"] - r["failed"]) / r["scaled_job_s"]
                               for r in plain),
            "setup_s": med(r["scaled_setup_s"] for r in plain),
            "peak_rss_mb": med(r["rss_mb"] for r in plain),
            "ok_frac": 1.0 - failed / attempted,
        }
        units = END_TO_END
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "env": {**env, "nproc": len(os.sched_getaffinity(0)),
                "loadavg_before": load_before, "loadavg_after": os.getloadavg()},
        "inputs": {k: v for k, v in spec.items() if k not in ("src", "spans_out")},
        "stdout_sha256": sorted(reps["hashes"]), "worst_rel_delta": reps["worst"],
        "failure_examples": reps["reasons"][:10],
        "reference_samples": len(samples),
        "repetitions": {"untraced": plain, "traced": traced},
        "wall_s": time.monotonic() - start,
    }
    with open(OUT / f"report-{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    return {
        "summary": report,
        "result": {"correct": failed == 0, "attempted": attempted,
                   "failed": failed,
                   "metrics": {k: {"value": v, "unit": units[k]}
                               for k, v in metrics.items()}},
    }


def print_run(out) -> None:
    s = out["summary"]
    env = s["env"]
    reps = s["repetitions"]
    print(f"# {s['workload']} seed={s['seed']} trace={s['trace']}: "
          f"{len(reps['untraced'])} untraced + {len(reps['traced'])} traced "
          f"repetitions in {s['wall_s']:.1f} s")
    print(f"# python {env['python']} ({env['executable']}), numpy {env['numpy']}, "
          f"scipy {env['scipy']}, nproc {env['nproc']}, "
          f"load {env['loadavg_before'][0]:.2f} -> {env['loadavg_after'][0]:.2f}")
    if s["stdout_sha256"]:
        print(f"# stdout sha256 {', '.join(s['stdout_sha256'])}")
    plain = reps["untraced"]
    jobs = sorted(r["job_s"] for r in plain)
    print(f"# untraced job seconds as measured: min {jobs[0]:.3f}, median "
          f"{statistics.median(jobs):.3f}, max {jobs[-1]:.3f}; median slowdown "
          f"{statistics.median(r['job_slowdown'] for r in plain):.3f} "
          f"from {s['reference_samples']} reference samples")
    print(f"# worst relative route delta {s['worst_rel_delta']:.3g}")
    for reason in s["failure_examples"]:
        print(f"# FAILED {reason}")
    print(json.dumps(out["result"]))


def smoke() -> int:
    """Tiny sizes: every workload emits exactly the metrics BENCHMARK.json
    names, in both modes, with every check passing."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]}}
    status = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            result = run(workload, seed=1, seconds=0, trace=bool(trace),
                         smoke=True)["result"]
            got = set(result["metrics"])
            ok = got == want[trace] and result["correct"] and result["attempted"] > 0
            status |= not ok
            print(f"{'ok  ' if ok else 'FAIL'} {workload} trace={trace} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"missing={sorted(want[trace] - got)} extra={sorted(got - want[trace])}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; check that every named metric is emitted")
    args = parser.parse_args(argv)
    # a terminated harness still stops its worker and reference
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        print_run(run(args.workload, args.seed, args.seconds, bool(args.trace)))
    except BenchError as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
