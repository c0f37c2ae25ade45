"""One repetition of a benchmark workload, in a fresh interpreter.

Reads a JSON spec on stdin (made by ``workloads.make_inputs`` plus the
fields ``src``, ``trace`` and ``spans_out``), imports chtg from ``src``,
runs the timed job, checks its output, and prints one JSON result line.
The first timed call and the end of the job are stamped with
CLOCK_MONOTONIC, so the parent can measure set-up time from the moment it
started this process and line the job up with the speed reference.

With ``spec["workload"] == "env"`` it only imports chtg and reports
versions; the harness runs that once per run so that bytecode compilation
is not charged to the first repetition.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import resource
import sys
import time

from workloads import RING_SIGNATURE, SIGNATURE

# agreement between routes: |a - b| <= RTOL * max(1, |a|, |b|), a bound that
# scales with the size of the trace
RTOL = 1e-8
CLASSIFY_TOL = 1e-9  # the CLI default classification tolerance


def _mono_ns():
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def rel_delta(a, b) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def discriminant(z) -> float:
    """|z|^4 - 8 Re(z^3) + 18 |z|^2 - 27, the benchmark's own copy."""
    a2 = z.real * z.real + z.imag * z.imag
    return a2 * a2 - 8.0 * (z * z * z).real + 18.0 * a2 - 27.0


def verdict_ok(tau, rho, verdict) -> bool:
    """The reported rho is the discriminant of tau and the verdict has its sign."""
    if abs(discriminant(tau) - rho) > RTOL * (abs(tau) ** 4 + 27.0):
        return False
    if rho < -CLASSIFY_TOL:
        return verdict == "RegularElliptic"
    if rho > CLASSIFY_TOL:
        return verdict == "Hyperbolic"
    return verdict in ("Unipotent", "BoundaryNonUnipotent")


class Checks:
    """Failed items and the worst relative disagreement between routes."""

    def __init__(self):
        self.failed = set()
        self.reasons = []
        self.worst = 0.0

    def fail(self, item, reason):
        self.failed.add(item)
        if len(self.reasons) < 5:
            self.reasons.append(f"{item}: {reason}")

    def agree(self, item, name, a, b):
        d = rel_delta(a, b)
        self.worst = max(self.worst, d)
        if not d <= RTOL:
            self.fail(item, f"{name} differs by {d:.3g} (relative)")


def run_cli(argv, tracer):
    from chtg import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if tracer is None:
            rc = cli.main(argv)
        else:
            rc = tracer.span("cli.main", cli.main, argv)
    return rc, buf.getvalue()


def check_rows(spec, rc, out, checks):
    """Parse the CSV, check each row and re-trace a seeded sample."""
    from chtg import arithmetic, traces, triangle
    lines = out.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    words = [r[0] for r in rows]
    rng = random.Random(spec["sample_seed"])
    sample = rng.sample(range(len(rows)), min(spec["sample_size"], len(rows)))
    if spec["workload"] == "scan":
        if rc not in (0, 2) or lines[:1] != ["word,re_tau,im_tau,rho,verdict"]:
            checks.fail("all", f"exit code {rc} / header {lines[:1]}")
        for word, re_, im_, rho, verdict in rows:
            if not verdict_ok(complex(float(re_), float(im_)), float(rho), verdict):
                checks.fail(word, f"verdict {verdict} does not match rho {rho}")
        params = triangle.TriangleParams.from_signature(*SIGNATURE).with_t(float(spec["t"]))
        for i in sample:
            word, re_, im_ = rows[i][:3]
            w = tuple(int(a) for a in word)
            checks.agree(word, "recursive", complex(float(re_), float(im_)),
                         traces.trace_recursive(w, params).value)
    else:
        if rc != 0 or lines[:1] != ["word,ok"]:
            checks.fail("all", f"exit code {rc} / header {lines[:1]}")
        for word, ok in rows:
            if ok != "1":
                checks.fail(word, "ring check not ok")
        group = arithmetic.group_with_rotation(*RING_SIGNATURE, int(spec["n"]))
        params = group.params
        rz = triangle.realize(params)
        for i in sample:
            word = rows[i][0]
            w = tuple(int(a) for a in word)
            comb = traces.trace_combinatorial(w, params).value
            checks.agree(word, "oracle", comb, traces.trace_oracle(w, rz).value)
            checks.agree(word, "exact evaluate", comb,
                         traces.trace_polynomial(w, mode="exact").evaluate(params))
    return words


def sweep_setup(spec):
    from chtg import triangle
    base = triangle.TriangleParams.from_signature(*SIGNATURE)
    words = [tuple(int(a) for a in w) for w in spec["words"]]
    return words, [base.with_t(t) for t in spec["ts"]]


def sweep_job(words, params_list):
    from chtg import traces, triangle
    classify = sys.modules["chtg.classify"]
    polys = [traces.trace_polynomial(w, mode="exact") for w in words]
    out = []
    for params in params_list:
        rz = triangle.realize(params)
        for w, poly in zip(words, polys):
            tau = traces.trace_oracle(w, rz).value
            out.append((tau,
                        traces.trace_combinatorial(w, params).value,
                        traces.trace_recursive(w, params).value,
                        poly.evaluate(params),
                        classify.classify(tau)))
    return out


def check_sweep(spec, results, checks):
    k = 0
    for t in spec["ts"]:
        for word in spec["words"]:
            tau, comb, rec, ev, cls = results[k]
            item = f"{word}@t={t:.6g}"
            checks.agree(item, "combinatorial", tau, comb)
            checks.agree(item, "recursive", tau, rec)
            checks.agree(item, "exact evaluate", tau, ev)
            if not verdict_ok(tau, cls.rho, cls.verdict):
                checks.fail(item, f"verdict {cls.verdict} does not match rho")
            k += 1


def probe(spec) -> dict:
    """Median microseconds per call of each trace route at each probe length.

    Each route runs ``probe_calls`` times per word, so the median of the
    cached combinatorial route is its warm cost; exact data is never cached.
    """
    from chtg import traces, triangle
    params = triangle.TriangleParams.from_signature(*SIGNATURE).with_t(spec["probe_t"])
    rz = triangle.realize(params)
    polys = {}
    for word in spec["probe_words"]:
        w = tuple(int(a) for a in word)
        polys[w] = traces.trace_polynomial(w, mode="exact")
    routes = {
        "oracle": lambda w: traces.trace_oracle(w, rz),
        "combinatorial": lambda w: traces.trace_combinatorial(w, params),
        "recursive": lambda w: traces.trace_recursive(w, params),
        "exact": lambda w: traces.trace_polynomial(w, mode="exact"),
        "evaluate": lambda w: polys[w].evaluate(params),
    }
    times: dict = {}
    for w in polys:
        for route, fn in routes.items():
            for _ in range(spec["probe_calls"]):
                s = time.perf_counter_ns()
                fn(w)
                times.setdefault(f"traces.{route}_us.n{len(w)}", []).append(
                    (time.perf_counter_ns() - s) / 1e3)
    return {k: sorted(v)[len(v) // 2] for k, v in times.items()}


def main():
    spec = json.loads(sys.stdin.read())
    sys.path.insert(0, spec["src"])
    import chtg
    if not chtg.__file__.startswith(spec["src"]):
        raise SystemExit(f"chtg imported from {chtg.__file__}, not {spec['src']}")
    workload = spec["workload"]
    if workload == "env":
        import numpy
        import scipy
        print(json.dumps({"python": sys.version.split()[0],
                          "numpy": numpy.__version__, "scipy": scipy.__version__,
                          "executable": sys.executable}))
        return
    tracer = None
    if spec["trace"]:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
    if workload == "sweep":
        words, params_list = sweep_setup(spec)
    else:
        import chtg.cli  # noqa: F401  (the CLI user pays this import)
    if tracer is not None:
        tracer.install()
        root = tracer.open("bench.job")
    t_first = _mono_ns()
    start = time.perf_counter_ns()
    if workload == "sweep":
        results = sweep_job(words, params_list)
    else:
        rc, out = run_cli(spec["argv"], tracer)
    job_ns = time.perf_counter_ns() - start
    t_end = _mono_ns()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"t_first_ns": t_first, "t_end_ns": t_end, "job_s": job_ns / 1e9,
              "rss_mb": rss_mb}
    if tracer is not None:
        tracer.close(root)
        tracer.uninstall()
        layers = tracer_mod.layer_metrics(tracer, root)
        layers["cli.out_bytes"] = 0 if workload == "sweep" else len(out.encode())
        info = getattr(chtg.traces, "_compiled_stats", None)
        if info is not None:
            ci = info.cache_info()
            layers["traces.stats_cache_hit_ratio"] = \
                ci.hits / (ci.hits + ci.misses) if ci.hits + ci.misses else 0.0
        if spec.get("spans_out"):
            tracer.dump(spec["spans_out"])
    checks = Checks()
    if workload == "sweep":
        check_sweep(spec, results, checks)
        result["attempted"] = len(results)
    else:
        result["rc"] = rc
        result["sha256"] = hashlib.sha256(out.encode()).hexdigest()
        result["words"] = check_rows(spec, rc, out, checks)
        result["attempted"] = len(result["words"])
    result["failed_items"] = sorted(checks.failed)
    result["reasons"] = checks.reasons
    result["worst_rel_delta"] = checks.worst
    if tracer is not None:
        layers.update(probe(spec))
        result["layers"] = layers
    print(json.dumps(result))


if __name__ == "__main__":
    main()
