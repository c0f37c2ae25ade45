"""The names the benchmark harness under bench/ looks up in chtg.

bench/tracer.py wraps the functions listed in its PATCHES table, and
bench/worker.py calls the trace routes directly.  A name removed from chtg
would only show up when the benchmark runs; these tests catch it first, and
the last one runs the harness's smoke mode end to end.
"""

import importlib.util
import inspect
import pathlib
import shutil
import subprocess
import sys

import pytest

import chtg
import chtg.cli
from chtg import traces, triangle

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("path,attr", [(p[0], p[1]) for p in tracer.PATCHES],
                         ids=[f"{p[0]}.{p[1]}" for p in tracer.PATCHES])
def test_patched_names_resolve(path, attr):
    owner = tracer._resolve(path)
    assert owner is not None, path
    assert callable(getattr(owner, attr))


def test_classify_spellings():
    # chtg.classify is the module; the CLI imports the function by name
    assert inspect.ismodule(chtg.classify)
    assert inspect.isfunction(chtg.cli.classify)
    assert inspect.isfunction(chtg.classify.classify)


def test_worker_trace_calls():
    params = triangle.TriangleParams.from_signature(4, 5, 6).with_t(0.8)
    rz = triangle.realize(params)
    w = (1, 2, 3, 2, 1, 3)
    tau = traces.trace_oracle(w, rz).value
    for value in (traces.trace_combinatorial(w, params).value,
                  traces.trace_recursive(w, params).value,
                  traces.trace_polynomial(w, mode="exact").evaluate(params)):
        assert abs(value - tau) <= 1e-9 * max(1.0, abs(tau))


def test_bench_smoke_runs(tmp_path):
    # the harness's smoke mode, on a copy so the checkout gains no
    # .bench_out/; its environment probe imports scipy
    pytest.importorskip("scipy")
    for name in ("bench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--smoke"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 6 and all(line.startswith("ok ") for line in lines), \
        proc.stdout
