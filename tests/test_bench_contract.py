"""The names the benchmark harness under bench/ looks up in chtg.

bench/tracer.py wraps the functions listed in its PATCHES table, and
bench/worker.py calls the trace routes directly.  A name removed from chtg
would only show up when the benchmark runs; these tests catch it first.
"""

import importlib.util
import inspect
import pathlib

import pytest

import chtg
import chtg.cli
from chtg import traces, triangle

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
