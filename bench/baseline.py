"""Reconcile the benchmark with the baseline table in ROADMAP.md.

    python3 bench/baseline.py

Runs each baseline row once untraced and once traced, each in a fresh
interpreter, and prints the wall time of the call and of the whole process
next to the table's figure, with the traced self time of every layer that
took more than 1 % of the call.
It is a one-off check, not part of the measured benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# (label, figure in the ROADMAP table in seconds, kind, argument)
ROWS = (
    ("scan_elliptic (4,5,6) t=0.8 max_len 14", 2.17, "scan", 14),
    ("chtg ring-check --p 4 4 inf --n inf --max-len 10 --csv", 0.94, "cli",
     ["ring-check", "--p", "4", "4", "inf", "--n", "inf", "--max-len", "10", "--csv"]),
    ("chtg ring-check --p 4 4 inf --n inf --max-len 12 --csv", 2.6, "cli",
     ["ring-check", "--p", "4", "4", "inf", "--n", "inf", "--max-len", "12", "--csv"]),
)


def child(index: int, trace: bool) -> dict:
    sys.path.insert(0, str(SRC))
    import chtg.cli
    import tracer as tracer_mod
    _, _, kind, arg = ROWS[index]
    tr = tracer_mod.Tracer() if trace else None
    if tr is not None:
        tr.install()
        root = tr.open("bench.job")
    start = time.perf_counter()
    if kind == "scan":
        params = chtg.TriangleParams.from_signature(4, 5, 6).with_t(0.8)
        items = len(chtg.analysis.scan_elliptic(params, arg).rows)
    else:
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            if tr is None:
                chtg.cli.main(arg)
            else:
                tr.span("cli.main", chtg.cli.main, arg)
        items = len(buf.getvalue().splitlines()) - 1
    out = {"wall_s": time.perf_counter() - start, "items": items}
    if tr is not None:
        tr.close(root)
        tr.uninstall()
        out["self_s"] = {name: row[2]
                         for name, row in tracer_mod.span_totals(tr).items()}
    return out


def main() -> int:
    if len(sys.argv) == 3:
        print(json.dumps(child(int(sys.argv[1]), sys.argv[2] == "1")))
        return 0
    for i, (label, figure, _, _) in enumerate(ROWS):
        runs = []
        for trace in ("0", "1"):
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, __file__, str(i), trace],
                                  capture_output=True, text=True, check=True)
            runs.append(json.loads(proc.stdout.splitlines()[-1]))
            runs[-1]["process_s"] = time.perf_counter() - start
        plain, traced = runs
        print(f"{label}: table {figure:.2f} s, measured {plain['wall_s']:.2f} s "
              f"in the call, {plain['process_s']:.2f} s with interpreter start "
              f"and imports ({plain['items']} rows); traced call "
              f"{traced['wall_s']:.2f} s")
        for name, s in sorted(traced["self_s"].items(), key=lambda kv: -kv[1]):
            if s >= 0.01 * traced["wall_s"]:
                print(f"    {name:32s} {s:7.3f} s  {100 * s / traced['wall_s']:5.1f} %")
    return 0


if __name__ == "__main__":
    sys.exit(main())
