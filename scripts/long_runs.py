"""Wall time, peak RSS and stdout sha256 of the 24-letter CLI runs, on two
checkouts, in alternating fresh processes.

    python3 scripts/long_runs.py --base ../parent --head .

For each command in ``LONG_RUNS``, run i (i = 1..``RUNS``) starts ``python -m
chtg ...`` once in each checkout, with that checkout's ``src`` on
PYTHONPATH; the side that goes first alternates from run to run.  Each
child writes its stdout to a file, which is hashed in 1 MiB chunks, and its
peak RSS is ``ru_maxrss`` from ``os.wait4``.  Linux starts a child's
``ru_maxrss`` at the peak RSS of the process that spawned it, so a harness
that held a large stdout in memory would report its own peak for every later
child; this one never holds more than a chunk.  Prints one line per run and,
per command and side, the exit codes, digests, min and max peak RSS and min
wall time.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import os
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
RUNS = 5


def run_once(checkout: Path, command: str, out_path: Path) -> dict:
    """One fresh ``python -m chtg command`` in checkout, stdout to out_path."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "chtg", *command.split()],
                                cwd=checkout, env=env, stdout=out)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    digest = hashlib.sha256()
    with open(out_path, "rb") as f:
        while chunk := f.read(1 << 20):
            digest.update(chunk)
    return {"exit": proc.returncode, "wall_s": wall,
            "peak_rss_mib": usage.ru_maxrss / 1024,
            "stdout_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--head", type=Path, required=True)
    args = parser.parse_args(argv)
    sides = {"base": args.base.resolve(), "head": args.head.resolve()}
    with tempfile.TemporaryDirectory() as tmp:
        for command in LONG_RUNS:
            runs = {side: [] for side in sides}
            for i in range(RUNS):
                for side in (("base", "head") if i % 2 == 0 else ("head", "base")):
                    r = run_once(sides[side], command, Path(tmp) / "stdout")
                    runs[side].append(r)
                    print(f"{command} | {side} run {i + 1}: exit {r['exit']}, "
                          f"{r['wall_s']:.3f} s, {r['peak_rss_mib']:.1f} MiB, "
                          f"{r['stdout_sha256'][:12]}", flush=True)
            for side, rs in runs.items():
                rss = [r["peak_rss_mib"] for r in rs]
                print(f"{command} | {side}: exit {sorted({r['exit'] for r in rs})}, "
                      f"stdout {sorted({r['stdout_sha256'][:12] for r in rs})}, "
                      f"peak RSS {min(rss):.1f}-{max(rss):.1f} MiB, "
                      f"min wall {min(r['wall_s'] for r in rs):.3f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
