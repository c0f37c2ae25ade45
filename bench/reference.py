"""Machine-speed reference that runs beside the measured repetitions.

    python3 bench/reference.py

Repeats a fixed pure-Python work unit that shares no code with chtg and
records (CLOCK_MONOTONIC start ns, duration ns) for each unit.  On SIGTERM
it prints the samples as one JSON list and exits; it also exits if the
harness that started it is gone.  The host this benchmark was tuned on
changes speed by up to 2x over minutes, on both vCPUs at once; the harness
divides each repetition's job time by the reference's slowdown during that
job, which removes that shared drift.
"""

from __future__ import annotations

import json
import os
import signal
import time

UNIT_LOOPS = 200_000


def unit() -> int:
    s = 0
    for i in range(UNIT_LOOPS):
        s += i * i % 7
    return s


def main() -> None:
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    parent = os.getppid()
    samples = []
    clock = time.clock_gettime_ns
    mono = time.CLOCK_MONOTONIC
    while not stop and os.getppid() == parent:
        t0 = clock(mono)
        unit()
        samples.append((t0, clock(mono) - t0))
    print(json.dumps(samples))


if __name__ == "__main__":
    main()
