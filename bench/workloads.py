"""Benchmark inputs made from the seed, and the brute-force word reference.

Standard library only: the harness process never imports numpy or chtg, so
input generation is not counted in any child's set-up time.

Why these workloads (each puts most of its work on a different layer):

* ``scan``   -- ``chtg scan --p 4 5 6 --t T --max-len 14 --csv``.  Nearly all
  of it is necklace enumeration in ``words``; the trace layer only runs the
  oracle, one product chain per word.  T is drawn inside (0, t_inf); the
  amount of work does not depend on it.
* ``ring``   -- ``chtg ring-check --p 4 4 inf --n N --max-len 12 --csv``.
  Most of it is the 2^n subset expansion, run twice per word (cached for
  ``trace_combinatorial``, uncached for exact ``trace_polynomial``), plus
  the conjugate reassembly in ``arithmetic``.  Every N in {5, 8, 10, 12}
  gives exactly two Galois-conjugate pairs, so the work is the same for
  every seed.
* ``sweep``  -- library calls only: exact Fourier data once per word, then
  every trace route, ``evaluate`` and ``classify`` at every (word, t) pair.
  Words are re-evaluated many times, so it runs the warm ``_compiled_stats``
  path, the recursion and ``realize``, and no enumeration.  A fixed number
  of words per length keeps the work the same for every seed.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("scan", "ring", "sweep")

SIGNATURE = (4, 5, 6)  # scan, sweep and the per-length probe
RING_SIGNATURE = (4, 4, math.inf)
RING_N = (5, 8, 10, 12)
PROBE_LENGTHS = (8, 12, 16)

# full size, and the tiny size of the smoke test
SIZES = {
    False: {"scan_max_len": 14, "scan_sample": 100,
            "ring_max_len": 12, "ring_sample": 24,
            "sweep_lengths": range(6, 17), "sweep_per_len": 2, "sweep_ts": 80,
            "probe_per_len": 2, "probe_calls": 3},
    True: {"scan_max_len": 6, "scan_sample": 10,
           "ring_max_len": 5, "ring_sample": 5,
           "sweep_lengths": range(6, 9), "sweep_per_len": 1, "sweep_ts": 3,
           "probe_per_len": 1, "probe_calls": 1},
}


def t_inf(signature) -> float:
    """Existence bound on |t| for a finite signature, from the closed form
    c_inf = (r1^2 + r2^2 + r3^2 - 1) / (2 r1 r2 r3), t = sqrt((1+c)/(1-c))."""
    r = [math.cos(math.pi / p) for p in signature]
    c = (sum(x * x for x in r) - 1.0) / (2.0 * r[0] * r[1] * r[2])
    return math.sqrt((1.0 + c) / (1.0 - c))


def bracelet(word: str) -> str:
    """Least rotation of the word or of its reverse."""
    rev = word[::-1]
    return min(min(w[i:] + w[:i] for i in range(len(w))) for w in (word, rev))


def reference_classes(max_len: int) -> list:
    """Every class of cyclically reduced words up to rotation and reversal,
    one least representative each, by length then lexicographic order.

    Brute force: all words with no two cyclically adjacent letters equal,
    each reduced to ``bracelet``.
    """
    out = []
    level = ["1", "2", "3"]
    for n in range(1, max_len + 1):
        if n > 1:
            level = [w + a for w in level for a in "123" if a != w[-1]]
        closed = level if n == 1 else [w for w in level if w[0] != w[-1]]
        out.extend(sorted({bracelet(w) for w in closed}))
    return out


def _random_word(rng, n):
    while True:
        w = [rng.choice("123")]
        for _ in range(n - 1):
            w.append(rng.choice([a for a in "123" if a != w[-1]]))
        if w[0] != w[-1]:
            return bracelet("".join(w))


def _distinct_words(rng, lengths, per_len, taken):
    words = []
    for n in lengths:
        got = 0
        while got < per_len:
            w = _random_word(rng, n)
            if w not in taken:
                taken.add(w)
                words.append(w)
                got += 1
    return words


def make_inputs(workload: str, seed: int, smoke: bool = False) -> dict:
    """Everything a repetition needs, drawn from the seed only."""
    size = SIZES[smoke]
    rng = random.Random(f"{workload}:{seed}")
    lo, hi = 0.05 * t_inf(SIGNATURE), 0.95 * t_inf(SIGNATURE)
    spec = {"workload": workload, "sample_seed": rng.randrange(2 ** 31)}
    if workload == "scan":
        t = repr(rng.uniform(lo, hi))
        spec["t"] = t
        spec["argv"] = ["scan", "--p", *map(str, SIGNATURE), "--t", t,
                        "--max-len", str(size["scan_max_len"]), "--csv"]
        spec["sample_size"] = size["scan_sample"]
    elif workload == "ring":
        n = str(rng.choice(RING_N))
        spec["n"] = n
        spec["argv"] = ["ring-check", "--p",
                        *("inf" if p == math.inf else str(p) for p in RING_SIGNATURE),
                        "--n", n,
                        "--max-len", str(size["ring_max_len"]), "--csv"]
        spec["sample_size"] = size["ring_sample"]
    elif workload == "sweep":
        spec["words"] = _distinct_words(rng, size["sweep_lengths"],
                                        size["sweep_per_len"], set())
        spec["ts"] = [rng.uniform(lo, hi) for _ in range(size["sweep_ts"])]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # words for the per-length route table of the traced run
    spec["probe_t"] = rng.uniform(lo, hi)
    spec["probe_words"] = _distinct_words(rng, PROBE_LENGTHS,
                                          size["probe_per_len"], set())
    spec["probe_calls"] = size["probe_calls"]
    return spec


def expected_words(spec: dict, smoke: bool = False) -> list | None:
    """The rows a CLI workload must print, in order; None for ``sweep``."""
    size = SIZES[smoke]
    if spec["workload"] == "scan":
        return reference_classes(size["scan_max_len"])
    if spec["workload"] == "ring":
        return reference_classes(size["ring_max_len"])
    return None
