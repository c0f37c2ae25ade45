#!/usr/bin/env python3
"""Print the traces of all short cyclic classes for one parameter set,
cross-checking the three evaluation routes.  ``--p`` reads as in ``chtg``
(integers or inf); a bad entry or parameter set exits 1 with one line on
stderr."""

import argparse
import sys

from chtg.classify import classify
from chtg.cli import UsageError, _parse_p
from chtg.traces import trace_combinatorial, trace_oracle, trace_recursive
from chtg.triangle import TriangleParams, realize
from chtg.words import enumerate_words, word_to_str


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", nargs=3, default=["4", "4", "4"])
    ap.add_argument("--cos-alpha", type=float, default=0.3)
    ap.add_argument("--max-len", type=int, default=5)
    args = ap.parse_args()

    try:  # TriangleError is a ValueError
        ps = [_parse_p(p) for p in args.p]
        params = TriangleParams.from_signature(*ps).with_cos_alpha(args.cos_alpha)
        rz = realize(params)
    except (UsageError, ValueError) as exc:
        sys.exit(f"trace_table.py: {exc}")
    print(f"{'word':>10} {'tau':>28} {'rho':>12} verdict   max route delta")
    for ws in enumerate_words(args.max_len):
        for w in map(tuple, ws.tolist()):
            t0 = trace_oracle(w, rz).value
            d = max(abs(trace_combinatorial(w, params).value - t0),
                    abs(trace_recursive(w, params).value - t0))
            cls = classify(t0)
            print(f"{word_to_str(w):>10} {t0:28.12f} {cls.rho:12.4g} "
                  f"{cls.verdict:22s} {d:.2e}")


if __name__ == "__main__":
    main()
