#!/usr/bin/env python3
"""Print the traces of all short cyclic classes for one parameter set,
cross-checking the three evaluation routes as ``chtg trace`` does.  Options
read and exit as in ``chtg``: 64 usage error, 65 domain error, 141 closed
stdout."""

import sys

from chtg.classify import classify
from chtg.cli import _Parser, _parse_fraction, _parse_p, run
from chtg.traces import cross_check
from chtg.triangle import TriangleParams, realize
from chtg.words import enumerate_words, word_to_str


def main():
    ap = _Parser(description=__doc__)
    ap.add_argument("--p", nargs=3, default=["4", "4", "4"])
    ap.add_argument("--cos-alpha", default="0.3")
    ap.add_argument("--max-len", type=int, default=5)
    args = ap.parse_args()
    params = TriangleParams.from_signature(*map(_parse_p, args.p)).with_cos_alpha(
        _parse_fraction(args.cos_alpha))
    rz = realize(params)
    levels = enumerate_words(args.max_len)  # checks max_len before the header
    print(f"{'word':>10} {'tau':>28} {'rho':>12} verdict   max route delta")
    for ws in levels:
        for w in map(tuple, ws.tolist()):
            results, deltas = cross_check(w, rz)
            cls = classify(results["oracle"])
            print(f"{word_to_str(w):>10} {results['oracle']:28.12f} "
                  f"{cls.rho:12.4g} {cls.verdict:22s} {max(deltas.values()):.2e}")


if __name__ == "__main__":
    sys.exit(run(main))
