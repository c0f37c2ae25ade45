#!/usr/bin/env python3
"""Survey the distinguished family r1^2+r2^2+r3^2 = 1 + 2 r1 r2 r3.

Tabulates, for (p, p, inf) and (p, 2p, 2p) signatures, the radius product R,
the thresholds t_A and t_B-, and the sufficient type-B verdict.  The verdict
column never asserts type A; below the criterion it stays OutOfCriterion.
"""

import math
import sys

from chtg.analysis import family_membership, family_type, thresholds
from chtg.cli import _Parser, run
from chtg.triangle import TriangleParams


def row(tag, params):
    assert family_membership(params.r)
    th = thresholds(params)
    tb = "-" if th.t_b_minus is None else f"{th.t_b_minus:9.4f}"
    print(f"{tag:>14} R={th.r_product:.6f} t_A={th.t_a:9.4f} "
          f"t_B-={tb} {family_type(params)}")


def main():
    ap = _Parser(description=__doc__)
    ap.add_argument("--pmax", type=int, default=20)
    args = ap.parse_args()

    print("(p, p, inf) signatures:")
    for p in range(5, args.pmax + 1):
        row(f"({p},{p},inf)", TriangleParams.from_signature(p, p, math.inf))
    print("\n(p, 2p, 2p) signatures:")
    for p in range(5, args.pmax + 1):
        row(f"({p},{2*p},{2*p})", TriangleParams.from_signature(p, 2 * p, 2 * p))
    print("\nultra-parallel [l, l, 2l]:")
    for l in (0.5, 1.0, 2.0):
        row(f"[{l},{l},{2*l}]", TriangleParams.from_lengths(l, l, 2 * l))


if __name__ == "__main__":
    sys.exit(run(main))
