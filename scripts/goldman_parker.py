#!/usr/bin/env python3
"""Locate the ideal-family ellipticity threshold of the word (1, 2, 3).

Sweeps t for radii (1, 1, 1), prints rho(tau_123) (t^2 + 1)^3 against the
closed quartic, and recovers the root by bisection: t^2 = 125/3, i.e.
cos(alpha) = 61/64.
"""

import sys

import numpy as np

from chtg.analysis import bisect, cos_of_t, family_quartic, rho_123_weighted
from chtg.cli import _Parser, run


def main():
    ap = _Parser(description=__doc__)
    ap.add_argument("--tmax", type=float, default=10.0)
    ap.add_argument("--steps", type=int, default=21)
    args = ap.parse_args()
    ts = np.linspace(0.0, args.tmax, args.steps)  # checks --steps first

    print(f"{'t':>8} {'rho*(t^2+1)^3':>18} {'closed form':>18}")
    for t in ts:
        got = rho_123_weighted((1.0, 1.0, 1.0), float(t))
        want = family_quartic(1.0, float(t))
        print(f"{t:8.3f} {got:18.6f} {want:18.6f}")

    root = bisect(lambda t: rho_123_weighted((1.0, 1.0, 1.0), t), 6.0, 7.0,
                  tol=1e-14)
    print(f"\nroot: t = {root:.12f}  t^2 = {root**2:.12f} (125/3 = {125/3:.12f})")
    print(f"cos(alpha) at the root = {cos_of_t(root):.15f} (61/64 = {61/64:.15f})")


if __name__ == "__main__":
    sys.exit(run(main))
