"""Shared draw helpers and reference polynomial arithmetic for the tests."""

import math

import numpy as np

from chtg.traces import _fourier_terms
from chtg.triangle import TriangleParams


def draw_params(rng, lo=0.55, hi=1.1, margin=0.03, cos_floor=-0.98):
    """Random valid parameters: radii in [lo, hi], cos(alpha) safely below
    the existence bound, both alpha branches exercised."""
    while True:
        r = rng.uniform(lo, hi, 3)
        bound = (float(np.sum(r * r)) - 1.0) / (2.0 * float(np.prod(r)))
        top = min(bound - margin, 0.98)
        if top < cos_floor + 0.01:
            continue
        c = rng.uniform(cos_floor, top)
        alpha = math.acos(c)
        if rng.random() < 0.5:
            alpha = 2.0 * math.pi - alpha
        return TriangleParams(*map(float, r), alpha=alpha)


def draw_word(rng, max_len, min_len=0):
    n = int(rng.integers(min_len, max_len + 1))
    return tuple(int(x) for x in rng.integers(1, 4, n))


def poly_mul(a: dict, b: dict) -> dict:
    """Product of polynomials {(j1, j2, j3): coefficient} in X1, X2, X3."""
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = (ma[0] + mb[0], ma[1] + mb[1], ma[2] + mb[2])
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c != 0}


def poly_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) - c
    return {m: c for m, c in out.items() if c != 0}


def trace_mu_polynomial(word, params, mus) -> dict:
    """Fourier coefficients q_w of the mu-expansion, as complex numbers."""
    r1, r2, r3 = params.r
    factors = tuple(complex(mu) - 1.0 for mu in mus)
    q: dict = {}
    for w, (u1, u2, u3), c in _fourier_terms(word, factors):
        q[w] = q.get(w, 0.0 + 0j) + c * r1 ** u1 * r2 ** u2 * r3 ** u3
    return q
