"""Ellipticity thresholds, the distinguished parameter family, word scans.

The one-parameter space of triangles with fixed radii is coordinatised by
t = cot(alpha / 2); cos(alpha) = (t^2 - 1) / (t^2 + 1).  Triangles exist for
|t| < t_inf, and the length-4 test word (3, 2, 3, 1) is regular elliptic
exactly for |t| > t_A, where both bounds come from closed forms in the radii.
All w_A-related quantities read the labels as given; supply r1 <= r2 <= r3
(e.g. a sorted signature) for the usual normal form.

The family r1^2 + r2^2 + r3^2 = 1 + 2 r1 r2 r3 has t_inf = +inf and an
explicit even quartic f_B with rho(tau_123) = f_B(t) / (t^2 + 1)^3, so the
ellipticity pattern of the word (1, 2, 3) is fully determined by
R = r1 r2 r3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .classify import HYPERBOLIC, REGULAR_ELLIPTIC, classify, discriminant
from .traces import _constants, _key, tau_123_closed, trace_oracle
from .triangle import TriangleParams, alpha_of_t, realize, t_of_alpha
from .words import enumerate_words

TYPE_B = "TypeB"
OUT_OF_CRITERION = "OutOfCriterion"
TYPE_B_PRODUCT_BOUND = (13.0 + math.sqrt(297.0)) / 32.0

FAMILY_TOL = 1e-10


class NotInFamily(ValueError):
    pass


def t_of_cos(c: float) -> float:
    """sqrt((1 + c)/(1 - c)) with total-order sentinels: +inf for c >= 1,
    -inf for c < -1.  Values within 1e-12 of 1 count as 1."""
    if c >= 1.0 - 1e-12:
        return math.inf
    if c < -1.0:
        return -math.inf
    return math.sqrt((1.0 + c) / (1.0 - c))


def cos_of_t(t: float) -> float:
    """(t^2 - 1) / (t^2 + 1); tends to 1 as |t| -> inf."""
    if math.isinf(t):
        return 1.0
    tt = t * t
    return (tt - 1.0) / (tt + 1.0)


@dataclass(frozen=True)
class Thresholds:
    """Closed-form threshold data for one radius triple.

    f_b, when present, holds (a4, a2, a0) with f_B(t) = a4 t^4 + a2 t^2 + a0.
    t_b_minus/t_b_plus are the nonnegative roots of f_B (absent when f_B has
    no real roots; only t_b_plus when there is a single crossing).
    """

    c_inf: float
    t_inf: float
    c_a: float
    t_a: float
    r_product: float
    family_member: bool
    f_b: tuple | None
    t_b_minus: float | None
    t_b_plus: float | None


def _family_roots(big_r: float):
    if big_r < 7.0 / 8.0 - 1e-12:
        return None, None
    if abs(big_r - 1.0) <= 1e-12:
        # quartic degenerates to 1024 (125 - 3 t^2); single crossing
        return math.sqrt(125.0 / 3.0), math.inf
    disc = max((8.0 * big_r - 7.0) ** 3 * (8.0 * big_r + 1.0), 0.0)
    inner = big_r * math.sqrt(disc)
    num = 2.0 + 11.0 * big_r - 80.0 * big_r ** 2 + 64.0 * big_r ** 3
    den = 2.0 * (big_r - 1.0)
    roots = sorted(math.sqrt(tt)
                   for tt in ((num + inner) / den, (num - inner) / den)
                   if tt >= 0.0)
    if not roots:
        return None, None
    if len(roots) == 1:
        return None, roots[0]
    return roots[0], roots[1]


def family_membership(r) -> bool:
    """Whether r1^2 + r2^2 + r3^2 = 1 + 2 r1 r2 r3 within 1e-10."""
    r1, r2, r3 = r
    return abs(r1 * r1 + r2 * r2 + r3 * r3 - 1.0 - 2.0 * r1 * r2 * r3) <= FAMILY_TOL


def thresholds(params: TriangleParams) -> Thresholds:
    """All closed-form threshold data; needs only the radii."""
    r1, r2, r3 = params.r
    if min(r1, r2, r3) <= 0.0:
        raise ValueError("thresholds need r_k > 0")
    big_r = r1 * r2 * r3
    if big_r == 0.0:
        raise ValueError("the radius product underflows")
    c_inf = (r1 * r1 + r2 * r2 + r3 * r3 - 1.0) / (2.0 * big_r)
    c_a = (4.0 * r1 * r1 * r2 * r2 + r3 * r3 - 1.0) / (4.0 * big_r)
    if math.isnan(c_inf) or math.isnan(c_a):
        raise ValueError("the threshold formulas overflow for these radii")
    member = family_membership(params.r)
    f_b = t_bm = t_bp = None
    if member:
        scale = 1024.0 * big_r
        f_b = (scale * (1.0 - big_r),
               scale * (64.0 * big_r ** 3 - 80.0 * big_r ** 2 + 11.0 * big_r + 2.0),
               scale * (64.0 * big_r ** 3 + 48.0 * big_r ** 2 + 12.0 * big_r + 1.0))
        t_bm, t_bp = _family_roots(big_r)
    return Thresholds(c_inf, t_of_cos(c_inf), c_a, t_of_cos(c_a),
                      big_r, member, f_b, t_bm, t_bp)


def family_quartic(big_r: float, t: float) -> float:
    """f_B(t) = 1024 R ((1-R) t^4 + (64R^3-80R^2+11R+2) t^2 + (64R^3+48R^2+12R+1))."""
    return 1024.0 * big_r * ((1.0 - big_r) * t ** 4
                             + (64.0 * big_r ** 3 - 80.0 * big_r ** 2
                                + 11.0 * big_r + 2.0) * t ** 2
                             + (64.0 * big_r ** 3 + 48.0 * big_r ** 2
                                + 12.0 * big_r + 1.0))


def rho_123_weighted(r_triple, t: float) -> float:
    """rho(tau_123) * (t^2 + 1)^3 at the parameter t, from the closed form."""
    params = TriangleParams(*r_triple, alpha=alpha_of_t(t))
    return discriminant(tau_123_closed(params)) * (t * t + 1.0) ** 3


def bisect(f, lo: float, hi: float, tol: float = 1e-12, max_iter: int = 200) -> float:
    """Plain bisection; f(lo) and f(hi) must have opposite signs."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError("bisection needs a sign change")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or (hi - lo) / 2.0 < tol:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def family_type(params: TriangleParams) -> str:
    """TypeB when the sufficient criterion applies; never asserts TypeA.

    TypeB is reported when the radius product reaches (13 + sqrt(297)) / 32,
    or when c_A >= 1 (the test word never goes elliptic at all, while the
    family's f_B guarantees that (1, 2, 3) eventually does).  Below the
    criterion the verdict is OutOfCriterion: the bound is one-directional.
    """
    if not family_membership(params.r):
        raise NotInFamily("radii do not satisfy r1^2+r2^2+r3^2 = 1 + 2 r1 r2 r3")
    th = thresholds(params)
    if th.c_a >= 1.0 - 1e-12 or th.r_product >= TYPE_B_PRODUCT_BOUND - 1e-12:
        return TYPE_B
    return OUT_OF_CRITERION


W_A = (3, 2, 3, 1)


@dataclass(frozen=True)
class Certificate:
    """A verified regular-elliptic test-word image: the representation with
    these parameters is not a discrete embedding."""

    word: tuple
    tau: complex
    rho: float
    t: float
    t_a: float


def non_discreteness_certificate(params: TriangleParams,
                                 tol: float = 1e-9) -> Certificate | None:
    """Certificate naming the (3,2,3,1)-class when |t| > t_A; None otherwise.

    The closed-form decision is double-checked by classifying trace_oracle's
    product of the realization's reflections, a geometric check independent
    of scan's kernel.  Absence of a certificate proves nothing.  At R = 0 the
    trace of (3,2,3,1) is constant, 16 r1^2 r2^2 + 4 r3^2 - 1, and t_A is
    -inf or +inf as that is < 3 or not.
    """
    r1, r2, r3 = params.r
    if r1 * r2 * r3 == 0.0:
        t_a = -math.inf if 4.0 * r1 * r1 * r2 * r2 + r3 * r3 < 1.0 else math.inf
    else:
        t_a = thresholds(params).t_a
    if not abs(params.t) > t_a:
        return None
    rz = realize(params)
    tau = trace_oracle(W_A, rz).value
    cls = classify(tau, tol=tol)
    if cls.verdict != REGULAR_ELLIPTIC:
        return None
    return Certificate(W_A, tau, cls.rho, params.t, t_a)


class ScanBlock(NamedTuple):
    """Some classes of one length: int8 words (count, n), traces,
    discriminants, verdict names (an object array), alternation filter."""

    words: np.ndarray
    tau: np.ndarray
    rho: np.ndarray
    verdict: np.ndarray
    filtered: np.ndarray


def scan_elliptic(params: TriangleParams, max_len: int,
                  skip_alternating: bool = True, tol: float = 1e-9):
    """Classify every cyclic class up to max_len, in ScanBlocks, one or
    more per length: one per block of ``enumerate_words``.

    Bad input raises at the call, before the first block; blocks are made,
    from the prefix products of traces' kernel in ``enumerate_words``, as
    they are read, so each tau is trace_combinatorial's bit for bit; realize
    runs only for its existence and overflow checks.
    """
    realize(params)
    # a reduced class on two letters a, b is a power of (a, b), a rotation of
    # finite angle when r_k < 1 for the missing letter k; ``alt`` is indexed
    # by the letter set, 2^a + 2^b = 14 - 2^k
    alt = np.zeros(16, dtype=bool)
    if skip_alternating:
        alt[14 - (2 << np.flatnonzero(np.array(params.r) < 1.0 - 1e-12))] = True
    return (_block(ws, tau, alt, tol) for ws, tau in
            enumerate_words(max_len, _constants(_key(params))[0]))


def _block(ws, tau, alt, tol) -> ScanBlock:
    """rho as classify.discriminant computes it, bit for bit; classify runs
    only where |rho| <= tol, rho is NaN or tau is not finite."""
    with np.errstate(all="ignore"):
        a2 = tau.real * tau.real + tau.imag * tau.imag
        rho = a2 * a2 - 8.0 * (tau ** 3).real + 18.0 * a2 - 27.0
        band = ~(np.abs(rho) > tol) | ~np.isfinite(tau)
    verdict = np.full(len(rho), HYPERBOLIC, dtype=object)
    verdict[rho < 0.0] = REGULAR_ELLIPTIC
    for i in np.flatnonzero(band):
        cls = classify(tau[i], tol=tol)
        rho[i], verdict[i] = cls.rho, cls.verdict
    filtered = alt[np.bitwise_or.reduce(np.left_shift(1, ws), axis=1)]
    return ScanBlock(ws, tau, rho, verdict, filtered)
