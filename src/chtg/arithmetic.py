"""Arithmetic properties of traces: rotation-tuned groups, ring membership.

G(p1, p2, p3; n) is the triangle group from the signature with the angular
invariant tuned so the element (3, 1, 3, 2) rotates by 2 pi / n, i.e. has
trace 1 + 2 cos(2 pi / n):

    cos(alpha) = (8 r1^2 r2^2 + 2 r3^2 - 1 - cos(2 pi / n)) / (8 r1 r2 r3).

When every entry of {p1, p2, p3, n} is 3, 4, 6 or inf, the quantities
2 Re(tau) and |tau|^2 are plain integers; that check is sharp.  With one
extra entry q, they land in Z[2 cos(2 pi / q)] and the membership test works
over the Galois conjugates of 2 cos(2 pi / q).  A conjugate moves X_k =
4 r_k^2 and the root Z = 8 R e^{i alpha} of Z^2 - S Z + Q = 0, S = 16 R
cos(alpha) and Q = (8 R)^2; its trace is the O(n) transfer-matrix product of
``traces`` at the moved point, which equals the exact Fourier sum as a
polynomial identity (see _conjugate_transfer), so no exact data is built.
``ring_transfer`` gives the matrices of tau and tau-bar at every conjugate
(at all-integer entries, traces' kernel, which scan multiplies too) and the
function that judges all words' traces at once, in columns (one entry per
word); ``chtg ring-check`` multiplies them in the prefix-product pass of
``words.enumerate_words``.  The one-word functions (group_ring_check,
group_conjugate_traces, basis_ring_check, integer_ring_check) multiply with
``traces.word_matrix`` and return word 0's verdict as Python values.
The basis method inverts the power basis in closed form, up to degree 14; a
float heuristic, its verdicts carry experimental=True and are no hard gate.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

# trace_combinatorial, trace_polynomial and realize are unused here; the
# benchmark tracer (bench/tracer.py) patches them under these names
from .traces import (trace_combinatorial, trace_polynomial,  # noqa: F401
                     _REFLECTION_FACTORS, _constants, _key, transfer_matrices,
                     word_matrix)
from .triangle import (TWO_PI, ExistenceViolation, TriangleParams,  # noqa: F401
                       realize)

INTEGER_ENTRIES = (3, 4, 6, math.inf)


class IllConditionedBasis(ValueError):
    """The conjugate Vandermonde system is numerically unusable."""


def cos_two_pi_over(n) -> float:
    return 1.0 if n == math.inf else math.cos(TWO_PI / n)


@dataclass(frozen=True)
class GroupWithRotation:
    params: TriangleParams
    n: float
    cos_alpha: float

    @property
    def signature(self):
        return self.params.p


def group_with_rotation(p1, p2, p3, n) -> GroupWithRotation:
    """G(p1, p2, p3; n); raises ExistenceViolation if the tuned angle is
    out of range or violates the triangle existence bound.  n = inf is
    allowed and means the rotation degenerates to trace 3."""
    if n != math.inf and not (float(n).is_integer() and n >= 1):
        raise ValueError(f"rotation order n must be an integer >= 1 or inf, got {n}")
    base = TriangleParams.from_signature(p1, p2, p3)
    r1, r2, r3 = base.r
    if min(r1, r2, r3) <= 0.0:
        raise ExistenceViolation("rotation tuning needs r_k > 0")
    big_r = base.r_product
    ca = (8.0 * r1 * r1 * r2 * r2 + 2.0 * r3 * r3 - 1.0
          - cos_two_pi_over(n)) / (8.0 * big_r)
    if abs(ca) > 1.0:
        raise ExistenceViolation(
            f"induced cos(alpha) = {ca:.6g} is not in [-1, 1]")
    params = replace(base, alpha=math.acos(ca), n=n)
    if not params.exists:
        raise ExistenceViolation("induced alpha violates the existence bound")
    return GroupWithRotation(params, n, ca)


class IntegralityVerdict(NamedTuple):
    """Each field is one word's Python value or one array entry per word."""
    ok: bool
    two_re: float
    abs_sq: float
    two_re_residual: float
    abs_sq_residual: float


def _integer_verdicts(taus, tol) -> IntegralityVerdict:
    """The verdicts of the traces in the complex array ``taus``."""
    two_re = 2.0 * taus.real
    abs_sq = np.abs(taus) ** 2
    res1 = np.abs(two_re - np.rint(two_re))
    res2 = np.abs(abs_sq - np.rint(abs_sq))
    return IntegralityVerdict((res1 <= tol) & (res2 <= tol), two_re, abs_sq,
                              res1, res2)


def integer_ring_check(tau, tol: float = 1e-7) -> IntegralityVerdict:
    """2 Re(tau) and |tau|^2 must be integers (all entries in {3,4,6,inf})."""
    return _first(_integer_verdicts(np.array([complex(tau)]), tol))


def _conjugate_points(q: int):
    """The distinct Galois conjugates of 2 cos(2 pi / q), the one for m = 1
    first."""
    return [2.0 * math.cos(TWO_PI * m / q)
            for m in range(1, q // 2 + 1) if math.gcd(m, q) == 1]


# degree phi(q) / 2 above 14 is refused: for q < 2200 that is exactly where
# cond(V V^T) > 1e12 (checked up to degree 60).  Each q > 90 has degree above
# 14 (counted up to 1682; past it phi(q) >= sqrt(q / 2) > 29): refused unbuilt
_MAX_BASIS_Q = 90


@functools.lru_cache(maxsize=64)
def _power_basis_pinv(q: int) -> np.ndarray:
    """Read-only inverse of V[i, j] = x_i^j at the conjugates x_i in closed form
    (Bjorck and Pereyra, Math. Comp. 24, 1970): column i is W(x) / (x - x_i),
    by synthetic division, over prod_{k != i} (x_i - x_k), W = prod_k (x - x_k).
    Only + - * / on the nodes, so it carries over to residues modulo a prime."""
    if q > _MAX_BASIS_Q or len(xs := _conjugate_points(q)) > 14:
        raise IllConditionedBasis(
            f"the power basis for q = {q} has degree above 14 and is unusable")
    w = [1.0]  # coefficients of W, lowest degree first
    for x in xs:
        w = [a - x * b for a, b in zip([0.0, *w], [*w, 0.0])]
    cols = []
    for i, x in enumerate(xs):  # W / (x - x_i), highest degree first
        quotient = itertools.accumulate(w[:0:-1], lambda b, a: a + x * b)
        den = math.prod(x - y for k, y in enumerate(xs) if k != i)
        cols.append([c / den for c in quotient][::-1])
    pinv = np.array(cols).T
    pinv.flags.writeable = False
    return pinv


class BasisExpansion(NamedTuple):
    ok: bool
    coefficients: tuple  # of ints, or a (deg, words) array of integral floats
    residual: float
    value: float


class BasisRingVerdict(NamedTuple):
    q: int
    ok: bool
    two_re: BasisExpansion
    abs_sq: BasisExpansion
    experimental: bool = True


def _first(v):
    """Word 0 of verdict columns ``v``, as Python values."""
    if isinstance(v, IntegralityVerdict):
        return IntegralityVerdict(*(c.item(0) for c in v))
    e1, e2 = (BasisExpansion(e.ok.item(0), tuple(map(int, e.coefficients[:, 0])),
                             e.residual.item(0), e.value.item(0))
              for e in (v.two_re, v.abs_sq))
    return v._replace(ok=v.ok.item(0), two_re=e1, abs_sq=e2)


def _expand_in_power_basis(values, q, tol) -> BasisExpansion:
    """Integer coefficients on {x^j : j < deg} from conjugate evaluations,
    ``values``: one row per conjugate (m = 1 first), one column per word.
    The system is square, so the true integer coefficients are the rounded
    exact solution, accepted where it reproduces the m = 1 value within tol."""
    x = _conjugate_points(q)[0]
    coeffs = np.rint(_power_basis_pinv(q) @ values)
    approx = np.zeros(values.shape[1])
    for j, c in enumerate(coeffs):
        approx += c * x ** j
    residual = np.abs(values[0] - approx)
    return BasisExpansion(residual <= tol, coeffs, residual, values[0])


def _basis_verdicts(pairs, q, tol) -> BasisRingVerdict:
    """The verdicts of ``pairs`` of shape (deg, 2, words): tau and tau-bar
    at each conjugate, m = 1 first."""
    tau, tau_bar = pairs[:, 0], pairs[:, 1]
    e1 = _expand_in_power_basis((tau + tau_bar).real, q, tol)
    e2 = _expand_in_power_basis((tau * tau_bar).real, q, tol)
    return BasisRingVerdict(q, e1.ok & e2.ok, e1, e2)


def basis_ring_check(tau, q: int, tol: float = 1e-7,
                     conjugate_pairs=None) -> BasisRingVerdict:
    """EXPERIMENTAL membership of 2 Re(tau) and |tau|^2 in Z[2 cos(2 pi / q)].

    ``conjugate_pairs`` supplies the Galois conjugates of (tau, tau-bar),
    aligned with the conjugates of 2 cos(2 pi / q) (m = 1 first), one pair
    per conjugate.  Without them only q = 3, 4 and 6, of degree 1, can be
    checked.
    """
    if q < 3:
        raise ValueError("q must be >= 3")
    if conjugate_pairs is None:
        tau = complex(tau)
        conjugate_pairs = [(tau, tau.conjugate())]
    if len(conjugate_pairs) != len(_power_basis_pinv(q)):
        raise ValueError(f"q = {q} needs one conjugate pair per conjugate")
    pairs = np.array(conjugate_pairs, dtype=complex)[:, :, None]
    return _first(_basis_verdicts(pairs, q, tol))


def _conjugate_transfer(group: GroupWithRotation, q: int) -> np.ndarray:
    """Transfer matrices at each Galois conjugate, shape (rows, 2, 3, 3, 3):
    [i, 0] gives tau and [i, 1] tau-bar at the i-th conjugate, m = 1 first.

    Valid when every entry of {p1, p2, p3, n} lies in {3, 4, 6, inf, q}.
    Conjugation replaces 2 cos(2 pi / q) by 2 cos(2 pi m / q), moving X_k
    and the roots (Z, Q / Z).  Subset monomials c r^u z^s have u_k = |w|
    (mod 2) and s = 3 w, so at r_k = sqrt(X_k) / 2 and zp = 1 / zn any cube
    root of Z / (8 r1 r2 r3) the transfer-matrix sum is sum_w P_w(X) Z^w,
    (Q / Z)^{|w|} for w < 0; tau-bar swaps Z and Q / Z, i.e. zp and zn.
    """
    if group.signature is None:
        raise ValueError("conjugation needs an integer signature")
    for e in (*group.signature, group.n):
        if e not in INTEGER_ENTRIES and e != q:
            raise ValueError(f"entry {e} is neither in {{3,4,6,inf}} nor q={q}")
    out = []
    for x in _conjugate_points(q):
        xs = [(2.0 + x) if p == q else 4.0 * math.cos(math.pi / p) ** 2
              for p in group.signature]
        cn = x / 2.0 if group.n == q else cos_two_pi_over(group.n)
        # Z + Q/Z = 16 R cos(alpha) = X1 X2 + X3 - 2 - 2 cos(2 pi / n)
        s_val = xs[0] * xs[1] + xs[2] - 2.0 - 2.0 * cn
        q_val = xs[0] * xs[1] * xs[2]
        z = (s_val + cmath.sqrt(complex(s_val * s_val - 4.0 * q_val))) / 2.0
        r = [math.sqrt(xk) / 2.0 for xk in xs]
        zp = (z / math.sqrt(q_val)) ** (1.0 / 3.0)
        out.append([-transfer_matrices(_REFLECTION_FACTORS, r, a, b)
                    for a, b in ((zp, 1.0 / zp), (1.0 / zp, zp))])
    return np.array(out)


def ring_transfer(group: GroupWithRotation):
    """(mats, verdicts): products of ``mats`` give a word's traces, and
    ``verdicts(traces, tol)`` judges every word's at once.  All-integer
    entries give tau at the group's own parameters, as traces' kernel (three
    read-only 3x3 arrays), and IntegralityVerdict columns.  One extra entry
    q gives _conjugate_transfer's mats and (experimental) BasisRingVerdict
    columns, all power bases in one product; the basis is solved first, so
    an unusable one raises here."""
    specials = sorted({*group.signature, group.n} - set(INTEGER_ENTRIES))
    if not specials:
        return _constants(_key(group.params))[0], _integer_verdicts
    if len(specials) > 1:
        raise ValueError("only one entry outside {3,4,6,inf} is supported")
    q = specials[0]
    if q != int(q) or q < 3:
        raise ValueError(f"the extra entry must be an integer >= 3, got {q}")
    q = int(q)
    _power_basis_pinv(q)
    return (_conjugate_transfer(group, q),
            lambda pairs, tol: _basis_verdicts(pairs, q, tol))


def _word_traces(word, mats) -> np.ndarray:
    """The word's trace at each point of ring_transfer's mats."""
    m = word_matrix(np.moveaxis(mats, -3, 0), tuple(word))
    return np.trace(m, axis1=-2, axis2=-1)


def group_conjugate_traces(group: GroupWithRotation, word, q: int):
    """Galois-conjugate (tau, tau-bar) pairs for a word in G(p1, p2, p3; n),
    m = 1 first (see _conjugate_transfer)."""
    pairs = _word_traces(word, _conjugate_transfer(group, q))
    return [tuple(pair) for pair in pairs.tolist()]


def group_ring_check(group: GroupWithRotation, word, tol: float = 1e-7):
    """Dispatch: all-integer entries -> hard integrality; one extra entry q
    -> conjugate basis method (experimental).  ring_transfer for one word."""
    mats, verdicts = ring_transfer(group)
    return _first(verdicts(_word_traces(word, mats)[..., None], tol))


@dataclass(frozen=True)
class MostowGroup:
    """Equiangular group of mu-reflections of order p with the tuned angle
    alpha = 2 pi / rho + pi / p - pi / 2."""

    p: int
    rho: float
    mu: complex
    r: float
    alpha: float

    @property
    def params(self) -> TriangleParams:
        return TriangleParams(self.r, self.r, self.r, alpha=self.alpha)

    @property
    def mus(self):
        return (self.mu, self.mu, self.mu)


def mostow_group(p: int, rho) -> MostowGroup:
    """mu = e^{2 pi i / p}, r = 1 / (2 sin(pi / p)); note (mu - 1) r =
    i e^{i pi / p} exactly."""
    if p not in (3, 4, 5):
        raise ValueError("p must be 3, 4 or 5")
    mu = cmath.exp(2j * math.pi / p)
    r = 1.0 / (2.0 * math.sin(math.pi / p))
    alpha = TWO_PI / rho + math.pi / p - math.pi / 2.0
    return MostowGroup(p, rho, mu, r, alpha)

