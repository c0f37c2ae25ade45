"""Triangles of complex geodesics from their side invariants.

A triangle is a triple (C1, C2, C3) of complex geodesics with normalised
polar vectors c_k.  Its isometry class is pinned down by the pairing
magnitudes r_k = |<c_{k-1}, c_{k+1}>| together with the angular invariant

    alpha = arg( prod_k <c_{k-1}, c_{k+1}> ).

Sides meeting at angle phi_k have r_k = cos(phi_k) < 1; asymptotic sides have
r_k = 1; ultra-parallel sides at distance l_k have r_k = cosh(l_k / 2) > 1.
A triangle with the given invariants exists iff

    cos(alpha) < (r1^2 + r2^2 + r3^2 - 1) / (2 r1 r2 r3),

which is checked here in the multiplied-through form so that r_k = 0 needs no
special casing.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .linalg import boxtimes, herm, rank_one, vec

TWO_PI = 2.0 * math.pi

_ONE_TOL = 1e-12          # "this r_k equals 1" for chart selection
_CHART_TOL = 1e-7         # below this the generic chart loses too much precision


def t_of_alpha(alpha: float) -> float:
    """cot(alpha / 2); the sentinel +inf at alpha = 0 (mod 2 pi)."""
    alpha = alpha % TWO_PI
    half = alpha / 2.0
    s = math.sin(half)
    if abs(s) < 1e-154:
        return math.inf
    return math.cos(half) / s


def alpha_of_t(t: float) -> float:
    """Inverse of t_of_alpha: alpha = 2 atan2(1, t) in (0, 2 pi)."""
    return 2.0 * math.atan2(1.0, t)


class TriangleError(ValueError):
    pass


class ExistenceViolation(TriangleError):
    """cos(alpha) is not strictly below the existence bound."""


class DegenerateNormalization(TriangleError):
    """No normalisation chart is well conditioned for these invariants."""


class IdealVertexDegenerate(TriangleError):
    """An invariant's denominator vanishes because a vertex is ideal."""


class DegenerateConfiguration(TriangleError):
    """A pairing between vertices vanishes."""


@dataclass(frozen=True)
class TriangleParams:
    """Side invariants (r1, r2, r3) and the angular invariant alpha.

    ``alpha`` may be None for a partially specified triangle (radii fixed,
    angle still free).  ``p``, ``ell`` and ``n`` are optional provenance tags:
    the integer signature, the side distances, and the rotation order used by
    the arithmetic constructions.
    """

    r1: float
    r2: float
    r3: float
    alpha: float | None = None
    p: tuple | None = None
    ell: tuple | None = None
    n: float | None = None

    def __post_init__(self):
        for name, r in zip(("r1", "r2", "r3"), self.r):
            if not 0.0 <= r < math.inf:
                raise TriangleError(
                    f"side invariants r_k must be finite and nonnegative, got {r}")
            object.__setattr__(self, name, float(r) + 0.0)  # -0.0 becomes 0.0
        if self.alpha is not None:
            if not math.isfinite(self.alpha):
                raise TriangleError(f"alpha must be finite, got {self.alpha}")
            object.__setattr__(self, "alpha", float(self.alpha) % TWO_PI)

    @classmethod
    def from_signature(cls, p1, p2, p3, alpha=None, n=None):
        """Radii r_k = cos(pi / p_k); p_k = inf gives r_k = 1."""
        ps = (p1, p2, p3)
        for p in ps:
            if p != math.inf and (p != p or p < 2):
                raise TriangleError(f"signature entries must be >= 2 or inf, got {p}")
        r = tuple(math.cos(math.pi / p) for p in ps)
        return cls(*r, alpha=alpha, p=ps, n=n)

    @classmethod
    def from_lengths(cls, l1, l2, l3, alpha=None):
        """Radii r_k = cosh(l_k / 2) for ultra-parallel sides at distance l_k."""
        ls = (l1, l2, l3)
        if any(l <= 0 for l in ls):
            raise TriangleError("side distances must be positive")
        try:
            r = tuple(math.cosh(l / 2.0) for l in ls)
        except OverflowError:
            raise TriangleError(f"cosh overflows at side distances {ls}") from None
        return cls(*r, alpha=alpha, ell=ls)

    @property
    def r(self):
        return (self.r1, self.r2, self.r3)

    @property
    def r_product(self) -> float:
        return self.r1 * self.r2 * self.r3

    def _need_alpha(self):
        if self.alpha is None:
            raise TriangleError("alpha is not set on these parameters")

    @property
    def cos_alpha(self) -> float:
        self._need_alpha()
        return math.cos(self.alpha)

    @property
    def t(self) -> float:
        """cot(alpha / 2); +inf at alpha = 0."""
        self._need_alpha()
        return t_of_alpha(self.alpha)

    def existence_margin(self) -> float:
        """(r1^2 + r2^2 + r3^2 - 1) - 2 r1 r2 r3 cos(alpha); positive iff realisable."""
        self._need_alpha()
        r1, r2, r3 = self.r
        return (r1 * r1 + r2 * r2 + r3 * r3 - 1.0) - 2.0 * self.r_product * self.cos_alpha

    @property
    def exists(self) -> bool:
        return self.existence_margin() > 0.0

    def with_alpha(self, alpha):
        return replace(self, alpha=alpha)

    def with_t(self, t):
        """Set alpha = 2 * atan2(1, t), i.e. t = cot(alpha / 2)."""
        return replace(self, alpha=alpha_of_t(t))

    def with_cos_alpha(self, c):
        if not -1.0 <= c <= 1.0:
            raise TriangleError(f"cos(alpha) must be in [-1, 1], got {c}")
        return replace(self, alpha=math.acos(c))

    def to_json_dict(self) -> dict:
        out = {"r1": self.r1, "r2": self.r2, "r3": self.r3}
        if self.alpha is not None:
            out["alpha"] = self.alpha
            out["t"] = self.t
        if self.p is not None:
            out["p"] = list(self.p)
        if self.ell is not None:
            out["ell"] = list(self.ell)
        if self.n is not None:
            out["n"] = self.n
        return out


def reflection(c) -> np.ndarray:
    """Complex reflection fixing the geodesic polar to c: -id + 2 c c^* / <c,c>.

    Involutive, determinant 1, trace -1.  Requires a positive polar vector.
    """
    h = herm(c, c).real
    if h <= _ONE_TOL:
        raise TriangleError("polar vector of a reflection must be positive")
    return -np.eye(3, dtype=complex) + rank_one(c, 2.0 / h)


def mu_reflection(c, mu) -> np.ndarray:
    """Rotation by arg(mu) about the geodesic polar to c: id + (mu-1) c c^*/<c,c>.

    mu must be a unit complex number; determinant mu, trace 2 + mu.  mu = -1
    recovers the ordinary reflection.
    """
    if not abs(abs(mu) - 1.0) <= 1e-9:
        raise TriangleError("mu must lie on the unit circle")
    h = herm(c, c).real
    if h <= _ONE_TOL:
        raise TriangleError("polar vector must be positive")
    return np.eye(3, dtype=complex) + rank_one(c, (mu - 1.0) / h)


@dataclass(frozen=True, eq=False)
class TriangleRealization:
    """Normalised polar vectors realising a parameter set, with derived data."""

    c1: np.ndarray
    c2: np.ndarray
    c3: np.ndarray
    params: TriangleParams | None = None

    @classmethod
    def from_polar_vectors(cls, c1, c2, c3, params=None):
        cs = []
        for c in (c1, c2, c3):
            c = np.asarray(c, dtype=complex)
            h = herm(c, c).real
            if h <= 0:
                raise TriangleError("polar vectors must be positive")
            cs.append(c / math.sqrt(h))
        return cls(cs[0], cs[1], cs[2], params)

    @property
    def c(self):
        return (self.c1, self.c2, self.c3)

    @cached_property
    def pairings(self):
        """(<c3,c2>, <c1,c3>, <c2,c1>), the k-th entry belonging to side pair k."""
        c1, c2, c3 = self.c
        return (herm(c3, c2), herm(c1, c3), herm(c2, c1))

    @cached_property
    def r(self):
        return tuple(abs(p) for p in self.pairings)

    @cached_property
    def alpha(self) -> float:
        p1, p2, p3 = self.pairings
        return cmath.phase(p1 * p2 * p3) % TWO_PI

    @cached_property
    def iotas(self):
        return tuple(reflection(c) for c in self.c)

    def mu_iotas(self, mus):
        return tuple(mu_reflection(c, mu) for c, mu in zip(self.c, mus))

    @cached_property
    def vertices(self):
        """v_k = c_{k-1} boxtimes c_{k+1}; negative/null where sides meet."""
        c1, c2, c3 = self.c
        return (boxtimes(c3, c2), boxtimes(c1, c3), boxtimes(c2, c1))


def _chart_generic(r, alpha):
    # slot-0 radius < 1; divides by s1 = sin of the meeting angle
    r1, r2, r3 = r
    s1 = math.sqrt(1.0 - r1 * r1)
    z = (r3 * cmath.exp(-1j * alpha) - r1 * r2) / s1
    beta = math.sqrt(max(abs(z) ** 2 + r2 * r2 - 1.0, 0.0))
    return vec(z, r2, beta), vec(s1, r1, 0.0), vec(0.0, 1.0, 0.0)


def _chart_ultra(r, alpha):
    # slot-0 radius > 1; the analogue with s1 = sinh of the half distance
    r1, r2, r3 = r
    s1 = math.sqrt(r1 * r1 - 1.0)
    b = (r1 * r2 - r3 * cmath.exp(-1j * alpha)) / s1
    zeta = math.sqrt(max(1.0 - r2 * r2 + abs(b) ** 2, 0.0))
    return vec(zeta, r2, b), vec(0.0, r1, s1), vec(0.0, 1.0, 0.0)


def _chart_parallel(r1, r2, alpha):
    # slot-2 radius exactly 1 (asymptotic pair); no divisions at all
    z1 = r1 * cmath.exp(-1j * alpha / 2.0)
    z2 = r2 * cmath.exp(1j * alpha / 2.0)
    return vec(1.0, z2, -z2), vec(1.0, z1, -z1), vec(0.0, 1.0, 0.0)


def realize(params: TriangleParams) -> TriangleRealization:
    """Polar vectors, reflections and vertices for the given invariants.

    Raises ExistenceViolation unless cos(alpha) is strictly below the
    existence bound.  The normalisation chart is chosen by rotating the
    labels so that slot 0 carries the radius farthest from 1; when every
    radius equals 1 the asymptotic chart is used instead.  Radii within
    (1e-12, 1e-7) of 1 on every slot leave no well-conditioned chart and
    raise DegenerateNormalization.  Radii so large that the polar vectors or
    reflections overflow raise TriangleError.
    """
    params._need_alpha()
    if params.existence_margin() <= 0.0:
        raise ExistenceViolation(
            f"cos(alpha) = {params.cos_alpha:.6g} is not below the existence bound")
    r = params.r
    alpha = params.alpha
    devs = [abs(rk - 1.0) for rk in r]
    s = max(range(3), key=lambda i: devs[i])
    if devs[s] <= _ONE_TOL:
        d = _chart_parallel(r[0], r[1], alpha)
        s = 0
    elif devs[s] < _CHART_TOL:
        raise DegenerateNormalization(
            "all radii too close to 1 for a stable normalisation")
    else:
        rot = (r[s], r[(s + 1) % 3], r[(s + 2) % 3])
        chart = _chart_generic if rot[0] < 1.0 else _chart_ultra
        d = chart(rot, alpha)
    cs = [d[(i - s) % 3] for i in range(3)]
    with np.errstate(over="ignore", invalid="ignore"):
        rz = TriangleRealization.from_polar_vectors(*cs, params=params)
        finite = all(np.isfinite(m).all() for m in (*rz.c, *rz.iotas))
    if not finite:
        raise TriangleError("the realization overflows: polar vectors or "
                            "reflections are not finite")
    return rz


def cartan_invariant(v1, v2, v3) -> float:
    """arg(-<v1,v2><v2,v3><v3,v1>) in (-pi, pi], for a triple of points.

    For the ideal vertices of a realised triangle this equals
    (alpha - pi) / 2 modulo 2 pi.
    """
    prod = herm(v1, v2) * herm(v2, v3) * herm(v3, v1)
    if abs(prod) < 1e-300:
        raise DegenerateConfiguration("vanishing pairing between the points")
    return cmath.phase(-prod)


def brehm_sigma(rz: TriangleRealization, tol: float = 1e-12) -> float:
    """Shape invariant Re(<v1,v2><v2,v3><v3,v1> / (<v1,v1><v2,v2><v3,v3>))."""
    v1, v2, v3 = rz.vertices
    norms = [herm(v, v).real for v in (v1, v2, v3)]
    if any(abs(x) <= tol for x in norms):
        raise IdealVertexDegenerate("shape invariant needs non-ideal vertices")
    num = herm(v1, v2) * herm(v2, v3) * herm(v3, v1)
    return (num / (norms[0] * norms[1] * norms[2])).real


def hakim_sandler_eta(rz: TriangleRealization, tol: float = 1e-12) -> complex:
    """The invariant <v3,v1><v1,v2> / (<v3,v2><v1,v1>)."""
    v1, v2, v3 = rz.vertices
    n1 = herm(v1, v1).real
    d = herm(v3, v2)
    if abs(n1) <= tol or abs(d) <= tol:
        raise IdealVertexDegenerate("eta undefined for this configuration")
    return herm(v3, v1) * herm(v1, v2) / (d * n1)
