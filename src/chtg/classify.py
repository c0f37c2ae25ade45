"""Isometry type from the trace, via the discriminant polynomial."""

from __future__ import annotations

import math
from typing import NamedTuple

REGULAR_ELLIPTIC = "RegularElliptic"
HYPERBOLIC = "Hyperbolic"
UNIPOTENT = "Unipotent"
BOUNDARY_NON_UNIPOTENT = "BoundaryNonUnipotent"
INDETERMINATE = "Indeterminate"


def discriminant(z) -> float:
    """rho(z) = |z|^4 - 8 Re(z^3) + 18 |z|^2 - 27.

    For real z this factors as (z + 1)(z - 3)^3, so a real-trace element is
    regular elliptic iff its trace lies in (-1, 3).
    """
    z = complex(z)
    a2 = z.real * z.real + z.imag * z.imag
    try:
        cube = (z ** 3).real
    except OverflowError:  # |z| > 5e102, where |z|^4 dominates and overflows
        return math.inf
    return a2 * a2 - 8.0 * cube + 18.0 * a2 - 27.0


class IsometryClass(NamedTuple):
    verdict: str
    rho: float
    tau: complex
    tol: float

    def to_json_dict(self) -> dict:
        return {"verdict": self.verdict, "rho": self.rho,
                "tau": {"re": self.tau.real, "im": self.tau.imag}}


def classify(tau, tol: float = 1e-9) -> IsometryClass:
    """Classify a determinant-1 isometry by its trace.

    Regular elliptic iff rho < 0 and hyperbolic iff rho > 0.  Inside the
    boundary band |rho| <= tol: unipotent iff tau^3 = 27; otherwise the
    element is a complex reflection (in a geodesic or a point) or
    ellipto-parabolic, which the trace alone cannot separate.
    """
    tau = complex(tau)
    if not (math.isfinite(tau.real) and math.isfinite(tau.imag)):
        return IsometryClass(INDETERMINATE, math.nan, tau, tol)
    rho = discriminant(tau)
    if rho < -tol:
        verdict = REGULAR_ELLIPTIC
    elif rho > tol:
        verdict = HYPERBOLIC
    elif abs(tau ** 3 - 27.0) <= tol:
        verdict = UNIPOTENT
    else:
        verdict = BOUNDARY_NON_UNIPOTENT
    return IsometryClass(verdict, rho, tau, tol)
