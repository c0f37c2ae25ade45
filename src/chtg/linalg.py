"""Linear algebra over C^{2,1}.

Vectors are numpy arrays of shape (3,), matrices of shape (3, 3), both
complex128.  The Hermitian form has signature (2, 1):

    <z, w> = z1 conj(w1) + z2 conj(w2) - z3 conj(w3),

i.e. the Gram matrix is J = diag(1, 1, -1).  A vector is negative, null or
positive according to the sign of <z, z>; projectivised negative vectors make
up the complex hyperbolic plane.  All values here are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

import numpy as np

J = np.diag([1.0, 1.0, -1.0]).astype(complex)

_ZERO_TOL = 1e-12


def vec(z1, z2, z3) -> np.ndarray:
    return np.array([z1, z2, z3], dtype=complex)


def herm(z, w) -> complex:
    """Hermitian pairing <z, w>; linear in z, conjugate-linear in w."""
    return complex(z[0] * np.conj(w[0]) + z[1] * np.conj(w[1]) - z[2] * np.conj(w[2]))


def boxtimes(z, w) -> np.ndarray:
    """Hermitian cross product z boxtimes w, perpendicular to both factors.

    Satisfies <z x w, z> = <z x w, w> = 0 and
    <a x b, a x b> = |<a, b>|^2 - <a, a><b, b>.
    """
    return np.conj(np.array([
        z[2] * w[1] - z[1] * w[2],
        z[0] * w[2] - z[2] * w[0],
        z[0] * w[1] - z[1] * w[0],
    ]))


def rank_one(c, scale=1.0) -> np.ndarray:
    """The matrix scale * c c^*, where c^*(z) = <z, c>.

    Applied to z it gives scale * <z, c> * c; its trace is scale * <c, c>.
    """
    return scale * np.outer(c, J @ np.conj(c))


class ProjPoint:
    """Point of the projectivisation P(C^{2,1}).

    The stored representative is normalised so that its last nonzero
    coordinate (checking z3, then z2, then z1) equals 1.
    """

    __slots__ = ("rep",)

    def __init__(self, v, zero_tol: float = _ZERO_TOL):
        v = np.asarray(v, dtype=complex)
        for idx in (2, 1, 0):
            if abs(v[idx]) > zero_tol:
                self.rep = v / v[idx]
                break
        else:
            raise ValueError("cannot projectivise the zero vector")

    def close_to(self, other: "ProjPoint", tol: float = 1e-10) -> bool:
        return bool(np.max(np.abs(self.rep - other.rep)) <= tol)

    def __eq__(self, other):
        return isinstance(other, ProjPoint) and self.close_to(other)

    def __repr__(self):
        z1, z2, z3 = self.rep
        return f"[{z1:.6g} : {z2:.6g} : {z3:.6g}]"
