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

