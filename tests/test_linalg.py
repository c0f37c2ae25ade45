import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import chtg
from chtg.linalg import J, boxtimes, herm, rank_one, vec

from helpers import ProjPoint, in_u21, random_u21

coord = st.floats(-2.0, 2.0, allow_nan=False)
cpx = st.builds(complex, coord, coord)
vec3 = st.builds(vec, cpx, cpx, cpx)


def test_herm_basis_examples():
    assert herm(vec(1, 0, 0), vec(1, 0, 0)) == 1
    assert herm(vec(0, 0, 1), vec(0, 0, 1)) == -1
    assert herm(vec(1, 1, 1), vec(1, 0, 0)) == 1


def test_herm_self_is_real(rng):
    for _ in range(100):
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert abs(herm(z, z).imag) < 1e-12


@given(vec3, vec3, vec3, cpx)
def test_herm_sesquilinear(z, w, y, lam):
    assert abs(herm(z + lam * w, y) - (herm(z, y) + lam * herm(w, y))) < 1e-12
    assert abs(herm(y, z + lam * w)
               - (herm(y, z) + np.conj(lam) * herm(y, w))) < 1e-12


def test_boxtimes_component_formula():
    got = boxtimes(vec(1, 0, 0), vec(0, 1, 0))
    assert np.allclose(got, vec(0, 0, 1))


def test_boxtimes_self_vanishes(rng):
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert np.allclose(boxtimes(z, z), 0.0)


@given(vec3, vec3)
def test_boxtimes_orthogonality(z, w):
    v = boxtimes(z, w)
    assert abs(herm(v, z)) < 1e-10
    assert abs(herm(v, w)) < 1e-10


def test_boxtimes_norm_identities(rng):
    # both displayed cross-product identities, 1000 random pairs
    for _ in range(1000):
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v = boxtimes(a, b)
        lhs = herm(v, v)
        rhs = abs(herm(a, b)) ** 2 - (herm(a, a) * herm(b, b)).real
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) / scale < 1e-10
        lhs2 = herm(boxtimes(a, c), boxtimes(b, c))
        rhs2 = np.conj(herm(a, c) * herm(c, b) - herm(a, b) * herm(c, c))
        assert abs(lhs2 - rhs2) / max(1.0, abs(lhs2)) < 1e-10


def test_intersecting_polars_give_negative_vertex(rng):
    # normalised polar vectors with |<c1,c2>| < 1 cross to a negative vector
    for _ in range(200):
        c1 = vec(rng.uniform(0, 0.9), rng.uniform(0.5, 1.0), 0.0)
        c1 = c1 / np.sqrt(herm(c1, c1).real)
        c2 = vec(rng.uniform(0.5, 1.0), rng.uniform(0, 0.9) * 1j, 0.0)
        c2 = c2 / np.sqrt(herm(c2, c2).real)
        if abs(herm(c1, c2)) >= 1.0 - 1e-9:
            continue
        v = boxtimes(c1, c2)
        assert herm(v, v).real < 0


def test_rank_one_action_and_trace(rng):
    c = vec(0, 1, 0)
    m = rank_one(c, 2.0)
    assert np.allclose(m @ vec(0, 1, 0), vec(0, 2, 0))
    for _ in range(50):
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        s = complex(rng.standard_normal(), rng.standard_normal())
        m = rank_one(c, s)
        assert np.allclose(m @ z, s * herm(z, c) * c)
        assert abs(np.trace(m) - s * herm(c, c)) < 1e-10
    assert np.allclose(rank_one(c, 0.0), np.zeros((3, 3)))


def test_trace_identities(rng):
    assert np.trace(np.eye(3, dtype=complex)) == 3
    for _ in range(100):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert abs(np.trace(a @ b) - np.trace(b @ a)) < 1e-12


def test_random_u21_preserves_form(rng):
    for _ in range(50):
        u = random_u21(rng)
        assert in_u21(u, tol=1e-10)


def test_random_u21_matches_scipy_expm():
    expm = pytest.importorskip("scipy.linalg").expm
    for scale in (0.5, 0.05, 2.0):
        rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(200):
            u = random_u21(rng, scale)
            a = (ref_rng.standard_normal((3, 3))
                 + 1j * ref_rng.standard_normal((3, 3)))
            want = expm(J @ (scale * (a - np.conj(a.T))))
            assert np.linalg.norm(u - want) <= 1e-12 * np.linalg.norm(want)


def test_import_loads_no_scipy():
    env = {**os.environ, "PYTHONPATH": str(Path(chtg.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, chtg, chtg.cli; "
         "print(sorted(m for m in sys.modules "
         "if m == 'scipy' or m.startswith('scipy.')))"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_projpoint_normalisation():
    p = ProjPoint(vec(2.0, 4.0, 2.0))
    assert np.allclose(p.rep, vec(1, 2, 1))
    q = ProjPoint(vec(3.0, 5.0, 0.0))  # falls back to z2
    assert np.allclose(q.rep, vec(0.6, 1.0, 0.0))
    assert ProjPoint(vec(1, 2, 4)) == ProjPoint(vec(0.5, 1.0, 2.0))
    assert ProjPoint(vec(1, 0, 0)) != ProjPoint(vec(0, 1, 0))
    with pytest.raises(ValueError):
        ProjPoint(vec(0, 0, 0))


def test_j_matrix():
    assert np.allclose(J, np.diag([1, 1, -1]))
