import cmath
import math

import numpy as np
import pytest

from chtg.linalg import J, herm
from chtg.triangle import (DegenerateNormalization, ExistenceViolation,
                           IdealVertexDegenerate, TriangleError,
                           TriangleParams, TriangleRealization, brehm_sigma,
                           cartan_invariant, hakim_sandler_eta,
                           mu_reflection, realize, reflection)

from helpers import (ProjPoint, brehm_sigma_closed, canonical_alpha,
                     draw_params, hakim_sandler_eta_closed, in_u21,
                     random_u21, realize_pinfty, transformed, verify)

TWO_PI = 2.0 * math.pi


def angle_diff(a, b):
    d = (a - b) % TWO_PI
    return min(d, TWO_PI - d)


def test_from_signature_examples():
    assert TriangleParams.from_signature(math.inf, math.inf, math.inf).r == (1.0, 1.0, 1.0)
    p = TriangleParams.from_signature(4, 4, 4)
    assert all(abs(r - 2 ** -0.5) < 1e-15 for r in p.r)
    assert abs(TriangleParams.from_signature(2, 3, 7).r1) < 1e-15
    with pytest.raises(TriangleError):
        TriangleParams.from_signature(1, 3, 3)


def test_from_lengths():
    p = TriangleParams.from_lengths(1.0, 2.0, 3.0)
    assert p.r == tuple(math.cosh(l / 2) for l in (1.0, 2.0, 3.0))
    with pytest.raises(TriangleError):
        TriangleParams.from_lengths(0.0, 1.0, 1.0)


def test_param_conversions():
    p = TriangleParams(1, 1, 1, alpha=math.pi)
    assert abs(p.t) < 1e-12
    assert canonical_alpha(p) == math.pi
    q = p.with_t(1.0)
    assert abs(q.alpha - math.pi / 2) < 1e-12
    r = p.with_cos_alpha(61 / 64)
    assert abs(r.t ** 2 - 125 / 3) < 1e-9
    s = TriangleParams(1, 1, 1, alpha=2 * math.pi - 1.0)
    assert abs(canonical_alpha(s) - 1.0) < 1e-12
    assert s.t < 0


def test_roundtrip_all_charts(rng):
    worst = 0.0
    for _ in range(1000):
        p = draw_params(rng)
        rz = verify(realize(p), 1e-10)
        worst = max(worst, max(abs(a - b) for a, b in zip(rz.r, p.r)),
                    angle_diff(rz.alpha, p.alpha))
    assert worst < 1e-10


def test_reflection_invariants(rng):
    for _ in range(50):
        p = draw_params(rng)
        rz = realize(p)
        for m, c in zip(rz.iotas, rz.c):
            assert np.max(np.abs(m @ m - np.eye(3))) < 1e-10
            assert np.allclose(m @ c, c, atol=1e-10)
            assert abs(np.linalg.det(m) - 1.0) < 1e-10
            assert abs(np.trace(m) - (-1.0)) < 1e-12
            assert in_u21(m, tol=1e-9)


def test_existence_boundary():
    r = (0.9, 0.8, 0.7)
    bound = (sum(x * x for x in r) - 1.0) / (2.0 * r[0] * r[1] * r[2])
    p = TriangleParams(*r, alpha=math.acos(bound))
    with pytest.raises(ExistenceViolation):
        realize(p)
    with pytest.raises(ExistenceViolation):
        realize(TriangleParams(*r, alpha=math.acos(min(bound + 0.01, 1.0))))
    ok = TriangleParams(*r, alpha=math.acos(bound - 0.01))
    verify(realize(ok), 1e-10)


@pytest.mark.parametrize("params", [
    TriangleParams(1e200, 1.0, 1.0, alpha=1.0),
    TriangleParams.from_lengths(1.0, 1.0, 1400.0).with_alpha(1.0),
], ids=["r-1e200", "length-1400"])
def test_overflowing_realization_raises(params):
    # the existence margin is +inf, so only the finiteness check stops these
    assert params.existence_margin() == math.inf
    with pytest.raises(TriangleError, match="overflows"):
        realize(params)


def test_ideal_goldman_parker_parameter():
    p = TriangleParams(1, 1, 1, alpha=math.acos(61 / 64))
    verify(realize(p), 1e-10)


def test_degenerate_normalisation_band():
    r = 1.0 - 1e-9
    with pytest.raises(DegenerateNormalization):
        realize(TriangleParams(r, r, r, alpha=math.pi))


def test_real_slice_at_alpha_pi(rng):
    for _ in range(20):
        p = draw_params(rng).with_alpha(math.pi)
        if not p.exists:
            continue
        rz = realize(p)
        prod = rz.pairings[0] * rz.pairings[1] * rz.pairings[2]
        assert abs(prod.imag) < 1e-10
        assert prod.real < 0


def test_pinfty_chart_displays():
    alpha = 0.9
    rz = realize_pinfty(4, 5, alpha)
    c1, c2, c3 = rz.c
    r1 = math.cos(math.pi / 4)
    r2 = math.cos(math.pi / 5)
    assert abs(herm(c1, c3) - r2 * cmath.exp(1j * alpha / 2)) < 1e-10
    assert abs(herm(c2, c1) - 1.0) < 1e-10
    assert abs(herm(c3, c2) - r1 * cmath.exp(1j * alpha / 2)) < 1e-10
    assert angle_diff(rz.alpha, alpha) < 1e-10
    v1, v2, v3 = rz.vertices
    assert ProjPoint(v1) == ProjPoint([-r1 * cmath.exp(1j * alpha / 2), 0, 1])
    assert ProjPoint(v2) == ProjPoint([-r2 * cmath.exp(-1j * alpha / 2), 0, 1])
    assert ProjPoint(v3) == ProjPoint([0, 1, -1])
    with pytest.raises(TriangleError):
        realize_pinfty(2, 5, alpha)


def test_reflection_traces_and_mu():
    c = np.array([0.3, 1.1, 0.2], dtype=complex)
    m = reflection(c)
    assert abs(np.trace(m) + 1.0) < 1e-12
    # mu = -1 recovers the reflection projectively: the matrices are negatives
    # (determinants mu = -1 versus 1)
    assert np.allclose(mu_reflection(c, -1.0), -m)
    assert np.allclose(mu_reflection(c, 1.0), np.eye(3))
    mu = cmath.exp(0.7j)
    mm = mu_reflection(c, mu)
    assert abs(np.trace(mm) - (2.0 + mu)) < 1e-12
    assert abs(np.linalg.det(mm) - mu) < 1e-12
    with pytest.raises(TriangleError):
        reflection(np.array([0, 0, 1], dtype=complex))  # negative vector
    with pytest.raises(TriangleError):
        mu_reflection(c, 2.0)


def test_mu_reflection_refuses_nan():
    c = np.array([0.3, 1.1, 0.2], dtype=complex)
    for mu in (math.nan, complex(math.nan, 0.0), complex(0.0, math.nan)):
        with pytest.raises(TriangleError):
            mu_reflection(c, mu)


def test_cartan_matches_half_angle(rng):
    for _ in range(100):
        c = rng.uniform(-0.98, 0.98)
        alpha = math.acos(c) if rng.random() < 0.5 else TWO_PI - math.acos(c)
        rz = realize(TriangleParams(1, 1, 1, alpha=alpha))
        a = cartan_invariant(*rz.vertices)
        assert angle_diff(a, (alpha - math.pi) / 2) < 1e-9


def test_cartan_at_alpha_pi():
    rz = realize(TriangleParams(1, 1, 1, alpha=math.pi))
    assert angle_diff(cartan_invariant(*rz.vertices), 0.0) < 1e-9


def test_cartan_scaling_invariance(rng):
    rz = realize(TriangleParams(1, 1, 1, alpha=2.0))
    v1, v2, v3 = rz.vertices
    base = cartan_invariant(v1, v2, v3)
    # scalings with zero total argument change leave A fixed
    s1 = 2.0 * cmath.exp(0.3j)
    s2 = 0.7 * cmath.exp(-1.1j)
    s3 = 1.3 * cmath.exp(0.8j)
    got = cartan_invariant(s1 * v1, s2 * v2, s3 * v3)
    assert angle_diff(got, base) < 1e-9


def test_brehm_sigma_two_routes(rng):
    for _ in range(200):
        p = draw_params(rng, lo=0.55, hi=0.93)
        rz = realize(p)
        assert abs(brehm_sigma(rz) - brehm_sigma_closed(p)) < 1e-9


def test_sigma_ideal_degenerate():
    p = TriangleParams(0.8, 0.7, 1.0, alpha=2.0)
    with pytest.raises(IdealVertexDegenerate):
        brehm_sigma(realize(p))
    with pytest.raises(IdealVertexDegenerate):
        brehm_sigma_closed(p)


def test_eta_two_routes(rng):
    for _ in range(200):
        p = draw_params(rng, lo=0.55, hi=0.93)
        rz = realize(p)
        assert abs(hakim_sandler_eta(rz) - hakim_sandler_eta_closed(p)) < 1e-9


def test_eta_printed_form_mismatch_is_surfaced():
    # the conjugation-slipped variant of the closed form does not match the
    # direct evaluation away from alpha = pi; our closed form does
    r1, r2 = 0.8, 0.7
    p = TriangleParams(r1, r2, 1.0, alpha=2.0)
    direct = hakim_sandler_eta(realize(p))
    e = cmath.exp(1j * p.alpha)
    printed = (cmath.exp(-1j * p.alpha) * (r2 - r1 * e) * (1 - r1 * r2 * e)
               / ((r1 - r2 * e) * (r1 * r1 - 1)))
    ours = hakim_sandler_eta_closed(p)
    assert abs(direct - ours) < 1e-10
    assert abs(direct - printed) > 1e-3
    # they agree in modulus: the slip is a pure phase error
    assert abs(abs(printed) - abs(direct)) < 1e-10


def test_hcross_identities(rng):
    for _ in range(100):
        p = draw_params(rng)
        rz = realize(p)
        v = rz.vertices
        thetas = [cmath.phase(x) for x in rz.pairings]
        alpha = rz.alpha
        for k in (1, 2, 3):
            rk = rz.r[k - 1]
            assert abs(herm(v[k - 1], v[k - 1]) - (rk * rk - 1.0)) < 1e-9
            rm = rz.r[(k - 2) % 3]
            rp = rz.r[k % 3]
            want = cmath.exp(1j * thetas[k - 1]) * (rk - rm * rp * cmath.exp(-1j * alpha))
            assert abs(herm(v[(k - 2) % 3], v[k % 3]) - want) < 1e-9
        prod = (herm(v[0], v[1]) * herm(v[1], v[2]) * herm(v[2], v[0]))
        want = cmath.exp(-1j * alpha)
        for k in (1, 2, 3):
            want *= (rz.r[k - 1] - rz.r[(k - 2) % 3] * rz.r[k % 3]
                     * cmath.exp(1j * alpha))
        assert abs(prod - want) < 1e-9


def test_conjugacy_invariance(rng):
    for _ in range(50):
        p = draw_params(rng, lo=0.6, hi=0.95)
        rz = realize(p)
        moved = transformed(rz, random_u21(rng))
        assert max(abs(a - b) for a, b in zip(rz.r, moved.r)) < 1e-9
        assert angle_diff(rz.alpha, moved.alpha) < 1e-9
        assert abs(brehm_sigma(rz) - brehm_sigma(moved)) < 1e-8
        assert abs(hakim_sandler_eta(rz) - hakim_sandler_eta(moved)) < 1e-8


def test_alpha_reflection_conjugates(rng):
    for _ in range(50):
        p = draw_params(rng)
        q = p.with_alpha(TWO_PI - p.alpha)
        prod_p = np.prod(realize(p).pairings)
        prod_q = np.prod(realize(q).pairings)
        assert abs(prod_p - np.conj(prod_q)) < 1e-10


def test_json_dict():
    p = TriangleParams.from_signature(4, 4, math.inf, alpha=1.0)
    d = p.to_json_dict()
    assert set(d) == {"r1", "r2", "r3", "alpha", "t", "p"}
    assert d["p"][2] == math.inf
    bare = TriangleParams(0.5, 0.6, 0.7)
    assert "alpha" not in bare.to_json_dict()
