import cmath
import functools
import math

import numpy as np
import pytest

from chtg.arithmetic import (IllConditionedBasis, IntegralityVerdict,
                             _conjugate_points, _power_basis_pinv,
                             basis_ring_check, cos_two_pi_over,
                             group_conjugate_traces, group_ring_check,
                             group_with_rotation, integer_ring_check,
                             mostow_group, ring_transfer)
from chtg.classify import REGULAR_ELLIPTIC, classify
from chtg.traces import (sigma_closed, trace_combinatorial, trace_mu,
                         trace_mu_combinatorial, trace_oracle,
                         trace_polynomial)
from chtg.triangle import ExistenceViolation, realize
from chtg.words import enumerate_words

from helpers import (classes_up_to, conjugate_traces_reference,
                     ring_check_reference, stacked_traces, substituted,
                     trace_mu_polynomial)


def test_g444_7_cos_alpha():
    g = group_with_rotation(4, 4, 4, 7)
    want = 2 ** -1.5 * (2 - math.cos(2 * math.pi / 7))
    assert g.cos_alpha == pytest.approx(want, abs=1e-12)


def test_rotation_trace_realised():
    for n in (5, 6, 7, math.inf):
        g = group_with_rotation(4, 4, 4, n)
        rz = realize(g.params)
        tau = trace_oracle((3, 1, 3, 2), rz).value
        want = 3.0 if n == math.inf else 1 + 2 * math.cos(2 * math.pi / n)
        assert abs(tau - want) < 1e-9
        # closed-form route agrees
        assert sigma_closed(g.params, 3) == pytest.approx(want, abs=1e-9)
        cls = classify(tau)
        if n != math.inf and n > 3:
            assert cls.verdict == REGULAR_ELLIPTIC


def test_rotation_existence_guard():
    with pytest.raises(ExistenceViolation):
        group_with_rotation(math.inf, math.inf, math.inf, math.inf)  # boundary
    with pytest.raises(ExistenceViolation):
        group_with_rotation(3, 3, 3, 3)


def test_integer_ring_check_g44inf():
    g = group_with_rotation(4, 4, math.inf, math.inf)
    tau = trace_combinatorial((1, 2, 3), g.params).value
    v = integer_ring_check(tau)
    assert v.ok
    assert v.two_re == pytest.approx(-6.0, abs=1e-9)
    assert v.abs_sq == pytest.approx(21.0, abs=1e-9)


def test_integer_ring_check_batch_g66inf4():
    g = group_with_rotation(6, 6, math.inf, 4)
    for w in classes_up_to(6):
        tau = trace_combinatorial(w, g.params).value
        assert integer_ring_check(tau, tol=1e-7).ok


def test_integer_ring_check_negative_control():
    g = group_with_rotation(4, 4, math.inf, math.inf)
    perturbed = g.params.with_alpha(g.params.alpha + 1e-3)
    failed = False
    for w in classes_up_to(5):
        tau = trace_combinatorial(w, perturbed).value
        if not integer_ring_check(tau, tol=1e-7).ok:
            failed = True
            break
    assert failed


def test_basis_ring_check_g444_7():
    g = group_with_rotation(4, 4, 4, 7)
    v = group_ring_check(g, (3, 1, 3, 2))
    assert v.ok and v.experimental
    # tau = 1 + x with x = 2 cos(2 pi / 7): 2 Re = 2 + 2x, |tau|^2 = 1 + 2x + x^2
    assert v.two_re.coefficients == (2, 2, 0)
    assert v.abs_sq.coefficients == (1, 2, 1)
    assert v.two_re.residual < 1e-9
    assert v.abs_sq.residual < 1e-9


def test_basis_ring_check_more_words_g444_7():
    g = group_with_rotation(4, 4, 4, 7)
    for w in [(1, 2), (1, 2, 3), (1, 2, 1, 3), (1, 2, 3, 1, 2, 3)]:
        assert group_ring_check(g, w).ok


def test_conjugate_traces_first_is_plain_trace():
    g = group_with_rotation(4, 4, 4, 7)
    for w in [(1, 2, 3), (3, 1, 3, 2), (1, 2, 1, 3, 2)]:
        pairs = group_conjugate_traces(g, w, 7)
        assert len(pairs) == 3  # phi(7) / 2 conjugates
        tau = trace_combinatorial(w, g.params).value
        assert abs(pairs[0][0] - tau) < 1e-9
        assert abs(pairs[0][1] - tau.conjugate()) < 1e-9


@functools.lru_cache(maxsize=None)
def _exact_poly(word):
    return trace_polynomial(word)


def _exact_conjugate_pairs(group, word, q):
    """(tau, tau-bar) at each conjugate, reassembled from the exact Fourier
    data as sum_w P_w(X) Z^w, with Q / Z for Z when w < 0 and the roles of
    Z and Q / Z swapped for tau-bar; also whether any root Z was real."""
    poly = _exact_poly(word)
    sign = (-1.0) ** poly.n
    pairs, real_root = [], False
    for m in range(1, q // 2 + 1):
        if math.gcd(m, q) != 1:
            continue
        x = 2.0 * math.cos(2.0 * math.pi * m / q)
        xs = [(2.0 + x) if p == q else 4.0 * math.cos(math.pi / p) ** 2
              for p in group.signature]
        cn = x / 2.0 if group.n == q else cos_two_pi_over(group.n)
        s_val = xs[0] * xs[1] + xs[2] - 2.0 - 2.0 * cn
        q_val = xs[0] * xs[1] * xs[2]
        real_root = real_root or s_val * s_val >= 4.0 * q_val
        z = (s_val + cmath.sqrt(complex(s_val * s_val - 4.0 * q_val))) / 2.0
        zb = q_val / z
        pairs.append(tuple(
            sign * (2.0 + sum(substituted(poly, xs, zp, zn).values()))
            for zp, zn in ((z, zb), (zb, z))))
    return pairs, real_root


@pytest.mark.parametrize("p1, p2, p3, n, q", [
    (4, 4, math.inf, 5, 5), (4, 4, math.inf, 8, 8), (4, 4, math.inf, 10, 10),
    (4, 4, math.inf, 12, 12), (4, 4, 4, 7, 7), (6, 6, math.inf, 5, 5)])
def test_conjugate_traces_match_exact_data(p1, p2, p3, n, q):
    g = group_with_rotation(p1, p2, p3, n)
    real_root = False
    for w in classes_up_to(10):
        want, real = _exact_conjugate_pairs(g, w, q)
        real_root = real_root or real
        got = group_conjugate_traces(g, w, q)
        assert len(got) == len(want)
        for pair, exact in zip(got, want):
            for a, b in zip(pair, exact):
                assert abs(a - b) <= 1e-9 * max(1.0, abs(b)), (w, a, b)
        v = group_ring_check(g, w)
        ref = basis_ring_check(want[0][0], q, conjugate_pairs=want)
        assert v.ok == ref.ok, w
        assert v.two_re.coefficients == ref.two_re.coefficients, w
        assert v.abs_sq.coefficients == ref.abs_sq.coefficients, w
    # (4,4,4;7) and (6,6,inf;5) have conjugates with a real root Z
    assert real_root == ((p1, p2, p3, n) in {(4, 4, 4, 7), (6, 6, math.inf, 5)})


def _close(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(1.0, abs(b))


@pytest.mark.parametrize("p1, p2, p3, n", [
    (4, 4, math.inf, 5), (4, 4, math.inf, 8), (4, 4, math.inf, 10),
    (4, 4, math.inf, 12), (4, 4, 4, 7), (6, 6, math.inf, 5),
    (4, 4, math.inf, math.inf), (6, 6, math.inf, 4)])
def test_ring_checks_match_per_word_reference(p1, p2, p3, n):
    # ring-check's prefix products sum in another order than the scalar
    # loop, so values agree to rounding; verdicts and coefficients exactly.
    # The verdicts are columns: entry i of each is word i's field
    g = group_with_rotation(p1, p2, p3, n)
    mats, verdicts = ring_transfer(g)
    for ws, taus in enumerate_words(10, mats):
        got = verdicts(taus, 1e-7)
        for i, w in enumerate(map(tuple, ws.tolist())):
            want = ring_check_reference(g, w)
            integer = isinstance(want, IntegralityVerdict)
            assert isinstance(got, IntegralityVerdict) == integer, w
            assert got.ok[i] == want.ok, w
            if integer:
                assert _close(got.two_re[i], want.two_re), w
                assert _close(got.abs_sq[i], want.abs_sq), w
                continue
            for e, f in ((got.two_re, want.two_re), (got.abs_sq, want.abs_sq)):
                assert e.ok[i] == f.ok, w
                assert tuple(map(int, e.coefficients[:, i])) == f.coefficients, w
                assert _close(e.value[i], f.value), w
            pairs = group_conjugate_traces(g, w, got.q)
            ref = conjugate_traces_reference(g, w, got.q)
            assert all(_close(a, b) for pair, rp in zip(pairs, ref)
                       for a, b in zip(pair, rp)), w
    empty = verdicts(stacked_traces([], mats), 1e-7)
    assert empty.ok.shape == (0,)
    for e in ([empty] if isinstance(empty, IntegralityVerdict)
              else [empty.two_re, empty.abs_sq]):
        assert all(c.shape[-1] == 0 for c in e)


def test_ring_check_past_exact_cap():
    # 60 letters is past EXACT_CAP = 48; (3,1,3,2) has order 5 in
    # G(4,4,inf;5), and in each conjugate, so its 15th power has trace 3
    g = group_with_rotation(4, 4, math.inf, 5)
    v = group_ring_check(g, (3, 1, 3, 2) * 15)
    assert v.ok
    assert v.two_re.coefficients == (6, 0)
    assert v.abs_sq.coefficients == (9, 0)
    w = (1, 2, 3, 2, 1, 3, 1, 2) * 7 + (1, 3, 2, 3)
    tau = trace_oracle(w, realize(g.params)).value
    pairs = group_conjugate_traces(g, w, 5)
    assert abs(pairs[0][0] - tau) <= 1e-9 * abs(tau)
    assert abs(pairs[0][1] - tau.conjugate()) <= 1e-9 * abs(tau)


def test_basis_q3_reduces_to_integers():
    # q = 3 has the one-element power basis {1}; odd integers must pass
    v = basis_ring_check(complex(5.0, 0.0), 3)
    assert v.ok
    assert v.two_re.coefficients == (10,)
    assert v.abs_sq.coefficients == (25,)


def test_basis_rejects_random_value():
    # degree 3 needs three conjugate pairs; one value alone is not judged
    with pytest.raises(ValueError, match="needs one conjugate pair per conjugate"):
        basis_ring_check(complex(math.pi, 0.1), 7)
    pairs = [(complex(math.pi, 0.1), complex(math.pi, -0.1))] * 3
    assert not basis_ring_check(pairs[0][0], 7, conjugate_pairs=pairs).ok


def test_basis_ill_conditioned():
    g = group_with_rotation(4, 4, math.inf, 121)
    with pytest.raises(IllConditionedBasis):
        group_ring_check(g, (1, 2))
    with pytest.raises(IllConditionedBasis):
        ring_transfer(g)


def test_power_basis_refused_exactly_when_cond_fails():
    # q alone refuses only degrees whose basis fails the cond test: that
    # test is run here up to degree 60, and it fails from 15 on
    for q in range(3, 2200):
        deg = sum(math.gcd(m, q) == 1 for m in range(1, q // 2 + 1))
        want = True
        if deg <= 60:
            v = np.array([[x ** j for j in range(deg)]
                          for x in _conjugate_points(q)])
            want = np.linalg.cond(v @ v.T) > 1e12
        try:
            _power_basis_pinv(q)
        except IllConditionedBasis as exc:
            assert want and deg > 14, q
            assert str(exc) == (f"the power basis for q = {q} has degree "
                                "above 14 and is unusable")
        else:
            assert not want, q


def test_power_basis_inverse_matches_lstsq():
    # the closed-form inverse against LAPACK's least-squares solve, which
    # computed it before, at every q of degree <= 14
    for q in range(3, 91):
        xs = _conjugate_points(q)
        if len(xs) > 14:
            continue
        v = np.array([[x ** j for j in range(len(xs))] for x in xs])
        want = np.linalg.lstsq(v, np.eye(len(xs)), rcond=None)[0]
        got = _power_basis_pinv(q)
        assert got.shape == want.shape and not got.flags.writeable
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max(), q
        assert np.abs(v @ got - np.eye(len(xs))).max() <= 1e-9, q


def test_mostow_identity_and_fields():
    for p in (3, 4, 5):
        g = mostow_group(p, 5)
        assert abs((g.mu - 1) * g.r - 1j * cmath.exp(1j * math.pi / p)) < 1e-12
    with pytest.raises(ValueError):
        mostow_group(6, 5)


def test_mostow_realized_trace_agreement():
    g = mostow_group(3, 2)  # alpha = 5 pi / 6, inside the existence range
    rz = realize(g.params)
    t0 = trace_mu((1, 2, 3), rz, g.mus).value
    t1 = trace_mu_combinatorial((1, 2, 3), g.params, g.mus).value
    assert abs(t0 - t1) < 1e-9


def test_mostow_coefficient_prefactor():
    # Fourier coefficients divided by (i e^{i pi / p})^{3 |w|} land in Z[mu]
    g = mostow_group(3, 2)
    unit = 1j * cmath.exp(1j * math.pi / g.p)
    zeta = cmath.exp(2j * math.pi / g.p)
    for word in [(1, 2, 3), (1, 2, 3, 1, 2, 3), (1, 3, 2, 1, 2, 3)]:
        q = trace_mu_polynomial(word, g.params, g.mus)
        for w, val in q.items():
            reduced = val / unit ** (3 * abs(w))
            # solve reduced = a + b zeta exactly (2x2 real system)
            mat = np.array([[1.0, zeta.real], [0.0, zeta.imag]])
            a, b = np.linalg.solve(mat, [reduced.real, reduced.imag])
            assert abs(a - round(a)) < 1e-7
            assert abs(b - round(b)) < 1e-7
