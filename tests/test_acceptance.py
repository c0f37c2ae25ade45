"""Acceptance suite: one test per criterion, each prints a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import cmath
import itertools
import math
import time

import numpy as np
import pytest

from chtg.analysis import (OUT_OF_CRITERION, TYPE_B, alpha_of_t, bisect,
                           cos_of_t, family_quartic, family_type,
                           non_discreteness_certificate, rho_123_weighted,
                           thresholds)
from chtg.arithmetic import group_with_rotation, integer_ring_check
from chtg.linalg import boxtimes, herm
from chtg.traces import (sigma_closed, sigma_word, tau_123_closed,
                         trace_combinatorial, trace_mu,
                         trace_mu_combinatorial, trace_oracle,
                         trace_polynomial, trace_recursive)
from chtg.triangle import (ExistenceViolation, TriangleParams,
                           brehm_sigma, hakim_sandler_eta, realize)
from chtg.words import canonical, v_count, winding

from helpers import (brute_classes, classes_up_to, draw_params, draw_word,
                     ideal_sum, power_word, random_u21, reduce_straighten,
                     transformed, u_count)

RNG_SEED = 90125


def report(n, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n:2d} [{status}] {detail}")
    assert ok, detail


def test_criterion_01_triple_oracle_equivalence():
    rng = np.random.default_rng(RNG_SEED)
    start = time.monotonic()
    param_sets = [draw_params(rng) for _ in range(20)]
    realizations = [realize(p) for p in param_sets]
    words_ = [draw_word(rng, 12) for _ in range(500)]
    worst_comb = worst_rec = 0.0
    for w in words_:
        for p, rz in zip(param_sets, realizations):
            t0 = trace_oracle(w, rz).value
            worst_comb = max(worst_comb, abs(trace_combinatorial(w, p).value - t0))
            worst_rec = max(worst_rec, abs(trace_recursive(w, p).value - t0))
    elapsed = time.monotonic() - start
    ok = worst_comb < 1e-9 and worst_rec < 1e-9 and elapsed < 60.0
    report(1, ok, f"500 words x 20 params: |comb-oracle| {worst_comb:.2e}, "
                  f"|rec-oracle| {worst_rec:.2e}, {elapsed:.1f}s")


def test_criterion_02_closed_form_fixtures():
    rng = np.random.default_rng(RNG_SEED + 1)
    worst = 0.0
    for _ in range(50):
        p = draw_params(rng)
        rz = realize(p)
        fixtures = [((), 3.0), ((1,), -1.0), ((2,), -1.0), ((3,), -1.0)]
        pair_index = {(1, 2): 3, (2, 1): 3, (1, 3): 2, (3, 1): 2,
                      (2, 3): 1, (3, 2): 1}
        fixtures += [((a, b), 4.0 * p.r[k - 1] ** 2 - 1.0)
                     for (a, b), k in pair_index.items()]
        fixtures += [((1, 2, 3), tau_123_closed(p)),
                     ((2, 3, 2, 1), sigma_closed(p, 2))]
        fixtures += [(sigma_word(k), sigma_closed(p, k)) for k in (1, 2, 3)]
        for w, want in fixtures:
            for got in (trace_oracle(w, rz).value,
                        trace_combinatorial(w, p).value,
                        trace_recursive(w, p).value):
                worst = max(worst, abs(got - want))
    report(2, worst < 1e-10, f"closed forms, 3 methods, 50 draws: max {worst:.2e}")


def test_criterion_03_ideal_family_identity():
    grid = np.linspace(-20.0, 20.0, 1001)
    worst = 0.0
    for t in grid:
        got = rho_123_weighted((1.0, 1.0, 1.0), float(t))
        want = 1024.0 * (125.0 - 3.0 * t * t)
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    t_star = bisect(lambda t: rho_123_weighted((1.0, 1.0, 1.0), t),
                    6.0, 7.0, tol=1e-14)
    cos_err = abs(cos_of_t(t_star) - 61.0 / 64.0)
    ok = worst < 1e-8 and cos_err < 1e-10 and abs(t_star ** 2 - 125.0 / 3.0) < 1e-7
    report(3, ok, f"rho identity rel err {worst:.2e}; "
                  f"bisection cos(alpha) err {cos_err:.2e}")


def test_criterion_04_threshold_ordering_and_types():
    values = list(range(3, 31)) + [math.inf]
    worst = -math.inf
    count = 0
    for p1, p2, p3 in itertools.combinations_with_replacement(values, 3):
        th = thresholds(TriangleParams.from_signature(p1, p2, p3))
        worst = max(worst, th.c_a - th.c_inf)
        assert th.c_a <= th.c_inf + 1e-9, (p1, p2, p3)
        assert th.t_a <= th.t_inf
        count += 1
    types_ok = (
        family_type(TriangleParams.from_signature(14, 14, math.inf)) == TYPE_B
        and family_type(TriangleParams.from_signature(12, 24, 24)) == TYPE_B
        and family_type(TriangleParams.from_signature(13, 13, math.inf))
        == OUT_OF_CRITERION)
    report(4, types_ok, f"c_A <= c_inf on {count} signatures "
                        f"(max diff {worst:.2e}); TypeB instances verified")


def test_criterion_05_family_quartic_cases():
    grid = np.linspace(-12.0, 12.0, 481)
    ok = True
    # R = 0.8: no roots
    ok &= all(family_quartic(0.8, float(t)) > 0 for t in grid)
    # R = 7/8: nonnegative with the double root at t^2 = 27
    r78 = 7.0 / 8.0
    ok &= all(family_quartic(r78, float(t)) > -1e-6 for t in grid)
    root = math.sqrt(27.0)
    ok &= abs(family_quartic(r78, root)) < 1e-6
    th = thresholds(TriangleParams(math.sqrt(r78), math.sqrt(r78), 1.0))
    ok &= abs(th.t_b_minus - root) < 1e-9 and abs(th.t_b_plus - root) < 1e-9
    # R = 0.95: sign window between the two roots
    th = thresholds(TriangleParams(math.sqrt(0.95), math.sqrt(0.95), 1.0))
    tm, tp = th.t_b_minus, th.t_b_plus
    for t in grid:
        f = family_quartic(0.95, float(t))
        if min(abs(abs(t) - tm), abs(abs(t) - tp)) < 0.05:
            continue
        ok &= (f > 0) == (abs(t) < tm or abs(t) > tp)
    # R = 1.2: single crossing
    th = thresholds(TriangleParams(math.sqrt(1.2), math.sqrt(1.2), 1.0))
    ok &= th.t_b_minus is None
    for t in grid:
        f = family_quartic(1.2, float(t))
        if abs(abs(t) - th.t_b_plus) < 0.05:
            continue
        ok &= (f > 0) == (abs(t) < th.t_b_plus)
    report(5, bool(ok), "f_B sign patterns at R in {0.8, 7/8, 0.95, 1.2}; "
                        "double root at t^2 = 27")


def test_criterion_06_w_a_certificate_window():
    base = TriangleParams.from_signature(4, 4, math.inf)
    ok = True
    for k in range(1, 6):
        above = base.with_cos_alpha(0.5 + k * 1e-3)
        below = base.with_cos_alpha(0.5 - k * 1e-3)
        cert = non_discreteness_certificate(above)
        ok &= cert is not None and cert.word == (3, 2, 3, 1) and cert.rho < 0
        ok &= non_discreteness_certificate(below) is None
    report(6, bool(ok), "(4,4,inf): certificate exactly for cos(alpha) > 1/2 "
                        "(grid step 1e-3)")


def test_criterion_07_exact_mode():
    rng = np.random.default_rng(RNG_SEED + 2)
    params = [draw_params(rng) for _ in range(2)]
    checked = 0
    worst = 0.0
    # every class up to length 10, cyclically reduced or not
    classes = [w for n in range(1, 11)
               for w in brute_classes(n, cyclically_reduced=False)]
    for w in classes:
        tp = trace_polynomial(w, mode="exact")
        for poly in tp.coeffs.values():
            assert all(isinstance(c, int) for c in poly.values())
            assert all(all(e >= 0 for e in mono) for mono in poly)
        assert ideal_sum(tp) == (-1) ** len(w)
        for p in params:
            worst = max(worst,
                        abs(tp.evaluate(p) - trace_combinatorial(w, p).value))
        checked += 1
    ok = worst < 1e-9
    report(7, ok, f"{checked} cyclic classes <= 10: integer Fourier data, "
                  f"checksum exact, substitution err {worst:.2e}")


def test_criterion_08_mu_suite():
    rng = np.random.default_rng(RNG_SEED + 3)
    worst = 0.0
    for _ in range(60):
        p = draw_params(rng)
        rz = realize(p)
        mus = tuple(cmath.exp(1j * float(x))
                    for x in rng.uniform(0.0, 2.0 * math.pi, 3))
        for _ in range(3):
            w = draw_word(rng, 10)
            worst = max(worst, abs(trace_mu(w, rz, mus).value
                                   - trace_mu_combinatorial(w, p, mus).value))
    worst_deg = 0.0
    for _ in range(100):
        p = draw_params(rng)
        w = draw_word(rng, 10)
        t_mu = trace_mu_combinatorial(w, p, (-1.0, -1.0, -1.0)).value
        t_std = trace_combinatorial(w, p).value
        worst_deg = max(worst_deg, abs(t_mu - (-1.0) ** len(w) * t_std))
    worst_mostow = max(
        abs((cmath.exp(2j * math.pi / p) - 1.0) / (2.0 * math.sin(math.pi / p))
            - 1j * cmath.exp(1j * math.pi / p))
        for p in (3, 4, 5))
    ok = worst < 1e-9 and worst_deg < 1e-9 and worst_mostow < 1e-12
    report(8, ok, f"mu-traces two-route {worst:.2e}; mu=-1 degeneration "
                  f"{worst_deg:.2e}; (mu-1)r identity {worst_mostow:.2e}")


def test_criterion_09_arithmetic_integrality():
    entries = [3, 4, 6, math.inf]
    words_ = classes_up_to(8)
    groups = []
    for sig in itertools.combinations_with_replacement(entries, 3):
        for n in entries:
            try:
                groups.append(group_with_rotation(*sig, n))
            except ExistenceViolation:
                continue
    assert groups
    worst = 0.0
    for g in groups:
        for w in words_:
            tau = trace_combinatorial(w, g.params).value
            v = integer_ring_check(tau, tol=1e-7)
            worst = max(worst, v.two_re_residual, v.abs_sq_residual)
            assert v.ok, (g.signature, g.n, w)
    # negative control: a perturbed angle breaks integrality
    g = group_with_rotation(4, 4, math.inf, math.inf)
    perturbed = g.params.with_alpha(g.params.alpha + 1e-3)
    broken = any(
        not integer_ring_check(trace_combinatorial(w, perturbed).value,
                               tol=1e-7).ok
        for w in classes_up_to(5))
    ok = worst < 1e-7 and broken
    report(9, ok, f"{len(groups)} integer-entry groups x {len(words_)} words: "
                  f"max residual {worst:.2e}; negative control fails as expected")


def test_criterion_10_property_suites():
    rng = np.random.default_rng(RNG_SEED + 4)
    start = time.monotonic()

    # winding identities (disjoint splitting + appending), 1000 cases
    for _ in range(1000):
        w = draw_word(rng, 16, min_len=3)
        n = len(w)
        m = int(rng.integers(2, n))
        assert winding(w) == (winding(w[:m]) + winding(w[m:])
                              + winding((w[0], w[m - 1], w[m], w[n - 1])))
        a = int(rng.integers(1, 4))
        assert winding(w + (a,)) == winding(w) + winding((w[0], w[-1], a))

    # u_k appending identity, 1000 cases
    for _ in range(1000):
        w = draw_word(rng, 16, min_len=1)
        a = int(rng.integers(1, 4))
        for k in (1, 2, 3):
            assert u_count(k, w + (a,)) == u_count(k, w) + v_count(k, (w[-1], a, w[0]))

    # reduction/straightening reaches (1,2,3)^w, preserving winding stepwise
    for _ in range(1000):
        w = draw_word(rng, 14)
        final, steps = reduce_straighten(w)
        assert final == canonical(power_word((1, 2, 3), winding(w)))
        prev = w
        for _rule, after in steps:
            assert winding(after) == winding(prev)
            prev = after

    # cross-product identities, 1000 cases
    for _ in range(1000):
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v = boxtimes(a, b)
        assert abs(herm(v, a)) < 1e-10 and abs(herm(v, b)) < 1e-10
        lhs = herm(v, v)
        rhs = abs(herm(a, b)) ** 2 - (herm(a, a) * herm(b, b)).real
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))
        lhs2 = herm(boxtimes(a, c), boxtimes(b, c))
        rhs2 = np.conj(herm(a, c) * herm(c, b) - herm(a, b) * herm(c, c))
        assert abs(lhs2 - rhs2) <= 1e-10 * max(1.0, abs(lhs2))

    # conjugation invariance of the invariants, 1000 cases
    for _ in range(1000):
        p = draw_params(rng, lo=0.6, hi=0.95)
        rz = realize(p)
        moved = transformed(rz, random_u21(rng))
        assert max(abs(x - y) for x, y in zip(rz.r, moved.r)) < 1e-9
        d = (rz.alpha - moved.alpha) % (2.0 * math.pi)
        assert min(d, 2.0 * math.pi - d) < 1e-9
        assert abs(brehm_sigma(rz) - brehm_sigma(moved)) < 1e-7
        assert abs(hakim_sandler_eta(rz) - hakim_sandler_eta(moved)) < 1e-7

    elapsed = time.monotonic() - start
    report(10, elapsed < 120.0,
           f"five 1000-case property suites in {elapsed:.1f}s")
