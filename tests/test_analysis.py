import math
import warnings

import numpy as np
import pytest

from chtg import analysis, words
from chtg.analysis import (OUT_OF_CRITERION, TYPE_B, TYPE_B_PRODUCT_BOUND,
                           Certificate, NotInFamily, alpha_of_t, bisect,
                           cos_of_t, family_membership, family_quartic,
                           family_type, non_discreteness_certificate,
                           rho_123_weighted, scan_elliptic, t_of_alpha,
                           t_of_cos, thresholds)
from chtg.classify import HYPERBOLIC, INDETERMINATE, REGULAR_ELLIPTIC, classify
from chtg.traces import sigma_closed, trace_combinatorial, trace_oracle
from chtg.triangle import TriangleParams, realize

from helpers import (_alternation_index, classes_up_to, draw_params, draw_word,
                     family_c_a_printed, family_c_a_report, scan_rows,
                     sigma_lower_bound_check, stacked_traces,
                     verdict_reference)


def test_t_alpha_conversions():
    assert t_of_alpha(math.pi) == pytest.approx(0.0, abs=1e-12)
    assert t_of_alpha(math.pi / 2) == pytest.approx(1.0)
    assert t_of_alpha(0.0) == math.inf
    p = TriangleParams(1, 1, 1).with_cos_alpha(61 / 64)
    assert t_of_alpha(p.alpha) ** 2 == pytest.approx(125 / 3)
    for t in (-3.0, -0.5, 0.0, 0.7, 4.0):
        assert t_of_alpha(alpha_of_t(t)) == pytest.approx(t, abs=1e-12)
        assert cos_of_t(t) == pytest.approx(math.cos(alpha_of_t(t)))
    assert t_of_cos(1.0) == math.inf
    assert t_of_cos(-1.5) == -math.inf
    assert t_of_cos(0.0) == pytest.approx(1.0)


def test_thresholds_ideal():
    th = thresholds(TriangleParams(1, 1, 1))
    assert th.c_inf == pytest.approx(1.0)
    assert th.t_inf == math.inf
    assert th.c_a == pytest.approx(1.0)
    assert th.t_a == math.inf
    assert th.family_member
    a4, a2, a0 = th.f_b
    assert a4 == pytest.approx(0.0)
    assert a2 == pytest.approx(1024 * (-3))
    assert a0 == pytest.approx(1024 * 125)
    assert th.t_b_minus == pytest.approx(math.sqrt(125 / 3))
    assert th.t_b_plus == math.inf


def test_thresholds_44inf():
    th = thresholds(TriangleParams.from_signature(4, 4, math.inf))
    assert th.c_a == pytest.approx(0.5)
    assert th.t_a == pytest.approx(math.sqrt(3.0))
    assert th.c_inf == pytest.approx(1.0)
    assert th.family_member


def test_sigma3_crosses_three_at_c_a(rng):
    # the trace of the test word crosses the elliptic bound 3 exactly at c_A
    for _ in range(20):
        p = draw_params(rng, lo=0.6, hi=0.95)
        th = thresholds(p)
        if not -1.0 < th.c_a < 1.0:
            continue
        at = p.with_cos_alpha(th.c_a)
        assert sigma_closed(at, 3) == pytest.approx(3.0, abs=1e-9)


def test_family_double_root_at_seven_eighths():
    r = math.sqrt(7 / 8)
    th = thresholds(TriangleParams(r, r, 1.0))
    assert th.family_member
    assert abs(th.r_product - 7 / 8) < 1e-12
    assert th.t_b_minus == pytest.approx(math.sqrt(27.0), rel=1e-9)
    assert th.t_b_plus == pytest.approx(math.sqrt(27.0), rel=1e-9)
    assert family_quartic(7 / 8, math.sqrt(27.0)) == pytest.approx(0.0, abs=1e-6)


def test_family_quartic_against_rho_route(rng):
    for big_r in (0.8, 0.95, 1.2):
        r = math.sqrt(big_r)
        for t in np.linspace(-15, 15, 121):
            got = rho_123_weighted((r, r, 1.0), float(t))
            want = family_quartic(big_r, float(t))
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


def test_family_sign_patterns():
    grid = np.linspace(-12, 12, 241)
    # R < 7/8: positive everywhere
    assert all(family_quartic(0.8, float(t)) > 0 for t in grid)
    # 7/8 < R < 1: positive inside t_b-, negative between, positive beyond t_b+
    th = thresholds(TriangleParams(math.sqrt(0.95), math.sqrt(0.95), 1.0))
    tm, tp = th.t_b_minus, th.t_b_plus
    for t in grid:
        f = family_quartic(0.95, float(t))
        if abs(abs(t) - tm) < 0.1 or abs(abs(t) - tp) < 0.1:
            continue
        if abs(t) < tm or abs(t) > tp:
            assert f > 0
        else:
            assert f < 0
    # R > 1: positive inside t_b+, negative beyond
    th = thresholds(TriangleParams(math.sqrt(1.2), math.sqrt(1.2), 1.0))
    assert th.t_b_minus is None
    tp = th.t_b_plus
    for t in grid:
        f = family_quartic(1.2, float(t))
        if abs(abs(t) - tp) < 0.1:
            continue
        assert (f > 0) == (abs(t) < tp)


def test_goldman_parker_root_by_bisection():
    t_star = bisect(lambda t: rho_123_weighted((1.0, 1.0, 1.0), t), 6.0, 7.0,
                    tol=1e-14)
    assert abs(cos_of_t(t_star) - 61 / 64) < 1e-10
    assert abs(t_star ** 2 - 125 / 3) < 1e-8


@pytest.mark.parametrize("f, root", [(lambda x: x, 0.0),
                                     (lambda x: x - 1.0, 1.0)],
                         ids=["lo", "hi"])
def test_bisect_root_at_endpoint(f, root):
    assert bisect(f, 0.0, 1.0) == root


def test_bisect_needs_sign_change():
    with pytest.raises(ValueError):
        bisect(lambda x: x + 1.0, 0.0, 1.0)


def test_bisect_midpoint_after_max_iter():
    # brackets [0, 1] -> [0, .5] -> [.25, .5] -> [.25, .375], then the midpoint
    assert bisect(lambda x: x - 0.3, 0.0, 1.0, tol=0.0, max_iter=3) == 0.3125


def test_type_b_proof_identity():
    # f_B at the degenerate threshold point t_A° = sqrt((1+R)/(1-R))
    for big_r in np.linspace(0.88, 0.999, 25):
        t_a0 = math.sqrt((1 + big_r) / (1 - big_r))
        got = family_quartic(float(big_r), t_a0)
        want = -2048.0 * big_r / (1 - big_r) * (16 * big_r ** 2 - 13 * big_r - 2)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_sigma_lower_bound(rng):
    for _ in range(20):
        p = draw_params(rng)
        assert sigma_lower_bound_check(p.r)
    # exceptional boundary: 2 r1 r2 = r3 at alpha = 0 gives sigma_3 = -1
    r = (0.8, 0.7, 2 * 0.8 * 0.7)
    assert sigma_lower_bound_check(r)
    p0 = TriangleParams(*r, alpha=0.0)
    assert sigma_closed(p0, 3) == pytest.approx(-1.0)
    # ideal radii: sigma_k = 19 - 16 cos(alpha) >= 3
    for alpha in np.linspace(0.1, 2 * math.pi - 0.1, 20):
        p = TriangleParams(1, 1, 1, alpha=float(alpha))
        for k in (1, 2, 3):
            s = sigma_closed(p, k)
            assert s == pytest.approx(19 - 16 * math.cos(float(alpha)))
            assert s >= 3.0 - 1e-9


def test_family_membership_and_types():
    assert family_membership((1.0, 1.0, 1.0))
    p14 = TriangleParams.from_signature(14, 14, math.inf)
    assert family_membership(p14.r)
    assert family_type(p14) == TYPE_B
    assert p14.r_product >= TYPE_B_PRODUCT_BOUND
    p12 = TriangleParams.from_signature(12, 24, 24)
    assert family_type(p12) == TYPE_B
    p13 = TriangleParams.from_signature(13, 13, math.inf)
    assert family_type(p13) == OUT_OF_CRITERION
    assert p13.r_product < TYPE_B_PRODUCT_BOUND
    ultra = TriangleParams.from_lengths(1.0, 1.0, 2.0)
    assert family_membership(ultra.r)
    assert family_type(ultra) == TYPE_B
    assert family_type(TriangleParams(1, 1, 1)) == TYPE_B
    with pytest.raises(NotInFamily):
        family_type(TriangleParams.from_signature(4, 4, 4))


def test_family_c_a_shortcut():
    # angle case: the printed shortcut matches the general formula
    for sig in ((14, 14, math.inf), (12, 24, 24), (8, 16, 16)):
        p = TriangleParams.from_signature(*sig)
        rep = family_c_a_report(p)
        assert rep["consistent"]
    # ultra-parallel case: the printed formula disagrees (unhalved argument);
    # the mismatch is surfaced and the half-argument variant matches
    u = TriangleParams.from_lengths(0.8, 1.3, 2.1)
    assert family_membership(u.r)
    rep = family_c_a_report(u)
    assert not rep["consistent"]
    assert rep["half_argument"] == pytest.approx(rep["general"], abs=1e-9)
    # equal distances make the printed and general values both 1
    eq = TriangleParams.from_lengths(1.0, 1.0, 2.0)
    rep = family_c_a_report(eq)
    assert rep["consistent"]
    assert rep["general"] == pytest.approx(1.0)


def test_certificate_ideal_never():
    p = TriangleParams(1, 1, 1).with_cos_alpha(0.95)
    assert non_discreteness_certificate(p) is None


def test_certificate_44inf_threshold():
    base = TriangleParams.from_signature(4, 4, math.inf)
    above = non_discreteness_certificate(base.with_cos_alpha(0.6))
    assert isinstance(above, Certificate)
    assert above.word == (3, 2, 3, 1)
    assert above.rho < 0
    assert abs(above.tau - sigma_closed(base.with_cos_alpha(0.6), 3)) < 1e-9
    assert non_discreteness_certificate(base.with_cos_alpha(0.49)) is None


@pytest.mark.parametrize("r, has_cert", [((0.0, 0.9, 0.9), True),
                                         ((0.0, 1.0, 1.0), False),
                                         ((0.9, 0.0, 1.2), False)])
def test_certificate_at_zero_radius(r, has_cert):
    # R = 0: tau(3231) = 16 r1^2 r2^2 + 4 r3^2 - 1 for every alpha, so t_A
    # is -inf when 4 r1^2 r2^2 + r3^2 < 1 and +inf otherwise
    p = TriangleParams(*r, alpha=1.0)
    with pytest.raises(ValueError):
        thresholds(p)
    cert = non_discreteness_certificate(p)
    assert (cert is not None) == has_cert
    if has_cert:
        assert cert.word == (3, 2, 3, 1) and cert.t_a == -math.inf
        assert cert.tau == pytest.approx(4 * 0.81 - 1, abs=1e-12)


def _hits(rows):
    """The rows chtg scan flags: regular elliptic and not filtered."""
    return [r for r in rows if r.verdict == REGULAR_ELLIPTIC and not r.filtered]


def test_scan_ideal_below_threshold():
    p = TriangleParams(1, 1, 1).with_cos_alpha(17 / 18 - 1e-3)
    rows = scan_rows(scan_elliptic(p, 4))
    by_word = {r.word: r for r in rows}
    assert by_word[(1, 2, 3)].verdict != REGULAR_ELLIPTIC
    assert by_word[(1, 3, 2, 3)].verdict != REGULAR_ELLIPTIC
    assert not _hits(rows)


def test_scan_ideal_t_zero_hyperbolic():
    p = TriangleParams(1, 1, 1, alpha=math.pi)
    by_word = {r.word: r for r in scan_rows(scan_elliptic(p, 3))}
    assert by_word[(1, 2, 3)].verdict == HYPERBOLIC
    assert family_quartic(1.0, 0.0) == pytest.approx(1024.0 * 125.0)


def test_scan_44inf_flags_w_a():
    p = TriangleParams.from_signature(4, 4, math.inf).with_cos_alpha(0.6)
    rows = scan_rows(scan_elliptic(p, 4))
    hits = {r.word for r in _hits(rows)}
    assert (1, 3, 2, 3) in hits  # the canonical rotation of (3, 2, 3, 1)
    # alternation powers of finite-order pairs are listed but filtered
    alt = {r.word: r for r in rows}[(1, 3)]
    assert alt.filtered and alt.verdict == REGULAR_ELLIPTIC


def test_scan_length_cap():
    with pytest.raises(ValueError):
        scan_elliptic(TriangleParams(1, 1, 1, alpha=2.0), 25)


_SCAN_CASES = {
    "456": TriangleParams.from_signature(4, 5, 6).with_t(1.0),
    "ultra": TriangleParams.from_lengths(2.0, 2.5, 3.0).with_t(1.5),
    "ideal": TriangleParams(1, 1, 1).with_cos_alpha(61 / 64),
    "44inf": TriangleParams.from_signature(4, 4, math.inf).with_t(1.9),
}


@pytest.mark.parametrize("name", sorted(_SCAN_CASES))
def test_scan_rows_equal_per_word_oracle(name):
    # the stacked products give trace_combinatorial's values bit for bit, and
    # each row carries classify's verdict and the alternation filter
    p = _SCAN_CASES[name]
    tol = 1e-9
    rows = scan_rows(scan_elliptic(p, 12, tol=tol))
    assert [r.word for r in rows] == classes_up_to(12)
    for row in rows:
        assert row.tau == trace_combinatorial(row.word, p).value
        cls = classify(row.tau, tol=tol)
        assert (row.rho, row.verdict) == (cls.rho, cls.verdict)
        k = _alternation_index(row.word)
        assert row.filtered == (k is not None and p.r[k - 1] < 1.0 - 1e-12)
    if name == "44inf":
        assert any(r.filtered for r in rows)
        flagged = _hits(scan_rows(
            scan_elliptic(p, 12, skip_alternating=False, tol=tol)))
        assert {r.word for r in flagged} > {r.word for r in _hits(rows)}


def test_scan_verdicts_equal_60_digit_verdicts():
    # every class up to 12 letters at (10,10,inf) t = 0.5, where (12)^4,
    # (12)^5, (12)^6 are unipotent and (13)^5 has rho ~ -1e-28, and the two
    # length-19 rows at (4,5,6) t = 1 whose 60-digit rho is below 1e-25
    pytest.importorskip("mpmath")
    p = TriangleParams.from_signature(10, 10, math.inf).with_t(0.5)
    rows = scan_rows(scan_elliptic(p, 12, skip_alternating=False))
    assert len(rows) == 492
    for row in rows:
        assert row.verdict == verdict_reference(row.word, p)[2], row.word
    p = _SCAN_CASES["456"]
    # length 19 is past CHUNK_LEVEL, so its rows come in several blocks
    rows = {r.word: r for r in scan_rows(scan_elliptic(p, 19))
            if len(r.word) == 19}
    for w in ("1212313212313131313", "1213131313132132123"):
        w = words.parse_word(w)
        assert rows[w].verdict == verdict_reference(w, p)[2], w


def test_scan_rows_independent_of_chunk_size(monkeypatch):
    # max_len 10 is four levels past a chunk level of 6, and 5 prefixes per
    # chunk leave a short last chunk
    p = _SCAN_CASES["456"]
    rows = scan_rows(scan_elliptic(p, 10))
    monkeypatch.setattr(words, "CHUNK_LEVEL", 6)
    monkeypatch.setattr(words, "CHUNK", 5)
    assert scan_rows(scan_elliptic(p, 10)) == rows


@pytest.mark.parametrize("tol", [0.0, 1e-9, 1e3])
def test_scan_blocks_equal_classify(tol):
    # (10,10,inf) at t = 0.5 has rows in the |rho| <= 1e-9 band, and at
    # tol = 1e3 most rows are in it
    p = TriangleParams.from_signature(10, 10, math.inf).with_t(0.5)
    band = 0
    for n, b in enumerate(scan_elliptic(p, 10, tol=tol), start=1):
        assert b.words.shape[1] == n
        assert len({len(x) for x in b}) == 1
        for tau, rho, verdict in zip(b.tau.tolist(), b.rho.tolist(),
                                     b.verdict.tolist()):
            cls = classify(tau, tol=tol)
            assert (rho, verdict) == (cls.rho, cls.verdict)
            band += abs(rho) <= tol
    assert band > 0 or tol == 0.0


def test_scan_block_non_finite_and_overflowing_traces(monkeypatch):
    # classify decides the non-finite traces and those whose rho overflows
    # to NaN in numpy; no numpy warning is raised
    taus = np.array([math.inf, -math.inf, complex(math.nan, 0.0),
                     complex(math.inf, 1.0), complex(1.0, math.nan), 1e80,
                     1e103, 1e103j, complex(-1e103, 1e103), -1.0, 3.0,
                     complex(2.0, 1e-6)])
    ws = np.ones((len(taus), 1), dtype=np.int8)
    monkeypatch.setattr(analysis, "enumerate_words",
                        lambda max_len, mats: iter([(ws, taus)]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (b,) = scan_elliptic(_SCAN_CASES["456"], 1)
    for tau, rho, verdict in zip(taus.tolist(), b.rho.tolist(),
                                 b.verdict.tolist()):
        cls = classify(tau)
        assert verdict == cls.verdict
        assert rho == cls.rho or (math.isnan(rho) and math.isnan(cls.rho))
    assert b.verdict.tolist()[:5] == [INDETERMINATE] * 5
    assert b.verdict.tolist()[5:9] == [HYPERBOLIC] * 4


def test_oracle_traces_match_trace_oracle(rng):
    # the stacked reference products at the reflections are trace_oracle
    # bit for bit
    for name, p in sorted(_SCAN_CASES.items()):
        rz = realize(p)
        for n in range(0, 61):
            w = draw_word(rng, n, min_len=n)
            assert stacked_traces([w], rz.iotas)[0] == trace_oracle(w, rz).value
        same_len = [draw_word(rng, 9, min_len=9) for _ in range(20)]
        assert stacked_traces(same_len, rz.iotas).tolist() == \
            [trace_oracle(w, rz).value for w in same_len]
    assert stacked_traces([], rz.iotas).tolist() == []


@pytest.mark.parametrize("max_len", [0, -3])
def test_scan_needs_positive_length(max_len):
    with pytest.raises(ValueError):
        scan_elliptic(TriangleParams(1, 1, 1, alpha=2.0), max_len)
