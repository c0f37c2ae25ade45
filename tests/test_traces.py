import cmath
import itertools
import math
import tracemalloc
from collections.abc import Mapping

import numpy as np
import pytest

from chtg import traces
from chtg.traces import (_TAILS, EXACT_CAP, CapExceeded, TracePolynomial,
                         TraceValue, ZeroRadiusUnsupported, _constants, _key,
                         _recursion_plan, poly_to_str, sigma_closed,
                         sigma_word, tau_123_closed, trace_combinatorial,
                         trace_mu, trace_mu_combinatorial, trace_oracle,
                         trace_polynomial, trace_recursive, transfer_matrices)
from chtg.triangle import TriangleError, TriangleParams, realize
from chtg.words import canonical, winding

from helpers import (classes_up_to, draw_params, draw_word, evaluate_reference,
                     expand_reference, gram_reference, ideal_sum, n_count, oracle_reference,
                     poly_mul, poly_sub, power_word, product_reference,
                     recursive_reference, reference_plan, transfer_reference,
                     trace_mu_polynomial, u_count)


def test_oracle_base_cases(rng):
    p = draw_params(rng)
    rz = realize(p)
    assert abs(trace_oracle((), rz).value - 3.0) < 1e-12
    for k in (1, 2, 3):
        assert abs(trace_oracle((k,), rz).value + 1.0) < 1e-12
    # two-letter traces 4 r_m^2 - 1, both orders
    pairs = {(1, 2): 3, (2, 1): 3, (1, 3): 2, (3, 1): 2, (2, 3): 1, (3, 2): 1}
    for (a, b), m in pairs.items():
        want = 4.0 * p.r[m - 1] ** 2 - 1.0
        assert abs(trace_oracle((a, b), rz).value - want) < 1e-10


def _brute_stats(word):
    n = len(word)
    out = {}
    for m in range(1, n + 1):
        for S in itertools.combinations(range(n), m):
            sub = tuple(word[i] for i in S)
            key = (n_count(1, sub), n_count(2, sub), n_count(3, sub),
                   u_count(1, sub), u_count(2, sub), u_count(3, sub),
                   winding(sub))
            out[key] = out.get(key, 0) + 1
    return out


def _brute_polynomial(word):
    """P_w collected from the literal subset list: (-2)^{|S|} r^u over
    2^{sum u}, keyed by the X_k exponents (u_k - |w|) / 2."""
    out = {0: {(0, 0, 0): 1}}
    for (m1, m2, m3, u1, u2, u3, w), cnt in _brute_stats(word).items():
        mono = tuple((u - abs(w)) // 2 for u in (u1, u2, u3))
        poly = out.setdefault(w, {})
        poly[mono] = poly.get(mono, 0) \
            + (-2) ** (m1 + m2 + m3) * cnt // 2 ** (u1 + u2 + u3)
    out = {w: {m: c for m, c in poly.items() if c} for w, poly in out.items()}
    return {w: poly for w, poly in out.items() if poly}


def test_subset_stats_against_bruteforce(rng):
    for _ in range(40):
        w = draw_word(rng, 8)
        assert trace_polynomial(w).coeffs == _brute_polynomial(w)


def test_combinatorial_hand_expansion():
    # (1, 2): subsets contribute 1 - 2 - 2 + 4 r3^2, plus the leading 2
    p = TriangleParams(0.6, 0.7, 0.8, alpha=1.3)
    got = trace_combinatorial((1, 2), p).value
    assert abs(got - (4 * 0.8 ** 2 - 1.0)) < 1e-12


def test_closed_forms_three_methods(rng):
    for _ in range(50):
        p = draw_params(rng)
        rz = realize(p)
        fixtures = [
            ((1, 2, 3), tau_123_closed(p)),
            ((2, 3, 2, 1), sigma_closed(p, 2)),
            (sigma_word(1), sigma_closed(p, 1)),
            (sigma_word(2), sigma_closed(p, 2)),
            (sigma_word(3), sigma_closed(p, 3)),
            ((3, 1, 3, 2), sigma_closed(p, 3)),
        ]
        for w, want in fixtures:
            assert abs(trace_oracle(w, rz).value - want) < 1e-10
            assert abs(trace_combinatorial(w, p).value - want) < 1e-10
            assert abs(trace_recursive(w, p).value - want) < 1e-10


def test_recursion_beta_example():
    # for (1, 2, 3) the recursion coefficient is 2 r1 r3 e^{i alpha} / r2 - 1
    p = draw_params(np.random.default_rng(3))
    r1, r2, r3 = p.r
    beta = 2 * r1 * r3 / r2 * cmath.exp(1j * p.alpha) - 1
    t12 = 4 * r3 ** 2 - 1
    t23 = 4 * r1 ** 2 - 1
    t13 = 4 * r2 ** 2 - 1
    by_hand = -(t12 + t23 + (-1)) + beta * (t13 + (-1) + (-1) + 3)
    assert abs(by_hand - tau_123_closed(p)) < 1e-12
    assert abs(trace_recursive((1, 2, 3), p).value - by_hand) < 1e-12


def test_methods_agree_random_words(rng):
    for _ in range(100):
        p = draw_params(rng)
        rz = realize(p)
        for _ in range(5):
            w = draw_word(rng, 12)
            t0 = trace_oracle(w, rz).value
            assert abs(trace_combinatorial(w, p).value - t0) < 1e-9
            assert abs(trace_recursive(w, p).value - t0) < 1e-9


def test_methods_agree_longer_words(rng):
    # the 2^n-term expansion accumulates more rounding noise beyond length 12
    for _ in range(10):
        p = draw_params(rng)
        rz = realize(p)
        w = draw_word(rng, 16, min_len=13)
        t0 = trace_oracle(w, rz).value
        assert abs(trace_combinatorial(w, p).value - t0) < 1e-7
        assert abs(trace_recursive(w, p).value - t0) < 1e-7


def test_long_words_match_oracle(rng):
    # the expansion routes have no length cap; exact data runs to EXACT_CAP
    def close(a, b):
        return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))

    for _ in range(10):
        p = draw_params(rng)
        rz = realize(p)
        mus = tuple(cmath.exp(1j * float(x))
                    for x in rng.uniform(0, 2 * math.pi, 3))
        w = draw_word(rng, 40, min_len=21)
        assert close(trace_combinatorial(w, p).value, trace_oracle(w, rz).value)
        assert close(trace_mu_combinatorial(w, p, mus).value,
                     trace_mu(w, rz, mus).value)
        w = draw_word(rng, 24, min_len=17)
        assert close(trace_polynomial(w).evaluate(p), trace_oracle(w, rz).value)


def test_recursion_long_words(rng):
    # far deeper than Python's recursion limit
    p = TriangleParams.from_signature(4, 5, 6).with_t(0.5)
    rz = realize(p)
    for w in ((1, 2) * 600, draw_word(rng, 1500, min_len=1000)):
        tau = trace_oracle(w, rz).value
        assert abs(trace_recursive(w, p).value - tau) <= 1e-9 * max(1.0, abs(tau))


def test_cyclic_and_reversal_invariance(rng):
    p = draw_params(rng)
    rz = realize(p)
    w = (1, 2, 3, 2, 1, 3, 1)
    base = trace_oracle(w, rz).value
    for s in range(len(w)):
        assert abs(trace_oracle(w[s:] + w[:s], rz).value - base) < 1e-10
    # conjugation: 231 is 123 conjugated by iota_1
    assert abs(trace_oracle((2, 3, 1), rz).value
               - trace_oracle((1, 2, 3), rz).value) < 1e-10


def test_caps_and_zero_radius():
    with pytest.raises(CapExceeded):
        trace_polynomial((1,) * (EXACT_CAP + 1), mode="exact")
    zero = TriangleParams(0.0, 0.9, 0.9, alpha=2.9)
    with pytest.raises(ZeroRadiusUnsupported):
        trace_recursive((1, 2), zero)
    # the expansion still works at r_k = 0
    assert abs(trace_combinatorial((1, 2), zero).value - (4 * 0.81 - 1)) < 1e-12


def test_polynomial_123_structure():
    tp = trace_polynomial((1, 2, 3), mode="exact")
    assert tp.support() == [0, 1]
    assert tp.coeffs[1] == {(0, 0, 0): -1}
    assert tp.coeffs[0] == {(0, 0, 0): -5, (1, 0, 0): 1, (0, 1, 0): 1,
                            (0, 0, 1): 1}
    assert poly_to_str(tp.coeffs[0]) == "X1 + X2 + X3 - 5"


def test_polynomial_support_bound(rng):
    for _ in range(30):
        w = draw_word(rng, 9)
        tp = trace_polynomial(w, mode="exact")
        assert all(abs(x) <= len(w) // 3 for x in tp.support())


def test_polynomial_reproduces_trace(rng):
    for _ in range(30):
        p = draw_params(rng)
        w = draw_word(rng, 9)
        want = trace_combinatorial(w, p).value
        tp = trace_polynomial(w, mode="exact")
        assert abs(tp.evaluate(p) - want) < 1e-9


def test_polynomial_integer_checksum(rng):
    for _ in range(30):
        w = draw_word(rng, 9)
        tp = trace_polynomial(w, mode="exact")
        assert ideal_sum(tp) == (-1) ** len(w)
        for poly in tp.coeffs.values():
            assert all(isinstance(c, int) for c in poly.values())


def _reduction_factorisation(sub):
    """Independently factor 2^{|S|} prod r^{u_k} by running the cyclic
    reduction, counting halvings and the X_k divisions of straightenings."""
    w = list(sub)
    twos = 0
    xs = [0, 0, 0]
    while True:
        n = len(w)
        if n == 0:
            break
        if n == 1:
            del w[0]
            twos += 1
            continue
        site = next((m for m in range(n) if w[m] == w[(m + 1) % n]), None)
        if site is not None:
            del w[(site + 1) % n]
            twos += 1
            continue
        if n == 2:
            # the wrap pattern (k, l) carries monomial 4 r_m^2 exactly, so the
            # two degenerate steps (k,l) -> (k) -> () jointly divide by one X_m
            xs[6 - w[0] - w[1] - 1] += 1
            w.clear()
            continue
        site = next((m for m in range(n) if w[m] == w[(m + 2) % n]), None)
        if site is None:
            break
        xs[6 - w[site] - w[(site + 1) % n] - 1] += 1
        for i in sorted(((site + 1) % n, (site + 2) % n), reverse=True):
            del w[i]
    return twos, xs


def test_exact_mode_matches_reduction_bookkeeping(rng):
    # the closed-form exponents of exact mode equal the literal
    # reduce/straighten step counts, subset by subset
    for _ in range(25):
        word = draw_word(rng, 7, min_len=1)
        n = len(word)
        for m in range(1, n + 1):
            for S in itertools.combinations(range(n), m):
                sub = tuple(word[i] for i in S)
                twos, xs = _reduction_factorisation(sub)
                aw = abs(winding(sub))
                us = [u_count(k, sub) for k in (1, 2, 3)]
                assert twos == m - sum(us)
                assert xs == [(u - aw) // 2 for u in us]


def test_sigma_ordering_identity_exact():
    # sigma_k - sigma_{k+1} = (X_k - X_{k+1}) (1 - X_{k-1}) as polynomials
    tps = {k: trace_polynomial(sigma_word(k), mode="exact") for k in (1, 2, 3)}
    def xvar(k):
        mono = [0, 0, 0]
        mono[k - 1] = 1
        return {tuple(mono): 1}
    for k in (1, 2, 3):
        kp = k % 3 + 1
        km = (k - 2) % 3 + 1
        assert tps[k].coeffs[1] == tps[kp].coeffs[1]
        assert tps[k].coeffs[-1] == tps[kp].coeffs[-1]
        diff = poly_sub(tps[k].coeffs[0], tps[kp].coeffs[0])
        want = poly_mul(poly_sub(xvar(k), xvar(kp)),
                        poly_sub({(0, 0, 0): 1}, xvar(km)))
        assert diff == want


def test_sigma_ordering_inequality(rng):
    # sigma_1 >= sigma_2 >= sigma_3 for sorted radii above 1/2
    for _ in range(100):
        r = np.sort(rng.uniform(0.5, 1.1, 3))
        p = TriangleParams(*map(float, r), alpha=float(rng.uniform(0, 2 * math.pi)))
        s = [sigma_closed(p, k) for k in (1, 2, 3)]
        assert s[0] >= s[1] - 1e-12
        assert s[1] >= s[2] - 1e-12


def test_mu_traces(rng):
    for _ in range(60):
        p = draw_params(rng)
        rz = realize(p)
        mus = tuple(cmath.exp(1j * float(x))
                    for x in rng.uniform(0, 2 * math.pi, 3))
        w = draw_word(rng, 10)
        t0 = trace_mu(w, rz, mus).value
        t1 = trace_mu_combinatorial(w, p, mus).value
        assert abs(t0 - t1) < 1e-9


def test_mu_single_letter():
    p = TriangleParams(0.8, 0.8, 0.9, alpha=2.3)
    mus = (cmath.exp(0.4j), cmath.exp(1.1j), cmath.exp(-0.9j))
    for k in (1, 2, 3):
        got = trace_mu_combinatorial((k,), p, mus).value
        assert abs(got - (2.0 + mus[k - 1])) < 1e-12


def test_mu_minus_one_degeneration(rng):
    # mu = -1 generators are the negatives of the reflections, so traces
    # pick up (-1)^n
    for _ in range(40):
        p = draw_params(rng)
        w = draw_word(rng, 10)
        t_mu = trace_mu_combinatorial(w, p, (-1.0, -1.0, -1.0)).value
        t_std = trace_combinatorial(w, p).value
        assert abs(t_mu - (-1.0) ** len(w) * t_std) < 1e-9


def test_mu_polynomial_consistency(rng):
    p = draw_params(rng)
    mus = (cmath.exp(0.5j),) * 3
    w = (1, 2, 3, 1, 2)
    q = trace_mu_polynomial(w, p, mus)
    total = 2.0 + sum(v * cmath.exp(1j * p.alpha * k) for k, v in q.items())
    assert abs(total - trace_mu_combinatorial(w, p, mus).value) < 1e-10


# a signature, a from_lengths triple and raw radii, as `chtg trace --r` takes them
RECURSION_PARAMS = {
    "456": TriangleParams.from_signature(4, 5, 6).with_t(0.7),
    "lengths": TriangleParams.from_lengths(2.0, 2.5, 3.0).with_t(1.5),
    "raw-r": TriangleParams(0.7, 1.1, 1.6, alpha=2.5),
}


def draw_reduced_word(rng, n):
    """n letters with no two neighbours equal."""
    w = [int(rng.integers(1, 4))] if n else []
    while len(w) < n:
        w.append((w[-1] + int(rng.integers(0, 2))) % 3 + 1)
    return tuple(w)


@pytest.mark.parametrize("name", sorted(RECURSION_PARAMS))
def test_recursion_equals_reference(rng, name):
    # bit for bit: the plan runs the reference's expressions on the same values
    p = RECURSION_PARAMS[name]
    for i in range(60):
        w = draw_word(rng, 60) if i % 2 else draw_reduced_word(rng, i)
        want = recursive_reference(w, p)
        assert trace_recursive(w, p).value == want
        assert trace_recursive(np.array(w, dtype=np.int64), p).value == want


def test_recursion_plan_is_parameter_free():
    # a cached plan evaluated at another parameter set must not leak into it
    w = (1, 2, 3, 1, 3, 2, 1, 2, 3, 2, 3, 1, 1, 3)
    p1, p2 = RECURSION_PARAMS["456"], RECURSION_PARAMS["raw-r"]
    for p in (p1, p2, p1):
        assert trace_recursive(w, p).value == recursive_reference(w, p)


def test_recursion_plan_indexes_reduced_tails():
    # each step op starts with the _TAILS index of its word's last letters
    assert len(_TAILS) == 12 and all(a != b != c for a, b, c in _TAILS)
    w = (1, 2, 3, 1, 3, 2, 1, 2, 3, 2)
    steps, _ = _recursion_plan(w)
    assert steps and {op[0] for op in steps} <= set(range(12))


def test_recursion_plan_long_word_and_cache_bound(rng):
    p = RECURSION_PARAMS["456"]
    w = draw_reduced_word(rng, 1000)
    assert trace_recursive(w, p).value == recursive_reference(w, p)
    steps, _ = _recursion_plan(w)
    assert len(steps) < 5 * len(w)
    assert _recursion_plan.cache_info().maxsize is not None


def test_recursion_plan_equals_reference_plan(rng):
    # step for step: every reduced word up to length 10, and random words up
    # to 60 letters, half of them not reduced
    words = [w for n in range(11) for w in itertools.product((1, 2, 3), repeat=n)
             if all(a != b for a, b in zip(w, w[1:]))]
    words += [draw_word(rng, 60) if i % 2 else draw_reduced_word(rng, i % 61)
              for i in range(200)]
    for w in words:
        assert _recursion_plan.__wrapped__(w) == reference_plan(w), w


def test_recursion_plan_memory_is_linear():
    # a 4,000-letter word: the plan's keys are (prefix length, short tail),
    # not the tuples of the words reached
    tracemalloc.start()
    try:
        _recursion_plan.__wrapped__((1, 2) * 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_recursion_plan_cache_keeps_no_long_plans(rng):
    # plans of words over 64 letters are built per call, not cached: five
    # 1,500-letter plans kept 4.3 MiB alive in the cache (tuple free lists
    # keep about 0.4 MiB); 20,000 letters would take 45 s under tracemalloc
    p = RECURSION_PARAMS["456"]
    ws = [draw_reduced_word(rng, 1500) for _ in range(5)]
    _constants(_key(p))
    tracemalloc.start()
    try:
        for w in ws:
            trace_recursive(w, p)
        alive = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert alive < 2 * 2 ** 20
    _recursion_plan.cache_clear()
    trace_recursive((1, 2, 3, 1, 3, 2, 1, 2, 3, 2, 3, 1, 2, 1, 3, 2), p)
    assert _recursion_plan.cache_info().currsize == 1


def test_zero_radius_raises_before_planning():
    _recursion_plan.cache_clear()
    with pytest.raises(ZeroRadiusUnsupported):
        trace_recursive((1, 2, 3, 1, 2), TriangleParams(0.0, 0.9, 0.9, alpha=2.9))
    info = _recursion_plan.cache_info()
    assert info.misses == 0 and info.currsize == 0


def test_trace_value_tags(rng):
    p = draw_params(rng)
    rz = realize(p)
    assert trace_oracle((1,), rz).method == "oracle"
    assert trace_combinatorial((1,), p).method == "combinatorial"
    assert trace_recursive((1,), p).method == "recursive"


def test_trace_value_keeps_its_api():
    v = TraceValue(1.5 - 2j, "oracle")
    assert (v.value, v.method) == (1.5 - 2j, "oracle")
    assert v == TraceValue(1.5 - 2j, "oracle") and hash(v) == hash(
        TraceValue(1.5 - 2j, "oracle"))
    for field in ("value", "method"):
        with pytest.raises(AttributeError):
            setattr(v, field, None)


def test_evaluate_refuses_exponents_beyond_its_tables():
    # the tables cover every word up to EXACT_CAP letters; a hand-built
    # polynomial beyond them fails rather than reading another power
    p = BIT_POINTS["456"]
    for w in ((2, 3) * 24, (1, 2, 3) * 16):  # X1^24, z^16
        poly = trace_polynomial(w)
        assert bits(poly.evaluate(p)) == bits(evaluate_reference(poly, p))
    for coeffs in ({EXACT_CAP // 3 + 1: {(0, 0, 0): 1}},
                   {-(EXACT_CAP // 3) - 1: {(0, 0, 0): 1}},
                   {0: {(0, EXACT_CAP // 2 + 1, 0): 1}},
                   {0: {(-1, 0, 0): 1}}):  # not X1^24 from the table's end
        poly = TracePolynomial((), 0, coeffs)
        for _ in range(2):  # a refused call leaves nothing behind
            with pytest.raises(LookupError):
                poly.evaluate(p)


def test_polynomial_json():
    tp = trace_polynomial((1, 2, 3), mode="exact")
    d = tp.to_json_dict()
    assert d["n"] == 3 and d["mode"] == "exact"
    assert d["coeffs"][0] == {"w": 0, "poly": "X1 + X2 + X3 - 5"}
    assert d["coeffs"][1] == {"w": 1, "poly": "-1"}


# --- per-parameter constants and compiled Fourier data, bit for bit ----------

BIT_POINTS = {
    "456": TriangleParams.from_signature(4, 5, 6).with_t(0.8),
    "ideal": TriangleParams.from_signature(math.inf, math.inf, math.inf).with_t(0.8),
    "ultra": TriangleParams.from_lengths(1.0, 1.5, 2.0).with_t(0.8),
}
BIT_MUS = (cmath.exp(0.3j), cmath.exp(1.1j), cmath.exp(-2.5j))


def bits(z):
    """A complex value's bits, signs of zero included."""
    return z.real.hex(), z.imag.hex()


def route_bits(w, p, poly=None):
    """Each route at (w, p), as bits."""
    rz = realize(p)
    out = {"combinatorial": trace_combinatorial(w, p).value,
           "mu": trace_mu_combinatorial(w, p, BIT_MUS).value,
           "oracle": trace_oracle(w, rz).value,
           "mu-oracle": trace_mu(w, rz, BIT_MUS).value}
    if min(p.r) > traces._EPS:
        out["recursive"] = trace_recursive(w, p).value
    if poly is not None:
        out["evaluate"] = poly.evaluate(p)
    return {k: bits(v) for k, v in out.items()}


def reference_bits(w, p, poly=None):
    """route_bits by the per-call references."""
    mu_factors = tuple(complex(mu) - 1.0 for mu in BIT_MUS)
    rz = realize(p)
    out = {"combinatorial": transfer_reference(w, p, (-2.0,) * 3, negate=True),
           "mu": transfer_reference(w, p, mu_factors),
           "oracle": oracle_reference(w, rz),
           "mu-oracle": complex(np.trace(product_reference(
               rz.mu_iotas(BIT_MUS), w)))}
    if min(p.r) > traces._EPS:
        out["recursive"] = recursive_reference(w, p)
    if poly is not None:
        out["evaluate"] = evaluate_reference(poly, p)
    return {k: bits(v) for k, v in out.items()}


@pytest.mark.parametrize("name", sorted(BIT_POINTS))
def test_routes_equal_per_call_references(name):
    p = BIT_POINTS[name]
    for w in classes_up_to(10):
        poly = trace_polynomial(w)
        assert route_bits(w, p, poly) == reference_bits(w, p, poly), w


@pytest.mark.parametrize("name", sorted(BIT_POINTS))
def test_kernel_products_equal_subset_expansion(name):
    # the per-call subset expansion in Python complex arithmetic, to rounding
    p = BIT_POINTS[name]
    ez = cmath.exp(1j * p.alpha / 3.0)
    gram = gram_reference(p.r, ez, ez.conjugate())
    for w in classes_up_to(10):
        want = (-1) ** len(w) * expand_reference(w, (-2.0, -2.0, -2.0), gram)
        got = trace_combinatorial(w, p).value
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), w
        want = expand_reference(w, [mu - 1.0 for mu in BIT_MUS], gram)
        got = trace_mu_combinatorial(w, p, BIT_MUS).value
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), w


def test_oracle_trace_of_negative_zero_diagonal():
    # np.trace sums from +0: a -0.0 diagonal gives +0j, not -0j
    m = -0.0 * np.eye(3, dtype=complex)
    rz = type("Mats", (), {"iotas": (m, m, m)})()
    assert math.copysign(1.0, traces.word_matrix(rz.iotas, (1,))[0, 0].real) \
        == -1.0
    got = trace_oracle((1,), rz).value
    assert bits(got) == bits(oracle_reference((1,), rz)) == bits(0j)


def test_reflection_norms_match_lapack():
    # agreement_bound's closed-form 2-norms against LAPACK's SVD of the
    # reflections, to 4 ulp; at side lengths 9, 9.5, 10 the norms reach 2e4
    points = [*BIT_POINTS.values(),
              TriangleParams(0.3, 0.7, 2.5).with_t(0.4),
              TriangleParams(0.0, 1.0, 1.0).with_cos_alpha(-0.5),
              TriangleParams.from_lengths(9.0, 9.5, 10.0).with_t(0.8)]
    for p in points:
        rz = realize(p)
        for c, m in zip(rz.c, rz.iotas):
            got = traces._reflection_norm(c)
            want = float(np.linalg.norm(m, 2))
            assert type(got) is float
            assert abs(got - want) <= 4 * math.ulp(want), (p, got, want)


def test_constants_follow_interleaved_parameter_sets():
    a = BIT_POINTS["456"]
    b = BIT_POINTS["ultra"]
    a2 = a.with_t(2.5)  # same radii, another alpha
    traces._constants.cache_clear()
    ws = [(1, 2, 3), (1, 2, 1, 3, 2, 3), (1, 2, 3, 1, 3, 2, 1, 2, 3, 2, 3, 1)]
    for p in (a, b, a, a2, a, a2):
        for w in ws:
            poly = trace_polynomial(w)
            assert route_bits(w, p, poly) == reference_bits(w, p, poly)
    assert traces._constants.cache_info().currsize == 3


def test_negative_zero_radius_is_zero():
    # a radius of -0.0 is stored as 0.0, so the two share their constants
    pos = TriangleParams(0.0, 1.0, 1.0, alpha=1.0)
    neg = TriangleParams(-0.0, 1.0, 1.0, alpha=1.0)
    assert neg == pos and bits(neg.r1) == bits(0.0)
    ez = cmath.exp(1j * pos.alpha / 3.0)
    want = [[list(map(bits, row)) for row in m.tolist()] for m in
            -transfer_matrices((-2.0, -2.0, -2.0), pos.r, ez, ez.conjugate())]
    for p in (pos, neg):
        assert [[list(map(bits, row)) for row in m.tolist()]
                for m in _constants(_key(p))[0]] == want
    for w in classes_up_to(6):
        assert route_bits(w, neg) == route_bits(w, pos) == reference_bits(w, pos)


def test_powers_out_of_range_fail_only_where_used():
    # X1 = 4e14: X1^j overflows from j = 22 on, and at r1 = 1e160 the betas'
    # r1^2 does; a call that needs none of those powers keeps its value
    big = TriangleParams(1e7, 2.0, 3.0, alpha=1.0)
    short, long_ = trace_polynomial((1, 2, 3)), trace_polynomial((2, 3) * 24)
    assert bits(short.evaluate(big)) == bits(evaluate_reference(short, big))
    for call in (lambda: long_.evaluate(big),
                 lambda: evaluate_reference(long_, big)):
        with pytest.raises(OverflowError):
            call()
    huge = TriangleParams(1e160, 1.0, 1.0, alpha=0.5)
    w = (1, 2, 3, 1, 3, 2)
    with np.errstate(over="ignore", invalid="ignore"):  # the product overflows
        assert bits(trace_combinatorial(w, huge).value) == bits(
            transfer_reference(w, huge, (-2.0,) * 3, negate=True))
    with pytest.raises(OverflowError):
        trace_recursive(w, huge)


# t = cot(alpha / 2) along the canonical path of (4,5,6), and a second radii
# triple to alternate with it
PATH = TriangleParams.from_signature(4, 5, 6)
PATH_TS = [i / 40 for i in range(200)]
OTHER_RADII = TriangleParams.from_lengths(1.0, 1.5, 2.0)


def test_evaluate_along_the_path_equals_reference_bits():
    for w in (*classes_up_to(8), (2, 3) * 24, (1, 2, 3) * 16):
        poly = trace_polynomial(w)
        for t in PATH_TS:
            p = PATH.with_t(t)
            assert bits(poly.evaluate(p)) == bits(evaluate_reference(poly, p)), w
        for i, t in enumerate(PATH_TS):
            p = (OTHER_RADII if i % 2 else PATH).with_t(t)
            assert bits(poly.evaluate(p)) == bits(evaluate_reference(poly, p)), w


def test_evaluate_sums_each_coefficient_once_per_radii():
    # after the first call on these radii the coefficients are never read:
    # swap them for a mapping that raises when it is
    class Unread(Mapping):
        def __getitem__(self, *_):
            raise AssertionError("P_w was summed again on the same radii")

        __iter__ = __len__ = __getitem__

    originals = [trace_polynomial(w) for w in
                 ((1, 2, 1, 3, 2, 3), (2, 3) * 24, (1, 2, 3) * 16)]
    polys = [TracePolynomial(o.word, o.n, o.coeffs) for o in originals]
    for poly in polys:
        poly.evaluate(PATH.with_t(PATH_TS[0]))
        object.__setattr__(poly, "coeffs", Unread())
    for t in PATH_TS[1:11]:
        p = PATH.with_t(t)
        for poly, original in zip(polys, originals):
            assert bits(poly.evaluate(p)) == bits(evaluate_reference(original, p))


def test_failed_evaluate_leaves_no_radii_behind():
    big = TriangleParams(1e7, 2.0, 3.0, alpha=1.0)  # X1^24 overflows
    sane = BIT_POINTS["456"]
    long_ = trace_polynomial((2, 3) * 24)
    with pytest.raises(OverflowError):
        long_.evaluate(big)
    assert bits(long_.evaluate(sane)) == bits(evaluate_reference(long_, sane))
    with pytest.raises(OverflowError):
        long_.evaluate(big)


def test_mu_factors_refuse_nan():
    p = BIT_POINTS["456"]
    mus = (math.nan, 1j, -1)
    with pytest.raises(ValueError):
        trace_mu_combinatorial((1, 2, 3), p, mus)
    with pytest.raises(TriangleError):
        trace_mu((1, 2, 3), realize(p), mus)


def test_mu_routes_read_their_factors_once():
    p = BIT_POINTS["456"]
    rz = realize(p)
    w = (1, 2, 3, 1, 3, 2)
    assert trace_mu_combinatorial(w, p, iter(BIT_MUS)) == \
        trace_mu_combinatorial(w, p, BIT_MUS)
    assert trace_mu(w, rz, iter(BIT_MUS)) == trace_mu(w, rz, BIT_MUS)


@pytest.mark.parametrize("mus", [BIT_MUS[:2], BIT_MUS + (1j,)],
                         ids=["two", "four"])
def test_mu_routes_take_exactly_three_factors(mus):
    p = BIT_POINTS["456"]
    for call in (lambda: trace_mu_combinatorial((1, 2, 3), p, mus),
                 lambda: trace_mu((1, 2, 3), realize(p), mus)):
        with pytest.raises(ValueError, match="three"):
            call()


def test_constants_keep_their_errors():
    loose = TriangleParams(0.9, 0.9, 0.9)
    poly = trace_polynomial((1, 2, 3))
    for call in (lambda: trace_combinatorial((1, 2, 3), loose),
                 lambda: trace_mu_combinatorial((1, 2, 3), loose, BIT_MUS),
                 lambda: trace_recursive((1, 2, 3), loose),
                 lambda: poly.evaluate(loose)):
        with pytest.raises(TriangleError):
            call()
    tiny = TriangleParams(1e-17, 0.9, 0.9, alpha=2.9)
    trace_combinatorial((1, 2, 3), tiny)  # caches the Gram of tiny
    with pytest.raises(ZeroRadiusUnsupported):
        trace_recursive((1, 2, 3), tiny)
