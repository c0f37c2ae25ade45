"""Shared draw helpers, word counts and inverses, projective points, the
brute-force class list, scan rows, the stacked-product and alternation
references, reference polynomial arithmetic, the reference deletion
recursion and its plan, the per-call trace routes, subset expansion and
matrix products, exact substitution and the 60-digit verdicts, the
reference per-word ring check, the per-row ring verdicts and JSON rows, and
the closed forms and checks that only the tests call (the sigma bound, the
family c_A shortcut, Brehm's sigma, Hakim-Sandler's eta, the U(2,1) test
and random element, reduction and straightening of cyclic words, the
canonical alpha, a realization's moved copy and invariant checks, and the
explicit (p1, p2, inf) realization)."""

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from chtg.arithmetic import (INTEGER_ENTRIES, BasisExpansion, BasisRingVerdict,
                             IntegralityVerdict,
                             _conjugate_points, _power_basis_pinv,
                             cos_two_pi_over)
from chtg.analysis import thresholds
from chtg.classify import (BOUNDARY_NON_UNIPOTENT, HYPERBOLIC,
                           REGULAR_ELLIPTIC, UNIPOTENT)
from chtg.linalg import J, herm
from chtg.traces import (_EPS, ZeroRadiusUnsupported, _cancel_adjacent,
                         _fourier_terms, sigma_closed,
                         trace_combinatorial, trace_polynomial,
                         transfer_matrices)
from chtg.triangle import (TWO_PI, IdealVertexDegenerate, TriangleError,
                           TriangleParams, TriangleRealization, _chart_parallel)
from chtg.words import (LETTERS, canonical, chi, enumerate_words, psi,
                        v_count, winding)


def draw_params(rng, lo=0.55, hi=1.1, margin=0.03, cos_floor=-0.98):
    """Random valid parameters: radii in [lo, hi], cos(alpha) safely below
    the existence bound, both alpha branches exercised."""
    while True:
        r = rng.uniform(lo, hi, 3)
        bound = (float(np.sum(r * r)) - 1.0) / (2.0 * float(np.prod(r)))
        top = min(bound - margin, 0.98)
        if top < cos_floor + 0.01:
            continue
        c = rng.uniform(cos_floor, top)
        alpha = math.acos(c)
        if rng.random() < 0.5:
            alpha = 2.0 * math.pi - alpha
        return TriangleParams(*map(float, r), alpha=alpha)


def draw_word(rng, max_len, min_len=0):
    n = int(rng.integers(min_len, max_len + 1))
    return tuple(int(x) for x in rng.integers(1, 4, n))


def u_count(k: int, word) -> int:
    """Number of cyclically adjacent pairs of the word equal to {k-1, k+1}."""
    n = len(word)
    if n == 0:
        return 0
    return sum(psi(k, word[m], word[(m + 1) % n]) for m in range(n))


def n_count(k: int, word) -> int:
    """Number of occurrences of the letter k."""
    return sum(1 for a in word if a == k)


def power_word(base, w: int):
    """base^w; negative powers reverse the word."""
    if w >= 0:
        return tuple(base) * w
    return tuple(reversed(base)) * (-w)


def inverse(word):
    """Word of the inverse element (the generators are involutions)."""
    return tuple(reversed(word))


class ProjPoint:
    """Point of the projectivisation P(C^{2,1}).

    The stored representative is normalised so that its last nonzero
    coordinate (checking z3, then z2, then z1) equals 1.
    """

    __slots__ = ("rep",)

    def __init__(self, v, zero_tol: float = 1e-12):
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


def classes_up_to(max_len):
    """enumerate_words(max_len) as one list of tuples, in its order."""
    return [tuple(w) for ws in enumerate_words(max_len) for w in ws.tolist()]


@dataclass(frozen=True)
class ScanRow:
    """One class of a scan block, to look rows up by word."""

    word: tuple
    tau: complex
    rho: float
    verdict: str
    filtered: bool


def scan_rows(blocks):
    """The rows of scan_elliptic's blocks, in order."""
    return [ScanRow(*row) for b in blocks for row in zip(
        map(tuple, b.words.tolist()), b.tau.tolist(), b.rho.tolist(),
        b.verdict.tolist(), b.filtered.tolist())]


def stacked_traces(words, mats):
    """tr(M_{a_1} ... M_{a_n}) for each of equal-length words, with M_1, M_2,
    M_3 on the third-to-last axis of mats and any leading points: one stack
    multiplied one letter position at a time from the identity, as
    trace_oracle multiplies one word.  The reference for the prefix pass."""
    mats = np.asarray(mats, dtype=complex)
    a = np.array(words, dtype=np.intp).reshape(len(words), -1 if len(words) else 0)
    m = np.broadcast_to(np.eye(3, dtype=complex), (*mats.shape[:-3], len(a), 3, 3))
    for i in range(a.shape[1]):
        m = m @ mats[..., a[:, i] - 1, :, :]
    return np.trace(m, axis1=-2, axis2=-1)


def brute_classes(n, cyclically_reduced=True):
    """The classes of length n, sorted: min(canonical(w), canonical(inverse(w)))
    over every word, or over the cyclically reduced ones (no two cyclically
    adjacent letters equal; a single letter counts as reduced)."""
    if cyclically_reduced:
        # build the reduced words letter by letter rather than filter 3^n
        ws = [(a,) for a in (1, 2, 3)]
        for _ in range(n - 1):
            ws = [w + (a,) for w in ws for a in (1, 2, 3) if a != w[-1]]
        ws = [w for w in ws if n == 1 or w[0] != w[-1]]
    else:
        ws = itertools.product((1, 2, 3), repeat=n)
    return sorted({min(canonical(w), canonical(inverse(w))) for w in ws})


def _alternation_index(word):
    """k if the cyclic word is an alternating power of {k-1, k+1}, else None.

    The reference for scan_elliptic's alternation filter, for any word."""
    n = len(word)
    if n < 2 or n % 2:
        return None
    letters = set(word)
    if len(letters) != 2:
        return None
    if any(word[m] != word[(m + 2) % n] for m in range(n)):
        return None
    a, b = letters
    return 6 - a - b


def poly_mul(a: dict, b: dict) -> dict:
    """Product of polynomials {(j1, j2, j3): coefficient} in X1, X2, X3."""
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = (ma[0] + mb[0], ma[1] + mb[1], ma[2] + mb[2])
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c != 0}


def poly_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) - c
    return {m: c for m, c in out.items() if c != 0}


def trace_mu_polynomial(word, params, mus) -> dict:
    """Fourier coefficients q_w of the mu-expansion, as complex numbers."""
    r1, r2, r3 = params.r
    factors = tuple(complex(mu) - 1.0 for mu in mus)
    q: dict = {}
    for w, (u1, u2, u3), c in _fourier_terms(word, factors):
        q[w] = q.get(w, 0.0 + 0j) + c * r1 ** u1 * r2 ** u2 * r3 ** u3
    return q


def least_rotation(word) -> tuple:
    """The least of all rotations of word, by brute force."""
    word = tuple(word)
    return min((word[s:] + word[:s] for s in range(len(word))), default=())


def _join(head, tail):
    """_cancel_adjacent(head + tail) when head and tail are each reduced:
    equal letters can only cancel in pairs across the junction."""
    m = len(head)
    k = 0
    while k < len(tail) and k < m and head[m - 1 - k] == tail[k]:
        k += 1
    return head[:m - k] + tail[k:]


def deletion_terms(a):
    """The seven reduced words the recursion expands a reduced word a of
    length >= 3 into: a[:-1], head + a[-2:] and head + (a[-2],) carry -1;
    a[:-2] + a[-1:], a[:-2], head + a[-1:] and head carry beta."""
    head = a[:-3]
    y, z = a[-2:]
    return (a[:-1], _join(head, (y, z)), _join(head, (y,)),
            _join(a[:-2], (z,)), a[:-2], _join(head, (z,)), head)


# the tails of reduced words, in the order the plan's step ops index them
REFERENCE_TAILS = tuple(t for t in itertools.product(LETTERS, repeat=3)
                        if t[0] != t[1] != t[2])


def _deletion_walk(word):
    """(a, kids) for each reduced linear word a the recursion reaches, in
    post-order on an explicit stack, with a's deletion_terms as kids, or
    None for a word shorter than 3; the last is the word itself."""
    done = set()
    stack = [(_cancel_adjacent(least_rotation(word)), None)]
    while stack:
        a, kids = stack[-1]
        if kids is None:
            if a in done:
                stack.pop()
                continue
            if len(a) < 3:
                stack.pop()
                done.add(a)
                yield a, None
                continue
            kids = deletion_terms(a)
            stack[-1] = (a, kids)
            stack.extend((c, None) for c in kids if c not in done)
            continue
        stack.pop()
        done.add(a)
        yield a, kids


def reference_plan(word) -> tuple:
    """The recursion plan built over word tuples: the (steps, result slot)
    that traces._recursion_plan must equal step for step.  A word shorter
    than 3 has its base value's slot 0-4; step i fills slot 5 + i."""
    slots = {}
    steps = []
    for a, kids in _deletion_walk(word):
        if kids is None:
            slots[a] = len(a) if len(a) < 2 else 7 - a[0] - a[1]
        else:
            slots[a] = 5 + len(steps)
            steps.append((REFERENCE_TAILS.index(a[-3:]),
                          *(slots[c] for c in kids)))
    return tuple(steps), slots[a]


def recursive_reference(word, params) -> complex:
    """The deletion recursion memoised in a dict of reduced linear words:
    the per-call form that trace_recursive must equal bit for bit."""
    params._need_alpha()
    r = params.r
    if min(r) <= _EPS:
        raise ZeroRadiusUnsupported("recursion undefined at r_k = 0")
    r1, r2, r3 = r
    ei = cmath.exp(1j * params.alpha)
    memo = {}
    for a, kids in _deletion_walk(word):
        n = len(a)
        if n == 0:
            memo[a] = 3.0 + 0j
        elif n == 1:
            memo[a] = -1.0 + 0j
        elif n == 2:
            rm = r[6 - a[0] - a[1] - 1]  # the letter completing {a0, a1}
            memo[a] = complex(4.0 * rm * rm - 1.0)
        else:
            t = a[-3:]
            beta = 2.0 * r1 ** v_count(1, t) * r2 ** v_count(2, t) \
                * r3 ** v_count(3, t) * ei ** winding(t) - 1.0
            v = [memo[c] for c in kids]
            memo[a] = -(v[0] + v[1] + v[2]) + beta * (v[3] + v[4] + v[5] + v[6])
    return memo[a]


def expand_reference(word, factors, gram):
    """tr prod_k (I + f_{a_k} E_{a_k} G) by rank-one row updates from I, in
    Python complex arithmetic: the subset expansion per call, independent of
    the matrix products of traces."""
    m = [[1.0 + 0j, 0j, 0j], [0j, 1.0 + 0j, 0j], [0j, 0j, 1.0 + 0j]]
    for a in word:
        f = factors[a - 1]
        g0, g1, g2 = gram[a - 1]
        for row in m:
            t = row[a - 1] * f
            row[0] += t * g0
            row[1] += t * g1
            row[2] += t * g2
    return m[0][0] + m[1][1] + m[2][2]


def gram_reference(r, zp, zn):
    """G_ab = r_m z^{chi(b - a)}, m the letter completing {a, b}, and
    G_aa = 1, with z = zp and 1 / z = zn, as nested lists."""
    z = {-1: zn, 0: 1.0, 1: zp}
    return [[1.0 if a == b else r[5 - a - b] * z[chi(b - a)] for b in LETTERS]
            for a in LETTERS]


def transfer_reference(word, params, factors, negate=False) -> complex:
    """np.trace of the word's product of transfer_matrices (negated with
    ``negate``), built for this call at z = e^{i alpha / 3}: the form
    trace_combinatorial (factors -2, negated: the kernel) and
    trace_mu_combinatorial must equal."""
    params._need_alpha()
    ez = cmath.exp(1j * params.alpha / 3.0)
    mats = transfer_matrices(factors, params.r, ez, ez.conjugate())
    return complex(np.trace(product_reference(-mats if negate else mats, word)))


def product_reference(mats, word) -> np.ndarray:
    """The word's product of mats[a - 1] from a fresh np.eye(3), one @ per
    letter: the loop whose bits word_matrix's faster products must keep."""
    m = np.eye(3, dtype=complex)
    for a in word:
        m = m @ mats[a - 1]
    return m


def oracle_reference(word, realization) -> complex:
    """np.trace of the word's matrix: the form trace_oracle must equal."""
    return complex(np.trace(product_reference(realization.iotas, word)))


def substituted(poly, xs, zp, zn) -> dict:
    """w -> P_w(xs) zp^w for w >= 0 and P_w(xs) zn^{-w} for w < 0, for a
    TracePolynomial.

    With X_k = 4 r_k^2 and (zp, zn) = 8 R e^{+-i alpha} the values are
    the terms q_w e^{i alpha w}; integer arguments keep it exact.
    """
    x1, x2, x3 = xs
    return {w: sum(c * x1 ** j1 * x2 ** j2 * x3 ** j3
                   for (j1, j2, j3), c in p.items())
            * (zp ** w if w >= 0 else zn ** -w)
            for w, p in poly.coeffs.items()}


def ideal_sum(poly) -> int:
    """Exact integer value of sum_w q_w at r1 = r2 = r3 = 1."""
    return sum(substituted(poly, (4, 4, 4), 8, 8).values())


def evaluate_reference(poly, params) -> complex:
    """TracePolynomial.evaluate through substituted: the form the compiled
    evaluate must equal bit for bit."""
    params._need_alpha()
    z = 8.0 * params.r_product * cmath.exp(1j * params.alpha)
    xs = tuple(4.0 * r * r for r in params.r)
    total = sum(substituted(poly, xs, z, z.conjugate()).values())
    return (-1.0) ** poly.n * (2.0 + total)


def verdict_reference(word, params, tol=1e-9):
    """(tau, rho, verdict) at 60 digits: the word's exact Fourier data
    evaluated in mpmath at the same float parameters, classified by
    classify's rules.  Independent of every float product; needs mpmath."""
    import mpmath
    with mpmath.workdps(60):
        r = [mpmath.mpf(x) for x in params.r]
        z = 8 * r[0] * r[1] * r[2] * mpmath.expj(mpmath.mpf(params.alpha))
        terms = substituted(trace_polynomial(word), [4 * x * x for x in r], z,
                            mpmath.conj(z))
        tau = (-1) ** len(word) * (2 + mpmath.fsum(terms.values()))
        a2 = abs(tau) ** 2
        rho = a2 * a2 - 8 * (tau ** 3).real + 18 * a2 - 27
        if rho < -tol:
            verdict = REGULAR_ELLIPTIC
        elif rho > tol:
            verdict = HYPERBOLIC
        elif abs(tau ** 3 - 27) <= tol:
            verdict = UNIPOTENT
        else:
            verdict = BOUNDARY_NON_UNIPOTENT
        return +tau, +rho, verdict


def conjugate_traces_reference(group, word, q):
    """(tau, tau-bar) at each Galois conjugate, m = 1 first, one scalar
    expand_reference run per pair member: the per-word loop that the stacked
    group_conjugate_traces must match to rounding."""
    sign = (-1.0) ** len(word)
    pairs = []
    for x in _conjugate_points(q):
        xs = [(2.0 + x) if p == q else 4.0 * math.cos(math.pi / p) ** 2
              for p in group.signature]
        cn = x / 2.0 if group.n == q else cos_two_pi_over(group.n)
        s_val = xs[0] * xs[1] + xs[2] - 2.0 - 2.0 * cn
        q_val = xs[0] * xs[1] * xs[2]
        z = (s_val + cmath.sqrt(complex(s_val * s_val - 4.0 * q_val))) / 2.0
        r = [math.sqrt(xk) / 2.0 for xk in xs]
        zp = (z / math.sqrt(q_val)) ** (1.0 / 3.0)
        pairs.append(tuple(
            sign * expand_reference(word, (-2.0,) * 3, gram_reference(r, a, b))
            for a, b in ((zp, 1.0 / zp), (1.0 / zp, zp))))
    return pairs


def _expansion_reference(values, q, tol):
    """One word's power-basis solve, rounding and m = 1 residual."""
    pts = _conjugate_points(q)
    sol = _power_basis_pinv(q) @ np.asarray(values, dtype=float)
    coeffs = tuple(int(c) for c in np.rint(sol))
    approx = sum(c * pts[0] ** j for j, c in enumerate(coeffs))
    residual = abs(values[0] - approx)
    return BasisExpansion(bool(residual <= tol), coeffs, residual,
                          float(values[0]))


def ring_check_reference(group, word, tol=1e-7):
    """group_ring_check one word at a time: trace_combinatorial and Python
    rounding for all-{3,4,6,inf} groups, else the scalar conjugate loop and
    one solve per word."""
    specials = sorted({*group.signature, group.n} - set(INTEGER_ENTRIES))
    if not specials:
        tau = trace_combinatorial(word, group.params).value
        two_re, abs_sq = 2.0 * tau.real, abs(tau) ** 2
        res1, res2 = abs(two_re - round(two_re)), abs(abs_sq - round(abs_sq))
        return IntegralityVerdict(res1 <= tol and res2 <= tol,
                                  two_re, abs_sq, res1, res2)
    (q,) = map(int, specials)
    pairs = conjugate_traces_reference(group, word, q)
    e1 = _expansion_reference([(t + tb).real for t, tb in pairs], q, tol)
    e2 = _expansion_reference([(t * tb).real for t, tb in pairs], q, tol)
    return BasisRingVerdict(q, e1.ok and e2.ok, e1, e2)


def verdict_rows(v):
    """The per-word verdicts, as Python values, of ring verdict columns,
    built row by row from lists as the per-row verdict functions built them."""
    if isinstance(v, IntegralityVerdict):
        return [IntegralityVerdict(*row) for row in zip(*(c.tolist() for c in v))]
    e1, e2 = ([BasisExpansion(ok, tuple(map(int, cs)), res, value)
               for ok, cs, res, value in zip(
                   e.ok.tolist(), e.coefficients.T.tolist(),
                   e.residual.tolist(), e.value.tolist())]
              for e in (v.two_re, v.abs_sq))
    return [BasisRingVerdict(v.q, a.ok and b.ok, a, b) for a, b in zip(e1, e2)]


def ring_row_dict(word, v) -> dict:
    """A ring-check JSON row as the per-row verdicts' to_json_dict gave it:
    the reference for the row templates."""
    if isinstance(v, IntegralityVerdict):
        return {"word": word, "ok": v.ok, "two_re": v.two_re,
                "abs_sq": v.abs_sq, "two_re_residual": v.two_re_residual,
                "abs_sq_residual": v.abs_sq_residual}
    return {"word": word, "q": v.q, "ok": v.ok, "experimental": v.experimental,
            **{name: {"ok": e.ok, "coefficients": list(e.coefficients),
                      "residual": e.residual}
               for name, e in (("two_re", v.two_re), ("abs_sq", v.abs_sq))}}


def sigma_lower_bound_check(r, alpha_samples: int = 100) -> bool:
    """sigma_k > -1 over an alpha sweep.

    The bound can fail only at 2 r_{k-1} r_{k+1} = r_k with cos(alpha) = 1;
    those sample points are skipped.
    """
    for alpha in np.linspace(0.0, TWO_PI, alpha_samples, endpoint=False):
        p = TriangleParams(*r, alpha=float(alpha))
        for k in (1, 2, 3):
            # r_{k-1}, r_{k+1} with 1-based labels
            rm = r[(k - 2) % 3]
            rp = r[k % 3]
            if (abs(2.0 * rm * rp - r[k - 1]) <= 1e-9
                    and p.cos_alpha >= 1.0 - 1e-12):
                continue
            if sigma_closed(p, k) <= -1.0 + 1e-12:
                return False
    return True


def family_c_a_printed(r) -> float:
    """The family shortcut for c_A: 1 - sin^2(phi1 + phi2) / (4R) in the angle
    case, 1 + sinh^2(l1 - l2) / (4R) in the ultra-parallel case (as printed;
    see family_c_a_report for the cross-check against the general formula)."""
    r1, r2, r3 = r
    big_r = r1 * r2 * r3
    if r1 <= 1.0 and r2 <= 1.0:
        phi1 = math.acos(min(r1, 1.0))
        phi2 = math.acos(min(r2, 1.0))
        return 1.0 - math.sin(phi1 + phi2) ** 2 / (4.0 * big_r)
    if r1 >= 1.0 and r2 >= 1.0:
        l1 = 2.0 * math.acosh(r1)
        l2 = 2.0 * math.acosh(r2)
        return 1.0 + math.sinh(l1 - l2) ** 2 / (4.0 * big_r)
    raise ValueError("family shortcut needs r1, r2 on the same side of 1")


def family_c_a_report(params: TriangleParams, tol: float = 1e-9) -> dict:
    """Compare the printed family shortcut for c_A with the general formula.

    Any mismatch is surfaced, not reconciled: the dict carries both values,
    a consistency flag, and (in the ultra-parallel case) the half-argument
    variant sinh^2((l1 - l2)/2) which does agree with the general formula.
    """
    r = params.r
    general = thresholds(params).c_a
    printed = family_c_a_printed(r)
    out = {"printed": printed, "general": general,
           "consistent": abs(printed - general) <= tol}
    if r[0] > 1.0 and r[1] > 1.0:
        l1 = 2.0 * math.acosh(r[0])
        l2 = 2.0 * math.acosh(r[1])
        big_r = r[0] * r[1] * r[2]
        out["half_argument"] = 1.0 + math.sinh((l1 - l2) / 2.0) ** 2 / (4.0 * big_r)
    return out


def brehm_sigma_closed(params: TriangleParams) -> float:
    """Closed form of the shape invariant in (r1, r2, r3, alpha)."""
    params._need_alpha()
    r1, r2, r3 = params.r
    den = (1.0 - r1 * r1) * (1.0 - r2 * r2) * (1.0 - r3 * r3)
    if abs(den) <= 1e-12:
        raise IdealVertexDegenerate("shape invariant undefined at r_k = 1")
    rr = params.r_product
    q = r1 * r1 * r2 * r2 + r2 * r2 * r3 * r3 + r3 * r3 * r1 * r1
    num = (rr * rr * math.cos(2.0 * params.alpha)
           - rr * (r1 * r1 + r2 * r2 + r3 * r3 + 1.0) * params.cos_alpha
           + q)
    return num / den


def hakim_sandler_eta_closed(params: TriangleParams) -> complex:
    """Closed form of eta in the invariants, from the vertex pairing formulas."""
    params._need_alpha()
    r1, r2, r3 = params.r
    if abs(r1 - 1.0) <= 1e-9:
        raise IdealVertexDegenerate("eta undefined at r1 = 1")
    e = cmath.exp(1j * params.alpha)
    den = (r1 - r2 * r3 / e) * (r1 * r1 - 1.0)
    if abs(den) <= 1e-12:
        raise IdealVertexDegenerate("eta denominator vanishes")
    return (r2 - r1 * r3 * e) * (r3 - r1 * r2 * e) / (e * den)


def in_u21(m, tol: float = 1e-12) -> bool:
    """Whether M^* J M = J holds entrywise within tol."""
    return bool(np.max(np.abs(np.conj(m.T) @ J @ m - J)) <= tol)


def random_u21(rng, scale: float = 0.5) -> np.ndarray:
    """Random element of U(2,1), the exponential of a J-skew matrix.

    X = J S with S skew-Hermitian satisfies X^* J + J X = 0, so exp(X)
    preserves the form.  exp(X) is taken by scaling and squaring (Moler and
    Van Loan, SIAM Review 45, 2003): halve X k times until ||X||_1 <= 1/2,
    where the Taylor series through X^18 / 18! leaves a remainder below
    1e-22, then square k times.
    """
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    x = J @ (scale * (a - np.conj(a.T)))
    k = 0
    while np.abs(x).sum(axis=0).max() > 0.5:
        x = x / 2.0
        k += 1
    term = out = np.eye(3, dtype=complex)
    for j in range(1, 19):
        term = term @ x / j
        out = out + term
    for _ in range(k):
        out = out @ out
    return out


def reduce_straighten(word):
    """Fully reduce a cyclic word; returns (canonical result, steps).

    Repeatedly applies reduction (..., k, k, ...) -> (..., k, ...) and
    straightening (..., k, l, k, ...) -> (..., k, ...) on the cyclic word,
    reduction first, leftmost site first, until neither applies.  Both moves
    preserve the winding number, and the terminal word is (1,2,3)^w where
    w is the winding number of the input.  Degenerate small words wrap onto
    themselves: (k) reduces to the empty word and (k, l) straightens to (k).

    ``steps`` is the list of (rule, word-after-step) pairs.
    """
    w = tuple(word)
    steps = []
    while True:
        n = len(w)
        if n == 0:
            break
        site = None
        if n == 1:
            site = 0  # the single letter is cyclically adjacent to itself
        else:
            for m in range(n):
                if w[m] == w[(m + 1) % n]:
                    site = m
                    break
        if site is not None:
            drop = (site + 1) % n if n > 1 else 0
            w = tuple(x for i, x in enumerate(w) if i != drop)
            steps.append(("reduce", w))
            continue
        if n == 2:
            w = (w[0],)  # (k, l) wraps onto the pattern k, l, k
            steps.append(("straighten", w))
            continue
        site = None
        if n >= 3:
            for m in range(n):
                if w[m] == w[(m + 2) % n]:
                    site = m
                    break
        if site is None:
            break
        drop = {(site + 1) % n, (site + 2) % n}
        w = tuple(x for i, x in enumerate(w) if i not in drop)
        steps.append(("straighten", w))
    return canonical(w), steps


def canonical_alpha(params: TriangleParams) -> float:
    """The representative of {alpha, 2 pi - alpha} lying in (0, pi]."""
    params._need_alpha()
    a = params.alpha
    return a if 0.0 < a <= math.pi else TWO_PI - a


def transformed(rz: TriangleRealization, u) -> TriangleRealization:
    """The realization with every polar vector moved by u (in U(2,1))."""
    return TriangleRealization.from_polar_vectors(
        u @ rz.c1, u @ rz.c2, u @ rz.c3, rz.params)


def verify(rz: TriangleRealization, tol: float = 1e-10) -> TriangleRealization:
    """Check the construction invariants; returns rz or raises."""
    for c in rz.c:
        if abs(herm(c, c) - 1.0) > tol:
            raise TriangleError("polar vector not normalised")
    for m in rz.iotas:
        if np.max(np.abs(m @ m - np.eye(3))) > 1e-9:
            raise TriangleError("reflection is not involutive")
        if np.max(np.abs(np.conj(m.T) @ J @ m - J)) > 1e-9:
            raise TriangleError("reflection does not preserve the form")
    if rz.params is not None and rz.params.alpha is not None:
        for got, want in zip(rz.r, rz.params.r):
            if abs(got - want) > tol:
                raise TriangleError("side invariant not recovered")
        d = (rz.alpha - rz.params.alpha) % TWO_PI
        if min(d, TWO_PI - d) > tol:
            raise TriangleError("angular invariant not recovered")
    return rz


def realize_pinfty(p1, p2, alpha) -> TriangleRealization:
    """Explicit (p1, p2, inf) realization in the asymptotic chart.

    The pairings come out as <c1,c3> = r2 e^{i alpha/2}, <c2,c1> = 1 and
    <c3,c2> = r1 e^{i alpha/2}, with vertices [-r1 e^{i alpha/2} : 0 : 1],
    [-r2 e^{-i alpha/2} : 0 : 1] and [0 : 1 : -1].
    """
    for p in (p1, p2):
        if p != math.inf and (p != p or p < 3):
            raise TriangleError("asymptotic chart needs p1, p2 >= 3")
    r1 = math.cos(math.pi / p1)
    r2 = math.cos(math.pi / p2)
    d = _chart_parallel(r1, r2, alpha)
    params = TriangleParams(r1, r2, 1.0, alpha=alpha, p=(p1, p2, math.inf))
    return TriangleRealization.from_polar_vectors(*d, params=params)
