"""Traces of words in the generating reflections, by three routes.

For a word a = (a_1, ..., a_n) over {1, 2, 3} and iota_a = iota_{a_1} ...
iota_{a_n}:

* ``trace_oracle`` multiplies the 3x3 matrices of a realization and takes
  the trace;
* ``trace_combinatorial`` multiplies the kernel below, whose product is the
  expansion of prod(-id + 2 c_k c_k^*) over subsets S of the letter positions,

      tau_a = (-1)^n (2 + sum_S (-2)^{|S|} r1^{u1(S)} r2^{u2(S)} r3^{u3(S)}
                              e^{i alpha w(S)}),

  with u_k and the winding number w evaluated on the chosen subsequence
  closed cyclically (the empty subset contributes 1);
* ``trace_recursive`` peels off the last three letters with the deletion
  operators; base traces are tau() = 3, tau(k) = -1, tau(k,l) = 4 r_m^2 - 1
  for the letter m completing {k, l}, and tau(k,k) = 3.  The words the
  recursion reaches depend only on the word, so ``_recursion_plan`` lists
  them once, with no parameters, in an LRU cache of the plans of 1024 words
  of at most 64 letters (a longer word's plan is built per call); each call
  is one numeric pass over the plan.  Each word reached is a prefix of the
  reduced canonical word plus a tail of at most two letters, keyed by
  (prefix length, tail), so the plan is linear in the word length.

The kernel and the recursion's base values and betas are computed once per
(r1, r2, r3, alpha), in one LRU cache keyed by the values of those floats.

The subset sum is never enumerated.  In the balanced gauge the polar vectors
have the Gram matrix G with G_kk = 1 and G_ab = r_m z^{chi(b - a)}, where
z = e^{i alpha / 3} and m is the letter completing {a, b}; the product of G
around a closed subsequence is r1^{u1} r2^{u2} r3^{u3} e^{i alpha w}.  With
E_a the projection onto row a, tr(E_{b_1} G ... E_{b_k} G) is that cyclic
product, so

      tr prod_k (I + f_{a_k} E_{a_k} G)
          = 3 + sum_{S nonempty} prod_{k in S} f_{a_k} r^{u(S)} e^{i alpha w(S)}.

``transfer_matrices`` builds the factors T_a = I + f_a E_a G as 3x3
matrices.  With f = -2 the trace is (-1)^n tau_a, so the kernel -T_a, kept
read-only per parameter set, multiplies to tau_a: ``trace_combinatorial``
multiplies it for one word and the prefix-product pass of
``words.enumerate_words`` for every class of ``scan`` or ``ring-check``.
With f = mu_k - 1 it is the trace of the mu-reflection word,

      tau_a = 2 + sum_S prod_k (mu_k - 1)^{n_k(S)} r_k^{u_k(S)}
                        e^{i alpha w(S)}.

Each T_a updates one row of what it multiplies; run over sparse polynomials
in (r1, r2, r3, z), the row updates give the Fourier data tau_a = (-1)^n
(2 + sum_w q_w e^{i alpha w}).  ``trace_polynomial`` stores each q_w exactly
as (8 r1 r2 r3)^{|w|} times an integer polynomial P_w in X_k = 4 r_k^2.
The canonical path moves only alpha, so ``TracePolynomial.evaluate`` keeps
each P_w(X), summed in ``coeffs`` order, for the radii of its last call; a
call at the same radii sums only P_w(X) z^w, its powers of z computed per call.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import herm
from .triangle import TWO_PI
from .words import LETTERS, canonical, chi, psi, v_count, winding, wrap

EXACT_CAP = 48
# safety factor of agreement_bound: the largest ratio of route disagreement
# to the bound without it, over signatures, side lengths and raw radii, was 3.6
_AGREEMENT_C = 64.0
_EPS = float(np.finfo(float).eps)
# f_k in tr prod (I + f_k E_k G) for the reflections; the product is (-1)^n tau
_REFLECTION_FACTORS = (-2.0, -2.0, -2.0)
# words _recursion_plan caches, at ~4 steps a letter: <= ~256k steps, 37 MiB
_PLAN_CACHE_LEN = 64


class CapExceeded(ValueError):
    """Word longer than the configured cost cap for this method."""


class ZeroRadiusUnsupported(ValueError):
    """The recursion needs all r_k > 0 (its coefficient has r_k^{-1} factors)."""


class TraceValue(NamedTuple):
    value: complex
    method: str


# exponents (u1, u2, u3, s) of the Gram entry G_ab = r1^u1 r2^u2 r3^u3 z^s
_GRAM_KEYS = tuple(tuple((*(psi(k, a, b) for k in LETTERS), chi(b - a))
                         for b in LETTERS) for a in LETTERS)
# _fourier_terms packs (u1, u2, u3, s) as u1 + _B (u2 + _B (u3 + _B s)); each
# u_k is at most the word's length, below _B, so a product's key is the sum
_B = 64
_GRAM_SHIFTS = tuple(tuple(u1 + _B * (u2 + _B * (u3 + _B * s))
                           for u1, u2, u3, s in row) for row in _GRAM_KEYS)


def transfer_matrices(factors, r, zp, zn) -> np.ndarray:
    """The three T_a = I + f_a E_a G, shape (3, 3, 3), at the Gram matrix
    G_ab = r_m z^{chi(b - a)} with z = zp, 1 / z = zn.  Row a of T_a is
    e_a + f_a G[a, :] and its other rows are the identity's, so the trace of
    a word's product of T's is tr prod_k (I + f E G)."""
    z = {-1: zn, 0: 1.0 + 0j, 1: zp}
    gram = np.array([[r[0] ** u1 * r[1] ** u2 * r[2] ** u3 * z[s]
                      for u1, u2, u3, s in row] for row in _GRAM_KEYS],
                    dtype=complex)
    t = np.repeat(np.eye(3, dtype=complex)[None], 3, axis=0)
    for a in range(3):
        t[a, a] += factors[a] * gram[a]
    return t


def _key(params) -> tuple:
    """(r1, r2, r3, alpha), which keys _constants."""
    params._need_alpha()
    return params.r1, params.r2, params.r3, params.alpha


# the 12 tails of reduced words, which the plan's step ops index, and their
# exponents (v1, v2, v3, winding) in the recursion's betas
_TAILS = tuple(t for t in itertools.product(LETTERS, repeat=3)
               if t[0] != t[1] != t[2])
_TAIL_EXPONENTS = tuple((*(v_count(k, t) for k in LETTERS), winding(t))
                        for t in _TAILS)


@functools.lru_cache(maxsize=256)
def _constants(key: tuple) -> tuple:
    """The kernel -T_a at z = e^{i alpha / 3}, three read-only 3x3 arrays;
    the recursion's base values (3, -1, 4 r_k^2 - 1); and its _TAILS betas
    (None at a zero or huge radius)."""
    *r, alpha = key
    r1, r2, r3 = r
    ez = cmath.exp(1j * alpha / 3.0)
    kernel = -transfer_matrices(_REFLECTION_FACTORS, r, ez, ez.conjugate())
    kernel.flags.writeable = False
    ei = cmath.exp(1j * alpha)
    base = (3.0 + 0j, -1.0 + 0j, complex(4.0 * r1 * r1 - 1.0),
            complex(4.0 * r2 * r2 - 1.0), complex(4.0 * r3 * r3 - 1.0))
    try:
        betas = tuple(2.0 * r1 ** v1 * r2 ** v2 * r3 ** v3 * ei ** w - 1.0
                      for v1, v2, v3, w in _TAIL_EXPONENTS)
    except (OverflowError, ZeroDivisionError):
        betas = None
    return tuple(kernel), base, betas


def _fourier_terms(word, factors):
    """The expansion as (w, (u1, u2, u3), c): q_w = sum c r1^u1 r2^u2 r3^u3."""
    word = tuple(word)
    if len(word) > EXACT_CAP:
        raise CapExceeded(f"word of length {len(word)} exceeds cap {EXACT_CAP}")
    # tr prod (I + f E G) by rank-one row updates from I, over sparse
    # polynomials {key: coefficient}; G's entries shift keys
    m = [[{0: 1} if i == j else {} for j in range(3)] for i in range(3)]
    for a in word:
        f, shifts = factors[a - 1], _GRAM_SHIFTS[a - 1]
        for row in m:
            t = [(key, c * f) for key, c in row[a - 1].items()]
            for entry, shift in zip(row, shifts):
                for key, c in t:
                    entry[key + shift] = entry.get(key + shift, 0) + c
    tr = m[0][0]
    for key, c in itertools.chain(m[1][1].items(), m[2][2].items()):
        tr[key] = tr.get(key, 0) + c
    # the trace counts the empty subset (key 0) 3 times, q_0 counts it once
    tr[0] -= 2
    for key, c in tr.items():
        key, u1 = divmod(key, _B)
        key, u2 = divmod(key, _B)
        s, u3 = divmod(key, _B)
        if s % 3:
            raise ArithmeticError("subset term with a fractional winding")
        yield s // 3, (u1, u2, u3), c


def trace_combinatorial(word, params) -> TraceValue:
    """Subset-expansion trace: the product of the cached kernel over the
    word, summed as words._trace sums, so a scan row's bits."""
    return TraceValue(_diagonal_sum(word_matrix(
        _constants(_key(params))[0], word)), "combinatorial")


def trace_mu_combinatorial(word, params, mus) -> TraceValue:
    """Subset-expansion trace for mu-reflection generators: the product of
    transfer_matrices with factors mu_k - 1 over the word."""
    mus = tuple(mus)
    if len(mus) != 3 or any(not abs(abs(mu) - 1.0) <= 1e-9 for mu in mus):
        raise ValueError("mu factors must be three unit complex numbers")
    *r, alpha = _key(params)
    ez = cmath.exp(1j * alpha / 3.0)
    mats = transfer_matrices([complex(mu) - 1.0 for mu in mus], r, ez,
                             ez.conjugate())
    return TraceValue(_diagonal_sum(word_matrix(mats, word)), "mu-combinatorial")


def poly_to_str(poly: dict) -> str:
    """Canonical text form of an integer polynomial in X1, X2, X3: total
    degree down, then each exponent down."""
    parts = []
    for mono in sorted(poly, key=lambda m: (-sum(m), tuple(-e for e in m))):
        coeff = poly[mono]
        if coeff == 0:
            continue
        body = "*".join(f"X{i + 1}" + (f"^{e}" if e > 1 else "")
                        for i, e in enumerate(mono) if e > 0)
        mag = abs(coeff)
        term = str(mag) if not body else body if mag == 1 else f"{mag}*{body}"
        sign = ("+ " if parts else "") if coeff > 0 else ("- " if parts else "-")
        parts.append(sign + term)
    return " ".join(parts) or "0"


@dataclass(frozen=True)
class TracePolynomial:
    """Exact Fourier data of a trace: tau = (-1)^n (2 + sum_w q_w e^{i alpha w}).

    ``coeffs[w]`` is an integer polynomial P_w in X_k = 4 r_k^2 (a dict
    monomial -> coefficient), with the implicit prefactor
    q_w = (8 r1 r2 r3)^{|w|} P_w.
    """

    word: tuple
    n: int
    coeffs: dict

    def support(self):
        return sorted(self.coeffs)

    @functools.cached_property
    def _path(self) -> list:
        """[(r1, r2, r3), ((w, P_w(X)), ...)] of the last evaluate: along the
        canonical path only alpha moves, so each P_w(X) is summed once."""
        return [None, ()]

    def evaluate(self, params) -> complex:
        """Reassemble tau at the given parameters: q_w e^{i alpha w} is P_w(X)
        z^w, or P_w(X) conj(z)^{-w} for w < 0, with z = 8 R e^{i alpha}.  An
        exponent that no word within EXACT_CAP has raises LookupError."""
        r1, r2, r3, alpha = _key(params)
        radii, pws = path = self._path
        if radii != (r1, r2, r3):
            if radii is None and any(abs(w) > EXACT_CAP // 3 or any(
                    not 0 <= j <= EXACT_CAP // 2 for mono in poly for j in mono)
                    for w, poly in self.coeffs.items()):
                raise LookupError("an exponent beyond EXACT_CAP's words")
            x1, x2, x3 = (4.0 * r * r for r in (r1, r2, r3))
            pws = tuple((w, sum(float(c) * x1 ** j1 * x2 ** j2 * x3 ** j3
                                for (j1, j2, j3), c in poly.items()))
                        for w, poly in self.coeffs.items())
            path[:] = (r1, r2, r3), pws
        z = 8.0 * (r1 * r2 * r3) * cmath.exp(1j * alpha)
        total = sum(pw * (z ** w if w >= 0 else z.conjugate() ** -w)
                    for w, pw in pws)
        return (-1.0) ** self.n * (2.0 + total)

    def to_json_dict(self) -> dict:
        rows = [{"w": w, "poly": poly_to_str(self.coeffs[w])}
                for w in self.support()]
        return {"n": self.n, "mode": "exact", "coeffs": rows}


def trace_polynomial(word, mode: str = "exact") -> TracePolynomial:
    """Collect the subset expansion by winding number, exactly.

    Every subset contributes (-2)^{|S|} r^u e^{i alpha w}, which factors as
    (-1)^{|S|} 2^{|S| - sum_k u_k} (8 r1 r2 r3)^{|w|} prod_k X_k^{(u_k-|w|)/2}:
    the reduction/straightening bookkeeping in closed form, where each
    reduction of the subsequence divides the tracked monomial by 2 and each
    straightening by one X_k.  The collected coefficient of r^u e^{i alpha w}
    must therefore be divisible by 2^{u1+u2+u3}, with every u_k - |w| even
    and nonnegative; that is the ring-membership statement for q_w.
    """
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    word = tuple(word)
    qe: dict = {}
    for w, us, c in _fourier_terms(word, (-2, -2, -2)):
        if c == 0:
            continue
        aw = abs(w)
        if any(u < aw or (u - aw) % 2 for u in us) or c % 2 ** sum(us):
            raise ArithmeticError("subset monomial escapes the coefficient ring")
        mono = tuple((u - aw) // 2 for u in us)
        qe.setdefault(w, {})[mono] = c // 2 ** sum(us)
    return TracePolynomial(word, len(word), qe)


_EYE = np.eye(3, dtype=complex)
_EYE.flags.writeable = False


def word_matrix(mats, word) -> np.ndarray:
    """The word's product of ``mats`` (M_1, M_2, M_3 on the first axis, any
    trailing points) from a read-only identity, in word order.  ndarray.dot
    is @'s BLAS product of two 3x3 matrices at less call overhead; stacked
    ones need np.matmul."""
    mul = np.ndarray.dot if mats[0].ndim == 2 else np.matmul
    m = _EYE
    for a in word:
        m = mul(m, mats[a - 1])
    return m


def _diagonal_sum(m) -> complex:
    """words._trace of one 3x3 matrix, as a Python complex: np.trace's sum,
    from 0j, so a -0.0 diagonal gives +0j."""
    return 0j + m.item(0) + m.item(4) + m.item(8)


def trace_oracle(word, realization) -> TraceValue:
    """Trace of the literal matrix product; no length cap."""
    return TraceValue(_diagonal_sum(word_matrix(realization.iotas, word)),
                      "oracle")


def _reflection_norm(c) -> float:
    """||-id + 2 c c^* / <c, c>||_2 = e + sqrt((e - 1)(e + 1)), e = |c|^2 / <c, c>,
    with e - 1 = 2 |c_3|^2 / <c, c> so nothing cancels; a Python float."""
    a, b, z = (abs(x) ** 2 for x in c.tolist())
    h = herm(c, c).real  # the <c, c> that triangle.reflection divides by
    e = (a + b + z) / h
    return e + math.sqrt(2.0 * z / h * (e + 1.0))


def agreement_bound(word, realization) -> float:
    """How far the trace routes may disagree on a word from rounding alone.

    c n u prod_k ||iota_{a_k}||_2, the forward error bound for a product of
    n matrices (Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 3), where u is the unit roundoff or, if larger, the relative error
    with which the realization reproduces (r, alpha).  It is divided by
    min(1, r_min), since the recursion's coefficients carry r_k^{-1}; a
    radius below the unit roundoff is zero, and the recursion skips it.  The
    norms are _reflection_norm's closed form, no SVD, and Python floats: a
    long word's product overflows to inf without a warning.
    """
    params = realization.params
    u = _EPS
    for got, want in zip(realization.r, params.r):
        u = max(u, abs(got - want) / max(want, 1.0))
    d = (realization.alpha - params.alpha) % TWO_PI
    u = max(u, min(d, TWO_PI - d))
    norms = [_reflection_norm(c) for c in realization.c]
    rmin = min(params.r)
    scale = 1.0 / rmin if _EPS < rmin < 1.0 else 1.0
    return _AGREEMENT_C * max(len(word), 1) * u * scale \
        * math.prod(norms[a - 1] for a in word)


def trace_mu(word, realization, mus) -> TraceValue:
    """Matrix-product trace with mu-reflection generators.

    Note: each generator has determinant mu_k, so these are traces of the
    displayed representatives, not of SU(2,1)-normalised ones.
    """
    mus = tuple(mus)
    if len(mus) != 3:
        raise ValueError("mu factors must be three unit complex numbers")
    m = word_matrix(realization.mu_iotas(mus), word)
    return TraceValue(complex(np.trace(m)), "mu-oracle")


def _cancel_adjacent(word):
    """Delete adjacent equal pairs (iota_k^2 = id), cascading."""
    out = []
    for a in word:
        if out and out[-1] == a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def _join(top, h, tail):
    """The key (h, tail) of the reduced word top[:h] + tail, tail reduced and
    of at most two letters: letters cancel across the junction, then tail
    letters that continue top join the prefix, so each word has one key."""
    while tail and h and top[h - 1] == tail[0]:
        h, tail = h - 1, tail[1:]
    while tail and h < len(top) and top[h] == tail[0]:
        h, tail = h + 1, tail[1:]
    return h, tail


@functools.lru_cache(maxsize=1024)
def _recursion_plan(word: tuple) -> tuple:
    """The deletion recursion of a word, compiled once: no parameters in it.

    Returns (steps, result slot).  Slots 0-4 hold the base values (3, -1,
    4 r1^2 - 1, 4 r2^2 - 1, 4 r3^2 - 1); step i fills slot 5 + i, one per
    reduced linear word of length >= 3 the recursion reaches, in post-order.
    A word reached is top[:h] + tail, top the reduced canonical word and tail
    at most two letters, keyed by its _join (h, tail), so the plan is linear
    in n = len(top): about 4n steps.  A step is the _TAILS index of a word
    a's last letters x, y, z and the slots of a[:-1], head + (y, z),
    head + (y,) (times -1) and a[:-2] + (z,), a[:-2], head + (z,), head
    (times beta), where head = a[:-3].
    """
    top = _cancel_adjacent(canonical(word))
    slots: dict = {}
    steps = []
    stack = [((len(top), ()), None)]
    while stack:
        key, kids = stack.pop()
        if key in slots:
            continue
        h, tail = key
        n = h + len(tail)
        if n < 3:
            # (k, l) -> 1 + m, m = 6 - k - l the letter completing {k, l}
            slots[key] = n if n < 2 else 7 - sum(top[:h] + tail)
        elif kids is None:
            x, y, z = xyz = top[n - 3:h] + tail
            kids = (_join(top, n - 3, (x, y)), _join(top, n - 3, (y, z)),
                    _join(top, n - 3, (y,)), _join(top, n - 2, (z,)),
                    (n - 2, ()), _join(top, n - 3, (z,)), (n - 3, ()))
            stack.append((key, (_TAILS.index(xyz), kids)))
            stack.extend((c, None) for c in kids if c not in slots)
        else:
            slots[key] = 5 + len(steps)
            t, kids = kids
            steps.append((t, *(slots[c] for c in kids)))
    return tuple(steps), slots[len(top), ()]


def trace_recursive(word, params) -> TraceValue:
    """Deletion recursion: a cached plan per word, one numeric pass per call.

    The input is cyclically canonicalised once (traces are invariant under
    rotation); below that the recursion works on reduced linear words,
    cancelling adjacent equal letters as it goes.  Which words it reaches
    depends only on the word, so _recursion_plan walks them once, on an
    explicit stack (the length is not bounded by Python's recursion limit),
    and keeps the plans of the last 1024 words of up to _PLAN_CACHE_LEN
    letters; each call evaluates the plan at its parameters in one loop.  A
    radius below the unit roundoff, such as cos(pi/2), counts as zero.
    """
    key = _key(params)
    if min(params.r) <= _EPS:
        raise ZeroRadiusUnsupported(
            "recursion undefined at r_k = 0; use the oracle or the expansion")
    _, base, betas = _constants(key)
    if betas is None:
        raise OverflowError("the recursion's coefficients overflow")
    word = tuple(word)
    steps, result = (_recursion_plan if len(word) <= _PLAN_CACHE_LEN
                     else _recursion_plan.__wrapped__)(word)
    vals = list(base)
    for t, k0, k1, k2, k3, k4, k5, k6 in steps:
        vals.append(-(vals[k0] + vals[k1] + vals[k2])
                    + betas[t] * (vals[k3] + vals[k4] + vals[k5] + vals[k6]))
    return TraceValue(vals[result], "recursive")


# --- closed forms for the short words -------------------------------------

def tau_123_closed(params) -> complex:
    """8 r1 r2 r3 e^{i alpha} - (4 (r1^2 + r2^2 + r3^2) - 3)."""
    params._need_alpha()
    r1, r2, r3 = params.r
    return 8.0 * params.r_product * cmath.exp(1j * params.alpha) \
        - (4.0 * (r1 * r1 + r2 * r2 + r3 * r3) - 3.0)


def sigma_word(k: int):
    """The length-4 test word (k, k-1, k, k+1)."""
    return (k, wrap(k - 1), k, wrap(k + 1))


def sigma_closed(params, k: int) -> float:
    """Trace of sigma_word(k): (16 r_{k-1}^2 r_{k+1}^2 + 4 r_k^2 - 1)
    - 16 r1 r2 r3 cos(alpha); real for every alpha."""
    params._need_alpha()
    r = params.r
    rm = r[wrap(k - 1) - 1]
    rp = r[wrap(k + 1) - 1]
    rk = r[k - 1]
    return (16.0 * rm * rm * rp * rp + 4.0 * rk * rk - 1.0) \
        - 16.0 * params.r_product * params.cos_alpha
