"""Words in the generators 1, 2, 3 and their combinatorics.

A word is a tuple of letters from {1, 2, 3}; the empty tuple is the identity.
Cyclic words are represented by their lexicographically minimal rotation.
Words serialise as digit strings ("123123"); the empty word serialises as
"e".  ``enumerate_words`` carries each prefix as base-4 ints of it and of its
reversal, multiplies each level's products as its parents' times a letter,
one BLAS call per letter and block of CHUNK parents, and yields each length's
classes in one or more blocks of int8 rows.
"""

from __future__ import annotations

import numpy as np

LETTERS = (1, 2, 3)
_LETTERS = np.array(LETTERS, dtype=np.int64)
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")
MAX_LEN = 24  # longest word enumerated; base 4 it fills 48 bits of an int64
# levels past CHUNK_LEVEL grow from slices of CHUNK of its rows (over the
# number of points), so level 24's 1.46M prefix products are never all held
CHUNK_LEVEL = 18
# parents per letter block, so one BLAS call multiplies a (3 CHUNK, 3) stack
# by a letter's matrix.  OpenBLAS starts threads on larger calls: on a
# 2-core machine 2,000 products a call cost 0.027 us each, 3,000 cost 2.0 us
CHUNK = 1024


class WordError(ValueError):
    pass


def wrap(k: int) -> int:
    """Reduce an index into {1, 2, 3} cyclically."""
    return (k - 1) % 3 + 1


def chi(a: int) -> int:
    """The nontrivial character mod 3, with values in {-1, 0, 1}."""
    return (a + 1) % 3 - 1


def winding(word) -> int:
    """Winding number: one third of the cyclic sum of chi(a_{m+1} - a_m).

    Counts how often the closed loop a_1 -> a_2 -> ... -> a_n -> a_1 runs
    around the triangle with corners 1, 2, 3; the chi-sum is always divisible
    by 3.
    """
    n = len(word)
    if n == 0:
        return 0
    s = sum(chi(word[(m + 1) % n] - word[m]) for m in range(n))
    assert s % 3 == 0
    return s // 3


def psi(k: int, a: int, b: int) -> int:
    """1 if {a, b} = {k-1, k+1} (indices mod 3), else 0."""
    return 1 if {a, b} == {wrap(k - 1), wrap(k + 1)} else 0


def v_count(k: int, triple) -> int:
    """psi_k(a,b) + psi_k(b,c) - psi_k(a,c) for a triple (a, b, c)."""
    a, b, c = triple
    return psi(k, a, b) + psi(k, b, c) - psi(k, a, c)


def canonical(word):
    """Lexicographically minimal rotation, as a tuple: the canonical cyclic
    representative, in linear time by Duval's Lyndon factorisation of
    word + word (K. S. Booth, Inf. Process. Lett. 10, 1980)."""
    s = tuple(word) * 2
    n = len(s) // 2
    i = start = 0
    while i < n:
        start = i
        j, k = i + 1, i
        while j < 2 * n and s[k] <= s[j]:
            k = i if s[k] < s[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
    return s[start:start + n]


def enumerate_words(max_len: int, mats=None):
    """Every cyclically reduced class up to max_len, in blocks of one length.

    Yields, for n = 1..max_len, one or more non-empty int8 arrays (count,
    n), one per prefix slice past CHUNK_LEVEL, of the least rotations, in
    lex order, of the words with no two cyclically adjacent letters equal
    (single letters count), one per class up to inversion: a necklace w is
    kept iff w <= the least rotation of reversed(w).  With
    ``mats`` (M_1, M_2, M_3 on the third-to-last axis, any leading axes
    independent points) it yields (words, traces): tr(M_{a_1} ... M_{a_n})
    of shape (..., count), multiplied from the identity in word order in
    letter blocks whose rows are traces.word_matrix's 3x3 products, bit for
    bit, and summed as its traces sum: at traces' kernel, as scan passes it,
    each is trace_combinatorial's value.  Raises WordError for max_len
    outside 1..MAX_LEN when called, before any yield.
    """
    if not 1 <= max_len <= MAX_LEN:
        raise WordError(f"word length must be 1..{MAX_LEN}, got {max_len}")
    if mats is None:  # at no points, so every product is empty
        return (ws for ws, _ in _levels(max_len, np.empty((0, 3, 3, 3))))
    return _levels(max_len, np.asarray(mats, dtype=complex))


def _levels(max_len: int, mats):
    """Level t holds the prenecklaces a of length t without equal neighbours,
    in lex order, as base-4 ints of a and of reversed(a), their periods p and
    their prefix products.  A child appends j >= a[t-p] with j != a[t-1] and
    keeps p iff j == a[t-p], else p = t+1 (the FKM rule, Ruskey-Savage-Wang,
    J. Algorithms 13, 1992, with a forbidden substring as in Ruskey-Sawada,
    COCOON 2000); its product is its parent's times M_j.  The necklaces of
    length n are the rows with n % p == 0 whose first and last letters
    differ.  Past CHUNK_LEVEL each lex-ordered slice of that level is
    descended alone; its kept rows of a length, if any, are one block, held
    packed and yielded, as int8 rows like every block, in slice order."""
    level = (_LETTERS, _LETTERS, np.ones(3, dtype=np.int8),
             np.eye(3, dtype=complex) @ mats)
    yield _rows(level[0], 1), _trace(level[3])
    top = min(max_len, CHUNK_LEVEL)
    for n in range(2, top + 1):
        level, (kept, traces) = _grow(*level, mats, n, n == max_len)
        yield _rows(kept, n), traces
    step = max(1, CHUNK // max(1, mats.size // 27))
    parts = [[] for _ in range(top, max_len)]
    for s in range(0, len(level[0]), step):
        sub = (*(a[s:s + step] for a in level[:3]),
               level[3][..., s:s + step, :, :])
        for n, part in enumerate(parts, start=top + 1):
            sub, out = _grow(*sub, mats, n, n == max_len)
            if len(out[0]):
                part.append(out)
    del level, sub
    for n, part in enumerate(parts, start=top + 1):
        while part:  # each slice is freed once it is read
            kept, traces = part.pop(0)
            yield _rows(kept, n), traces


def _grow(packed, rev, period, prod, mats, n, last):
    """Level n from level n - 1, and its kept necklaces, packed, with their
    traces; on the last level only the kept rows are multiplied."""
    base = (packed >> 2 * (period - 1)) & 3
    # row-major nonzero keeps parents in order, then letters ascending
    parent, j = np.nonzero((_LETTERS >= base[:, None])
                           & (_LETTERS != (packed & 3)[:, None]))
    period = np.where(_LETTERS[j] == base[parent], period[parent], n)
    packed = packed[parent] * 4 + (j + 1)
    rev = rev[parent] + ((j + 1) << 2 * (n - 1))
    keep = _kept(packed, rev, period, n)
    if last:
        parent, j = parent[keep], j[keep]
    prod = _times(prod, parent, j, mats)
    traces = _trace(prod if last else prod[..., keep, :, :])
    return (packed, rev, period, prod), (packed[keep], traces)


def _times(prod, parent, j, mats):
    """prod[..., parent, :, :] @ mats[..., j, :, :] in child order.  For
    each letter, CHUNK parents at a time are gathered and viewed as one
    (3 k, 3) stack per point, so one BLAS call multiplies them all by the
    letter's matrix; each row is the same dot products as a 3x3 product."""
    out = np.empty((*prod.shape[:-3], len(parent), 3, 3), dtype=complex)
    for a in range(3):
        rows = np.flatnonzero(j == a)
        for s in range(0, len(rows), CHUNK):
            r = rows[s:s + CHUNK]
            block = np.take(prod, parent[r], axis=-3)
            out[..., r, :, :] = (block.reshape(*block.shape[:-3], 3 * len(r), 3)
                                 @ mats[..., a, :, :]).reshape(block.shape)
    return out


def _trace(prod):
    """traces._diagonal_sum of each product, from 0j."""
    return 0j + prod[..., 0, 0] + prod[..., 1, 1] + prod[..., 2, 2]


def _rows(packed, n) -> np.ndarray:
    """Base-4 ints of n digits as int8 word rows (count, n)."""
    return ((packed[:, None] >> np.arange(2 * n - 2, -1, -2)) & 3).astype(np.int8)


def _kept(packed, rev, period, n) -> np.ndarray:
    """Indices of the necklaces w of length n among the rows, those with
    packed(w) <= the least rotation of packed(reversed w), rotated in place."""
    shift = 2 * (n - 1)
    idx = np.flatnonzero((n % period == 0) & ((packed >> shift) != (packed & 3)))
    rot = rev[idx]
    least = rot.copy()
    for _ in range(n - 1):
        lead = rot >> shift
        rot &= (1 << shift) - 1
        rot <<= 2
        rot |= lead
        np.minimum(least, rot, out=least)
    return idx[packed[idx] <= least]


def word_to_str(word) -> str:
    return bytes(word).translate(_DIGITS).decode() if word else "e"


def word_strs(ws) -> list:
    """word_to_str of each row of an int8 word array (count, n), n >= 1."""
    digits = (ws + ord("0")).astype(np.uint8)
    return digits.view(f"S{ws.shape[1]}").ravel().astype(str).tolist()


def parse_word(s: str):
    if s in ("e", ""):
        return ()
    try:
        word = tuple(int(ch) for ch in s)
    except ValueError:
        raise WordError(f"bad word string {s!r}") from None
    if any(a not in LETTERS for a in word):
        raise WordError(f"letters must be 1, 2 or 3: {s!r}")
    return word
