"""Words in the generators 1, 2, 3 and their combinatorics.

A word is a tuple of letters from {1, 2, 3}; the empty tuple is the identity.
Cyclic words are represented by their lexicographically minimal rotation.
Words serialise as digit strings ("123123"); the empty word serialises as
"e".
"""

from __future__ import annotations

import numpy as np

LETTERS = (1, 2, 3)
_LETTERS = np.array(LETTERS, dtype=np.int8)
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")
MAX_LEN = 24  # longest word any scan enumerates; packed words fit in int64


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


def rotate(word, s: int):
    if not word:
        return word
    s %= len(word)
    return word[s:] + word[:s]


def canonical(word):
    """Lexicographically minimal rotation: the canonical cyclic representative."""
    if not word:
        return ()
    return min(rotate(word, s) for s in range(len(word)))


def inverse(word):
    """Word of the inverse element (the generators are involutions)."""
    return tuple(reversed(word))


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


def enumerate_words(max_len: int):
    """Every cyclically reduced class up to max_len, one array per length.

    Yields, for n = 1..max_len, an int8 array (count_n, n) of the least
    rotations, in lex order, of the words with no two cyclically adjacent
    letters equal (single letters count), one per class up to inversion: a
    necklace w is kept iff w <= the least rotation of reversed(w).  Raises
    WordError for max_len outside 1..MAX_LEN when called, before any yield.
    """
    if not 1 <= max_len <= MAX_LEN:
        raise WordError(f"word length must be 1..{MAX_LEN}, got {max_len}")
    return _levels(max_len)


def _levels(max_len: int):
    """Level t holds the prenecklaces of length t without equal neighbours,
    in lex order, and their periods p.  A child appends j >= a[t-p] with
    j != a[t-1] and keeps p iff j == a[t-p], else p = t+1 (the FKM rule,
    Ruskey-Savage-Wang, J. Algorithms 13, 1992, with a forbidden substring
    as in Ruskey-Sawada, COCOON 2000).  The necklaces of length n are the
    rows with n % p == 0 whose first and last letters differ."""
    words = _LETTERS[:, None]
    period = np.ones(3, dtype=np.int8)
    for n in range(1, max_len + 1):
        if n > 1:
            base = words[np.arange(len(words)), n - 1 - period]
            # row-major nonzero keeps parents in order, then letters ascending
            parent, j = np.nonzero((_LETTERS >= base[:, None])
                                   & (_LETTERS != words[:, -1:]))
            letter = _LETTERS[j]
            period = np.where(letter == base[parent], period[parent], n)
            words = np.concatenate((words[parent], letter[:, None]), axis=1)
            del base, parent, j, letter  # not held while the caller runs
        yield _kept(words[(n % period == 0)
                          & ((words[:, 0] != words[:, -1]) | (n == 1))])


def _packed(words) -> np.ndarray:
    """Each row as a base-4 int64 (Horner), so lex order is numeric order."""
    acc = np.zeros(len(words), dtype=np.int64)
    for i in range(words.shape[1]):
        acc *= 4
        acc += words[:, i]
    return acc


def _kept(necklaces) -> np.ndarray:
    """Rows w with packed(w) <= min rotation of packed(reversed w), in place."""
    top = 4 ** (necklaces.shape[1] - 1)
    rot = _packed(necklaces[:, ::-1])
    least = rot.copy()
    for _ in range(necklaces.shape[1] - 1):
        lead = rot // top
        rot %= top
        rot *= 4
        rot += lead
        np.minimum(least, rot, out=least)
    return necklaces[_packed(necklaces) <= least]


def word_to_str(word) -> str:
    return bytes(word).translate(_DIGITS).decode() if word else "e"


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
