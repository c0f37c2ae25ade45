"""Words in the generators 1, 2, 3 and their combinatorics.

A word is a tuple of letters from {1, 2, 3}; the empty tuple is the identity.
Cyclic words are represented by their lexicographically minimal rotation.
Words serialise as digit strings ("123123"); the empty word serialises as
"e".
"""

from __future__ import annotations

LETTERS = (1, 2, 3)


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


def u_count(k: int, word) -> int:
    """Number of cyclically adjacent pairs of the word equal to {k-1, k+1}."""
    n = len(word)
    if n == 0:
        return 0
    return sum(psi(k, word[m], word[(m + 1) % n]) for m in range(n))


def n_count(k: int, word) -> int:
    """Number of occurrences of the letter k."""
    return sum(1 for a in word if a == k)


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


def power_word(base, w: int):
    """base^w; negative powers reverse the word."""
    if w >= 0:
        return tuple(base) * w
    return tuple(reversed(base)) * (-w)


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


def _necklaces(n: int, reduced: bool):
    """Length-n necklaces over {1,2,3} (lex-minimal rotations), in lex order.

    The FKM recursion (Fredricksen-Kessler-Maiorana; Ruskey-Savage-Wang,
    J. Algorithms 13, 1992) extends prenecklaces one letter at a time.  With
    ``reduced`` it never places a letter equal to its left neighbour, and a
    leaf must also differ from the first letter across the wrap.  Every
    prefix of a word without equal neighbours has none either, so this
    yields exactly the cyclically reduced necklaces, in the same order,
    without visiting the others (necklaces with a forbidden substring,
    Ruskey-Sawada, COCOON 2000).
    """
    a = [1] * (n + 1)

    def gen(t, p):
        if t > n:
            if n % p == 0 and not (reduced and n > 1 and a[1] == a[n]):
                yield tuple(a[1:])
            return
        left = a[t - 1] if reduced and t > 1 else 0
        j = a[t - p]
        if j != left:
            a[t] = j
            yield from gen(t + 1, p)
        for j in range(j + 1, 4):
            if j != left:
                a[t] = j
                yield from gen(t + 1, t)

    yield from gen(1, 1)


def is_cyclically_reduced(word) -> bool:
    """No two cyclically adjacent letters equal; single letters count as reduced."""
    n = len(word)
    if n <= 1:
        return True
    return all(word[m] != word[(m + 1) % n] for m in range(n))


def enumerate_words(max_len: int, cyclically_reduced: bool = False):
    """One representative per cyclic class, deduplicated against inverses.

    Deterministic order: by length, then lexicographic.  A canonical word w
    is kept iff w <= canonical(inverse(w)).
    """
    if max_len < 1:
        raise WordError("max_len must be >= 1")
    for n in range(1, max_len + 1):
        for w in _necklaces(n, cyclically_reduced):
            # w is its own least rotation, so canonical(inverse(w)) < w iff
            # some rotation of the reversed word is smaller than w; only a
            # rotation that starts with w's first (least) letter can be
            r = w[::-1] * 2
            a0 = w[0]
            if any(r[i] == a0 and r[i:i + n] < w for i in range(n)):
                continue
            yield w


def word_to_str(word) -> str:
    return "".join(str(a) for a in word) if word else "e"


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
