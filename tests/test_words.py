import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chtg import words
from chtg.arithmetic import group_with_rotation, ring_transfer
from chtg.traces import _cancel_adjacent, trace_oracle
from chtg.triangle import TriangleParams, realize
from chtg.words import (LETTERS, MAX_LEN, WordError, canonical, chi,
                        enumerate_words, parse_word, psi, v_count, winding,
                        word_strs, word_to_str)

from helpers import (brute_classes, deletion_terms, least_rotation,
                     n_count, power_word, reduce_straighten, stacked_traces,
                     u_count)

SRC = str(Path(__file__).resolve().parent.parent / "src")
letter = st.integers(1, 3)
word_st = st.lists(letter, max_size=18).map(tuple)
ne_word = st.lists(letter, min_size=1, max_size=18).map(tuple)


def test_chi_examples():
    assert chi(1) == 1
    assert chi(3) == 0
    assert chi(-2) == 1


@given(st.integers(-60, 60))
def test_chi_is_the_mod3_character(a):
    assert chi(a) in (-1, 0, 1)
    assert (chi(a) - a) % 3 == 0


def test_winding_examples():
    assert winding(()) == 0
    assert winding((1, 2, 3)) == 1
    assert winding((3, 2, 1)) == -1
    assert winding((1, 2, 1, 3)) == 0


@given(word_st, st.integers(0, 36))
def test_winding_rotation_invariant(w, s):
    s %= len(w) or 1
    assert winding(w[s:] + w[:s]) == winding(w)


def test_canonical_is_least_rotation():
    # every word over {1, 2, 3} up to length 9, against the brute force
    for n in range(10):
        for w in itertools.product(LETTERS, repeat=n):
            assert canonical(w) == least_rotation(w), w
    assert canonical([2, 1]) == (1, 2)


def test_canonical_of_a_long_word_is_linear():
    # 131,070 letters with 43,690 equal rotations: comparing every rotation
    # takes minutes, the Lyndon factorisation well under a second
    proc = subprocess.run([sys.executable, "-c", (
        "from chtg.words import canonical\n"
        "assert canonical((2, 3, 1) * 43690) == (1, 2, 3) * 43690\n")],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
        timeout=10)
    assert proc.returncode == 0, proc.stderr


@given(ne_word)
def test_chi_sum_divisible_by_three(w):
    n = len(w)
    s = sum(chi(w[(m + 1) % n] - w[m]) for m in range(n))
    assert s % 3 == 0
    assert s == 3 * winding(w)


@given(st.lists(letter, min_size=3, max_size=18).map(tuple), st.data())
def test_winding_splitting_identity(w, data):
    # split into the disjoint pieces (a_1..a_m), (a_{m+1}..a_n) plus the
    # four-letter connector (a_1, a_m, a_{m+1}, a_n)
    n = len(w)
    m = data.draw(st.integers(2, n - 1))
    lhs = winding(w)
    rhs = (winding(w[:m]) + winding(w[m:])
           + winding((w[0], w[m - 1], w[m], w[n - 1])))
    assert lhs == rhs


@given(st.lists(letter, min_size=1, max_size=14).map(tuple),
       st.lists(letter, min_size=3, max_size=3).map(tuple))
def test_winding_tail_merge_identity(b, t):
    # w(b..., x, y, z) = w(b..., x, z) + w(x, y, z)
    x, y, z = t
    assert winding(b + (x, y, z)) == winding(b + (x, z)) + winding((x, y, z))


@given(ne_word, letter)
def test_winding_appending_identity(w, a):
    assert winding(w + (a,)) == winding(w) + winding((w[0], w[-1], a))


def test_psi_examples():
    assert psi(3, 1, 2) == 1
    assert psi(3, 1, 1) == 0
    assert psi(2, 1, 3) == 1


def test_u_count_examples():
    assert u_count(3, (1, 2)) == 2
    assert u_count(1, (1, 2)) == 0
    for k in (1, 2, 3):
        assert u_count(k, (2,)) == 0


@given(ne_word, letter)
def test_u_count_appending_identity(w, a):
    for k in (1, 2, 3):
        assert u_count(k, w + (a,)) == u_count(k, w) + v_count(k, (w[-1], a, w[0]))


def test_n_count():
    assert n_count(1, (1, 2, 1)) == 2
    assert n_count(3, (1, 2, 1)) == 0


@given(word_st)
def test_n_count_partitions_positions(w):
    assert sum(n_count(k, w) for k in (1, 2, 3)) == len(w)


def test_v_count_examples():
    assert v_count(2, (1, 2, 3)) == -1
    assert v_count(1, (1, 2, 3)) == 1
    assert v_count(3, (1, 2, 3)) == 1
    for k in (1, 2, 3):
        assert v_count(k, (2, 2, 2)) == 0


def test_reduce_examples():
    assert reduce_straighten((1, 2, 1, 3))[0] == ()
    assert reduce_straighten((1, 1))[0] == ()
    assert reduce_straighten((1,))[0] == ()
    assert reduce_straighten((1, 2, 3, 1, 2, 3))[0] == (1, 2, 3, 1, 2, 3)
    assert reduce_straighten(())[0] == ()


@given(word_st)
def test_reduce_reaches_winding_power(w):
    final, steps = reduce_straighten(w)
    assert final == canonical(power_word((1, 2, 3), winding(w)))
    prev = w
    for _rule, after in steps:
        assert winding(after) == winding(prev)
        assert len(after) < len(prev)
        prev = after


def test_delete_examples():
    # 123 expands into the seven words left by deleting a nonempty subset
    # of its last three letters
    assert deletion_terms((1, 2, 3)) == ((1, 2), (2, 3), (2,), (1, 3), (1,),
                                         (3,), ())
    # deleting the third-last letter of 1213 leaves 113, which cancels to 3
    assert deletion_terms((1, 2, 1, 3))[1] == (3,)


def test_deletion_terms_match_cancelled_deletions():
    # every linearly reduced word of length 3-10: _join cancels across the
    # junction exactly what _cancel_adjacent cancels in the joined word
    count = 0
    for n in range(3, 11):
        level = [(1,), (2,), (3,)]
        for _ in range(n - 1):
            level = [w + (a,) for w in level for a in (1, 2, 3) if a != w[-1]]
        for a in level:
            want = tuple(_cancel_adjacent(x) for x in (
                a[:-1], a[:-3] + a[-2:], a[:-3] + a[-2:-1], a[:-2] + a[-1:],
                a[:-2], a[:-3] + a[-1:], a[:-3]))
            assert deletion_terms(a) == want, a
            count += 1
    assert count == 3060


def test_delete_to_empty():
    w = (1, 2, 3)
    for _ in range(3):
        w = w[:-1]
    assert w == ()


def test_enumerate_small():
    got = [a.tolist() for a in enumerate_words(2)]
    assert got == [[[1], [2], [3]], [[1, 2], [1, 3], [2, 3]]]


def test_enumerate_matches_bruteforce():
    # one int8 array per length, rows sorted and equal to the brute force
    for n, got in enumerate(enumerate_words(12), start=1):
        assert got.dtype == "int8" and got.shape[1] == n
        assert list(map(tuple, got.tolist())) == brute_classes(n)


@pytest.fixture(scope="module")
def classes_to_max_len():
    """Each length's rows of enumerate_words(MAX_LEN), concatenated."""
    blocks = {}
    for ws in enumerate_words(MAX_LEN):
        blocks.setdefault(ws.shape[1], []).append(ws)
    return {n: np.concatenate(b) for n, b in blocks.items()}


def _bracelets(n):
    """Burnside's count of the proper 3-colourings of the n-cycle up to
    rotation and reflection; a single letter is a class of its own."""
    if n == 1:
        return 3
    phi = [sum(math.gcd(k, m) == 1 for k in range(1, m + 1)) for m in range(n + 1)]
    rotations = sum(phi[n // d] * (2 ** d + 2 * (-1) ** d)
                    for d in range(1, n + 1) if n % d == 0) // n
    reflections = 3 * 2 ** (n // 2 - 1) if n % 2 == 0 else 0
    return (rotations + reflections) // 2


def test_class_counts_equal_burnside(classes_to_max_len):
    # every length up to MAX_LEN, where a word and its reversal take all
    # 2 MAX_LEN bits of the packed ints
    counts = [len(classes_to_max_len[n]) for n in range(1, MAX_LEN + 1)]
    assert counts == [_bracelets(n) for n in range(1, MAX_LEN + 1)]
    assert (sum(counts[:12]), sum(counts[:14]), counts[-1]) == (492, 1494, 352698)


def test_full_width_representatives_are_rows(classes_to_max_len):
    # the least rotation of a reduced word or of its reversal, by brute
    # force, is a row of its length's blocks, past CHUNK_LEVEL to MAX_LEN
    rng = np.random.default_rng(24)
    for n in range(words.CHUNK_LEVEL + 1, MAX_LEN + 1):
        rows = classes_to_max_len[n]
        for _ in range(20):
            w = [int(rng.integers(1, 4))]
            for i in range(1, n):
                banned = (w[-1], w[0]) if i == n - 1 else (w[-1],)
                w.append(int(rng.choice([a for a in LETTERS if a not in banned])))
            rep = min(least_rotation(w), least_rotation(w[::-1]))
            assert (rows == np.array(rep, dtype=np.int8)).all(axis=1).any(), rep


_PASS_POINTS = {
    "finite": TriangleParams.from_signature(4, 5, 6).with_t(1.0),
    "ideal": TriangleParams(1, 1, 1).with_cos_alpha(61 / 64),
    "ultra": TriangleParams.from_lengths(2.0, 2.5, 3.0).with_t(1.5),
}


@pytest.mark.parametrize("name", sorted(_PASS_POINTS))
def test_level_traces_equal_trace_oracle(name):
    # the prefix products give trace_oracle's traces bit for bit, for every
    # class up to length 12, on the words enumerate_words yields alone
    rz = realize(_PASS_POINTS[name])
    for (ws, taus), plain in zip(enumerate_words(12, rz.iotas),
                                 enumerate_words(12), strict=True):
        assert ws.tobytes() == plain.tobytes() and ws.shape == plain.shape
        want = np.array([trace_oracle(w, rz).value for w in ws.tolist()])
        assert taus.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [5, 8, math.inf])
def test_level_traces_with_ring_matrices_equal_stacked_traces(n):
    # leading (rows, 2) axes at q = 5 and 8; one point at n = inf
    mats, _ = ring_transfer(group_with_rotation(4, 4, math.inf, n))
    for ws, taus in enumerate_words(10, mats):
        assert taus.shape == (*np.shape(mats)[:-3], len(ws))
        assert taus.tobytes() == stacked_traces(ws, mats).tobytes()


def test_chunked_levels_equal_unchunked(monkeypatch):
    # max_len 9 is four levels past a chunk level of 5; 3 prefixes per chunk
    # leave a short last chunk, and at 4 ring points each chunk is 1 prefix.
    # Past the chunk level each slice is its own block: every block is
    # non-empty and of one length, the blocks come in length, then lex
    # order, and each length's blocks concatenate to its unchunked block
    mats = [None, realize(_PASS_POINTS["finite"]).iotas,
            ring_transfer(group_with_rotation(4, 4, math.inf, 5))[0]]
    whole = [list(enumerate_words(9, m)) for m in mats]
    monkeypatch.setattr(words, "CHUNK_LEVEL", 5)
    monkeypatch.setattr(words, "CHUNK", 3)
    for m, want in zip(mats, whole):
        got = list(enumerate_words(9, m))
        assert len(want) == 9 and len(got) > 9
        if m is None:  # words alone, not (words, traces) pairs
            got, want = [(a,) for a in got], [(b,) for b in want]
        for ws, *trs in got:
            assert ws.ndim == 2 and len(ws) > 0
            assert all(t.shape[-1] == len(ws) for t in trs)
        keys = [(len(w), w) for ws, *_ in got for w in map(tuple, ws.tolist())]
        assert keys == sorted(set(keys))
        for n, b in enumerate(want, start=1):
            blocks = [a for a in got if a[0].shape[1] == n]
            for i, y in enumerate(b):
                x = np.concatenate([a[i] for a in blocks], axis=-1 if i else 0)
                assert x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("chunk", [1, 2, 1024])
@pytest.mark.parametrize("point", ["finite", "ring"])
def test_letter_blocks_equal_stacked_traces(monkeypatch, point, chunk):
    # one BLAS product per letter block of CHUNK parents gives the 3x3
    # products' bits, at one point and at the 4 ring points of q = 5
    mats = (realize(_PASS_POINTS["finite"]).iotas if point == "finite" else
            ring_transfer(group_with_rotation(4, 4, math.inf, 5))[0])
    monkeypatch.setattr(words, "CHUNK", chunk)
    for ws, taus in enumerate_words(10, mats):
        assert taus.tobytes() == stacked_traces(ws, mats).tobytes()


def test_level_traces_of_negative_zero_products():
    # every product is -0.0: the sum from 0j gives +0j, as np.trace does
    mats = np.full((3, 3, 3), -0.0 - 0.0j)
    for ws, taus in enumerate_words(4, mats):
        assert taus.tobytes() == stacked_traces(ws, mats).tobytes()
        assert taus.tobytes() == np.zeros(len(ws), dtype=complex).tobytes()


def test_sixteen_letter_traces_equal_trace_oracle():
    # at 16 letters a letter's block first passes CHUNK parents: at (4,5,6)
    # letter 3 has 1,638 children at level 15 and 1,830 kept at level 16
    rz = realize(_PASS_POINTS["finite"])
    *_, (ws, taus) = enumerate_words(16, rz.iotas)
    rng = np.random.default_rng(16)
    pick = rng.choice(len(ws), 300, replace=False)
    want = np.array([trace_oracle(tuple(ws[i].tolist()), rz).value for i in pick])
    assert taus[pick].tobytes() == want.tobytes()


def test_word_strs():
    ws = list(enumerate_words(5))[-1]
    assert word_strs(ws) == [word_to_str(w) for w in ws.tolist()]


@pytest.mark.parametrize("max_len", [0, -3, MAX_LEN + 1])
def test_enumerate_rejects_length_at_call(max_len):
    # the check runs when enumerate_words is called, not at the first next()
    with pytest.raises(WordError):
        enumerate_words(max_len)


def test_serialisation():
    assert word_to_str(()) == "e"
    assert word_to_str((1, 2, 3)) == "123"
    assert parse_word("e") == ()
    assert parse_word("123123") == (1, 2, 3, 1, 2, 3)
    with pytest.raises(WordError):
        parse_word("104")
    with pytest.raises(WordError):
        parse_word("abc")
