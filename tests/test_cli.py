import argparse
import hashlib
import importlib.util
import json
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from chtg import cli, words
from chtg.analysis import scan_elliptic
from chtg.arithmetic import (_power_basis_pinv, group_with_rotation,
                             ring_transfer)
from chtg.classify import classify
from chtg.cli import _floats, _scalar, dumps_stable, main
from chtg.traces import trace_combinatorial
from chtg.triangle import TriangleParams
from chtg.words import MAX_LEN, enumerate_words, word_strs, word_to_str

from helpers import (brute_classes, classes_up_to, ring_check_reference,
                     ring_row_dict, scan_rows, verdict_reference, verdict_rows)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dumps_stable():
    s = dumps_stable({"a": 1.5, "b": [math.inf, -math.inf], "c": None,
                      "d": True, "e": "x\"y"})
    assert s == '{"a":1.5,"b":["inf","-inf"],"c":null,"d":true,"e":"x\\"y"}'
    assert json.loads(s) == {"a": 1.5, "b": ["inf", "-inf"], "c": None,
                             "d": True, "e": 'x"y'}


def test_floats_follow_scalar():
    xs = [1.5, -0.0, 1e-300, math.nan, -math.nan, math.inf, -math.inf, 0.1]
    assert list(_floats(xs)) == list(map(_scalar, xs))


def test_trace_ideal_near_pi(capsys):
    code, out, _ = run(capsys, "trace", "--word", "123", "--p", "inf", "inf",
                       "inf", "--alpha", "3.14159", "--json")
    assert code == 0
    data = json.loads(out)
    want = 8 * complex(math.cos(3.14159), math.sin(3.14159)) - 9
    assert data["tau"]["re"] == pytest.approx(want.real, abs=1e-9)
    assert data["tau"]["im"] == pytest.approx(want.imag, abs=1e-9)
    assert data["method"] == "combinatorial"
    assert set(data["methods"]) == {"oracle", "combinatorial", "recursive"}


def test_trace_reports_the_scan_rows_verdict(capsys):
    # (13)^5 at (10,10,inf) t = 0.5 is a complex reflection, 60-digit rho
    # -1.1e-28: trace classifies the value its scan row has, bit for bit
    pytest.importorskip("mpmath")
    p = TriangleParams.from_signature(10, 10, math.inf).with_t(0.5)
    w = (1, 3) * 5
    code, out, _ = run(capsys, "trace", "--word", "1313131313", "--p", "10",
                       "10", "inf", "--t", "0.5", "--json")
    assert code == 0
    data = json.loads(out)
    row = {r.word: r for r in scan_rows(scan_elliptic(p, 10))}[w]
    assert complex(data["tau"]["re"], data["tau"]["im"]) == row.tau
    assert data["verdict"] == row.verdict == verdict_reference(w, p)[2]


def test_trace_identity_word(capsys):
    code, out, _ = run(capsys, "trace", "--word", "e", "--r", "1", "1", "1",
                       "--alpha", "pi", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["tau"]["re"] == pytest.approx(3.0)
    assert data["tau"]["im"] == 0


def test_invariants_ideal_alpha_pi(capsys):
    code, out, _ = run(capsys, "invariants", "--r", "1", "1", "1",
                       "--alpha", "pi", "--json")
    assert code == 0
    data = json.loads(out)
    assert abs(data["cartan"]) < 1e-9
    assert data["sigma"] is None
    assert data["eta"] is None


def test_invariants_generic(capsys):
    code, out, _ = run(capsys, "invariants", "--p", "5", "6", "7",
                       "--alpha", "2.2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["sigma"] is not None
    assert data["eta"] is not None


def test_thresholds_type_b(capsys):
    code, out, _ = run(capsys, "thresholds", "--p", "14", "14", "inf", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["family_member"] is True
    assert data["family_type"] == "TypeB"
    assert data["t_inf"] == "inf"


def test_family_command(capsys):
    code, out, _ = run(capsys, "family", "--p", "12", "24", "24")
    assert code == 0
    assert "TypeB" in out


def test_scan_hit_exit_code(capsys):
    code, out, _ = run(capsys, "scan", "--p", "4", "4", "inf", "--t", "1.9",
                       "--max-len", "4", "--json")
    assert code == 2
    data = json.loads(out)
    assert "1323" in data["hits"]
    assert data["certificate"]["word"] == "3231"


def test_scan_human_table(capsys):
    code, out, _ = run(capsys, "scan", "--p", "4", "4", "inf", "--t", "1.9",
                       "--max-len", "4")
    assert code == 2
    lines = out.strip().split("\n")
    assert [line.split()[0] for line in lines if line.endswith(" *")] == ["1323"]
    assert lines[-1] == "hits: 1"


def test_scan_no_hit(capsys):
    code, out, _ = run(capsys, "scan", "--p", "4", "4", "inf", "--t", "1.0",
                       "--max-len", "4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["hits"] == []
    assert data["certificate"] is None


def test_scan_csv(capsys):
    code, out, _ = run(capsys, "scan", "--p", "inf", "inf", "inf",
                       "--cos-alpha", "61/64", "--max-len", "3", "--csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "word,re_tau,im_tau,rho,verdict"
    assert all(len(line.split(",")) == 5 for line in lines[1:])


def test_ring_check(capsys):
    code, out, _ = run(capsys, "ring-check", "--p", "4", "4", "inf",
                       "--n", "inf", "--max-len", "5", "--json")
    assert code == 0
    data = json.loads(out)
    assert all(row["ok"] for row in data["rows"])


@pytest.mark.parametrize("n", [5, 8, 10, 12])
def test_ring_check_csv_equals_per_word_reference(capsys, n):
    group = group_with_rotation(4, 4, math.inf, n)
    want = ["word,ok", *(f"{word_to_str(w)},{int(ring_check_reference(group, w).ok)}"
                         for n in range(1, 13) for w in brute_classes(n))]
    code, out, _ = run(capsys, "ring-check", "--p", "4", "4", "inf",
                       "--n", str(n), "--max-len", "12", "--csv")
    assert code == 0
    assert out == "\n".join(want) + "\n"


@pytest.mark.parametrize("sig, t", [("4 5 6", "1.0"), ("4 4 inf", "1.9")],
                         ids=["456", "44inf"])
def test_scan_csv_equals_per_word_reference(capsys, sig, t):
    p = TriangleParams.from_signature(*map(float, sig.split())).with_t(float(t))
    want = ["word,re_tau,im_tau,rho,verdict"]
    for n in range(1, 13):
        for w in brute_classes(n):
            tau = trace_combinatorial(w, p).value
            cls = classify(tau)
            want.append(",".join([word_to_str(w), *(format(x, ".17g") for x in
                                  (tau.real, tau.imag, cls.rho)), cls.verdict]))
    code, out, _ = run(capsys, "scan", "--p", *sig.split(), "--t", t,
                       "--max-len", "12", "--csv")
    assert code == 2
    assert out == "\n".join(want) + "\n"


@pytest.mark.parametrize("n", ["5", "8", "inf"])
def test_ring_json_rows_equal_per_row_dicts(capsys, n):
    group = group_with_rotation(4, 4, math.inf, math.inf if n == "inf" else int(n))
    mats, verdicts = ring_transfer(group)
    rows = [ring_row_dict(w, v) for ws, taus in enumerate_words(10, mats)
            for w, v in zip(word_strs(ws), verdict_rows(verdicts(taus, 1e-7)))]
    want = dumps_stable({"params": group.params.to_json_dict(), "n": group.n,
                         "max_len": 10, "rows": rows})
    code, out, err = run(capsys, "ring-check", "--p", "4", "4", "inf",
                         "--n", n, "--max-len", "10", "--json")
    assert (code, out, err) == (0, want + "\n", "")


@pytest.mark.parametrize("fmt", ["--json", "--csv", "--human"])
@pytest.mark.parametrize("command", [
    ["scan", "--p", "4", "5", "6", "--t", "1.0"],
    ["ring-check", "--p", "4", "4", "inf", "--n", "5"],
    ["ring-check", "--p", "4", "4", "inf", "--n", "inf"]],
    ids=["scan", "ring-n5", "ring-ninf"])
def test_rows_independent_of_block_size(capsys, monkeypatch, command, fmt):
    # levels 5-9 come in slices of 2 level-4 prefixes, some of which keep no
    # class: JSON commas between blocks, and no block without rows
    argv = [*command, "--max-len", "9", *([fmt] if fmt != "--human" else [])]
    want = run(capsys, *argv)
    monkeypatch.setattr(words, "CHUNK_LEVEL", 4)
    monkeypatch.setattr(words, "CHUNK", 2)
    assert run(capsys, *argv) == want


@pytest.mark.parametrize("fmt", ["--csv", "--human"])
def test_ring_rows_written_per_length(monkeypatch, fmt):
    # each length's rows are written before the next length is made, and
    # the human form's verdict line after the last row
    events = []
    levels = words.enumerate_words

    def spy_levels(max_len, mats):
        for ws, taus in levels(max_len, mats):
            events.append(("level", ws.shape[1]))
            yield ws, taus

    class Stdout:
        def write(self, s):
            events.append(("write", s))

        def flush(self):
            pass

    monkeypatch.setattr(words, "enumerate_words", spy_levels)
    monkeypatch.setattr(sys, "stdout", Stdout())
    argv = ["ring-check", "--p", "4", "4", "inf", "--n", "5", "--max-len", "6"]
    code = main(argv + ([fmt] if fmt == "--csv" else []))
    assert code == 0
    if fmt == "--csv":
        assert events.pop(0) == ("write", "word,ok\n")
    else:
        assert events.pop() == ("write", "all passed: True\n")
    lengths = []
    for kind, value in events:
        if kind == "level":
            lengths.append(value)
            continue
        rows = value.splitlines()
        assert rows and all(len(row.split(maxsplit=1)[0].split(",")[0])
                            == lengths[-1] for row in rows)
    assert lengths == [1, 2, 3, 4, 5, 6]
    assert [k for k, _ in events] == ["level", "write"] * 6


def test_ring_check_nan_coefficient_is_domain_error(capsys, monkeypatch):
    # a JSON coefficient prints as int(float) did, which raises on NaN
    levels = words.enumerate_words
    monkeypatch.setattr(words, "enumerate_words", lambda max_len, mats: (
        (ws, np.full_like(taus, math.nan)) for ws, taus in levels(max_len, mats)))
    code, _, err = run(capsys, "ring-check", "--p", "4", "4", "inf",
                       "--n", "5", "--max-len", "3", "--json")
    assert (code, err) == (65, "domain error: cannot convert float NaN to integer\n")


@pytest.mark.parametrize("n", [121, 2053, 10 ** 7])
def test_ring_check_ill_conditioned_basis(capsys, n):
    # q has a power basis of degree phi(q) / 2, above 14 for every q > 90,
    # so q alone refuses it, before any conjugate or matrix is built
    code, out, err = run(capsys, "ring-check", "--p", "4", "4", "inf",
                         "--n", str(n), "--max-len", "3")
    assert code == 65
    assert out == ""
    assert err == (f"domain error: the power basis for q = {n} has degree "
                   "above 14 and is unusable\n")


@pytest.mark.parametrize("n", [2 ** 61 - 1, 2 ** 127 - 1])
def test_ring_check_large_prime_n_is_not_factored(n):
    # a large prime q was factored by trial division before it was refused
    proc = subprocess.run(
        [sys.executable, "-m", "chtg", "ring-check", "--p", "4", "4", "inf",
         "--n", str(n), "--max-len", "3"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
        timeout=10)
    assert (proc.returncode, proc.stdout) == (65, "")
    assert proc.stderr == (f"domain error: the power basis for q = {n} has "
                           "degree above 14 and is unusable\n")


@pytest.mark.parametrize("fmt", ["--csv", "--json"])
def test_ring_check_ill_conditioned_basis_before_header(capsys, fmt):
    # the rows stream, so the basis is solved before the header is written
    code, out, err = run(capsys, "ring-check", "--p", "4", "4", "inf",
                         "--n", "121", "--max-len", "3", fmt)
    assert (code, out) == (65, "")
    assert err == ("domain error: the power basis for q = 121 has degree "
                   "above 14 and is unusable\n")


@pytest.mark.parametrize("c", ["1.5", "-2"])
def test_cos_alpha_out_of_range(capsys, c):
    code, out, err = run(capsys, "trace", "--word", "12", "--p", "4", "4", "4",
                         "--cos-alpha", c)
    assert (code, out) == (65, "")
    assert err == f"domain error: cos(alpha) must be in [-1, 1], got {float(c)}\n"


def test_byte_identical_reruns(capsys):
    args = ("thresholds", "--p", "4", "4", "inf", "--json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


# sha256 of stdout for the JSON, CSV and human forms of each subcommand that
# writes rows or payloads, recorded before scan and ring-check streamed their
# rows and before the payloads carried complex values as such.  The scan and
# trace digests were re-recorded when both moved from the realization's
# reflections to traces' kernel, which changes last bits and five verdicts
_S = "scan --p 4 5 6 --t 1.0 --max-len 10"
_R = "ring-check --p 4 4 inf --max-len 8 --n"
_T = "trace --word 2321 --p 4 5 6 --t 0.8"
_S4 = "scan --p 4 5 6 --t 1.0 --max-len 14"
_T16 = "trace --word 1213121323123212"
_S16 = "scan --p 4 5 6 --t 1.0 --max-len 16"
_R14 = "ring-check --p 4 4 inf --max-len 14 --n"
GOLDEN_STDOUT = {
    f"{_S} --json": (2, "de2f99b0702bf98f52cecf7310dcfbbfb20fa6cbd64209491c6f6fb3fee24ebd"),
    f"{_S} --csv": (2, "dd12bec2b76103665330d76ad1d98980e53893a6dbbdfbaf667a31172efb84e7"),
    _S: (2, "93404cc1f465817eb5595f3d1a53679df543f43c8949ec8363bbceeb88236cb6"),
    f"{_R} 5 --json": (0, "7774f7e7fda9e0591beac031720ea11dfaf0c59e6e1fb38ef332e5a643777e28"),
    f"{_R} 5 --csv": (0, "2a056b489d545df984b93480ab14de5974cbb0757e5fb04cd5fd81669015f0f2"),
    f"{_R} 5": (0, "058aec931f1a04b27eb65c031128ee1e872515dcf6e3bb14d9d546cd101574d9"),
    f"{_R} inf --json": (0, "88462e12c473f28c23af59638462682adde160f0c90910dee9863999e8be8477"),
    f"{_R} inf --csv": (0, "2a056b489d545df984b93480ab14de5974cbb0757e5fb04cd5fd81669015f0f2"),
    f"{_R} inf": (0, "058aec931f1a04b27eb65c031128ee1e872515dcf6e3bb14d9d546cd101574d9"),
    f"{_T} --json --fourier": (0, "7ce9fd5387064b22ddec770b8426fa98bc96b3cf44d4617fdd84b3dd0904c1a8"),
    f"{_T} --csv": (0, "0760328951f326eb147bb49ba6babc025f8bc10c5f2d939cc6485eab751a4253"),
    _T: (0, "e02131d1fe65abb127855146b3cf7e4d774ce97b6e6531eec1dae9b415d7eafa"),
    "invariants --p 4 5 6 --t 0.8 --json":
        (0, "ccecff51d9f29f98f717caff3602fc161eee82b455255bf48baabf0d9e181057"),
    "invariants --p 4 5 6 --t 0.8":
        (0, "2f64ef53f0468633b66fde34419c245e542ecbe2e83309c3adca13b46ea9289f"),
    "thresholds --p 4 4 inf --json":
        (0, "765f22ffd21e1a055f19da915f4e41673392b3f68838bf5ee1935d8a31a8455b"),
    "thresholds --p 4 4 inf":
        (0, "037c79536f1a2101cb6215545e78408ea1f21e05a8d5d65998518d85b647e0ae"),
    # recorded before scan and ring-check ran on the level-wise prefix pass;
    # the (10,10,inf) scan has rows in the |rho| <= tol band
    f"{_S4} --csv": (2, "c920dbfd1552275d0d7f5f33f3b82fea0c9ad073185e1a0485a312724ee78574"),
    f"{_S4} --json": (2, "d3696da648551aa4a65d845c92362805a72b0701f2834ce6b8f9f71adda1377f"),
    _S4: (2, "a7b33e2bb7aa2dc8c59548cbed0482bcee48161ed814dc32aac47d3973671c6c"),
    "scan --p 10 10 inf --t 0.5 --max-len 10 --include-alternating --csv":
        (2, "ffeda5dbdb522b9f942a45be0a9a67fa7504c01e9a580459f6dd2cd4fb54b8b7"),
    "ring-check --p 4 4 inf --n 5 --max-len 12 --csv":
        (0, "4dcbf9166c4661927b64ee74042223a31018420b12a2cbf9989ac6978dce1edf"),
    # recorded before the trace routes cached their per-parameter constants;
    # the CSV prints every route at 17 digits, so any changed bit shows
    f"{_T16} --p 4 5 6 --t 0.8 --csv":
        (0, "3c4ff4afa2cbb68e6b76d8ef962539796bbee984ff7103ff5b954a727991735b"),
    f"{_T16} --p inf inf inf --t 0.8 --csv":
        (0, "3a019a41fd35c2b0eb6fd21184c57e25987abefe97450ee2ef123ecff67060d0"),
    f"{_T16} --lengths 1 1.5 2 --t 0.8 --csv":
        (0, "ad4556777fdc4fd0d6be689d17814d6512ab46c3585c05c852553c7c913ad154"),
    "trace --word 123121321323 --p 4 5 6 --t 0.8 --json --fourier":
        (0, "7ef804bb23055fdb972e54a8862adc6801dc1689b09cc5fd6cb1b69263e25435"),
    # recorded before the prefix pass multiplied one block per letter and
    # ring-check wrote its rows per length; at 16 letters a letter's block
    # first passes words.CHUNK parents, and the n = 5 run fails one row at 20
    f"{_S16} --csv": (2, "bd5bc3ac22240b1c702b6079f429c9a8195fb2dedf26341cc46f6287dfdb1dd3"),
    f"{_R14} 8 --json": (0, "3aaccef5eb1df1ca4daff2082d2605579d9c3da0d2141879fbe2d056078c3790"),
    f"{_R14} inf --json": (0, "6855d3eaac7af185d253a2fe5ec8d214b8434de37f2f2424953be4525d567978"),
    "ring-check --p 4 4 inf --n 5 --max-len 20":
        (2, "d3d431ba2f54afb6301840276e64c43ddbbe5db03a8503b982831e2e6e13c2d7"),
    # a -0 radius is stored as 0: this is the digest of --r 0 1 1 (with -0
    # kept as given it printed "r1":-0, sha256 6949e7e1...)
    "trace --word 23 --r -0 1 1 --cos-alpha -0.5 --json":
        (0, "c4d1f1556886f0a9ab398ea6cc422ba197c97b7eee511054641d24d26355e4ae"),
}


@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT))
def test_stdout_golden_digest(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN_STDOUT[command]
    assert err == ""


@pytest.mark.parametrize("command", sorted(
    c for c in GOLDEN_STDOUT if c.startswith(("ring-check", "trace"))))
def test_ring_check_and_trace_call_no_lapack(capsys, monkeypatch, command):
    # every numpy.linalg entry point raises, so a call from src/ to an SVD,
    # a solve or any other LAPACK routine fails the command
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg was called")
    for name in np.linalg.__all__:
        if name != "LinAlgError":
            monkeypatch.setattr(np.linalg, name, refuse)
    _power_basis_pinv.cache_clear()
    code, out, err = run(capsys, *command.split())
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN_STDOUT[command]
    assert err == ""


# sha256 of the help text at COLUMNS=80 and the text of usage errors the
# top-level parser or a subparser raises, recorded while main still built
# every subcommand; argparse lays help out differently across Python versions
GOLDEN_HELP = {
    "-h": "21b688e0f9972fce77502e4dc97624c03dbe9725e03e390dd2aa97f69d67469c",
    "trace -h": "8deeb03fd34118ad3f8f1b93bca0e2bce2a9d482c40bcb6e9a54f095c06c1e06",
    "thresholds -h": "92e6f3bdd1a8e7272fa0c69f61f7edb7f6b43cd84f8b45e9358de7127b7091d4",
    "family -h": "566513c6ea56d7c974363b1a9c1ebce5917b1728b7adb7a55d8448ba07a78d5e",
    "invariants -h": "2c973b0a49fbe8062cd94e1a1d15aefe746a1244caade042ae3c4814c63e0de4",
    "scan -h": "55b17d17e547cc4c473da3c94ebcc76d426797793c9a3173cc15e5354510d5f4",
    "ring-check -h": "a3258c9f3b5310cf50397bdef066d9300796cb13b8cb0a31ac3b18abecbb25e7",
}
GOLDEN_USAGE_ERRORS = {
    "": "the following arguments are required: command",
    "bogus": "argument command: invalid choice: 'bogus' (choose from 'trace', "
             "'thresholds', 'family', 'invariants', 'scan', 'ring-check')",
    "scan": "one of the arguments --p --lengths --r is required",
    "ring-check --p 4 4 inf --n 5 --json --csv":
        "argument --csv: not allowed with argument --json",
    "scan --p 4 5 6 --t 1 --bogus": "unrecognized arguments: --bogus",
    "ring-check --p 4 4 inf --n 5.5": "bad rotation order '5.5'",
    "ring-check --p 4 4 inf --n 1e400": "bad rotation order '1e400'",
    "thresholds --p 4 4 inf --n x": "bad rotation order 'x'",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_HELP))
def test_help_golden_digest(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(command.split())
    captured = capsys.readouterr()
    assert (exc.value.code, captured.err) == (0, "")
    assert hashlib.sha256(captured.out.encode()).hexdigest() == GOLDEN_HELP[command]


@pytest.mark.parametrize("command", sorted(GOLDEN_USAGE_ERRORS),
                         ids=lambda command: command or "no-command")
def test_usage_error_golden_text(capsys, command):
    want = f"usage error: {GOLDEN_USAGE_ERRORS[command]}\n"
    assert run(capsys, *command.split()) == (64, "", want)


_USAGE_ERRORS = [
    ("trace", "--word", "123", "--p", "3", "3", "3"),
    ("trace", "--word", "123", "--p", "3", "3", "3", "--alpha", "1.0",
     "--t", "2.0"),
    ("thresholds",),
]


def test_usage_errors(capsys):
    for argv in _USAGE_ERRORS:
        code, _, _ = run(capsys, *argv)
        assert code == 64


@pytest.mark.parametrize("flag,value", [("--cos-alpha", "-61/64"),
                                        ("--t", "-1e-3"),
                                        ("--alpha", "-1e-1")])
def test_negative_values_read_as_values(capsys, flag, value):
    # a value after its flag reads as in the "=" spelling, fractions and
    # exponents too
    argv = ("trace", "--p", "4", "5", "6", "--word", "123")
    spaced = run(capsys, *argv, flag, value)
    assert spaced[:2] == run(capsys, *argv, f"{flag}={value}")[:2]
    assert spaced[0] != 64


def test_negative_radius_is_a_domain_error(capsys):
    code, out, err = run(capsys, "trace", "--r", "-1e-3", "1", "1", "--t", "1",
                         "--word", "123")
    assert (code, out) == (65, "") and err.startswith("domain error: ")


_BAD_ARGUMENTS = [
    ("thresholds", "--p", "4", "x", "6"),
    ("thresholds", "--p", "4", "4", "inf", "--alpha", "foo"),
    ("thresholds", "--p", "4", "4", "inf", "--cos-alpha", "1/0"),
    ("thresholds", "--p", "4", "4", "inf", "--cos-alpha", "a/b"),
    ("thresholds", "--p", "4", "4", "inf", "--cos-alpha", "abc"),
    ("trace", "--word", "12", "--r", "1", "1", "1", "--n", "5"),
    ("ring-check", "--p", "4", "4", "inf", "--t", "1"),
]


@pytest.mark.parametrize("argv", _BAD_ARGUMENTS, ids=["p-entry", "alpha-text", "cos-alpha-zero-denominator",
        "cos-alpha-text-fraction", "cos-alpha-text", "n-without-p",
        "ring-check-without-n"])
def test_bad_arguments_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 64
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("usage error: ")


def test_thresholds_json_carries_rotation_order(capsys):
    code, out, _ = run(capsys, "thresholds", "--p", "4", "4", "inf", "--n", "5",
                       "--json")
    assert code == 0
    assert json.loads(out)["n"] == 5
    assert ',"n":5}' in out  # top level, after the params object


_TABLE_COMMANDS = ["thresholds", "family", "invariants"]
_CSV_ARGS = ("--p", "4", "4", "inf", "--alpha", "1.0", "--csv")


@pytest.mark.parametrize("command", _TABLE_COMMANDS)
def test_csv_rejected_on_table_commands(capsys, command):
    code, out, err = run(capsys, command, *_CSV_ARGS)
    assert code == 64
    assert out == ""
    assert "--csv" in err


def test_trace_long_word(capsys):
    # the expansion route is no longer capped at length 20
    code, out, _ = run(capsys, "trace", "--word", "123121321323" * 2,
                       "--p", "4", "5", "6", "--t", "0.8", "--json")
    assert code == 0
    assert set(json.loads(out)["methods"]) == {"oracle", "combinatorial",
                                                "recursive"}


def test_trace_large_tau_agrees_relatively(capsys):
    # |tau| ~ 9.6e12: the routes differ by ~0.09, i.e. ~1e-14 relative
    code, out, err = run(capsys, "trace", "--word", "12131213121312132312",
                         "--lengths", "2", "2.5", "3", "--t", "0.3", "--json")
    assert code == 0, err
    assert max(json.loads(out)["deltas"].values()) > 1e-6


def test_trace_zero_radius_skips_recursion(capsys):
    # p = 2 gives r_1 = cos(pi/2) ~ 6e-17, where the recursion is undefined
    code, out, err = run(capsys, "trace", "--word", "1213", "--p", "2", "5", "6",
                         "--t", "0.3", "--json")
    assert code == 0, err
    assert set(json.loads(out)["methods"]) == {"oracle", "combinatorial"}


def test_trace_very_long_word(capsys):
    # 1,200 letters: deeper than Python's recursion limit.  The product of
    # the reflection norms in the agreement bound overflows to inf, silently
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, "trace", "--word", "12" * 600,
                             "--p", "4", "5", "6", "--t", "0.5", "--json")
    assert code == 0, err
    assert "recursive" in json.loads(out)["methods"]


@pytest.mark.parametrize("fmt", ["--csv", "--json"])
def test_trace_overflow_is_domain_error(capsys, fmt):
    # 600 letters give |tau| ~ 5e170; at 1,200 every route overflows to NaN
    argv = ("trace", "--p", "4", "5", "6", "--t", "0.7", fmt, "--word")
    code, out, err = run(capsys, *argv, "123" * 200)
    assert code == 0, err
    assert out
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning either
        code, out, err = run(capsys, *argv, "123" * 400)
    assert code == 65
    assert out == ""
    assert err == "domain error: the trace overflows\n"


def test_trace_overflow_exits_before_the_recursion(capsys, monkeypatch):
    # finding the recursion's plan is quadratic in the length, so an
    # overflowing oracle or subset sum ends the command before it
    def recursion(word, params):
        raise AssertionError("the recursion ran")

    monkeypatch.setattr(cli.traces, "trace_recursive", recursion)
    code, out, err = run(capsys, "trace", "--p", "4", "5", "6", "--t", "0.8",
                         "--word", "123" * 400)
    assert (code, out, err) == (65, "", "domain error: the trace overflows\n")


def test_overflowing_scan_writes_no_stderr(capsys):
    # at r = 1e7, |tau| passes 1e77 by 12 letters, where rho overflows to
    # inf, and 5e102 by 14, where Re tau^3 does too
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning either
        code, out, err = run(capsys, "scan", "--r", "1e7", "1e7", "1e7",
                             "--cos-alpha", "-0.5", "--max-len", "14", "--csv")
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == len(brute_classes(14)) + sum(
        len(brute_classes(n)) for n in range(1, 14))
    assert ["inf", "Hyperbolic"] in [r[3:] for r in rows if len(r[0]) == 14]


def test_scan_json_is_written_in_pieces(monkeypatch):
    writes = []

    class Out:
        def write(self, s):
            writes.append(s)

        def writelines(self, lines):
            for line in lines:
                self.write(line)

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", Out())
    code = main(["scan", "--p", "4", "5", "6", "--t", "1.0", "--max-len", "10",
                 "--json"])
    data = json.loads("".join(writes))
    assert code == 2 and len(data["rows"]) == len(classes_up_to(10))
    assert len(writes) > len(data["rows"]) and max(map(len, writes)) < 200


@pytest.mark.parametrize("argv, params", [
    # overflowing: rho is inf from 12 letters on
    (("--r", "1e7", "1e7", "1e7", "--cos-alpha", "-0.5", "--max-len", "14"),
     TriangleParams(1e7, 1e7, 1e7).with_cos_alpha(-0.5)),
    # rows in the |rho| <= tol band, which classify decides
    (("--p", "10", "10", "inf", "--t", "0.5", "--max-len", "10"),
     TriangleParams.from_signature(10, 10, math.inf).with_t(0.5)),
], ids=["overflow", "band"])
def test_scan_json_rows_equal_dict_rows(capsys, argv, params):
    # the per-slice row template writes what dumps_stable writes of row dicts
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, out, err = run(capsys, "scan", *argv, "--json")
        rows = scan_rows(scan_elliptic(params, int(argv[-1])))
    want = ",".join(dumps_stable({
        "word": word_to_str(r.word), "tau": r.tau, "rho": r.rho,
        "verdict": r.verdict, "filtered": r.filtered}) for r in rows)
    head, rest = out.split(',"rows":[', 1)
    assert rest.split('],"hits":', 1)[0] == want
    assert err == "" and json.loads(out)["max_len"] == int(argv[-1])


@pytest.mark.parametrize("fmt", [None, "--csv"])
def test_trace_fourier_only_in_json(capsys, monkeypatch, fmt):
    # the human and CSV formats print no Fourier data, so they compute none
    import chtg.cli as cli_mod

    def fail(*args, **kwargs):
        raise AssertionError("trace_polynomial called")

    monkeypatch.setattr(cli_mod.traces, "trace_polynomial", fail)
    argv = ["trace", "--word", "2321", "--p", "4", "5", "6", "--t", "0.8",
            "--fourier"]
    code, out, err = run(capsys, *argv, *([fmt] if fmt else []))
    assert code == 0, err
    assert out and err == ""


@pytest.mark.parametrize("fmt", ["--json", "--csv", None])
def test_trace_fourier_past_cap(capsys, fmt):
    # 51 letters > EXACT_CAP = 48: the trace is still reported, exit 0
    argv = ["trace", "--word", "123" * 17, "--p", "4", "5", "6", "--t", "0.8",
            "--fourier"]
    code, out, err = run(capsys, *argv, *([fmt] if fmt else []))
    assert code == 0, err
    if fmt == "--json":
        data = json.loads(out)
        assert data["fourier"] is None
        assert set(data["methods"]) == {"oracle", "combinatorial", "recursive"}
        assert len(err.splitlines()) == 1 and "cap 48" in err
    else:
        assert out and err == ""


def test_domain_error(capsys):
    # alpha = 0 violates the existence bound at ideal radii
    code, _, err = run(capsys, "trace", "--word", "123", "--r", "1", "1", "1",
                       "--alpha", "0")
    assert code == 65
    assert "domain error" in err


def test_method_disagreement_exit(capsys, monkeypatch):
    import chtg.cli as cli_mod

    class FakeTrace:
        value = complex(99.0, 0.0)
        method = "recursive"

    monkeypatch.setattr(cli_mod.traces, "trace_recursive",
                        lambda w, p: FakeTrace())
    code, out, err = run(capsys, "trace", "--word", "123", "--p", "4", "4", "4",
                         "--alpha", "1.0")
    assert code == 65
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("domain error: method disagreement")


def test_env_tolerance_override(capsys, monkeypatch):
    # word (1,3) at signature (4,4,inf) has tau = 1, rho = -16: with a huge
    # tolerance band it lands in the unipotent branch (|tau^3 - 27| <= tol)
    args = ("trace", "--word", "13", "--p", "4", "4", "inf",
            "--cos-alpha", "0.3", "--json")
    _, out, _ = run(capsys, *args)
    assert json.loads(out)["verdict"] == "RegularElliptic"
    monkeypatch.setenv("CHTG_TOL", "100")
    _, out, _ = run(capsys, *args)
    assert json.loads(out)["verdict"] == "Unipotent"


_UNUSED_FLAGS = {"jobs": ("--jobs", "2"), "tol": ("--tol", "1e-3")}
_FLAG_CASES = [(name, command) for name in _UNUSED_FLAGS
               for command in ("thresholds", "family", "invariants", "ring-check")]
_FLAG_CASES.append(("jobs", "scan"))
_FLAG_ARGS = ("--p", "4", "4", "inf", "--n", "5")


@pytest.mark.parametrize("name, command", _FLAG_CASES,
                         ids=[f"{name}-{command}" for name, command in _FLAG_CASES])
def test_flags_rejected_where_unused(capsys, name, command):
    # no command takes --jobs, and only trace and scan classify
    flag = _UNUSED_FLAGS[name]
    code, out, err = run(capsys, command, *_FLAG_ARGS, *flag)
    assert code == 64
    assert out == ""
    assert flag[0] in err


@pytest.mark.parametrize("argv", [
    ("trace", "--word", "12", "--p", "4", "4", "inf", "--n", "0"),
    ("thresholds", "--p", "4", "4", "inf", "--n", "0"),
    ("family", "--p", "4", "4", "inf", "--n", "0"),
    ("invariants", "--p", "4", "4", "inf", "--n", "0"),
    ("scan", "--p", "4", "4", "inf", "--n", "0", "--max-len", "3"),
    ("ring-check", "--p", "4", "4", "inf", "--n", "0", "--max-len", "3"),
    ("ring-check", "--p", "4", "4", "inf", "--n", "-5", "--max-len", "3"),
    # n = 1 is a valid rotation order, but q = 1 has no Galois conjugates
    ("ring-check", "--p", "4", "4", "inf", "--n", "1", "--max-len", "3"),
    # 5 and 7 are two entries outside {3,4,6,inf}
    ("ring-check", "--p", "5", "5", "inf", "--n", "7", "--max-len", "3"),
], ids=["trace-n0", "thresholds-n0", "family-n0", "invariants-n0", "scan-n0",
        "ring-check-n0", "ring-check-n-5", "ring-check-n1",
        "ring-check-two-extra"])
def test_invalid_rotation_order_is_domain_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 65
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("domain error")


@pytest.mark.parametrize("argv", [
    ("scan", "--p", "4", "5", "6", "--t", "nan", "--max-len", "3"),
    ("trace", "--word", "12", "--r", "nan", "1", "1", "--alpha", "1"),
    ("trace", "--word", "12", "--r", "inf", "1", "1", "--alpha", "1"),
    ("trace", "--word", "12", "--p", "4", "5", "6", "--alpha", "inf"),
    ("trace", "--word", "12", "--p", "4", "5", "6", "--alpha", "nan"),
    ("trace", "--word", "12", "--p", "4", "5", "6", "--cos-alpha", "nan"),
    ("invariants", "--lengths", "1", "1", "1500", "--alpha", "1"),
    ("thresholds", "--lengths", "1", "nan", "1"),
    # finite radii whose realization overflows
    ("trace", "--word", "12", "--r", "1e200", "1", "1", "--alpha", "1"),
    ("trace", "--word", "12", "--lengths", "1", "1", "1400", "--alpha", "1"),
    # finite radii whose threshold formulas overflow or underflow
    ("thresholds", "--r", "1e150", "1e150", "1e150", "--json"),
    ("thresholds", "--lengths", "700", "700", "700", "--json"),
    ("family", "--lengths", "1400", "1400", "1400"),
    ("thresholds", "--r", "1e-200", "1e-200", "1e-200", "--json"),
], ids=["t-nan", "r-nan", "r-inf", "alpha-inf", "alpha-nan", "cos-alpha-nan",
        "lengths-overflow", "lengths-nan", "r-realization-overflow",
        "lengths-realization-overflow", "thresholds-r-c_a-nan",
        "thresholds-lengths-c_a-nan", "family-c_inf-nan",
        "thresholds-r-product-underflow"])
def test_non_finite_parameters_are_domain_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 65
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("domain error")


_SCAN3 = ("scan", "--p", "4", "5", "6", "--t", "1", "--max-len", "3", "--csv")
_TRACE12 = ("trace", "--word", "12", "--p", "4", "5", "6", "--t", "1")
_RING3 = ("ring-check", "--p", "4", "4", "inf", "--n", "5", "--max-len", "3",
          "--csv")


_BAD_TOLERANCES = [
    ((*_SCAN3, "--tol", "-5"), None),
    ((*_SCAN3, "--tol", "nan"), None),
    ((*_SCAN3, "--tol", "inf"), None),
    ((*_SCAN3, "--tol", "abc"), None),
    (_SCAN3, "nan"),
    (_TRACE12, "abc"),
    (_TRACE12, "-1e-9"),
    ((*_RING3, "--ring-tol", "nan"), None),
    ((*_RING3, "--ring-tol", "-1"), None),
    ((*_RING3, "--ring-tol", "inf"), None),
    ((*_RING3, "--ring-tol", "abc"), None),
]


@pytest.mark.parametrize("argv, env", _BAD_TOLERANCES, ids=["tol-negative", "tol-nan", "tol-inf", "tol-text", "env-nan",
        "env-text", "env-negative", "ring-tol-nan", "ring-tol-negative",
        "ring-tol-inf", "ring-tol-text"])
def test_invalid_tolerance_is_usage_error(capsys, monkeypatch, argv, env):
    if env is not None:
        monkeypatch.setenv("CHTG_TOL", env)
    code, out, err = run(capsys, *argv)
    assert code == 64
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("usage error")


def test_threshold_overflow_to_inf_is_kept(capsys):
    # c_a ~ 1e100 overflows to inf, and t_a = inf is its correct sentinel
    code, out, _ = run(capsys, "thresholds", "--r", "1e100", "1e100", "1e100",
                       "--json")
    assert code == 0
    data = json.loads(out)
    assert (data["c_a"], data["t_a"]) == ("inf", "inf")


def test_zero_tolerance_accepted(capsys):
    code, out, _ = run(capsys, *_SCAN3, "--tol", "0")
    assert code in (0, 2) and out.startswith("word,")


@pytest.mark.parametrize("argv", [
    ("scan", "--p", "4", "5", "6", "--t", "1", "--max-len", "0"),
    ("scan", "--p", "4", "5", "6", "--t", "1", "--max-len", "-3"),
    ("ring-check", "--p", "4", "4", "inf", "--n", "5", "--max-len", "0"),
], ids=["scan-len0", "scan-len-3", "ring-check-len0"])
def test_max_len_below_one_is_domain_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 65
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("domain error")


@pytest.mark.parametrize("command", [
    ("scan", "--p", "4", "5", "6", "--t", "1"),
    ("ring-check", "--p", "4", "4", "inf", "--n", "5"),
], ids=["scan", "ring-check"])
def test_max_len_past_cap_is_domain_error(capsys, command):
    # one cap, words.MAX_LEN, checked before any class is enumerated
    code, out, err = run(capsys, *command, "--max-len", str(MAX_LEN + 1),
                         "--csv")
    assert code == 65
    assert out == ""
    assert err == f"domain error: word length must be 1..{MAX_LEN}, " \
                  f"got {MAX_LEN + 1}\n"


def test_scan_zero_radius_certificate(capsys):
    # at r1 = 0 the trace of 3231 is 16 r1^2 r2^2 + 4 r3^2 - 1 = 2.24
    code, out, err = run(capsys, "scan", "--r", "0", "0.9", "0.9",
                         "--alpha", "1", "--max-len", "4", "--json")
    assert (code, err) == (2, "")
    cert = json.loads(out)["certificate"]
    assert cert["word"] == "3231" and cert["t_a"] == "-inf"
    assert cert["tau"]["re"] == pytest.approx(2.24, abs=1e-12)


def test_scan_zero_radius_no_certificate(capsys):
    # 4 r1^2 r2^2 + r3^2 = 1, so the test word's trace is 3: t_A = +inf
    code, out, err = run(capsys, "scan", "--r", "0", "1", "1", "--alpha", "1",
                         "--max-len", "4", "--csv")
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 1 + 13


def test_subprocess_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "chtg", "trace", "--word", "1212",
         "--p", "4", "4", "inf", "--cos-alpha", "0.3", "--json"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True)
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["word"] == "1212"


def test_closed_stdout_exits_141_quietly():
    # as under "| head": 14 letters of CSV (about 120 KB) overfill the pipe
    # (64 KiB), so the child is still writing when the reader closes it
    proc = subprocess.Popen(
        [sys.executable, "-m", "chtg", "scan", "--p", "4", "5", "6", "--t", "1",
         "--max-len", "14", "--csv"], env=dict(os.environ, PYTHONPATH=SRC),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"word,re_tau,im_tau,rho,verdict\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == b""


def test_trace_of_a_long_word_is_linear():
    # 65,000 letters: canonical form, recursion plan and both other routes
    # are linear in the word length
    proc = subprocess.run(
        [sys.executable, "-m", "chtg", "trace", "--p", "4", "5", "6", "--t",
         "0.8", "--csv", "--word", "12" * 32500],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
        timeout=30)
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()
    assert rows[0] == "method,re_tau,im_tau"
    assert [row.split(",")[0] for row in rows[1:]] == [
        "oracle", "combinatorial", "recursive"]


_PARITY_CASES = [
    *((command.split(), None) for command in sorted(GOLDEN_STDOUT)),
    *((command.split(), None) for command in sorted(GOLDEN_USAGE_ERRORS)),
    *((argv, None) for argv in (*_USAGE_ERRORS, *_BAD_ARGUMENTS)),
    *(((command, *_CSV_ARGS), None) for command in _TABLE_COMMANDS),
    *(((command, *_FLAG_ARGS, *_UNUSED_FLAGS[name]), None)
      for name, command in _FLAG_CASES),
    *_BAD_TOLERANCES,
]


_PARITY_IDS = [" ".join(argv) + (f" CHTG_TOL={env}" if env else "")
               or "no-command" for argv, env in _PARITY_CASES]


@pytest.mark.parametrize("argv, env", _PARITY_CASES, ids=_PARITY_IDS)
def test_argparse_runs_as_the_reader(capsys, monkeypatch, argv, env):
    # main reads a well-formed argv itself and leaves any other to argparse;
    # with its reader off, so that argparse reads every argv, it gives the
    # same exit code, stdout and stderr
    if env is not None:
        monkeypatch.setenv("CHTG_TOL", env)
    want = run(capsys, *argv)
    monkeypatch.setattr(cli, "_read", lambda argv: None)
    assert run(capsys, *argv) == want


@pytest.mark.parametrize("argv, env", _PARITY_CASES, ids=_PARITY_IDS)
def test_closed_pipe_exits_141_where_stdout_is_written(capsys, monkeypatch,
                                                       argv, env):
    # the reader is gone before the first write, whether that write fills
    # the buffer or is the flush at the end of main: a command with output
    # exits 141, any other as it does with stdout open, and stderr is the same
    if env is not None:
        monkeypatch.setenv("CHTG_TOL", env)
    code, out, err = run(capsys, *argv)
    r, w = os.pipe()
    os.close(r)
    with open(w, "w") as gone:
        monkeypatch.setattr(sys, "stdout", gone)
        got = main(list(argv))
    assert (got, capsys.readouterr().err) == (141 if out else code, err)


# values of the reader corpus: numbers, non-finite and bad text, negative
# numbers argparse takes as values, and tokens that look like options
_CORPUS_VALUES = ["4", "inf", "nan", "x", "-1e-3", "-61/64", "-", "", "--"]


def _corpus_argv(rng):
    """One argv: a subcommand, then flags of cli._FLAGS (mostly the
    command's own) with values of _CORPUS_VALUES; some flags repeated,
    abbreviated, spelled with "=" or given too few values."""
    command = rng.choice([*cli._COMMANDS, "bogus"])
    _, own, _ = cli._COMMANDS.get(command, ("", (), None))
    mine = (*cli._COMMON, *own)
    argv = [command]
    if rng.random() < 0.7:
        argv += [rng.choice(("--p", "--lengths", "--r")), "4", "4", "inf"]
    if "--word" in mine and rng.random() < 0.8:
        argv += ["--word", "123"]
    for _ in range(rng.randrange(5)):
        flag = rng.choice(mine if rng.random() < 0.9 else list(cli._FLAGS))
        nargs = cli._FLAGS[flag][0]
        values = [rng.choice(_CORPUS_VALUES) if rng.random() < 0.6 else "4"
                  for _ in range(nargs)]
        if values and rng.random() < 0.1:
            values.pop()
        spelling = rng.random()
        if spelling < 0.1:
            flag = flag[:rng.randrange(3, len(flag) + 1)]
        elif spelling < 0.2 and len(values) == 1:
            flag, values = f"{flag}={values[0]}", []
        argv += [flag, *values] * (2 if rng.random() < 0.1 else 1)
    return argv


def test_reader_gives_argparses_namespace(capsys):
    # wherever the reader returns a namespace, argparse's full parser reads
    # the argv to the same one, value for value (repr, so nan matches nan)
    rng, parser = random.Random(29), cli.build_parser()
    read = 0
    for _ in range(2500):
        argv = _corpus_argv(rng)
        got = cli._read(argv)
        try:
            want = parser.parse_args(argv)
        except (cli.UsageError, SystemExit):
            want = None
        if got is not None:
            read += 1
            assert want is not None, argv
            assert ({k: repr(v) for k, v in vars(got).items()}
                    == {k: repr(v) for k, v in vars(want).items()}), argv
    capsys.readouterr()
    assert 400 < read < 2100  # both paths are well exercised


def _workload_argvs():
    spec = importlib.util.spec_from_file_location(
        "_bench_workloads", Path(SRC).parent / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [module.make_inputs(w, seed)["argv"] for w in ("scan", "ring")
            for seed in range(1, 11)]


def test_main_builds_a_parser_only_off_the_well_formed_path(capsys,
                                                            monkeypatch):
    made = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: made.append(1) or init(self, *a, **k))
    for argv in [*map(str.split, GOLDEN_STDOUT), *_workload_argvs()]:
        run(capsys, *argv)
        assert made == [], argv
    # help, errors and unusual spellings go to argparse, and read as it
    # reads, with all six subcommands (seven parsers)
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        main(["-h"])
    assert len(made) == 7 and hashlib.sha256(
        capsys.readouterr().out.encode()).hexdigest() == GOLDEN_HELP["-h"]
    for command in ("bogus", ""):
        made.clear()
        want = (64, "", f"usage error: {GOLDEN_USAGE_ERRORS[command]}\n")
        assert run(capsys, *command.split()) == want and len(made) == 7
    for argv in (("scan", "--p", "4", "5", "6", "--t", "1", "--max", "3"),
                 ("scan", "--p", "4", "5", "6", "--t=1", "--max-len", "3")):
        made.clear()
        got = run(capsys, *argv)
        assert len(made) == 7
        assert got == run(capsys, *_SCAN3[:-1])


def test_import_builds_no_parser():
    # the parser is built inside main, so importing the CLI costs no argparse
    proc = subprocess.run([sys.executable, "-c", (
        "import argparse\n"
        "made = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = "
        "lambda self, *a, **k: made.append(1) or init(self, *a, **k)\n"
        "import chtg.cli\n"
        "print(len(made))\n")], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")
