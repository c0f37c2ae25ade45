"""Command line interface: the ``chtg`` tool.

Subcommands: trace, thresholds, scan, ring-check, invariants, family, each
declared once in ``_COMMANDS`` and every flag once in ``_FLAGS``.  ``main``
reads a well-formed argv off that table (``_read``) with no parser built;
any other goes to argparse, with the parser of only the named subcommand,
or of all six for ``chtg``, ``chtg -h`` and a mistyped name.
Output formats: --json (one object), --csv (header + rows; trace, scan and
ring-check only), default human table.  Floats in machine formats are printed
with 17 significant digits and field order is fixed, so identical
configurations give byte-identical output.

Exit codes: 0 ok; 2 a certificate / elliptic hit / failed ring check was
found (scripting convenience); 64 usage error; 65 math domain error.
The environment variable CHTG_TOL overrides the classification tolerance.
"""

from __future__ import annotations

import argparse
import cmath
import math
import os
import re
import sys
from dataclasses import dataclass
from itertools import chain, compress, islice, repeat

import numpy as np

from . import analysis, arithmetic, traces, triangle, words
from .classify import REGULAR_ELLIPTIC, classify
from .triangle import TriangleError, TriangleParams

EXIT_OK = 0
EXIT_FOUND = 2
EXIT_USAGE = 64
EXIT_DOMAIN = 65
_JSON_ROW = ('%s{"word":"%s","tau":{"re":%s,"im":%s},"rho":%s,"verdict":"%s",'
             '"filtered":%s}')
_RING_JSON_ROW = ('{"word":"%s","ok":%s,"two_re":%s,"abs_sq":%s,'
                  '"two_re_residual":%s,"abs_sq_residual":%s}')
_RING_ROWS = {"csv": "%s,%d\n", "human": "%-10s ok=%s\n"}
_NON_FINITE = {"nan": '"nan"', "inf": '"inf"', "-inf": '"-inf"'}
_BOOLS = ("false", "true")
# argparse takes only -12 and -1.5 for values, not -1e-3 or -61/64; no
# option here starts with "-" and a digit or "."
_NEGATIVE = re.compile(r"^-[\d.]")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE

    def error(self, message):
        raise UsageError(message)


def dumps_stable(obj) -> str:
    """Deterministic JSON: insertion order kept, floats at 17 significant
    digits, infinities as strings."""
    if isinstance(obj, dict):
        return "{" + ",".join(f"{_scalar(str(k))}:{dumps_stable(v)}"
                              for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(map(dumps_stable, obj)) + "]"
    return _scalar(obj)


def _scalar(obj) -> str:
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):  # nan and the infinities as strings
        return format(obj, ".17g") if math.isfinite(obj) else f'"{obj}"'
    if isinstance(obj, complex):
        return f'{{"re":{_scalar(obj.real)},"im":{_scalar(obj.imag)}}}'
    raise TypeError(f"cannot serialise {type(obj)!r}")


def _floats(xs):
    """Each float of xs as _scalar writes it, by C-level maps."""
    strs = list(map(format, xs, repeat(".17g")))
    return map(_NON_FINITE.get, strs, strs)


def _parse_p(token: str, what: str = "signature entry"):
    if token in ("inf", "oo"):
        return math.inf
    try:
        return int(token)
    except ValueError:
        raise UsageError(f"bad {what} {token!r}") from None


def _parse_alpha(token: str) -> float:
    if token == "pi":
        return math.pi
    try:
        return float(token)
    except ValueError:
        raise UsageError(f"bad alpha {token!r}") from None


def _parse_fraction(token: str) -> float:
    if "/" in token:
        a, b = token.split("/", 1)
        try:
            return float(a) / float(b)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"bad fraction {token!r}") from None
    try:
        return float(token)
    except ValueError:
        raise UsageError(f"bad number {token!r}") from None


@dataclass
class RunConfig:
    params: TriangleParams
    group: arithmetic.GroupWithRotation | None
    fmt: str


def _resolve(args, need_angle=True) -> RunConfig:
    group = None
    if args.p is not None:
        ps = tuple(_parse_p(tok) for tok in args.p)
        base = TriangleParams.from_signature(*ps)
    elif args.lengths is not None:
        base = TriangleParams.from_lengths(*args.lengths)
    else:
        base = TriangleParams(*args.r)
    if args.alpha is not None:
        params = base.with_alpha(_parse_alpha(args.alpha))
    elif args.cos_alpha is not None:
        params = base.with_cos_alpha(_parse_fraction(args.cos_alpha))
    elif args.t is not None:
        params = base.with_t(args.t)
    elif args.n is not None:
        n = _parse_p(args.n, "rotation order")
        if args.p is None:
            raise UsageError("--n needs a --p signature")
        group = arithmetic.group_with_rotation(*ps, n)
        params = group.params
    else:
        if need_angle:
            raise UsageError("this command needs one of --alpha/--cos-alpha/--t/--n")
        params = base
    fmt = "json" if args.json else ("csv" if args.csv else "human")
    return RunConfig(params, group, fmt)


def _nonneg_float(raw: str, source: str) -> float:
    """raw as a finite float >= 0; anything else is a usage error."""
    try:
        x = float(raw)
    except ValueError:
        raise UsageError(f"bad {source} {raw!r}") from None
    if not (math.isfinite(x) and x >= 0.0):
        raise UsageError(f"{source} must be finite and >= 0, got {raw!r}")
    return x


def _tol(args) -> float:
    """--tol, else CHTG_TOL, else 1e-9."""
    if args.tol is not None:
        return _nonneg_float(args.tol, "--tol")
    return _nonneg_float(os.environ.get("CHTG_TOL", "1e-9"), "CHTG_TOL")


def _emit(lines):
    """Write each line of any iterable of lines, one at a time."""
    sys.stdout.writelines(f"{line}\n" for line in lines)


def cmd_trace(args) -> int:
    tol = _tol(args)
    cfg = _resolve(args)
    word = words.parse_word(args.word)
    params = cfg.params
    rz = triangle.realize(params)
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        results = {"oracle": traces.trace_oracle(word, rz).value,
                   "combinatorial": traces.trace_combinatorial(word, params).value}
    try:  # the recursion runs only where the other two routes are finite
        if all(map(cmath.isfinite, results.values())):
            results["recursive"] = traces.trace_recursive(word, params).value
    except traces.ZeroRadiusUnsupported:
        pass
    if not all(map(cmath.isfinite, results.values())):
        raise ValueError("the trace overflows")
    deltas = {name: abs(v - results["oracle"]) for name, v in results.items()
              if name != "oracle"}
    bound = traces.agreement_bound(word, rz)
    worst = max(deltas.values())
    if not worst <= bound:
        raise ValueError(f"method disagreement {worst:.3g} "
                         f"above the rounding bound {bound:.3g}")
    tau = results["combinatorial"]  # scan's value of this word, bit for bit
    cls = classify(tau, tol=tol)
    payload = {
        "word": words.word_to_str(word),
        "tau": tau,
        "method": "combinatorial",
        "rho": cls.rho,
        "verdict": cls.verdict,
        "methods": results,
        "deltas": deltas,
        "params": params.to_json_dict(),
    }
    if args.fourier and cfg.fmt == "json":
        try:
            payload["fourier"] = traces.trace_polynomial(word).to_json_dict()
        except traces.CapExceeded as exc:
            payload["fourier"] = None
            sys.stderr.write(f"fourier skipped: {exc} (EXACT_CAP)\n")
    if cfg.fmt == "json":
        _emit([dumps_stable(payload)])
    elif cfg.fmt == "csv":
        _emit(chain(["method,re_tau,im_tau"],
                    (f"{name},{v.real:.17g},{v.imag:.17g}"
                     for name, v in results.items())))
    else:
        _emit(chain([f"word {words.word_to_str(word)}: tau = {tau:.12g} "
                     f"rho = {cls.rho:.6g} [{cls.verdict}]"],
                    (f"  {name:14s} {v:.15g}" for name, v in results.items()),
                    (f"  delta[{name}] = {d:.3g}" for name, d in deltas.items())))
    return EXIT_OK


def cmd_thresholds(args) -> int:
    cfg = _resolve(args, need_angle=False)
    params = cfg.params
    th = analysis.thresholds(params)
    payload = {
        "params": params.to_json_dict(),
        "c_inf": th.c_inf, "t_inf": th.t_inf,
        "c_a": th.c_a, "t_a": th.t_a,
        "r_product": th.r_product,
        "family_member": th.family_member,
    }
    if th.family_member:
        payload["family_type"] = analysis.family_type(params)
        payload["f_b"] = list(th.f_b)
        payload["t_b_minus"] = th.t_b_minus
        payload["t_b_plus"] = th.t_b_plus
    if params.n is not None:
        payload["n"] = params.n
    if cfg.fmt == "json":
        _emit([dumps_stable(payload)])
    else:
        lines = [f"r = ({params.r1:.12g}, {params.r2:.12g}, {params.r3:.12g})"]
        for key in ("c_inf", "t_inf", "c_a", "t_a", "r_product"):
            lines.append(f"  {key:10s} = {payload[key]:.12g}")
        lines.append(f"  family     = {payload['family_member']}")
        if payload["family_member"]:
            lines.append(f"  type       = {payload['family_type']}")
            lines += [f"  {key:10s} = {payload[key]:.12g}" for key in
                      ("t_b_minus", "t_b_plus") if payload[key] is not None]
        _emit(lines)
    return EXIT_OK


def cmd_invariants(args) -> int:
    cfg = _resolve(args)
    params = cfg.params
    rz = triangle.realize(params)
    payload = {"params": params.to_json_dict(),
               "alpha": params.alpha, "t": params.t,
               "cartan": triangle.cartan_invariant(*rz.vertices)}
    for key, invariant in (("sigma", triangle.brehm_sigma),
                           ("eta", triangle.hakim_sandler_eta)):
        try:
            payload[key] = invariant(rz)
        except TriangleError:
            payload[key] = None
    if cfg.fmt == "json":
        _emit([dumps_stable(payload)])
    else:
        _emit([f"alpha  = {params.alpha:.12g}",
               f"t      = {params.t:.12g}",
               f"cartan = {payload['cartan']:.12g}",
               "sigma  = " + ("undefined" if payload["sigma"] is None
                              else f"{payload['sigma']:.12g}"),
               "eta    = " + ("undefined" if payload["eta"] is None
                              else f"{payload['eta']:.12g}")])
    return EXIT_OK


def cmd_scan(args) -> int:
    tol = _tol(args)
    cfg = _resolve(args)
    blocks = analysis.scan_elliptic(
        cfg.params, args.max_len, skip_alternating=not args.include_alternating,
        tol=tol)
    cert = analysis.non_discreteness_certificate(cfg.params, tol=tol)
    hits = []

    def slices():
        """Each block's rows as lists (word, tau, rho, verdict, filtered,
        hit); records the word of every hit."""
        for b in blocks:
            hit = (b.verdict == REGULAR_ELLIPTIC) & ~b.filtered
            ws = words.word_strs(b.words)
            hits.extend(compress(ws, hit))
            yield ws, *(x.tolist() for x in (*b[1:], hit))

    out = sys.stdout
    if cfg.fmt == "json":
        head = {"params": cfg.params.to_json_dict(), "max_len": args.max_len}
        out.write(dumps_stable(head)[:-1] + ',"rows":[')
        sep = ""  # one row a write, each after its separator
        for ws, tau, rho, verdict, filtered, _ in slices():
            out.writelines(map(_JSON_ROW.__mod__, zip(
                chain([sep], repeat(",")), ws, _floats(t.real for t in tau),
                _floats(t.imag for t in tau), _floats(rho), verdict,
                map(_BOOLS.__getitem__, filtered))))
            sep = ","
        # written after the rows, when hits is complete
        tail = {"hits": hits, "certificate": None if cert is None else {
            "word": words.word_to_str(cert.word), "tau": cert.tau,
            "rho": cert.rho, "t": cert.t, "t_a": cert.t_a}}
        out.write("]," + dumps_stable(tail)[1:] + "\n")
    elif cfg.fmt == "csv":
        out.write("word,re_tau,im_tau,rho,verdict\n")
        for ws, tau, rho, verdict, *_ in slices():
            out.write("".join(map("%s,%.17g,%.17g,%.17g,%s\n".__mod__, zip(
                ws, [t.real for t in tau], [t.imag for t in tau], rho, verdict))))
    else:
        for part in slices():
            out.write("".join(f"{w:12s} tau = {t:.8g} rho = {r:.6g} {v}{' *' * h}\n"
                              for w, t, r, v, _, h in zip(*part)))
        _emit([f"hits: {len(hits)}"])
    return EXIT_FOUND if (hits or cert is not None) else EXIT_OK


def _flags(c):
    return map(_BOOLS.__getitem__, c.tolist())


def _float_strs(c):
    return _floats(c.tolist())


def _ring_columns(v, fmt):
    """The row template for ring verdict columns ``v`` in format fmt, and the
    columns after the word, each with its function to strings."""
    if fmt != "json":
        return _RING_ROWS[fmt], [(v.ok, np.ndarray.tolist)]
    if isinstance(v, arithmetic.IntegralityVerdict):
        return _RING_JSON_ROW, [(v.ok, _flags), *((c, _float_strs) for c in v[1:])]
    cols = [(v.ok, _flags)]
    for e in (v.two_re, v.abs_sq):
        cols += [(e.ok, _flags), *((c, np.ndarray.tolist) for c in e.coefficients),
                 (e.residual, _float_strs)]
    expansion = ('{"ok":%s,"coefficients":['  # %d prints int(float)
                 + ",".join(["%d"] * len(v.two_re.coefficients)) + '],"residual":%s}')
    return (f'{{"word":"%s","q":{v.q},"ok":%s,"experimental":true,'
            f'"two_re":{expansion},"abs_sq":{expansion}}}'), cols


def cmd_ring_check(args) -> int:
    if args.p is None or args.n is None:
        raise UsageError("ring-check needs --p and --n")
    ring_tol = _nonneg_float(args.ring_tol, "--ring-tol")
    cfg = _resolve(args)
    group = cfg.group
    mats, verdicts = arithmetic.ring_transfer(group)
    levels = words.enumerate_words(args.max_len, mats)
    out = sys.stdout
    if cfg.fmt == "json":
        head = {"params": group.params.to_json_dict(), "n": group.n,
                "max_len": args.max_len}
        out.write(dumps_stable(head)[:-1] + ',"rows":[')
    elif cfg.fmt == "csv":
        out.write("word,ok\n")
    join = "," if cfg.fmt == "json" else ""  # between rows and blocks
    sep, all_ok = "", True
    for ws, taus in levels:  # each block is written before the next is made
        v = verdicts(taus, ring_tol)
        all_ok &= bool(v.ok.all())
        template, cols = _ring_columns(v, cfg.fmt)
        rows = zip(words.word_strs(ws), *(strs(c) for c, strs in cols))
        out.write(sep + join.join(map(template.__mod__, rows)))
        sep = join
    # the tail and the exit code come after the last row
    if cfg.fmt == "json":
        out.write("]}\n")
    elif cfg.fmt == "human":
        out.write(f"all passed: {all_ok}\n")
    return EXIT_OK if all_ok else EXIT_FOUND


# every flag, once: name: (values after it, 0 for a switch; type of each
# value; default; exclusive group; metavar; help); dest is name[2:], "-" as "_"
_FLAGS = {
    "--p": (3, str, None, "source", ("P1", "P2", "P3"),
            "signature (integers or inf)"),
    "--lengths": (3, float, None, "source", ("L1", "L2", "L3"),
                  "ultra-parallel side distances"),
    "--r": (3, float, None, "source", ("R1", "R2", "R3"), "raw radius triple"),
    "--alpha": (1, str, None, "angle", None,
                "angular invariant in radians (or 'pi')"),
    "--cos-alpha": (1, str, None, "angle", None,
                    "cos(alpha), fractions like 61/64 allowed"),
    "--t": (1, float, None, "angle", None, "t = cot(alpha/2)"),
    "--n": (1, str, None, "angle", None, "rotation order for the (3,1,3,2) element"),
    "--json": (0, bool, False, "output", None, None),
    "--csv": (0, bool, False, "output", None, None),
    "--word": (1, str, None, None, None, "digit string, 'e' = identity"),
    "--fourier": (0, bool, False, None, None,
                  "include the exact Fourier data (--json only)"),
    "--tol": (1, str, None, None, None,
              "classification tolerance (default 1e-9 or CHTG_TOL)"),
    "--max-len": (1, int, 6, None, None, None),
    "--include-alternating": (0, bool, False, None, None,
                              "also flag two-letter alternation powers"),
    "--ring-tol": (1, str, "1e-7", None, None,
                   "integrality tolerance, a finite number >= 0"),
}
_COMMON = ("--p", "--lengths", "--r", "--alpha", "--cos-alpha", "--t", "--n",
           "--json")
_REQUIRED = {"source", "--word"}  # the group and the flag to be given

# name: (help, the command's own flags after the common ones, --csv first
# where it is allowed; handler), in the order help lists them
_COMMANDS = {
    "trace": ("trace of one word", ("--csv", "--word", "--fourier", "--tol"),
              cmd_trace),
    "thresholds": ("existence/ellipticity thresholds", (), cmd_thresholds),
    "family": ("distinguished family membership and type", (), cmd_thresholds),
    "invariants": ("angular and vertex invariants", (), cmd_invariants),
    "scan": ("classify all short words",
             ("--csv", "--max-len", "--include-alternating", "--tol"), cmd_scan),
    "ring-check": ("integrality of trace data", ("--csv", "--max-len", "--ring-tol"),
                   cmd_ring_check),
}


def build_parser(names=None) -> _Parser:
    """The chtg parser with the named subcommands, or with all of them."""
    parser = _Parser(prog="chtg",
                     description="complex hyperbolic triangle group toolkit")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS if names is None else names:
        text, own, func = _COMMANDS[name]
        sub = subs.add_parser(name, help=text)
        groups = {None: sub}
        for flag in (*_COMMON, *own):
            nargs, type_, default, group, metavar, help_ = _FLAGS[flag]
            if group not in groups:
                groups[group] = sub.add_mutually_exclusive_group(
                    required=group in _REQUIRED)
            if nargs:
                groups[group].add_argument(
                    flag, nargs=None if nargs == 1 else nargs, type=type_,
                    default=default, required=flag in _REQUIRED,
                    metavar=metavar, help=help_)
            else:
                groups[group].add_argument(flag, action="store_true", help=help_)
        sub.set_defaults(func=func, csv=False)
    return parser


def _read(argv):
    """argparse's namespace for a well-formed argv: a subcommand, then exact
    flags, each with its values, none like an option ("-" not before a digit
    or "."), one flag at most of each group, the required ones given, every
    value of its type.  None for any other argv (help, abbreviations,
    "--t=1", "--", every error), which argparse reads."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, own, func = _COMMANDS[argv[0]]
    values = {flag: _FLAGS[flag][2] for flag in (*_COMMON, *own)}
    seen, rest = {}, iter(argv[1:])
    for flag in rest:
        if flag not in values:
            return None
        nargs, type_, _, group, _, _ = _FLAGS[flag]
        tokens = list(islice(rest, nargs))
        if (seen.setdefault(group or flag, flag) != flag or len(tokens) < nargs
                or any(t[:1] == "-" and not _NEGATIVE.match(t) for t in tokens)):
            return None
        try:
            got = list(map(type_, tokens))
        except ValueError:
            return None
        values[flag] = True if nargs == 0 else got[0] if nargs == 1 else got
    if not _REQUIRED.intersection(_FLAGS[f][3] or f for f in values) <= seen.keys():
        return None
    return argparse.Namespace(command=argv[0], func=func, **({"csv": False} | {
        flag[2:].replace("-", "_"): v for flag, v in values.items()}))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _read(argv)
        if args is None:
            args = build_parser(argv[:1] if argv and argv[0] in _COMMANDS
                                else None).parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except ValueError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
