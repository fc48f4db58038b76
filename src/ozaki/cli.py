"""Command-line front end: construction, evaluation, and verification.

Every invocation prints one machine-readable envelope to standard output::

    {"tool_version": ..., "command_echo": ..., "seed": ..., "payload": ..., "status": ...}

Exit status 0 means ok, 2 means a ledger bound check failed, 1 means a
usage or input error (with a one-line diagnostic on standard error).
Floats are printed with 17 significant digits so output round-trips through
text; rational bounds appear both as "num/den" strings and as decimals.
Complex payload values are emitted as plain numbers when the imaginary part
is zero, else as [re, im] pairs.  Field order is fixed, so repeating a
command with the same seed yields byte-identical output.  The JSON text is
written in one pass that appends its pieces to one list, joined once;
strings are escaped to ASCII as ``json.dumps`` escapes them.

A process imports what its command runs, when it runs it.  ``extremal``,
``coeffs`` and ``report`` need :mod:`ozaki.classes` and
:mod:`ozaki.functionals` alone; ``verify`` adds :mod:`ozaki.ledger`, and
with it ``fractions``; ``optimize`` and ``sample`` add the grid search or
the sampler, and with them numpy, ``dataclasses``, ``fractions`` and the
objectives or the ledger; CSV output adds ``csv``.  A line that starts
with a subcommand's name builds that subcommand's parser alone.  Only the
other lines (``-h``, a misspelt name) build the full parser, which imports
:mod:`ozaki.objectives` for the choices of ``optimize``.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from itertools import groupby
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Sequence

from . import __version__
from .classes import (CaratheodoryCoeffs, ClassLabel, SchwarzCoeffs,
                      build_member, build_member_from_caratheodory,
                      coeffs_from_caratheodory_direct,
                      coeffs_from_schwarz_direct, extremal_member,
                      EXTREMAL_NAMES)
from .functionals import FUNCTIONAL_ORDER, FunctionalReport, full_report

__all__ = ["main", "run", "emit"]

_VERIFY_TOL = 1e-12
_SAMPLE_TOL = 1e-9


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 for usage problems, not argparse's 2
        raise _UsageError(message)


# ----------------------------------------------------------------------
# serialization

def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x} in output")
    return f"{x:.17g}"


# the types written without an isinstance test; a value of another type (a
# subclass, such as np.float64) is written as the first of _TYPES it is
_TYPES = (dict, list, tuple, bool, int, float, str)
_PLAIN = frozenset(_TYPES + (type(None),))


def _write_json(value: Any, pad: str, append: Callable[[str], None]) -> None:
    """Append the JSON text of ``value`` in pieces; ``pad`` is the line
    break and indent of the line that holds it."""
    kind = type(value)
    if kind not in _PLAIN:
        kind = next((t for t in _TYPES if isinstance(value, t)), None)
    if kind is float:
        append(_fmt_float(value))
    elif kind is str:
        append(encode_basestring_ascii(value))
    elif kind is dict:
        sep = "{" + (inner := pad + "  ")
        for k, v in value.items():
            append(f"{sep}{encode_basestring_ascii(str(k))}: ")
            _write_json(v, inner, append)
            sep = "," + inner
        append(pad + "}" if value else "{}")
    elif kind is list or kind is tuple:
        sep = "[" + (inner := pad + "  ")
        for v in value:
            append(sep)
            _write_json(v, inner, append)
            sep = "," + inner
        append(pad + "]" if value else "[]")
    elif kind is bool:
        append("true" if value else "false")
    elif kind is int:
        append(str(value))
    elif value is None:
        append("null")
    else:
        raise TypeError(f"cannot serialize {type(value)}")


def _num(z: complex) -> Any:
    """Complex as a plain number when real, else as an [re, im] pair."""
    z = complex(z)
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


def _frac(q) -> str:
    """A Fraction as "num/den"."""
    return f"{q.numerator}/{q.denominator}"


def emit(envelope: dict, fmt: str, csv_rows: list[tuple] | None = None) -> str:
    """Serialize an output envelope to JSON, or its CSV rows to CSV text."""
    if fmt == "json":
        pieces: list[str] = []
        _write_json(envelope, "\n", pieces.append)
        return "".join(pieces) + "\n"
    if fmt == "csv":
        if csv_rows is None:
            raise _UsageError("csv format applies to sample and optimize output only")
        import csv
        import io
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for row in csv_rows:
            writer.writerow([_fmt_float(v) if isinstance(v, float) else v
                             for v in row])
        return buf.getvalue()
    raise _UsageError(f"unknown format {fmt!r}")


def _envelope(command: str, payload: dict, status: str,
              seed: int | None = None) -> dict:
    env: dict[str, Any] = {"tool_version": __version__, "command_echo": command}
    if seed is not None:
        env["seed"] = seed
    env["payload"] = payload
    env["status"] = status
    return env


# ----------------------------------------------------------------------
# argument handling

def _parse_complex_list(text: str) -> tuple[complex, ...]:
    """Parse 're:im,re:im,...'; a bare 're' means imaginary part zero."""
    out = []
    for part in text.split(","):
        bits = part.strip().split(":")
        try:
            if len(bits) == 1:
                out.append(complex(float(bits[0]), 0.0))
            elif len(bits) == 2:
                out.append(complex(float(bits[0]), float(bits[1])))
            else:
                raise ValueError
        except ValueError:
            raise _UsageError(f"cannot parse complex entry {part!r}; "
                              "expected re or re:im") from None
    return tuple(out)


_DATA_OPTIONS = ("--schwarz", "--caratheodory")
_NEGATIVE_VALUE = re.compile(r"-[0-9.]")


def _attach_negative_values(argv: Sequence[str]) -> list[str]:
    """Write '--schwarz -0.3:0.1' as '--schwarz=-0.3:0.1' (likewise for
    --caratheodory and for abbreviations of either): argparse reads a separate
    value that starts with '-' and is not a plain number as an option flag."""
    out: list[str] = []
    for tok in argv:
        if (out and _NEGATIVE_VALUE.match(tok) and len(out[-1]) > 2
                and any(name.startswith(out[-1]) for name in _DATA_OPTIONS)):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def _add_format(p, *tabular):   # "csv" only where the payload has rows
    p.add_argument("--format", choices=("json",) + tabular, default="json")


def _extremal_options(p):
    p.add_argument("name", choices=EXTREMAL_NAMES)
    p.add_argument("--order", type=int, default=8)
    _add_format(p)


def _coeffs_options(p):
    p.add_argument("--class", dest="label", choices=("F", "G"), required=True)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--schwarz", help="c1,c2,... as re:im,re:im,...")
    src.add_argument("--caratheodory", help="p1,p2,... as re:im,re:im,...")
    p.add_argument("--order", type=int, default=8)
    _add_format(p)


def _report_options(p):
    p.add_argument("--class", dest="label", choices=("F", "G"))
    src = p.add_mutually_exclusive_group()
    src.add_argument("--extremal", choices=EXTREMAL_NAMES)
    src.add_argument("--schwarz")
    src.add_argument("--caratheodory")
    _add_format(p)


def _verify_options(p):
    p.add_argument("--class", dest="label", choices=("F", "G", "all"), default="all")
    p.add_argument("--tol", type=float, default=_VERIFY_TOL)
    _add_format(p)


def _optimize_options(p):
    from .objectives import ObjectiveId
    p.add_argument("--objective", default="all",
                   choices=tuple(o.value for o in ObjectiveId) + ("all",))
    p.add_argument("--resolution", type=int, default=2000)
    p.add_argument("--refine", type=int, default=3)
    _add_format(p, "csv")


def _sample_options(p):
    p.add_argument("--class", dest="label", choices=("F", "G"), required=True)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-zeros", type=int, default=3)
    p.add_argument("--no-extremals", action="store_true",
                   help="do not inject the class extremals")
    p.add_argument("--tol", type=float, default=_SAMPLE_TOL)
    _add_format(p, "csv")


@functools.cache   # _Parser keeps no per-call state
def _build_parser() -> _Parser:
    """The full parser, for the lines that do not start with a subcommand."""
    parser = _Parser(prog="ozaki",
                     description="Coefficient functionals and sharp-bound "
                                 "verification for the Ozaki close-to-convex "
                                 "classes F and G.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (summary, add_options, _) in _SUBCOMMANDS.items():
        add_options(sub.add_parser(name, help=summary))
    return parser


@functools.cache
def _subparser(name: str) -> _Parser:
    """The parser of one subcommand alone, as the full parser builds it."""
    parser = _Parser(prog=f"ozaki {name}")
    _SUBCOMMANDS[name][1](parser)
    return parser


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """The options of one command line: the subcommand's own parser reads a
    line that starts with its name, the full parser every other line."""
    argv = _attach_negative_values(argv)
    if argv and argv[0] in _SUBCOMMANDS:
        return _subparser(argv[0]).parse_args(
            argv[1:], argparse.Namespace(subcommand=argv[0]))
    return _build_parser().parse_args(argv)


# ----------------------------------------------------------------------
# subcommand payloads: (payload, status, CSV rows or None)

_Payload = tuple[dict, str, list[tuple] | None]

def _payload_extremal(args) -> _Payload:
    member = extremal_member(args.name, args.order)
    payload = {
        "name": args.name,
        "label": member.label.value,
        "order": member.order,
        "coefficients": [_num(c) for c in member.coeffs],
    }
    return payload, "ok", None


def _member_from_args(args, order: int):
    if getattr(args, "extremal", None) is not None:
        member = extremal_member(args.extremal, order)
        if args.label is not None and args.label != member.label.value:
            raise _UsageError(f"--class {args.label} conflicts with --extremal "
                              f"{args.extremal}, a class-{member.label.value} member")
        return member, {"extremal": args.extremal}
    if args.label is None or (args.schwarz is None and args.caratheodory is None):
        raise _UsageError("need --extremal, or --class with --schwarz/--caratheodory")
    label = ClassLabel(args.label)
    if args.schwarz is not None:
        w = SchwarzCoeffs(_parse_complex_list(args.schwarz))
        member = build_member(label, w, order)
        src = {"source": "schwarz", "input": [_num(c) for c in w.c]}
    else:
        p = CaratheodoryCoeffs(_parse_complex_list(args.caratheodory))
        member = build_member_from_caratheodory(label, p, order)
        src = {"source": "caratheodory", "input": [_num(v) for v in p.p]}
    return member, src


def _payload_coeffs(args) -> _Payload:
    member, src = _member_from_args(args, args.order)
    # the provenance is the parsed (and membership-checked) input
    if args.schwarz is not None:
        direct = coeffs_from_schwarz_direct(member.label, *member.provenance.prefix(3))
    else:
        direct = coeffs_from_caratheodory_direct(member.label, member.provenance)
    payload = {
        "label": args.label,
        **src,
        "order": member.order,
        "a2": _num(member.coeff(2)),
        "a3": _num(member.coeff(3)),
        "a4": _num(member.coeff(4)),
        "direct_formula": {"a2": _num(direct[0]), "a3": _num(direct[1]),
                           "a4": _num(direct[2])},
        "series": [_num(c) for c in member.coeffs],
    }
    return payload, "ok", None


def _payload_report(args) -> _Payload:
    member, src = _member_from_args(args, FUNCTIONAL_ORDER)
    r = full_report(member)
    payload = {"label": member.label.value, **src}
    payload.update((name, _num(getattr(r, name))) for name in FunctionalReport._fields)
    return payload, "ok", None


def _payload_verify(args) -> _Payload:
    if not 0.0 <= args.tol < math.inf:   # NaN fails too
        raise _UsageError(f"--tol must be a finite tolerance >= 0, got {args.tol}")
    from .ledger import check_extremals   # with it fractions, only here
    labels = None if args.label == "all" else (ClassLabel(args.label),)
    rows = check_extremals(labels=labels)
    entries = [{
        "label": label.value,
        "functional": functional,
        "kind": kind,
        "checks": [{
            "side": r.side,
            "bound": _frac(r.bound),
            "bound_value": float(r.bound),
            "witness": r.witness,
            "computed": r.computed,
            "residual": r.residual,
            "ok": abs(r.residual) <= args.tol,
        } for r in group],
    } for (label, functional, kind), group in groupby(
        rows, key=lambda r: (r.label, r.functional, r.kind))]
    failures = sum(not c["ok"] for e in entries for c in e["checks"])
    payload = {
        "tolerance": args.tol,
        "entry_count": len(entries),
        "entries": entries,
        "max_abs_residual": max(abs(r.residual) for r in rows),
        "failures": failures,
    }
    return payload, ("ok" if failures == 0 else "bound_violation"), None


def _payload_optimize(args) -> _Payload:
    from .gridsearch import grid_extremize   # imports numpy, so only here
    from .objectives import OBJECTIVES, ObjectiveId
    if args.objective == "all":
        ids = list(OBJECTIVES)
    else:
        ids = [ObjectiveId(args.objective)]
    results = []
    csv_rows = [("objective", "mode", "value", "arg_u", "arg_v",
                 "paper_value", "gap", "resolution", "refine")]
    for oid in ids:
        res = grid_extremize(oid, resolution=args.resolution,
                             refine_iters=args.refine)
        results.append({
            "objective": oid.value,
            "mode": res.mode,
            "value": res.value,
            "argpoint": [res.argpoint[0], res.argpoint[1]],
            "paper": _frac(res.paper_value),
            "paper_value": float(res.paper_value),
            "gap": res.gap,
        })
        csv_rows.append((oid.value, res.mode, res.value, res.argpoint[0],
                         res.argpoint[1], float(res.paper_value), res.gap,
                         args.resolution, args.refine))
    payload = {
        "resolution": args.resolution,
        "refine": args.refine,
        "results": results,
    }
    return payload, "ok", csv_rows


def _payload_sample(args) -> _Payload:
    from .sampling import SampleConfig, sample_and_check   # likewise
    cfg = SampleConfig(label=ClassLabel(args.label), count=args.samples,
                       seed=args.seed, blaschke_max_zeros=args.max_zeros,
                       include_extremals=not args.no_extremals,
                       violation_tolerance=args.tol)
    report = sample_and_check(cfg)
    csv_rows: list[tuple] = [("name", "empirical_min", "empirical_max",
                              "bound", "margin")]
    functionals = []
    for name, lo, hi in report.stats:
        functionals.append({"name": name, "min": lo, "max": hi})
        sides = [c for c in report.checks if c.functional == name]
        for c in sides:
            csv_rows.append((f"{name}_{c.side}", lo, hi, float(c.bound), c.margin))
        if not sides:
            csv_rows.append((name, lo, hi, "", ""))
    checks = [{
        "functional": c.functional,
        "side": c.side,
        "bound": _frac(c.bound),
        "bound_value": float(c.bound),
        "empirical": c.empirical,
        "margin": c.margin,
        "violations": c.violations,
    } for c in report.checks]
    payload = {
        "label": args.label,
        "count": cfg.count,
        "max_zeros": cfg.blaschke_max_zeros,
        "include_extremals": cfg.include_extremals,
        "tolerance": cfg.violation_tolerance,
        "functionals": functionals,
        "checks": checks,
        "worst_margin": report.worst_margin,
        "total_violations": report.total_violations,
        "inverse_crosscheck_residual": report.inverse_crosscheck_residual,
    }
    return payload, ("ok" if report.ok else "bound_violation"), csv_rows


# name: (help, function that adds its options, payload) of each subcommand
_SUBCOMMANDS = {
    "extremal": ("coefficients of an extremal function", _extremal_options,
                 _payload_extremal),
    "coeffs": ("initial coefficients from Schwarz or Caratheodory data",
               _coeffs_options, _payload_coeffs),
    "report": ("all coefficient functionals of one function", _report_options,
               _payload_report),
    "verify": ("sharpness of every ledger bound at its witness", _verify_options,
               _payload_verify),
    "optimize": ("grid extremization of the reduced objectives",
                 _optimize_options, _payload_optimize),
    "sample": ("randomized bound-violation search", _sample_options,
               _payload_sample),
}


def run(argv: Sequence[str]) -> tuple[int, str]:
    """Execute one command line; returns (exit status, output text)."""
    args = _parse(argv)
    payload, status, csv_rows = _SUBCOMMANDS[args.subcommand][2](args)
    envelope = _envelope(" ".join(argv), payload, status,
                         seed=getattr(args, "seed", None))
    text = emit(envelope, args.format, csv_rows)
    code = 0 if status == "ok" else 2
    return code, text


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        code, text = run(argv)
    except _UsageError as exc:
        print(f"ozaki: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        print(f"ozaki: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
