"""Seeded command lines for the three workloads and the checks on their output.

Every operation is one command line for ``ozaki.cli.run``.  A unit groups the
commands whose timings form one sample of an end-to-end metric:

* ``sample``   -- ``sample --class F`` then ``sample --class G`` at one seed;
* ``optimize`` -- ``optimize --objective all``;
* ``scalar``   -- a block of single-member commands ending in ``verify``.

Inputs depend only on the benchmark seed.  The checks compare the output with
values the benchmark knows independently of the program: the true class
bounds (the tabulated ones, except 45/121 for the class-F Toeplitz maximum)
and the closed-form cross-checks the program reports.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the defaults are the acceptance configuration."""

    samples: int = 100_000
    resolution: int = 2000
    refine: int = 3
    block: int = 100          # member commands per scalar block, then a verify


# True class bounds as (lower, upper) per bounded functional.  The tabulated
# class-F Toeplitz maximum 95/256 is exceeded by genuine members; the class
# maximum is 45/121, attained by w = z(c - z)/(1 - cz) with c = 2*sqrt(29)/11.
T21_F_TRUE = Fraction(45, 121)
TRUE_BOUNDS = {
    "F": {
        "T21_log": (Fraction(-1, 16), T21_F_TRUE),
        "Gamma1_abs": (None, Fraction(3, 4)),
        "Gamma2_abs": (None, Fraction(11, 16)),
        "Gamma3_abs": (None, Fraction(7, 8)),
        "S3_abs": (None, Fraction(3)),
        "diff_A": (None, Fraction(4)),
        "diff_Gamma": (None, Fraction(25, 16)),
    },
    "G": {
        "T21_log": (Fraction(-1, 144), Fraction(15, 256)),
        "Gamma1_abs": (None, Fraction(1, 4)),
        "Gamma2_abs": (None, Fraction(3, 16)),
        "Gamma3_abs": (None, Fraction(5, 24)),
        "S3_abs": (None, Fraction(3, 2)),
        "S4_abs": (None, Fraction(6)),
    },
}

# Extremum of each reduced objective and its region.
OBJECTIVE_TRUTH = {
    "UpsilonF": (T21_F_TRUE, "box"),
    "PsiF": (Fraction(-1, 16), "box"),
    "PhiG": (Fraction(15, 256), "box"),
    "NG": (Fraction(-1, 144), "box"),
    "ChiF": (Fraction(7, 8), "parabolic"),
    "MF": (Fraction(25, 16), "parabolic"),
    "SG": (Fraction(5, 24), "parabolic"),
    "DeltaG": (Fraction(6), "parabolic"),
}

SAMPLE_TOL = 1e-9
CROSSCHECK_TOL = 1e-10
OPTIMIZE_TOL = 1e-6
SCALAR_TOL = 1e-12


class CheckFailed(Exception):
    """The output of a command is wrong."""


@dataclass(frozen=True)
class Op:
    family: str
    argv: tuple[str, ...]
    check: Callable[[int, str], dict]   # raises CheckFailed; returns payload


@dataclass(frozen=True)
class Unit:
    family: str
    ops: tuple[Op, ...]


# ----------------------------------------------------------------------
# output parsing

def _payload(code: int, text: str) -> dict:
    """Payload of a command that must exit 0."""
    _require(code == 0, f"exit code {code}, expected 0")
    return json.loads(text)["payload"]


def _cplx(value) -> complex:
    if isinstance(value, list):
        return complex(value[0], value[1])
    return complex(value)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ----------------------------------------------------------------------
# sample

def t21_hits(payload: dict) -> int:
    """Class-F members above the tabulated 95/256 (plus the tolerance)."""
    for c in payload["checks"]:
        if c["functional"] == "T21_log" and c["side"] == "upper":
            return c["violations"]
    raise CheckFailed("no T21_log upper check in sample output")


def _check_sample(label: str, count: int) -> Callable[[int, str], dict]:
    def check(code: int, text: str) -> dict:
        env = json.loads(text)
        p = env["payload"]
        _require(p["count"] == count, f"count {p['count']} != {count}")
        _require(p["inverse_crosscheck_residual"] <= CROSSCHECK_TOL,
                 f"inverse cross-check {p['inverse_crosscheck_residual']}")
        for c in p["checks"]:
            on_t21_upper = c["functional"] == "T21_log" and c["side"] == "upper"
            if label == "F" and on_t21_upper:
                _require(c["empirical"] <= float(T21_F_TRUE) + SAMPLE_TOL,
                         f"F T21_log max {c['empirical']} above 45/121")
            else:
                _require(c["violations"] == 0,
                         f"{label} {c['functional']} {c['side']}: "
                         f"{c['violations']} violations")
        # exit 2 (bound_violation) is the expected result when the
        # tabulated 95/256 is exceeded; it must agree with the payload
        ok = p["total_violations"] == 0 and p["worst_margin"] <= p["tolerance"]
        _require(env["status"] == ("ok" if ok else "bound_violation"),
                 f"status {env['status']} disagrees with the checks")
        _require(code == (0 if ok else 2), f"exit code {code} for {env['status']}")
        return p
    return check


def sample_units(seed: int, sizes: Sizes, count: int) -> list[Unit]:
    """``count`` units, each F and G at its own sampler seed derived from the
    benchmark seed (the hit count varies by a few percent between seeds)."""
    rng = random.Random(f"sample-{seed}")
    units = []
    for _ in range(count):
        sampler_seed = str(rng.getrandbits(31))
        units.append(Unit("sample", tuple(
            Op("sample", ("sample", "--class", label, "--samples", str(sizes.samples),
                          "--seed", sampler_seed), _check_sample(label, sizes.samples))
            for label in ("F", "G"))))
    return units


# ----------------------------------------------------------------------
# optimize

def _in_region(region: str, u: float, v: float) -> bool:
    if region == "box":
        return 0.0 <= u <= 2.0 and 0.0 <= v <= 1.0
    return 0.0 <= u <= 1.0 and 0.0 <= v <= 1.0 - u * u


def _check_optimize(code: int, text: str) -> dict:
    p = _payload(code, text)
    seen = set()
    for r in p["results"]:
        truth, region = OBJECTIVE_TRUTH[r["objective"]]
        _require(abs(r["value"] - float(truth)) <= OPTIMIZE_TOL,
                 f"{r['objective']}: {r['value']} vs {truth}")
        u, v = r["argpoint"]
        _require(_in_region(region, u, v),
                 f"{r['objective']}: argpoint {r['argpoint']} outside {region}")
        seen.add(r["objective"])
    _require(seen == set(OBJECTIVE_TRUTH), f"objectives {sorted(seen)}")
    return p


def optimize_unit(sizes: Sizes) -> Unit:
    argv = ("optimize", "--objective", "all", "--resolution", str(sizes.resolution),
            "--refine", str(sizes.refine))
    return Unit("optimize", (Op("optimize", argv, _check_optimize),))


# ----------------------------------------------------------------------
# scalar

def _blaschke_schwarz(rng: random.Random, order: int) -> list[complex]:
    """c1..c_order of w = z * e^(i theta) * B(z), B a Blaschke product with
    0..3 zeros of modulus < 0.95; a quarter of the draws mix two products."""
    def product() -> list[complex]:
        b = [1 + 0j] + [0j] * (order - 1)
        for _ in range(rng.randrange(4)):
            a = cmath.rect(0.95 * math.sqrt(rng.random()), rng.uniform(0, 2 * math.pi))
            # (a - z)/(1 - conj(a) z) = a + sum_t (|a|^2 - 1) conj(a)^(t-1) z^t
            fac = [a] + [(abs(a) ** 2 - 1) * a.conjugate() ** (t - 1)
                         for t in range(1, order)]
            b = [sum(b[i] * fac[k - i] for i in range(k + 1)) for k in range(order)]
        rot = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        return [rot * x for x in b]

    w = product()
    if rng.random() < 0.25:
        lam = rng.random()
        w = [lam * x + (1 - lam) * y for x, y in zip(w, product())]
    return w


def _fmt(values) -> str:
    # written as --schwarz=... because argparse reads a leading '-0.3:...' as
    # an option flag (see NOTES.md)
    return ",".join(f"{complex(z).real!r}:{complex(z).imag!r}" for z in values)


def _check_report(label: str) -> Callable[[int, str], dict]:
    def check(code: int, text: str) -> dict:
        p = _payload(code, text)
        for name, (lo, hi) in TRUE_BOUNDS[label].items():
            field = name.removesuffix("_abs")
            value = abs(_cplx(p[field])) if name.endswith("_abs") else p[field]
            _require(value <= float(hi) + SAMPLE_TOL, f"{label} {name} {value} > {hi}")
            _require(lo is None or value >= float(lo) - SAMPLE_TOL,
                     f"{label} {name} {value} < {lo}")
        return p
    return check


def _check_coeffs(code: int, text: str) -> dict:
    p = _payload(code, text)
    for k in ("a2", "a3", "a4"):
        diff = abs(_cplx(p[k]) - _cplx(p["direct_formula"][k]))
        _require(diff <= SCALAR_TOL, f"coeffs {k} off direct formula by {diff}")
    return p


def _check_verify(code: int, text: str) -> dict:
    p = _payload(code, text)
    _require(p["failures"] == 0 and p["max_abs_residual"] <= SCALAR_TOL,
             f"verify residual {p['max_abs_residual']}, {p['failures']} failures")
    return p


VERIFY_OP = Op("scalar", ("verify", "--class", "all"), _check_verify)


def scalar_blocks(seed: int, sizes: Sizes, count: int, caratheodory_from_schwarz,
                  schwarz_coeffs) -> list[Unit]:
    """The scalar stream: ``count`` blocks of member commands,
    70% report from Schwarz data, 20% report from Caratheodory data and 10%
    coeffs, each block closed by ``verify --class all``.

    Caratheodory data is derived with the program's own
    ``caratheodory_from_schwarz`` from a genuine Schwarz function, so every
    input is a class member."""
    rng = random.Random(seed)
    order = 8
    blocks = []
    for _ in range(count):
        ops = []
        for _ in range(sizes.block):
            label = rng.choice("FG")
            w = _blaschke_schwarz(rng, order)
            kind = rng.random()
            use_schwarz = kind < 0.70 or (kind >= 0.90 and rng.random() < 0.5)
            if use_schwarz:
                data = f"--schwarz={_fmt(w)}"
            else:
                p = caratheodory_from_schwarz(schwarz_coeffs(tuple(w)), order).p
                data = f"--caratheodory={_fmt(p)}"
            if kind < 0.90:
                ops.append(Op("scalar", ("report", "--class", label, data),
                              _check_report(label)))
            else:
                ops.append(Op("scalar", ("coeffs", "--class", label, data),
                              _check_coeffs))
        ops.append(VERIFY_OP)
        blocks.append(Unit("scalar", tuple(ops)))
    return blocks


# ----------------------------------------------------------------------
# set-up and warm-up: a small command on each family's path

def _check_envelope(code: int, text: str) -> dict:
    _require(code in (0, 2), f"exit code {code}")
    return json.loads(text)["payload"]


def first_op(family: str, sample: list[Unit], scalar: list[Unit]) -> Op:
    """The small command a fresh interpreter runs for the set-up time; the
    benchmark also runs it once, untimed, before measuring."""
    if family == "sample":
        seed = sample[0].ops[0].argv[-1]
        argv = ("sample", "--class", "F", "--samples", "1000", "--seed", seed)
    elif family == "optimize":
        argv = ("optimize", "--objective", "UpsilonF", "--resolution", "200",
                "--refine", "0")
    else:
        return scalar[0].ops[0]
    return Op(family, argv, _check_envelope)
