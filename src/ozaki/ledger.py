"""The table of sharp bounds and their extremal witnesses.

Thirteen entries, one per bounded functional and class; the two-sided
Toeplitz bounds count once with a lower and an upper side.  Bounds are kept
as exact rationals and only converted to floats at comparison time.
``check_extremals`` evaluates every witness from ``extremal_member``, at the
``FUNCTIONAL_ORDER`` the sampler's witnesses share, and reports the signed
residual (computed functional minus bound), which must vanish to near
machine precision when the bounds are sharp.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .classes import ClassLabel, extremal_member
from .functionals import (FUNCTIONAL_ORDER, FUNCTIONAL_VALUES, FunctionalReport,
                          full_report)

__all__ = [
    "BoundCheck",
    "BoundEntry",
    "ExtremalCheck",
    "LEDGER",
    "entries_for",
    "check_extremals",
]


class BoundCheck(NamedTuple):
    """One side of a bound: the rational value and the witness attaining it."""

    side: str            # "upper" | "lower"
    bound: Fraction
    witness: str         # extremal name

    @property
    def sign(self) -> int:
        """+1 on an upper side, -1 on a lower side."""
        return 1 if self.side == "upper" else -1


class BoundEntry(NamedTuple):
    label: ClassLabel
    functional: str      # key into FUNCTIONAL_VALUES
    kind: str            # "upper" | "lower" | "two_sided"
    checks: tuple[BoundCheck, ...]


def _upper(label, functional, num, den, witness):
    return BoundEntry(label, functional, "upper",
                      (BoundCheck("upper", Fraction(num, den), witness),))


LEDGER: tuple[BoundEntry, ...] = (
    # class F
    BoundEntry(ClassLabel.F, "T21_log", "two_sided",
               (BoundCheck("lower", Fraction(-1, 16), "f2"),
                BoundCheck("upper", Fraction(95, 256), "f1"))),
    _upper(ClassLabel.F, "Gamma1_abs", 3, 4, "f1"),
    _upper(ClassLabel.F, "Gamma2_abs", 11, 16, "f1"),
    _upper(ClassLabel.F, "Gamma3_abs", 7, 8, "f1"),
    _upper(ClassLabel.F, "S3_abs", 3, 1, "f2"),
    _upper(ClassLabel.F, "diff_A", 4, 1, "f1"),
    _upper(ClassLabel.F, "diff_Gamma", 25, 16, "f1"),
    # class G
    BoundEntry(ClassLabel.G, "T21_log", "two_sided",
               (BoundCheck("lower", Fraction(-1, 144), "g2"),
                BoundCheck("upper", Fraction(15, 256), "g1"))),
    _upper(ClassLabel.G, "Gamma1_abs", 1, 4, "g1"),
    _upper(ClassLabel.G, "Gamma2_abs", 3, 16, "g1"),
    _upper(ClassLabel.G, "Gamma3_abs", 5, 24, "g1"),
    _upper(ClassLabel.G, "S3_abs", 3, 2, "g1"),
    _upper(ClassLabel.G, "S4_abs", 6, 1, "g1"),
)


def entries_for(label: ClassLabel) -> tuple[BoundEntry, ...]:
    return tuple(e for e in LEDGER if e.label is label)


class ExtremalCheck(NamedTuple):
    """Outcome of one sharpness check at a witness function."""

    label: ClassLabel
    functional: str
    kind: str
    side: str
    witness: str
    bound: Fraction
    computed: float
    residual: float      # computed - bound, signed


def check_extremals(labels: tuple[ClassLabel, ...] | None = None
                    ) -> list[ExtremalCheck]:
    """Rebuild each witness and compare its functional against the bound."""
    wanted = LEDGER if labels is None else tuple(
        e for e in LEDGER if e.label in labels)
    reports: dict[str, FunctionalReport] = {}
    results: list[ExtremalCheck] = []
    for entry in wanted:
        for chk in entry.checks:
            if chk.witness not in reports:
                reports[chk.witness] = full_report(
                    extremal_member(chk.witness, FUNCTIONAL_ORDER))
            computed = float(FUNCTIONAL_VALUES[entry.functional](
                reports[chk.witness]))
            results.append(ExtremalCheck(
                label=entry.label, functional=entry.functional,
                kind=entry.kind, side=chk.side, witness=chk.witness,
                bound=chk.bound, computed=computed,
                residual=computed - float(chk.bound)))
    return results
