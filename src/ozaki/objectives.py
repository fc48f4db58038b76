"""The eight reduced real objectives behind the sharp bounds.

Each class bound reduces to extremizing a bivariate polynomial-type
expression over a compact region: the Toeplitz bounds live on the rectangle
Omega = [0,2] x [0,1] in the variables (p, x) = (p1, |xi|), and the
remaining bounds live on the parabolic region
Lambda = {(u, v): 0 <= u <= 1, 0 <= v <= 1 - u^2} in (u, v) = (|c1|, |c2|).

The eight objectives are two formulas.  ``_toeplitz(label, sign)`` gives
UpsilonF, PsiF, PhiG and NG from the class's m = 2 kappa, with PsiF(p, x) =
UpsilonF(p, -x) and NG(p, x) = PhiG(p, -x); ``_parabolic`` gives ChiF, MF,
SG and DeltaG, four functionals with their own integer coefficients.
Each objective carries the paper's tabulated extremum as an exact rational
for gap reporting.  For UpsilonF that value, 95/256, is below the true
maximum 45/121, attained at p^2 = 464/121 on the x = 1 edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable

from .classes import ClassLabel

__all__ = [
    "ObjectiveId",
    "DomainKind",
    "DomainSpec",
    "Objective",
    "OBJECTIVES",
    "BOX",
    "PARABOLIC",
]


class ObjectiveId(Enum):
    UPSILON_F = "UpsilonF"
    PSI_F = "PsiF"
    PHI_G = "PhiG"
    N_G = "NG"
    CHI_F = "ChiF"
    M_F = "MF"
    S_G = "SG"
    DELTA_G = "DeltaG"


class DomainKind(Enum):
    BOX = "box"
    PARABOLIC = "parabolic"


@dataclass(frozen=True)
class DomainSpec:
    kind: DomainKind

    def bounds(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """Bounding box ((u_lo, u_hi), (v_lo, v_hi))."""
        if self.kind is DomainKind.BOX:
            return (0.0, 2.0), (0.0, 1.0)
        return (0.0, 1.0), (0.0, 1.0)

    def v_max(self, u):
        """Upper limit of v on the row u: 1 on the rectangle, 1 - u^2 on the
        parabolic region (a scalar on the rectangle, else broadcasts)."""
        if self.kind is DomainKind.BOX:
            return 1.0
        return 1.0 - u * u

    def contains(self, u, v):
        """Exact inequality membership test; broadcasts over arrays."""
        (u_lo, u_hi), (v_lo, _) = self.bounds()
        return (u >= u_lo) & (u <= u_hi) & (v >= v_lo) & (v <= self.v_max(u))


BOX = DomainSpec(DomainKind.BOX)
PARABOLIC = DomainSpec(DomainKind.PARABOLIC)


def _toeplitz(label: ClassLabel, sign: int):
    """(-a p^4 + 576 p^2 + b p^2 t x - 16 t^2 x^2)/den with t = 4 - p^2, a =
    (4+m)^2, b = 8 sign (4+m), den = 36864/m^2: (49, +-56, 4096) for F and
    (9, +-24, 36864) for G."""
    m = label.m
    a, b, den = (4 + m) ** 2, sign * 8 * (4 + m), 36864 // m ** 2
    def fn(p, x):
        t = 4 - p * p
        return (-a * p ** 4 + 576 * p ** 2 + b * p ** 2 * t * x
                - 16 * t ** 2 * x ** 2) / den
    return fn


def _parabolic(a, b, e, den, c=0, d=0):
    """(a u^3 + b u v + c u^2 + d v + e (1 - u^2 - v^2/(1+u)))/den; the
    c u^2 + d v terms are added only where they are nonzero (MF)."""
    def fn(u, v):
        head = a * u ** 3 + b * u * v
        if c or d:
            head = head + c * u * u + d * v
        return (head + e * (1 - u * u - v * v / (1 + u))) / den
    return fn


@dataclass(frozen=True)
class Objective:
    """One reduced objective with its region and tabulated extremum."""

    domain: DomainSpec
    fn: Callable
    mode: str               # direction of the tabulated extremum: "max" | "min"
    target: Fraction        # the paper's tabulated extremum (UpsilonF: 95/256,
                            # below the true maximum 45/121)


OBJECTIVES: dict[ObjectiveId, Objective] = {
    ObjectiveId.UPSILON_F: Objective(BOX, _toeplitz(ClassLabel.F, 1), "max",
                                     Fraction(95, 256)),
    ObjectiveId.PSI_F: Objective(BOX, _toeplitz(ClassLabel.F, -1), "min",
                                 Fraction(-1, 16)),
    ObjectiveId.PHI_G: Objective(BOX, _toeplitz(ClassLabel.G, 1), "max",
                                 Fraction(15, 256)),
    ObjectiveId.N_G: Objective(BOX, _toeplitz(ClassLabel.G, -1), "min",
                               Fraction(-1, 144)),
    ObjectiveId.CHI_F: Objective(PARABOLIC, _parabolic(42, 33, 6, 48), "max",
                                 Fraction(7, 8)),
    ObjectiveId.M_F: Objective(PARABOLIC, _parabolic(42, 33, 6, 48, c=33, d=12),
                               "max", Fraction(25, 16)),
    ObjectiveId.S_G: Objective(PARABOLIC, _parabolic(10, 9, 2, 48), "max",
                               Fraction(5, 24)),
    ObjectiveId.DELTA_G: Objective(PARABOLIC, _parabolic(6, 7, 2, 1), "max",
                                   Fraction(6, 1)),
}

