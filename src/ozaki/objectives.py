"""The eight reduced real objectives behind the sharp bounds.

Each class bound reduces to extremizing a bivariate polynomial-type
expression over a compact region: the Toeplitz bounds live on the rectangle
Omega = [0,2] x [0,1] in the variables (p, x) = (p1, |xi|), and the
remaining bounds live on the parabolic region
Lambda = {(u, v): 0 <= u <= 1, 0 <= v <= 1 - u^2} in (u, v) = (|c1|, |c2|).
Formulas are transcribed verbatim; each carries the paper's tabulated
extremum as an exact rational for gap reporting.  For UpsilonF that value,
95/256, is below the true maximum 45/121, attained at p^2 = 464/121 on the
x = 1 edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable

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


def _upsilon_f(p, x):
    t = 4.0 - p * p
    return (-49.0 * p ** 4 + 576.0 * p ** 2 + 56.0 * p ** 2 * t * x
            - 16.0 * t ** 2 * x ** 2) / 4096.0


def _psi_f(p, x):
    t = 4.0 - p * p
    return (-49.0 * p ** 4 + 576.0 * p ** 2 - 56.0 * p ** 2 * t * x
            - 16.0 * t ** 2 * x ** 2) / 4096.0


def _phi_g(p, x):
    t = 4.0 - p * p
    return (-9.0 * p ** 4 + 576.0 * p ** 2 + 24.0 * p ** 2 * t * x
            - 16.0 * t ** 2 * x ** 2) / 36864.0


def _n_g(p, x):
    t = 4.0 - p * p
    return (-9.0 * p ** 4 + 576.0 * p ** 2 - 24.0 * p ** 2 * t * x
            - 16.0 * t ** 2 * x ** 2) / 36864.0


def _chi_f(u, v):
    return (42.0 * u ** 3 + 33.0 * u * v
            + 6.0 * (1.0 - u * u - v * v / (1.0 + u))) / 48.0


def _m_f(u, v):
    return (42.0 * u ** 3 + 33.0 * u * v + 33.0 * u * u + 12.0 * v
            + 6.0 * (1.0 - u * u - v * v / (1.0 + u))) / 48.0


def _s_g(u, v):
    return (10.0 * u ** 3 + 9.0 * u * v
            + 2.0 * (1.0 - u * u - v * v / (1.0 + u))) / 48.0


def _delta_g(u, v):
    return (6.0 * u ** 3 + 7.0 * u * v
            + 2.0 * (1.0 - u * u - v * v / (1.0 + u)))


@dataclass(frozen=True)
class Objective:
    """One reduced objective with its region and tabulated extremum."""

    domain: DomainSpec
    fn: Callable
    mode: str               # direction of the tabulated extremum: "max" | "min"
    target: Fraction        # the paper's tabulated extremum (UpsilonF: 95/256,
                            # below the true maximum 45/121)


OBJECTIVES: dict[ObjectiveId, Objective] = {
    ObjectiveId.UPSILON_F: Objective(BOX, _upsilon_f, "max", Fraction(95, 256)),
    ObjectiveId.PSI_F: Objective(BOX, _psi_f, "min", Fraction(-1, 16)),
    ObjectiveId.PHI_G: Objective(BOX, _phi_g, "max", Fraction(15, 256)),
    ObjectiveId.N_G: Objective(BOX, _n_g, "min", Fraction(-1, 144)),
    ObjectiveId.CHI_F: Objective(PARABOLIC, _chi_f, "max", Fraction(7, 8)),
    ObjectiveId.M_F: Objective(PARABOLIC, _m_f, "max", Fraction(25, 16)),
    ObjectiveId.S_G: Objective(PARABOLIC, _s_g, "max", Fraction(5, 24)),
    ObjectiveId.DELTA_G: Objective(PARABOLIC, _delta_g, "max", Fraction(6, 1)),
}

