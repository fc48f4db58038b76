"""Coefficient functionals of normalized univalent functions.

Everything here is a closed-form expression in the initial coefficients
(a2, a3, a4):

* inverse coefficients A2, A3, A4 of the compositional inverse F(w),
* logarithmic coefficients gamma_n, half the coefficients of log(f/z),
* logarithmic inverse coefficients Gamma_n, the same for F,
* initial Schwarzian derivative values S3 = 6(a3 - a2^2) and
  S4 = 24(a4 - 3 a2 a3 + 2 a2^3),
* the second-order Hermitian-Toeplitz determinant of logarithmic
  coefficients, gamma1^2 - |gamma2|^2, taken after rotating a2 real,
* the successive differences |A3 - A2| and |Gamma3 - Gamma2|.

Every formula works elementwise, on Python scalars and on numpy arrays
alike.  ``evaluate`` maps a :class:`CoeffTriple` of scalars (one function)
or of arrays (a sampled batch) to a :class:`FunctionalReport`;
``FUNCTIONAL_VALUES`` reads each named real value off such a report, and
``inverse_crosscheck`` compares the closed-form inverse coefficients with a
series inversion.  ``full_report`` is all three on one function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .classes import OzakiFunction
from .series import NormalizedFunction, TruncatedSeries, inverse

__all__ = [
    "CoeffTriple",
    "FunctionalReport",
    "NonRealSecondCoefficient",
    "InverseSeriesMismatch",
    "inverse_coeffs",
    "log_coeffs",
    "log_inverse_coeffs",
    "schwarzian_initial",
    "toeplitz_t21_log",
    "rotate_to_real_a2",
    "evaluate",
    "inverse_crosscheck",
    "full_report",
    "FUNCTIONAL_VALUES",
    "INVERSE_CROSSCHECK_TOL",
]

INVERSE_CROSSCHECK_TOL = 1e-10
_REAL_A2_TOL = 1e-12


class NonRealSecondCoefficient(ValueError):
    """Toeplitz determinant needs a real second coefficient; rotate first."""


class InverseSeriesMismatch(ArithmeticError):
    """Closed-form inverse coefficients disagree with the inverted series."""


class CoeffTriple(NamedTuple):
    a2: complex
    a3: complex
    a4: complex

    @classmethod
    def from_function(cls, f: NormalizedFunction) -> "CoeffTriple":
        if f.order < 4:
            raise ValueError("need coefficients up to a4, so order >= 4")
        return cls(f.coeff(2), f.coeff(3), f.coeff(4))


def inverse_coeffs(t: CoeffTriple) -> tuple[complex, complex, complex]:
    """(A2, A3, A4) of the compositional inverse:
    A2 = -a2, A3 = 2 a2^2 - a3, A4 = -a4 + 5 a2 a3 - 5 a2^3."""
    a2, a3, a4 = t
    return -a2, 2.0 * a2 ** 2 - a3, -a4 + 5.0 * a2 * a3 - 5.0 * a2 ** 3


def log_coeffs(t: CoeffTriple) -> tuple[complex, complex]:
    """(gamma1, gamma2) with gamma1 = a2/2, gamma2 = (a3 - a2^2/2)/2."""
    a2, a3, _ = t
    return a2 / 2.0, (a3 - a2 ** 2 / 2.0) / 2.0


def log_inverse_coeffs(t: CoeffTriple) -> tuple[complex, complex, complex]:
    """(Gamma1, Gamma2, Gamma3) of the inverse function:
    Gamma1 = -a2/2, Gamma2 = -(a3 - (3/2) a2^2)/2,
    Gamma3 = -(a4 - 4 a2 a3 + (10/3) a2^3)/2."""
    a2, a3, a4 = t
    g1 = -a2 / 2.0
    g2 = -(a3 - 1.5 * a2 ** 2) / 2.0
    g3 = -(a4 - 4.0 * a2 * a3 + (10.0 / 3.0) * a2 ** 3) / 2.0
    return g1, g2, g3


def schwarzian_initial(t: CoeffTriple) -> tuple[complex, complex]:
    """(S3, S4), the initial values of the Schwarzian derivative hierarchy."""
    a2, a3, a4 = t
    return 6.0 * (a3 - a2 ** 2), 24.0 * (a4 - 3.0 * a2 * a3 + 2.0 * a2 ** 3)


def _t21_quartic(x, re_a3, abs_a3):
    """(-x^4 + 4 x^2 + 4 x^2 Re a3 - 4 |a3|^2)/16 for a real a2 = x."""
    return (-x ** 4 + 4.0 * x ** 2 + 4.0 * x ** 2 * re_a3
            - 4.0 * abs_a3 ** 2) / 16.0


def _real_a2_phase(a2):
    """e^(i*h) with a2 e^(i*h) = |a2|; 1 where a2 = 0.  The exact scaling by
    2^60 keeps 1/|a2|, which numpy forms to divide by |a2|, finite for a
    subnormal a2."""
    a2 = a2 * 2.0 ** 60
    absa2 = np.abs(a2)
    return np.where(absa2 > 0, np.conj(a2) / np.where(absa2 > 0, absa2, 1.0), 1.0)


def toeplitz_t21_log(t: CoeffTriple) -> float:
    """gamma1^2 - |gamma2|^2 as the quartic
    (-a2^4 + 4 a2^2 + 4 a2^2 Re a3 - 4 |a3|^2)/16, valid for real a2."""
    a2, a3, _ = t
    if abs(a2.imag) > _REAL_A2_TOL:
        raise NonRealSecondCoefficient(
            f"a2 = {a2} is not real; apply rotate_to_real_a2 first")
    return _t21_quartic(a2.real, a3.real, abs(a3))


def rotate_to_real_a2(f: NormalizedFunction) -> NormalizedFunction:
    """Rotation f(z) -> e^(-i*h) f(e^(i*h) z) making a2 real and >= 0.

    Every |a_n| is preserved; a_n picks up the phase factor e^(i*h*(n-1)).
    """
    c = f.series.coeffs
    a2 = c[2] if f.order >= 2 else 0.0
    if a2 == 0 or (a2.imag == 0 and a2.real > 0):
        return f
    phase = _real_a2_phase(a2)
    factors = phase ** np.arange(-1, f.order, dtype=np.float64)
    out = c * factors
    out[0] = 0.0
    out[1] = 1.0  # phase^0 is exactly 1; pin anyway
    return NormalizedFunction(TruncatedSeries(out))


@dataclass(frozen=True)
class FunctionalReport:
    """All implemented functionals of one function, or of a batch when the
    fields are arrays.

    The source coefficients are included so that identities such as
    A2 = -a2 and Gamma1 = -a2/2 remain recomputable from the report alone.
    """

    a2: complex
    a3: complex
    a4: complex
    A2: complex
    A3: complex
    A4: complex
    gamma1: complex
    gamma2: complex
    Gamma1: complex
    Gamma2: complex
    Gamma3: complex
    S3: complex
    S4: complex
    T21_log: float
    diff_A: float
    diff_Gamma: float


def evaluate(t: CoeffTriple) -> FunctionalReport:
    """Every functional of (a2, a3, a4), elementwise on scalars or arrays.

    The Toeplitz determinant is the quartic taken after rotating a2 real,
    which leaves |a3| unchanged and turns a3 into a3 e^(2ih).
    """
    A2, A3, A4 = inverse_coeffs(t)
    gamma1, gamma2 = log_coeffs(t)
    G1, G2, G3 = log_inverse_coeffs(t)
    S3, S4 = schwarzian_initial(t)
    a3_rotated = t.a3 * _real_a2_phase(t.a2) ** 2
    T21 = _t21_quartic(np.abs(t.a2), a3_rotated.real, np.abs(t.a3))
    return FunctionalReport(
        a2=t.a2, a3=t.a3, a4=t.a4,
        A2=A2, A3=A3, A4=A4,
        gamma1=gamma1, gamma2=gamma2,
        Gamma1=G1, Gamma2=G2, Gamma3=G3,
        S3=S3, S4=S4,
        T21_log=T21, diff_A=abs(A3 - A2), diff_Gamma=abs(G3 - G2),
    )


# value of each named functional on a report, in reporting order
FUNCTIONAL_VALUES = {
    "A2_abs": lambda r: abs(r.A2),
    "A3_abs": lambda r: abs(r.A3),
    "A4_abs": lambda r: abs(r.A4),
    "gamma1_abs": lambda r: abs(r.gamma1),
    "gamma2_abs": lambda r: abs(r.gamma2),
    "Gamma1_abs": lambda r: abs(r.Gamma1),
    "Gamma2_abs": lambda r: abs(r.Gamma2),
    "Gamma3_abs": lambda r: abs(r.Gamma3),
    "S3_abs": lambda r: abs(r.S3),
    "S4_abs": lambda r: abs(r.S4),
    "T21_log": lambda r: r.T21_log,
    "diff_A": lambda r: r.diff_A,
    "diff_Gamma": lambda r: r.diff_Gamma,
}


def inverse_crosscheck(f: np.ndarray, report: FunctionalReport) -> float:
    """Largest deviation of the closed-form A2, A3, A4 of ``report`` from the
    series inversion of f[:5] (coefficient-major, one function or a batch).

    Raises :class:`InverseSeriesMismatch` beyond ``INVERSE_CROSSCHECK_TOL``.
    """
    inv = inverse(f[:5])
    worst = float(max(np.max(np.abs(inv[2] - report.A2)),
                      np.max(np.abs(inv[3] - report.A3)),
                      np.max(np.abs(inv[4] - report.A4))))
    if worst > INVERSE_CROSSCHECK_TOL:
        raise InverseSeriesMismatch(
            f"series inversion deviates from closed form by {worst}")
    return worst


def full_report(fn: OzakiFunction | NormalizedFunction) -> FunctionalReport:
    """Evaluate every functional on one function.

    The inverse-coefficient formulas are cross-checked against the actual
    compositional inverse of the series; a disagreement beyond
    ``INVERSE_CROSSCHECK_TOL`` raises :class:`InverseSeriesMismatch`.
    """
    f = fn.f if isinstance(fn, OzakiFunction) else fn
    report = evaluate(CoeffTriple.from_function(f))
    inverse_crosscheck(f.series.coeffs, report)
    return report
