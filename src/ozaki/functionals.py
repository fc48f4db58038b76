"""Coefficient functionals of normalized univalent functions.

Everything here is a closed-form expression with integer coefficients in
the initial coefficients (a2, a3, a4):

* inverse coefficients A2, A3, A4 of the compositional inverse F(w),
* logarithmic coefficients gamma_n, half the coefficients of log(f/z),
* logarithmic inverse coefficients Gamma_n, the gamma_n of F, that is
  ``log_coeffs(inverse_coeffs(t))``,
* initial Schwarzian derivative values S3 = 6(a3 - a2^2) and
  S4 = 24(a4 - 3 a2 a3 + 2 a2^3),
* the second-order Hermitian-Toeplitz determinant of logarithmic
  coefficients, |gamma1|^2 - |gamma2|^2,
* the successive differences |A3 - A2| and |Gamma3 - Gamma2|.

The paper writes the determinant as gamma1^2 - |gamma2|^2 after rotating
f(z) -> e^(-ih) f(e^(ih) z) so that a2 is real and >= 0.  That rotation
multiplies gamma_n by e^(inh), so every |gamma_n| is unchanged and no
function is rotated here.

Every formula works elementwise, on Python scalars, on numpy arrays and on
real ``Fraction``s alike; on ``Fraction``s every result is exact.
``evaluate`` maps a :class:`CoeffTriple` of scalars (one function) or of
arrays (a sampled batch) to a :class:`FunctionalReport`;
``FUNCTIONAL_VALUES`` reads each named real value off such a report, and
``inverse_crosscheck`` checks the closed-form inverse coefficients by
composition: F inverts f exactly when the w^2..w^4 coefficients of
f(F(w)) - w vanish, and those cost a few products per function where a
series inversion of f costs more than ``evaluate``.  ``full_report`` is all
three on one function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .classes import OzakiFunction

__all__ = [
    "CoeffTriple",
    "FunctionalReport",
    "InverseSeriesMismatch",
    "inverse_coeffs",
    "log_coeffs",
    "schwarzian_initial",
    "evaluate",
    "inverse_crosscheck",
    "full_report",
    "FUNCTIONAL_VALUES",
    "INVERSE_CROSSCHECK_TOL",
    "FUNCTIONAL_ORDER",
]

INVERSE_CROSSCHECK_TOL = 1e-10
FUNCTIONAL_ORDER = 4   # a4, the highest coefficient any functional reads


class InverseSeriesMismatch(ArithmeticError):
    """Closed-form inverse coefficients do not invert the function."""


class CoeffTriple(NamedTuple):
    a2: complex
    a3: complex
    a4: complex

    @classmethod
    def from_function(cls, f: OzakiFunction) -> "CoeffTriple":
        """a2..a4 of a function that has ``order`` and ``coeff(n)``."""
        if f.order < FUNCTIONAL_ORDER:
            raise ValueError("need coefficients up to a4, so order >= 4")
        return cls(f.coeff(2), f.coeff(3), f.coeff(4))


def inverse_coeffs(t: CoeffTriple) -> tuple[complex, complex, complex]:
    """(A2, A3, A4) of the compositional inverse:
    A2 = -a2, A3 = 2 a2^2 - a3, A4 = -a4 + 5 a2 a3 - 5 a2^3."""
    a2, a3, a4 = t
    return -a2, 2 * a2 ** 2 - a3, -a4 + 5 * a2 * a3 - 5 * a2 ** 3


def _log_coeffs12(a2: complex, a3: complex) -> tuple[complex, complex]:
    """(gamma1, gamma2): gamma1 = a2/2, gamma2 = (a3 - a2^2/2)/2."""
    return a2 / 2, (a3 - a2 ** 2 / 2) / 2


def log_coeffs(t: CoeffTriple) -> tuple[complex, complex, complex]:
    """(gamma1, gamma2, gamma3), half the coefficients of log(f(z)/z):
    gamma1 and gamma2 as in ``_log_coeffs12``, gamma3 = (a4 - a2 a3 + a2^3/3)/2.

    Applied to ``inverse_coeffs(t)`` it gives Gamma1, Gamma2, Gamma3."""
    a2, a3, a4 = t
    return (*_log_coeffs12(a2, a3), (a4 - a2 * a3 + a2 ** 3 / 3) / 2)


def schwarzian_initial(t: CoeffTriple) -> tuple[complex, complex]:
    """(S3, S4), the initial values of the Schwarzian derivative hierarchy."""
    a2, a3, a4 = t
    return 6 * (a3 - a2 ** 2), 24 * (a4 - 3 * a2 * a3 + 2 * a2 ** 3)


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
    """Every functional of (a2, a3, a4), elementwise on scalars, arrays or
    ``Fraction``s.

    Gamma1..Gamma3 are the logarithmic coefficients of the inverse, read
    from A2..A4.  The Toeplitz determinant is |gamma1|^2 - |gamma2|^2, which
    equals the paper's gamma1^2 - |gamma2|^2 at a2 rotated real, since the
    rotation leaves every |gamma_n| unchanged.
    """
    A2, A3, A4 = inverse_coeffs(t)
    gamma1, gamma2 = _log_coeffs12(t.a2, t.a3)   # no report field reads gamma3
    G1, G2, G3 = log_coeffs(CoeffTriple(A2, A3, A4))
    S3, S4 = schwarzian_initial(t)
    return FunctionalReport(
        a2=t.a2, a3=t.a3, a4=t.a4,
        A2=A2, A3=A3, A4=A4,
        gamma1=gamma1, gamma2=gamma2,
        Gamma1=G1, Gamma2=G2, Gamma3=G3,
        S3=S3, S4=S4,
        T21_log=abs(gamma1) ** 2 - abs(gamma2) ** 2,
        diff_A=abs(A3 - A2), diff_Gamma=abs(G3 - G2),
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


def _composition_terms(t: CoeffTriple, inv: tuple[complex, complex, complex]
                       ) -> tuple[complex, complex, complex]:
    """The w^2, w^3, w^4 coefficients of f(F(w)) - w, for f with a2..a4 of
    ``t`` and F with the inverse coefficients ``inv`` = (A2, A3, A4)."""
    a2, a3, a4 = t
    A2, A3, A4 = inv
    # named, not inline: numpy may compute a large enough temporary in place,
    # and a2 * F2 must round alike on a whole chunk and on its tiles
    F2 = A2 ** 2 + 2 * A3
    return (a2 + A2,
            a3 + 2 * a2 * A2 + A3,
            a4 + 3 * a3 * A2 + a2 * F2 + A4)


def inverse_crosscheck(f: np.ndarray, report: FunctionalReport) -> float:
    """Largest modulus of the w^2..w^4 coefficients of f(F(w)) - w, for f
    with the coefficients f[:5] (coefficient-major, one function or a batch)
    and F with the closed-form A2, A3, A4 of ``report``: zero exactly when F
    inverts f, as a series inversion would check, at a few products.

    Raises :class:`InverseSeriesMismatch` beyond ``INVERSE_CROSSCHECK_TOL``
    and on NaN.
    """
    terms = _composition_terms(CoeffTriple(f[2], f[3], f[4]),
                               (report.A2, report.A3, report.A4))
    worst = float(np.max(np.abs(np.stack(terms))))   # NaN propagates
    if not worst <= INVERSE_CROSSCHECK_TOL:
        raise InverseSeriesMismatch(
            f"f(F(w)) - w deviates from zero by {worst}")
    return worst


def full_report(fn: OzakiFunction) -> FunctionalReport:
    """Evaluate every functional on one function, read through
    ``CoeffTriple.from_function``.

    The inverse-coefficient formulas are cross-checked by composition, as in
    ``inverse_crosscheck``; a residual beyond ``INVERSE_CROSSCHECK_TOL``
    raises :class:`InverseSeriesMismatch`.
    """
    t = CoeffTriple.from_function(fn)
    report = evaluate(t)
    inverse_crosscheck((0, 1, *t), report)
    return report
