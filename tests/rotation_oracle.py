"""The rotation route to the Toeplitz determinant, kept as a test oracle.

The paper rotates f(z) -> e^(-i*h) f(e^(i*h) z) so that a2 is real and >= 0,
and takes gamma1^2 - |gamma2|^2 of the rotated function as the quartic
(-a2^4 + 4 a2^2 + 4 a2^2 Re a3 - 4 |a3|^2)/16.  ``ozaki.functionals.evaluate``
takes |gamma1|^2 - |gamma2|^2 without rotating; the tests check the two
against each other.
"""

import numpy as np

from ozaki.functionals import CoeffTriple
from ozaki.series import NormalizedFunction, TruncatedSeries

_REAL_A2_TOL = 1e-12


class NonRealSecondCoefficient(ValueError):
    """Toeplitz determinant needs a real second coefficient; rotate first."""


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
