"""Truncated complex power series arithmetic.

A :class:`TruncatedSeries` holds the Taylor coefficients ``a0..aN`` of an
analytic function at the origin, truncated at order ``N``.  All operations
return new values; nothing is mutated in place.  Binary arithmetic truncates
to the smaller operand order, so a result never carries coefficients that the
operands did not determine.  Composition is the one exception: the result
carries the order of the outer series and the inner series is treated as
exact (zero) beyond its stored coefficients, which is the intended reading
for polynomial inner arguments such as ``z**2``.

Coefficients are stored as ``complex128``; every acceptance tolerance in the
package is at least 1e-12 and orders stay small, so double precision is
sufficient.  Structural preconditions (unit constant term, vanishing constant
term) are tested with exact comparison: the constructors of this package
produce those constants exactly.

Beneath the class sit the array kernels :func:`mul`, :func:`div`,
:func:`exp`, :func:`log`, :func:`antiderivative` and :func:`inverse`.  They
are coefficient-major: axis 0 is the power of ``z`` and any trailing axes
index a batch of series, so a 1-D array is one series and an array of shape
``(order+1, n)`` holds n of them.  Each kernel is a plain recurrence over
the rows of its input, with no reduction helper: Python complex numbers for
one series (cheaper than numpy calls at small orders, slower beyond about 40
coefficients) and numpy rows for a batch.  Each returns as many coefficients
as its input has and checks no precondition; the :class:`TruncatedSeries`
methods that wrap the kernels do.
"""

from __future__ import annotations

from numbers import Complex
from typing import Iterable

import numpy as np

__all__ = [
    "TruncatedSeries",
    "NormalizedFunction",
    "SeriesError",
    "DivisionByNonUnit",
    "CompositionAtNonOrigin",
    "ExpOfNonZeroConstant",
    "LogOfNonUnitConstant",
    "PowOfNonUnitConstant",
    "NotNormalized",
    "mul",
    "div",
    "exp",
    "log",
    "antiderivative",
    "inverse",
    "identity",
]


class SeriesError(ValueError):
    """Invalid operation on a truncated series."""


class DivisionByNonUnit(SeriesError):
    """Division by a series whose constant term is zero."""


class CompositionAtNonOrigin(SeriesError):
    """Composition with an inner series that does not vanish at 0."""


class ExpOfNonZeroConstant(SeriesError):
    """exp of a series whose constant term is not zero."""


class LogOfNonUnitConstant(SeriesError):
    """log of a series whose constant term is not one."""


class PowOfNonUnitConstant(SeriesError):
    """Real power of a series whose constant term is not one."""


class NotNormalized(SeriesError):
    """Series is not of the normalized form z + a2 z^2 + ..."""


def _rows(a: np.ndarray) -> list:
    """The rows of a: Python complex numbers for one series, arrays for a batch."""
    return a.tolist() if a.ndim == 1 else list(a)


def _stack(rows: list, a: np.ndarray) -> np.ndarray:
    """rows as one coefficient-major array in the batch shape of a."""
    out = np.empty((len(rows),) + a.shape[1:], dtype=np.complex128)
    for k, row in enumerate(rows):
        out[k] = row
    return out


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cauchy product of two series of equal shape, truncated to it."""
    x, y = _rows(a), _rows(b)
    return _stack([sum(x[i] * y[k - i] for i in range(k + 1))
                   for k in range(len(x))], a)


def div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Quotient a / b of two series of equal shape; b[0] must not vanish."""
    x, y = _rows(a), _rows(b)
    q = []
    for k in range(len(x)):
        q.append((x[k] - sum(q[i] * y[k - i] for i in range(k))) / y[0])
    return _stack(q, a)


def exp(s: np.ndarray) -> np.ndarray:
    """exp of a series with zero constant term, via e' = e * s'."""
    ws = [k * c for k, c in enumerate(_rows(s))]   # k * s_k
    e = [1.0]
    for m in range(1, len(ws)):
        e.append(sum(ws[k] * e[m - k] for k in range(1, m + 1)) / m)
    return _stack(e, s)


def log(s: np.ndarray) -> np.ndarray:
    """log of a series with unit constant term, recurrence dual to exp."""
    x = _rows(s)
    out = [0.0]
    for m in range(1, len(x)):
        out.append((m * x[m] - sum(k * out[k] * x[m - k] for k in range(1, m))) / m)
    return _stack(out, s)


def antiderivative(s: np.ndarray) -> np.ndarray:
    """Antiderivative vanishing at 0; one coefficient longer than s."""
    return _stack([0.0] + [c / k for k, c in enumerate(_rows(s), 1)], s)


def inverse(f: np.ndarray) -> np.ndarray:
    """Compositional inverse F of f = z + a2 z^2 + ..., with f(F(w)) = w.

    Built coefficient by coefficient: with A2..A(m-1) fixed and Am = 0,
    the w^m coefficient of f(F(w)) = sum_k a_k F^k is exactly -Am.
    """
    x = _rows(f)
    inv = [0.0, 1.0]
    for m in range(2, len(x)):
        head = power = inv + [0.0]
        acc = 0.0
        for k in range(2, m + 1):
            # F^k vanishes below z^k, so only coefficients k..m are computed
            power = [0.0] * k + [sum(power[i] * head[j - i] for i in range(j + 1))
                                 for j in range(k, m + 1)]
            acc += x[k] * power[m]
        inv.append(-acc)
    return _stack(inv, f)


class TruncatedSeries:
    """Taylor coefficients ``a0..aN`` of an analytic function, ``N = order``."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Iterable[Complex] | np.ndarray):
        c = np.array(list(coeffs) if not isinstance(coeffs, np.ndarray) else coeffs,
                     dtype=np.complex128)
        if c.ndim != 1 or c.size == 0:
            raise SeriesError("coefficients must form a non-empty 1-D sequence")
        c.setflags(write=False)
        self._c = c

    # -- basic accessors ---------------------------------------------------

    @property
    def coeffs(self) -> np.ndarray:
        """Read-only coefficient array, index k = coefficient of z^k."""
        return self._c

    @property
    def order(self) -> int:
        return self._c.size - 1

    def __getitem__(self, k: int) -> complex:
        return complex(self._c[k])

    def __repr__(self) -> str:
        return f"TruncatedSeries({self._c.tolist()!r})"

    def padded(self, order: int) -> "TruncatedSeries":
        """The series carried to ``order``: extended with exact zero
        coefficients, or cut off when ``order`` is below self.order.

        Use only when the stored coefficients describe the function exactly
        (polynomial data); padding a genuine truncation fabricates zeros.
        """
        n = min(order, self.order) + 1
        out = np.zeros(order + 1, dtype=np.complex128)
        out[:n] = self._c[:n]
        return TruncatedSeries(out)

    # -- ring operations ---------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            n = min(self.order, other.order)
            return TruncatedSeries(mul(self._c[: n + 1], other._c[: n + 1]))
        if isinstance(other, Complex):
            return TruncatedSeries(self._c * complex(other))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Complex):
            return TruncatedSeries(self._c / complex(other))
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if other._c[0] == 0:
            raise DivisionByNonUnit("division requires a nonzero constant term")
        n = min(self.order, other.order)
        return TruncatedSeries(div(self._c[: n + 1], other._c[: n + 1]))

    # -- calculus ----------------------------------------------------------

    def derivative(self) -> "TruncatedSeries":
        """Coefficientwise derivative; order drops by one."""
        if self.order < 1:
            raise SeriesError("derivative requires order >= 1")
        return TruncatedSeries(self._c[1:] * np.arange(1, self._c.size))

    def antiderivative(self) -> "TruncatedSeries":
        """Antiderivative vanishing at 0; order grows by one."""
        return TruncatedSeries(antiderivative(self._c))

    # -- composition and transcendental maps --------------------------------

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """Series of self(inner(z)), carried to self.order.

        The inner series must vanish at 0 and is treated as exact beyond its
        stored order.  Evaluated by Horner accumulation of truncated powers.
        """
        if inner._c[0] != 0:
            raise CompositionAtNonOrigin(
                f"inner constant term must be 0, got {inner._c[0]}")
        n = self.order
        g = inner.padded(n).coeffs
        acc = np.zeros(n + 1, dtype=np.complex128)
        acc[0] = self._c[n]
        for k in range(n - 1, -1, -1):
            acc = mul(acc, g)
            acc[0] += self._c[k]
        return TruncatedSeries(acc)

    def exp(self) -> "TruncatedSeries":
        """exp of a series with zero constant term, via e' = e * s'."""
        if self._c[0] != 0:
            raise ExpOfNonZeroConstant(
                f"exp requires constant term 0, got {self._c[0]}")
        return TruncatedSeries(exp(self._c))

    def log(self) -> "TruncatedSeries":
        """log of a series with unit constant term, recurrence dual to exp."""
        if self._c[0] != 1:
            raise LogOfNonUnitConstant(
                f"log requires constant term 1, got {self._c[0]}")
        return TruncatedSeries(log(self._c))

    def pow(self, alpha: float) -> "TruncatedSeries":
        """Real power of a series with unit constant term: exp(alpha*log)."""
        if self._c[0] != 1:
            raise PowOfNonUnitConstant(
                f"pow requires constant term 1, got {self._c[0]}")
        return (self.log() * alpha).exp()


def identity(order: int) -> TruncatedSeries:
    """The series of z itself."""
    if order < 1:
        raise SeriesError("identity requires order >= 1")
    return TruncatedSeries([0.0, 1.0] + [0.0] * (order - 1))


class NormalizedFunction:
    """A series of the normalized form f(z) = z + a2 z^2 + ... (a0=0, a1=1)."""

    __slots__ = ("_series",)

    def __init__(self, series: TruncatedSeries):
        if series.order < 1 or series.coeffs[0] != 0 or series.coeffs[1] != 1:
            raise NotNormalized(
                "normalized function needs a0 = 0 and a1 = 1 exactly")
        self._series = series

    @property
    def series(self) -> TruncatedSeries:
        return self._series

    @property
    def order(self) -> int:
        return self._series.order

    def coeff(self, n: int) -> complex:
        return self._series[n]

    def __repr__(self) -> str:
        return f"NormalizedFunction({self._series.coeffs.tolist()!r})"

    def log_ratio(self) -> TruncatedSeries:
        """Series of log(f(z)/z); the n-th logarithmic coefficient is
        half the n-th coefficient of the result."""
        ratio = TruncatedSeries(self._series.coeffs[1:])  # f/z, constant 1
        return ratio.log()

    def inverse(self) -> TruncatedSeries:
        """Compositional inverse F with f(F(w)) = w to self.order."""
        return TruncatedSeries(inverse(self._series.coeffs))
