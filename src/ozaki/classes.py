"""Members of the Ozaki close-to-convex classes F and G.

A function f in class F satisfies Re(1 + z f''/f') > -1/2 on the unit disk,
and one in class G satisfies Re(1 + z f''/f') < 3/2.  Every member arises
from a Schwarz function w through one equation at its two ends,

    1 + z f''/f' = 1 + kappa (p(z) - 1),   kappa = 3/2 (F) or -1/2 (G),

with p = (1 + w)/(1 - w) in the Caratheodory class.  Every formula reads the
class as the integer m = 2 kappa of ``ClassLabel.m``, which keeps it exact on
fractions and cheap on arrays.  This module constructs members by solving
that equation on the kernels of :mod:`ozaki.series`, on Python lists, so
that building one needs no numpy; a member holds its coefficients a0..aN
as a tuple.  Caratheodory data are checked by the Levinson-Durbin
recursion, also on Python numbers.  The records are NamedTuples, which
load no dataclass machinery; the three here coerce and check their fields
in ``__new__``, and ``_make`` and ``_replace`` go through it.  Closed forms
of a2..a4 serve the sampler and cross-check the solve.  The four classical
extremal functions are built by the solve, from w = z (f1 in F, g1 in G)
and w = z^2 (f2, g2).
"""

from __future__ import annotations

import cmath
from enum import Enum
from functools import cache
from operator import mul
from typing import NamedTuple

from .series import antiderivative, div, exp

__all__ = [
    "ClassLabel",
    "SchwarzCoeffs",
    "CaratheodoryCoeffs",
    "OzakiFunction",
    "UnknownExtremalName",
    "caratheodory_from_schwarz",
    "build_member",
    "build_member_from_caratheodory",
    "caratheodory_array",
    "solve_member",
    "extremal_member",
    "coeffs_from_caratheodory_direct",
    "coeffs_from_schwarz_direct",
    "EXTREMAL_NAMES",
]


class ClassLabel(Enum):
    F = "F"
    G = "G"

    @property
    def m(self) -> int:
        """2 kappa: 3 for F, -1 for G, the one number the formulas read."""
        return 3 if self is ClassLabel.F else -1


class UnknownExtremalName(ValueError):
    """Extremal name is not one of f1, f2, g1, g2."""


def _checked_make(cls, iterable):
    """``_make``, and with it ``_replace``, through the checks of ``__new__``."""
    return cls(*iterable)


class _SchwarzFields(NamedTuple):
    c: tuple[complex, ...]


class SchwarzCoeffs(_SchwarzFields):
    """Coefficients c1..cN of a Schwarz function w(z) = sum c_k z^k."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, c):
        return super().__new__(cls, tuple(complex(v) for v in c))

    def prefix(self, k: int) -> tuple[complex, ...]:
        """First k coefficients, zero-padded."""
        return tuple(self.c[i] if i < len(self.c) else 0.0 for i in range(k))


_CARATHEODORY_TOL = 1e-9
_CHECKED_PREFIX = 3   # a2, a3, a4 depend on p1, p2, p3


def _require_caratheodory_prefix(p) -> None:
    """Raise ValueError unless (p1, ..., pN) extends to a Caratheodory
    function, that is (Caratheodory-Toeplitz) unless the Hermitian Toeplitz
    matrix T of (2, p1, ..., pN) is positive semidefinite; to the tolerance,
    unless T + tol I is positive definite.

    The Levinson-Durbin (Schur-Szego) recursion on (2 + tol, p1, ..., pN)
    decides that on Python numbers: its prediction errors are the ratios of
    consecutive leading minors of T + tol I, so all of them are > 0 exactly
    when it is positive definite.  The message names the first leading
    block that is not.
    """
    name = f"(p1, ..., p{len(p)}) fails the Caratheodory-Toeplitz criterion"
    if not all(map(cmath.isfinite, p)):
        raise ValueError(f"{name}: it has a non-finite coefficient")
    t = (2.0 + _CARATHEODORY_TOL, *p)
    a: list[complex] = []   # predictor coefficients a1..a(k-1)
    error = t[0]
    for k in range(1, len(t)):
        delta = t[k] + sum(map(mul, a, t[k - 1:0:-1]))   # a_i t_(k-i)
        kappa = -delta / error
        a = [x + kappa * y.conjugate() for x, y in zip(a, reversed(a))]
        a.append(kappa)
        error -= abs(delta) ** 2 / error   # error * (1 - |kappa|^2)
        if not error > 0:
            raise ValueError(f"{name}: the Toeplitz matrix of (2, p1, ..., "
                             f"p{k}) is not positive semidefinite")


class _CaratheodoryFields(NamedTuple):
    p: tuple[complex, ...]


class CaratheodoryCoeffs(_CaratheodoryFields):
    """Coefficients p1..pN of p(z) = 1 + sum p_k z^k with Re p > 0.

    The given coefficients, zero-padded to p1..p3, must extend to such a p;
    those above them are read as zero and are not checked.
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, p):
        self = super().__new__(cls, tuple(complex(v) for v in p))
        _require_caratheodory_prefix(
            self.prefix(max(len(self.p), _CHECKED_PREFIX)))
        return self

    def prefix(self, k: int) -> tuple[complex, ...]:
        return tuple(self.p[i] if i < len(self.p) else 0.0 for i in range(k))


class _MemberFields(NamedTuple):
    label: ClassLabel
    coeffs: tuple[complex, ...]
    provenance: SchwarzCoeffs | CaratheodoryCoeffs | str


class OzakiFunction(_MemberFields):
    """A constructed member of class F or G: its coefficients a0..aN, with
    a0 = 0, a1 = 1 and N >= 4, and its generating data.  It checks all three
    itself; the builders leave the order to this check."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, label, coeffs, provenance):
        if len(coeffs) < 5:
            raise ValueError("class members are carried to order >= 4")
        if coeffs[0] != 0 or coeffs[1] != 1:
            raise ValueError("a member needs a0 = 0 and a1 = 1 exactly")
        return super().__new__(cls, label, coeffs, provenance)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> complex:
        return self.coeffs[n]


def caratheodory_array(w: list) -> list:
    """Coefficients of p = (1 + w)/(1 - w) from those of w, as lists of
    rows: Python numbers for one series, numpy rows for a batch."""
    return div([1.0 + w[0], *w[1:]], [1.0 - w[0], *(-c for c in w[1:])])


def caratheodory_from_schwarz(c: SchwarzCoeffs, order: int) -> CaratheodoryCoeffs:
    """Coefficients p1..p_order of p = (1 + w)/(1 - w) for the polynomial
    w = c1 z + ... + cN z^N; all of them are checked as given data."""
    p = caratheodory_array([0.0, *c.prefix(order)])
    return CaratheodoryCoeffs(tuple(p[1:]))


def solve_member(label: ClassLabel, p: list) -> list:
    """Coefficients of the member whose Caratheodory function has the
    coefficients p (a list of rows as in ``caratheodory_array``, p[0] = 1),
    to the length of p: f = int exp(int q) with q(z) = f''/f' = m (p(z) - 1)/(2z).
    """
    q = [label.m / 2 * c for c in p[1:]]   # orders 0..len-2
    return antiderivative(exp(antiderivative(q)))[: len(p)]


def build_member_from_caratheodory(label: ClassLabel, p: CaratheodoryCoeffs,
                                   order: int) -> OzakiFunction:
    """Solve the defining differential equation from Caratheodory data."""
    f = solve_member(label, [1.0, *p.prefix(order)])
    return OzakiFunction(label, tuple(f), p)


def build_member(label: ClassLabel, w: SchwarzCoeffs, order: int) -> OzakiFunction:
    """Class member generated by the Schwarz function w; the rule of
    :class:`CaratheodoryCoeffs` applies to the p1..pN that c1..cN determine."""
    given = max(len(w.c), _CHECKED_PREFIX)
    p = caratheodory_array([0.0, *w.prefix(max(order, given))])
    _require_caratheodory_prefix(p[1: given + 1])
    f = solve_member(label, p[: max(order + 1, 0)])   # no slice from the end
    return OzakiFunction(label, tuple(f), w)


# name: (class, Schwarz function) of the four extremal members
_EXTREMALS = {
    "f1": (ClassLabel.F, SchwarzCoeffs((1,))),
    "f2": (ClassLabel.F, SchwarzCoeffs((0, 1))),
    "g1": (ClassLabel.G, SchwarzCoeffs((1,))),
    "g2": (ClassLabel.G, SchwarzCoeffs((0, 1))),
}
EXTREMAL_NAMES = tuple(_EXTREMALS)


@cache
def _extremal_coeffs(name: str, order: int) -> tuple[complex, ...]:
    """Coefficients 0..order of a witness, checked and solved once."""
    label, w = _EXTREMALS[name]
    return build_member(label, w, order).coeffs


def extremal_member(name: str, order: int) -> OzakiFunction:
    """One of the four extremal functions, the members generated by w = z
    (f1 in F, g1 in G) and w = z^2 (f2 in F, g2 in G):

    f1' = (1-z)^-3, f2' = (1-z^2)^(-3/2), g1' = 1-z, g2' = (1-z^2)^(1/2).
    Calls share the cached coefficient tuple, which cannot be written.
    """
    if name not in _EXTREMALS:
        raise UnknownExtremalName(f"unknown extremal {name!r}")
    return OzakiFunction(_EXTREMALS[name][0], _extremal_coeffs(name, order), name)


def coeffs_from_schwarz_direct(label: ClassLabel, c1, c2, c3):
    """Initial coefficients (a2, a3, a4) straight from the Schwarz
    coefficients c1, c2, c3, scalars or arrays of one shape: the Caratheodory
    formulas at p1 = 2c1, p2 = 2c2 + 2c1^2 and p3 = 2c3 + 4c1c2 + 2c1^3."""
    m = label.m
    a2 = m * c1 / 2
    a3 = (m * c2 + m * (1 + m) * c1 ** 2) / 6
    a4 = (2 * m * c3 + m * (4 + 3 * m) * c1 * c2
          + m * (1 + m) * (2 + m) * c1 ** 3) / 24
    return a2, a3, a4


def coeffs_from_caratheodory_direct(label: ClassLabel, p: CaratheodoryCoeffs,
                                    ) -> tuple[complex, complex, complex]:
    """Initial coefficients (a2, a3, a4) straight from Caratheodory data."""
    p1, p2, p3 = p.prefix(3)
    m = label.m
    a2 = m * p1 / 4
    a3 = (2 * m * p2 + m * m * p1 ** 2) / 24
    a4 = (8 * m * p3 + 6 * m * m * p1 * p2 + m ** 3 * p1 ** 3) / 192
    return a2, a3, a4
