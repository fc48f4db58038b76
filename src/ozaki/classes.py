"""Members of the Ozaki close-to-convex classes F and G.

A function f in class F satisfies Re(1 + z f''/f') > -1/2 on the unit disk,
and one in class G satisfies Re(1 + z f''/f') < 3/2.  Every member arises
from a Schwarz function w through one equation at its two ends,

    1 + z f''/f' = 1 + kappa (p(z) - 1),   kappa = 3/2 (F) or -1/2 (G),

with p = (1 + w)/(1 - w) in the Caratheodory class.  Every formula reads the
class as the integer m = 2 kappa of ``ClassLabel.m``, which keeps it exact on
fractions and cheap on arrays.  This module constructs members by solving
that equation on the kernels of :mod:`ozaki.series`; a member holds its
coefficients a0..aN as a tuple.  Closed forms of a2..a4 serve the
sampler and cross-check the solve.  The four classical extremal functions
are built by the solve, from w = z (f1 in F, g1 in G) and w = z^2 (f2, g2).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache

import numpy as np

from .series import antiderivative, div, exp

__all__ = [
    "ClassLabel",
    "SchwarzCoeffs",
    "CaratheodoryCoeffs",
    "OzakiFunction",
    "UnknownExtremalName",
    "blaschke_product",
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


@dataclass(frozen=True)
class SchwarzCoeffs:
    """Coefficients c1..cN of a Schwarz function w(z) = sum c_k z^k."""

    c: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "c", tuple(complex(v) for v in self.c))

    def prefix(self, k: int) -> tuple[complex, ...]:
        """First k coefficients, zero-padded."""
        return tuple(self.c[i] if i < len(self.c) else 0.0 for i in range(k))

    def array(self, order: int) -> np.ndarray:
        """Coefficients 0..order of w (stored data treated as exact)."""
        return np.array((0.0,) + self.prefix(order), dtype=np.complex128)


_CARATHEODORY_TOL = 1e-9
_CHECKED_PREFIX = 3   # a2, a3, a4 depend on p1, p2, p3


@cache
def _toeplitz_index(size: int) -> np.ndarray:
    """|j - i| at (i, j): indexed by it, (2, p1, ...) gives p_(j-i) above the
    diagonal, the only part that eigvalsh reads."""
    return np.abs(np.arange(size)[:, None] - np.arange(size))


def _require_caratheodory_prefix(p) -> None:
    """Raise ValueError unless (p1, ..., pN) extends to a Caratheodory
    function, that is (Caratheodory-Toeplitz) unless the Hermitian Toeplitz
    matrix of (2, p1, ..., pN) is positive semidefinite."""
    c = np.concatenate(([2.0], np.asarray(p, dtype=np.complex128)))
    name = f"(p1, ..., p{c.size - 1}) fails the Caratheodory-Toeplitz criterion"
    if not np.all(np.isfinite(c)):   # LAPACK does not converge on these
        raise ValueError(f"{name}: it has a non-finite coefficient")
    lowest = np.linalg.eigvalsh(c[_toeplitz_index(c.size)], UPLO="U")[0]
    if not lowest >= -_CARATHEODORY_TOL:
        raise ValueError(f"{name}: the Toeplitz matrix of (2, p1, ...) has "
                         f"eigenvalue {lowest:.3g} < 0")


@dataclass(frozen=True)
class CaratheodoryCoeffs:
    """Coefficients p1..pN of p(z) = 1 + sum p_k z^k with Re p > 0.

    The given coefficients, zero-padded to p1..p3, must extend to such a p;
    those above them are read as zero and are not checked.
    """

    p: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(complex(v) for v in self.p))
        _require_caratheodory_prefix(
            self.prefix(max(len(self.p), _CHECKED_PREFIX)))

    def prefix(self, k: int) -> tuple[complex, ...]:
        return tuple(self.p[i] if i < len(self.p) else 0.0 for i in range(k))

    def array(self, order: int) -> np.ndarray:
        """Coefficients 0..order of p (stored data treated as exact)."""
        return np.array((1.0,) + self.prefix(order), dtype=np.complex128)


@dataclass(frozen=True)
class OzakiFunction:
    """A constructed member of class F or G: its coefficients a0..aN, with
    a0 = 0, a1 = 1 and N >= 4, and its generating data."""

    label: ClassLabel
    coeffs: tuple[complex, ...]
    provenance: SchwarzCoeffs | CaratheodoryCoeffs | str

    def __post_init__(self):
        if len(self.coeffs) < 5:
            raise ValueError("class members are carried to order >= 4")
        if self.coeffs[0] != 0 or self.coeffs[1] != 1:
            raise ValueError("a member needs a0 = 0 and a1 = 1 exactly")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> complex:
        return self.coeffs[n]


def blaschke_product(rotation, zeros: np.ndarray, count, length: int) -> np.ndarray:
    """Coefficients 0..length-1 of e^(i*rotation) * prod_k (a_k - z)/(1 - conj(a_k) z).

    Coefficient-major like the series kernels: ``rotation`` and ``count``
    have the batch shape and ``zeros`` has shape (K, *batch); only the first
    ``count`` zeros of each product are used.  Each factor is applied in
    place, times (a - z) and then divided by (1 - conj(a) z), which expands
    it in closed form as a + (|a|^2 - 1) sum_t conj(a)^(t-1) z^t.
    """
    b = np.zeros((length,) + np.shape(rotation), dtype=np.complex128)
    b[0] = 1.0
    for j, a in enumerate(zeros):
        abar = np.conj(a)
        q = np.empty_like(b)
        q[0] = a * b[0]
        for t in range(1, length):
            q[t] = a * b[t] - b[t - 1] + abar * q[t - 1]
        b = np.where(j < count, q, b)
    return b * np.exp(1j * rotation)


def caratheodory_array(w: np.ndarray) -> np.ndarray:
    """Coefficients of p = (1 + w)/(1 - w) from those of w, coefficient-major."""
    plus, minus = w.copy(), -w
    plus[0] += 1.0
    minus[0] += 1.0
    return div(plus, minus)


def caratheodory_from_schwarz(c: SchwarzCoeffs, order: int) -> CaratheodoryCoeffs:
    """Coefficients p1..p_order of p = (1 + w)/(1 - w) for the polynomial
    w = c1 z + ... + cN z^N; all of them are checked as given data."""
    p = caratheodory_array(c.array(order))
    return CaratheodoryCoeffs(tuple(p[1:]))


def solve_member(label: ClassLabel, p: np.ndarray) -> np.ndarray:
    """Coefficients of the member whose Caratheodory function has the
    coefficients p (coefficient-major, p[0] = 1), to the length of p:
    f = int exp(int q) with q(z) = f''/f' = m (p(z) - 1)/(2z).
    """
    q = label.m / 2 * p[1:]   # orders 0..len-2
    return antiderivative(exp(antiderivative(q)))[: p.shape[0]]


def build_member_from_caratheodory(label: ClassLabel, p: CaratheodoryCoeffs,
                                   order: int) -> OzakiFunction:
    """Solve the defining differential equation from Caratheodory data."""
    if order < 4:
        raise ValueError("order must be >= 4")
    f = solve_member(label, p.array(order))
    return OzakiFunction(label, tuple(f.tolist()), p)


def build_member(label: ClassLabel, w: SchwarzCoeffs, order: int) -> OzakiFunction:
    """Class member generated by the Schwarz function w; the rule of
    :class:`CaratheodoryCoeffs` applies to the p1..pN that c1..cN determine."""
    if order < 4:
        raise ValueError("order must be >= 4")
    given = max(len(w.c), _CHECKED_PREFIX)
    p = caratheodory_array(w.array(max(order, given)))
    _require_caratheodory_prefix(p[1: given + 1])
    f = solve_member(label, p[: order + 1])
    return OzakiFunction(label, tuple(f.tolist()), w)


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
