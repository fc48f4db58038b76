"""Blaschke-product and coefficient-representation builders, kept as test
oracles.

``schwarz_from_blaschke`` expands the Schwarz function z times a finite
Blaschke product (or a convex mixture of two) that a :class:`BlaschkeSpec`
describes, one member at a time; ``spec_from_batch`` reads member i of a
sampled batch back as such a spec, so the tests can rebuild a sampled member
by the single-member solve.  ``libera_expand`` gives (p1, p2, p3, p4) from the
coefficient representation of the Caratheodory class.  The package builds
members from Schwarz or Caratheodory coefficients directly and samples
through ``ozaki.sampling.blaschke_product``; the tests check it against these.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ozaki.classes import CaratheodoryCoeffs, SchwarzCoeffs
from ozaki.sampling import blaschke_product


class ZeroOutsideDisk(ValueError):
    """A Blaschke zero lies on or outside the unit circle."""


_UNIT_TOL = 1e-12


@dataclass(frozen=True)
class LiberaParams:
    """Parameters (p1, xi, eta, gamma) of the Caratheodory coefficient
    representation: p1 in [0, 2] and xi, eta, gamma in the closed unit disk.
    The derived quantity t = 4 - p1^2 lies in [0, 4]."""

    p1: float
    xi: complex
    eta: complex
    gamma: complex

    def __post_init__(self):
        if not 0.0 <= self.p1 <= 2.0:
            raise ValueError(f"p1 must lie in [0, 2], got {self.p1}")
        for name in ("xi", "eta", "gamma"):
            if abs(getattr(self, name)) > 1.0 + _UNIT_TOL:
                raise ValueError(f"|{name}| must be <= 1, got {getattr(self, name)}")

    @property
    def t(self) -> float:
        return 4.0 - self.p1 * self.p1


@dataclass(frozen=True)
class BlaschkeSpec:
    """z times a finite Blaschke product, optionally a convex mixture of two.

    w(z) = z * e^(i*rotation) * prod_k (a_k - z)/(1 - conj(a_k) z) is a
    Schwarz function for any zeros a_k inside the open unit disk; so is a
    convex combination of two such products.  ``mixture_weight`` is the
    weight of this product; ``second`` carries the rest.
    """

    rotation: float
    zeros: tuple[complex, ...] = ()
    second: "BlaschkeSpec | None" = None
    mixture_weight: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "zeros", tuple(complex(a) for a in self.zeros))
        for a in self.zeros:
            if abs(a) >= 1.0:
                raise ZeroOutsideDisk(f"Blaschke zero {a} has |a| >= 1")
        if not 0.0 <= self.mixture_weight <= 1.0:
            raise ValueError(f"mixture weight {self.mixture_weight} not in [0, 1]")
        if self.second is None and self.mixture_weight != 1.0:
            raise ValueError("mixture weight without a second product")


def schwarz_from_blaschke(spec: BlaschkeSpec, order: int) -> SchwarzCoeffs:
    """Coefficients c1..c_order of the Schwarz function described by ``spec``."""
    if order < 1:
        raise ValueError("order must be >= 1")

    def product(s: BlaschkeSpec) -> np.ndarray:
        zeros = np.array(s.zeros, dtype=np.complex128)
        return blaschke_product(s.rotation, zeros, zeros.size, order)

    w = spec.mixture_weight * product(spec)
    if spec.second is not None:
        w = w + (1.0 - spec.mixture_weight) * product(spec.second)
    return SchwarzCoeffs(tuple(w))


def libera_expand(params: LiberaParams) -> CaratheodoryCoeffs:
    """(p1, p2, p3, p4) from the coefficient representation of class P:

        2 p2 = p1^2 + t xi
        4 p3 = p1^3 + 2 p1 t xi - p1 t xi^2 + 2 t (1-|xi|^2) eta
        8 p4 = p1^4 + 3 p1^2 t xi + (4 - 3 p1^2) t xi^2 + p1^2 t xi^3
               + 4 t (1-|xi|^2)(1-|eta|^2) gamma
               + 4 t (1-|xi|^2)(p1 eta - p1 xi eta - conj(xi) eta^2)

    with t = 4 - p1^2 and xi, eta, gamma in the closed unit disk.
    """
    p1 = complex(params.p1)
    xi, eta, gam = params.xi, params.eta, params.gamma
    t = complex(params.t)
    xi2 = 1.0 - abs(xi) ** 2
    eta2 = 1.0 - abs(eta) ** 2
    p2 = (p1 ** 2 + t * xi) / 2.0
    p3 = (p1 ** 3 + 2.0 * p1 * t * xi - p1 * t * xi ** 2 + 2.0 * t * xi2 * eta) / 4.0
    p4 = (p1 ** 4 + 3.0 * p1 ** 2 * t * xi + (4.0 - 3.0 * p1 ** 2) * t * xi ** 2
          + p1 ** 2 * t * xi ** 3 + 4.0 * t * xi2 * eta2 * gam
          + 4.0 * t * xi2 * (p1 * eta - p1 * xi * eta - np.conj(xi) * eta ** 2)) / 8.0
    return CaratheodoryCoeffs((p1, p2, p3, p4))


def spec_from_batch(batch, i: int) -> BlaschkeSpec:
    """Materialize member i of a batch as a BlaschkeSpec (for reproduction)."""
    def one(slot: int) -> BlaschkeSpec:
        count = int(batch.counts[i, slot])
        return BlaschkeSpec(rotation=float(batch.theta[i, slot]),
                            zeros=tuple(batch.zeros[i, slot, :count]))
    first = one(0)
    if not batch.is_mix[i]:
        return first
    return BlaschkeSpec(rotation=first.rotation, zeros=first.zeros,
                        second=one(1), mixture_weight=float(batch.weight[i]))
