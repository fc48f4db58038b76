"""Randomized bound-violation search over sampled class members.

Members are generated from Schwarz functions of the form z times a finite
Blaschke product (optionally a convex mixture of two), which are genuine
Schwarz functions by construction, so no rejection step is needed.  To probe
near-extremal territory, 10% of the samples use the zero-free pure-rotation
product and another 10% draw their Blaschke zeros with modulus at least 0.9.

A chunk of members is held coefficient-major, as arrays of shape ``(5, n)``
with one member per column, and runs through the same code as a single
member: ``blaschke_product``, ``caratheodory_array`` and ``solve_member`` of
:mod:`ozaki.classes` on the series kernels of :mod:`ozaki.series`, then
``evaluate``, ``inverse_crosscheck`` and ``FUNCTIONAL_VALUES`` of
:mod:`ozaki.functionals`.  Every sampled functional and the inverse
cross-check read only a2..a4, and coefficient k of every kernel depends only
on inputs 0..k, so chunks are expanded to order 4 and ``SampleConfig.order``
does not change sampled results (it is the order of the injected extremal
members, whose a2..a4 do not depend on it either).  Samples are processed in
fixed-size chunks with per-chunk child seeds, so results do not depend on
how many worker threads execute the chunks (set ``OZAKI_THREADS`` to use
more than one).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .classes import (ClassLabel, blaschke_product, caratheodory_array,
                      extremal_member, solve_member)
from .functionals import (FUNCTIONAL_VALUES, CoeffTriple, evaluate, full_report,
                          inverse_crosscheck)
from .ledger import BoundCheck, entries_for

__all__ = ["SampleConfig", "SampleCheck", "SampleReport", "sample_and_check",
           "STAT_NAMES", "THREADS_ENV_VAR"]

THREADS_ENV_VAR = "OZAKI_THREADS"
_CHUNK = 16384
_SAMPLED_ORDER = 4   # a2..a4, all that the functionals read

# sampler mix: pure rotations, boundary-hugging zeros, plain draws
_PURE_ROTATION_SHARE = 0.10
_NEAR_BOUNDARY_SHARE = 0.10
_MIXTURE_SHARE = 0.25
_NEAR_RADIUS_SQ = 0.81  # |a|^2 >= 0.81, i.e. |a| >= 0.9

STAT_NAMES = tuple(FUNCTIONAL_VALUES)


@dataclass(frozen=True)
class SampleConfig:
    label: ClassLabel
    count: int
    order: int = 8
    seed: int = 0
    blaschke_max_zeros: int = 3
    include_extremals: bool = True
    violation_tolerance: float = 1e-9

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.order < 8:
            raise ValueError("order must be >= 8")
        if self.blaschke_max_zeros < 0:
            raise ValueError("blaschke_max_zeros must be >= 0")
        if not 0 < self.violation_tolerance < math.inf:   # NaN fails too
            raise ValueError(f"violation tolerance must be positive and "
                             f"finite, got {self.violation_tolerance}")


@dataclass(frozen=True)
class SampleCheck:
    """Empirical outcome against one side of one ledger bound."""

    functional: str
    side: str
    bound: Fraction
    empirical: float     # empirical max (upper side) or min (lower side)
    margin: float        # signed overshoot: positive means violated
    violations: int      # samples beyond bound by more than the tolerance


@dataclass(frozen=True)
class SampleReport:
    """Outcome of one sampling run; ``config`` is the :class:`SampleConfig`
    that produced it."""

    config: SampleConfig
    stats: tuple[tuple[str, float, float], ...]  # (name, min, max)
    checks: tuple[SampleCheck, ...]
    worst_margin: float
    total_violations: int
    inverse_crosscheck_residual: float

    @property
    def ok(self) -> bool:
        return (self.total_violations == 0
                and self.worst_margin <= self.config.violation_tolerance)


# ----------------------------------------------------------------------
# batched Blaschke sampling

@dataclass(frozen=True)
class _BlaschkeBatch:
    """Vectorized draw of Blaschke mixture parameters for one chunk."""

    theta: np.ndarray        # (n, 2)
    zeros: np.ndarray        # (n, 2, K)
    counts: np.ndarray       # (n, 2) number of active zeros per product
    is_mix: np.ndarray       # (n,)
    weight: np.ndarray       # (n,) weight of the first product


def _draw_batch(rng: np.random.Generator, n: int, max_zeros: int) -> _BlaschkeBatch:
    k = max(max_zeros, 1)
    cat = rng.uniform(size=n)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=(n, 2))
    counts = rng.integers(0, max_zeros + 1, size=(n, 2))
    near_counts = rng.integers(1, k + 1, size=n)
    r2 = rng.uniform(size=(n, 2, k))
    ang = rng.uniform(0.0, 2.0 * np.pi, size=(n, 2, k))
    mix_u = rng.uniform(size=n)
    weight = rng.uniform(size=n)

    pure = cat < _PURE_ROTATION_SHARE
    near = (~pure) & (cat < _PURE_ROTATION_SHARE + _NEAR_BOUNDARY_SHARE)
    plain = ~(pure | near)

    # counts and r2 are fresh draws, read nowhere else: edit them in place
    counts[pure, 0] = 0
    if max_zeros > 0:
        counts[near, 0] = near_counts[near]
    r2[near, 0, :] = _NEAR_RADIUS_SQ + (1.0 - _NEAR_RADIUS_SQ) * r2[near, 0, :]
    zeros = np.sqrt(r2) * np.exp(1j * ang)

    is_mix = plain & (mix_u < _MIXTURE_SHARE)
    weight = np.where(is_mix, weight, 1.0)
    counts[:, 1] = np.where(is_mix, counts[:, 1], 0)
    return _BlaschkeBatch(theta=theta, zeros=zeros, counts=counts,
                          is_mix=is_mix, weight=weight)


def _schwarz_coeffs(batch: _BlaschkeBatch, order: int) -> np.ndarray:
    """Schwarz coefficients (orders 0..order, one column per member) of a
    drawn batch."""
    b1, b2 = (blaschke_product(batch.theta[:, slot], batch.zeros[:, slot, :].T,
                               batch.counts[:, slot], order) for slot in (0, 1))
    lam = batch.weight
    w = np.zeros((order + 1,) + lam.shape, dtype=np.complex128)
    w[1:] = lam * b1 + np.where(batch.is_mix, (1.0 - lam) * b2, 0.0)
    return w


def spec_from_batch(batch: _BlaschkeBatch, i: int):
    """Materialize member i of a batch as a BlaschkeSpec (for reproduction)."""
    from .classes import BlaschkeSpec

    def one(slot: int) -> "BlaschkeSpec":
        count = int(batch.counts[i, slot])
        return BlaschkeSpec(rotation=float(batch.theta[i, slot]),
                            zeros=tuple(batch.zeros[i, slot, :count]))
    first = one(0)
    if not batch.is_mix[i]:
        return first
    return BlaschkeSpec(rotation=first.rotation, zeros=first.zeros,
                        second=one(1), mixture_weight=float(batch.weight[i]))


# ----------------------------------------------------------------------
# chunked execution and merging

def _run_chunk(label: ClassLabel, seed: np.random.SeedSequence, size: int,
               max_zeros: int, sides: tuple[tuple[str, BoundCheck], ...],
               tol: float) -> tuple[list[float], list[float], list[int], float]:
    """Per-functional minima and maxima (in ``STAT_NAMES`` order), violation
    counts per bound side (in ``sides`` order) and the inverse cross-check of
    one chunk of sampled members."""
    rng = np.random.default_rng(seed)
    batch = _draw_batch(rng, size, max_zeros)
    p = caratheodory_array(_schwarz_coeffs(batch, _SAMPLED_ORDER))
    f = solve_member(label, p)
    report = evaluate(CoeffTriple(f[2], f[3], f[4]))
    crosscheck = inverse_crosscheck(f, report)
    values = {name: value(report) for name, value in FUNCTIONAL_VALUES.items()}
    mins = [float(np.min(v)) for v in values.values()]
    maxs = [float(np.max(v)) for v in values.values()]
    violations = []
    for functional, chk in sides:
        vals = values[functional]
        bound = float(chk.bound)
        if chk.side == "upper":
            bad = int(np.sum(vals > bound + tol))
        else:
            bad = int(np.sum(vals < bound - tol))
        violations.append(bad)
    return mins, maxs, violations, crosscheck


def _thread_count() -> int:
    raw = os.environ.get(THREADS_ENV_VAR, "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def sample_and_check(cfg: SampleConfig) -> SampleReport:
    """Generate cfg.count members, evaluate every functional, and compare the
    empirical ranges against the sharp bounds of cfg.label."""
    sides = tuple((e.functional, chk) for e in entries_for(cfg.label)
                  for chk in e.checks)
    nchunks = -(-cfg.count // _CHUNK)
    sizes = [_CHUNK] * (nchunks - 1) + [cfg.count - _CHUNK * (nchunks - 1)]
    seeds = np.random.SeedSequence(cfg.seed).spawn(nchunks)

    with ThreadPoolExecutor(max_workers=_thread_count()) as pool:
        chunks = list(pool.map(
            lambda seed, size: _run_chunk(cfg.label, seed, size,
                                          cfg.blaschke_max_zeros, sides,
                                          cfg.violation_tolerance),
            seeds, sizes))

    chunk_mins, chunk_maxs, chunk_violations, crosschecks = zip(*chunks)
    mins = {name: min(col) for name, col in zip(STAT_NAMES, zip(*chunk_mins))}
    maxs = {name: max(col) for name, col in zip(STAT_NAMES, zip(*chunk_maxs))}
    violations = [sum(col) for col in zip(*chunk_violations)]

    if cfg.include_extremals:
        for name in sorted({chk.witness for _, chk in sides}):
            report = full_report(extremal_member(name, cfg.order))
            for stat, value in FUNCTIONAL_VALUES.items():
                v = float(value(report))
                mins[stat] = min(mins[stat], v)
                maxs[stat] = max(maxs[stat], v)

    checks = []
    for (functional, chk), bad in zip(sides, violations):
        if chk.side == "upper":
            empirical = maxs[functional]
            margin = empirical - float(chk.bound)
        else:
            empirical = mins[functional]
            margin = float(chk.bound) - empirical
        checks.append(SampleCheck(functional=functional, side=chk.side,
                                  bound=chk.bound, empirical=empirical,
                                  margin=margin, violations=bad))

    stats = tuple((name, mins[name], maxs[name]) for name in STAT_NAMES)
    return SampleReport(config=cfg, stats=stats, checks=tuple(checks),
                        worst_margin=max(c.margin for c in checks),
                        total_violations=sum(violations),
                        inverse_crosscheck_residual=max(crosschecks))
