"""Randomized bound-violation search over sampled class members.

Members are generated from Schwarz functions of the form z times a finite
Blaschke product (optionally a convex mixture of two), which are genuine
Schwarz functions by construction, so no rejection step is needed.  To probe
near-extremal territory, 10% of the samples use the zero-free pure-rotation
product and another 10% draw their Blaschke zeros with modulus at least 0.9.

Members are held coefficient-major, as arrays of shape ``(5, n)`` with one
member per column.  Every sampled functional and the inverse cross-check
read only a2..a4, which are closed-form polynomials in the Schwarz
coefficients c1..c3.  So drawn members expand their Blaschke products to
Schwarz order 3 (``blaschke_product``) and read a2..a4 from
``coeffs_from_schwarz_direct``; single members, the extremal witnesses
included, still come from ``solve_member`` of :mod:`ozaki.classes`.  Only
active zeros (the first ``count`` of a product) are expanded, and the second
product only for mixtures; the draw gathers and places the active zeros by
one list of flat indices, in one buffer that a thread reuses for each chunk
it runs.  Chunks of ``_CHUNK`` members are the units of seeding: each draws
from its own child seed, so results do not depend on how many threads run
the chunks.  By default one thread runs them, the caller's;
``OZAKI_THREADS`` above 1 runs them on up to one pool thread per chunk, and
only then is ``concurrent.futures`` imported.  Tiles of ``_TILE`` members
are the units of compute, small enough for the cache.  Every block, a tile
or the order-4 columns of the witnesses that the class's bounds name, is
checked by ``_check_members`` through ``evaluate``, ``inverse_crosscheck``
and ``FUNCTIONAL_VALUES`` of :mod:`ozaki.functionals`; ``_merge`` combines
the blocks exactly.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .classes import ClassLabel, coeffs_from_schwarz_direct, extremal_member
from .functionals import (FUNCTIONAL_ORDER, FUNCTIONAL_VALUES, CoeffTriple,
                          evaluate, inverse_crosscheck)
from .ledger import BoundCheck, entries_for

__all__ = ["SampleConfig", "SampleCheck", "SampleReport", "sample_and_check",
           "blaschke_product", "STAT_NAMES", "THREADS_ENV_VAR"]

THREADS_ENV_VAR = "OZAKI_THREADS"
_CHUNK = 16384   # members per child seed: the unit of seeding
_TILE = 4096     # members expanded and checked at once: the unit of compute

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
    seed: int = 0
    blaschke_max_zeros: int = 3
    include_extremals: bool = True
    violation_tolerance: float = 1e-9

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.seed < 0:   # numpy's own message names no option
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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


@dataclass(frozen=True)
class _BlaschkeBatch:
    """Vectorized draw of Blaschke mixture parameters, one member per row."""

    theta: np.ndarray        # (n, 2)
    zeros: np.ndarray        # (n, 2, K)
    counts: np.ndarray       # (n, 2) number of active zeros per product
    is_mix: np.ndarray       # (n,)
    weight: np.ndarray       # (n,) weight of the first product

    def __getitem__(self, cols) -> "_BlaschkeBatch":
        """The members ``cols`` of this batch (views, for a slice)."""
        return _BlaschkeBatch(*(getattr(self, f.name)[cols] for f in fields(self)))


def _draw_batch(rng: np.random.Generator, n: int, max_zeros: int,
                buf: np.ndarray | None = None) -> _BlaschkeBatch:
    """Draw n members' Blaschke parameters from ``rng``.

    The generator calls keep one fixed order, which fixes every value.  The
    radii and angles are drawn into the two halves of ``buf`` (float64 of at
    least 4 n k values; a fresh one if None) and, once gathered at the
    active slots, its bytes become ``zeros``, valid until the next draw into
    ``buf``.  So no (n, 2, k) array is allocated.  ``random`` is ``uniform``
    bit for bit, and 2 pi ``random`` is ``uniform(0, 2 pi)``, so only the
    gathered angles are scaled.
    """
    k = max(max_zeros, 1)
    if buf is None:
        buf = np.empty(4 * n * k)
    cat = rng.uniform(size=n)
    pure = cat < _PURE_ROTATION_SHARE
    near = (~pure) & (cat < _PURE_ROTATION_SHARE + _NEAR_BOUNDARY_SHARE)
    del cat
    theta = rng.uniform(0.0, 2.0 * np.pi, size=(n, 2))
    counts = rng.integers(0, max_zeros + 1, size=(n, 2))
    counts[pure, 0] = 0
    near_counts = rng.integers(1, k + 1, size=n)
    if max_zeros > 0:
        counts[near, 0] = near_counts[near]
    del near_counts
    r2, ang = buf[:4 * n * k].reshape(2, n, 2, k)
    rng.random(out=r2)
    r2[near, 0, :] = _NEAR_RADIUS_SQ + (1.0 - _NEAR_RADIUS_SQ) * r2[near, 0, :]
    rng.random(out=ang)
    is_mix = ~(pure | near) & (rng.uniform(size=n) < _MIXTURE_SHARE)
    weight = rng.uniform(size=n)
    weight[~is_mix] = 1.0
    counts[~is_mix, 1] = 0
    # only the first count zeros of a product are read; the others stay 0.
    # One flat index list serves the gathers and the scatter; its mask is
    # built one slot at a time, in long passes over the (n, 2) counts.
    idx = np.flatnonzero(np.stack([counts > j for j in range(k)], axis=-1))
    radius, phase = np.sqrt(r2.take(idx)), 2.0 * np.pi * ang.take(idx)
    active = np.exp(1j * phase)
    active *= radius
    del radius, phase
    zeros = buf[:4 * n * k].view(np.complex128).reshape(n, 2, k)
    zeros.fill(0.0)
    zeros.reshape(-1)[idx] = active
    return _BlaschkeBatch(theta=theta, zeros=zeros, counts=counts,
                          is_mix=is_mix, weight=weight)


def _schwarz_coeffs(batch: _BlaschkeBatch, order: int) -> np.ndarray:
    """Schwarz coefficients (orders 0..order, one column per member) of a
    drawn batch.  Only the mixtures read the second product, so only their
    columns expand it."""
    mix = np.flatnonzero(batch.is_mix)
    b1, b2 = (blaschke_product(b.theta[:, slot], b.zeros[:, slot, :].T,
                               b.counts[:, slot], order)
              for b, slot in ((batch, 0), (batch[mix], 1)))
    lam = batch.weight
    w = np.zeros((order + 1,) + lam.shape, dtype=np.complex128)
    w[1:] = lam * b1 + 0.0   # the zero second term: -0.0 becomes +0.0
    w[1:, mix] = lam[mix] * b1[:, mix] + (1.0 - lam[mix]) * b2
    return w


# ----------------------------------------------------------------------
# chunked execution and merging

def _members(label: ClassLabel, batch: _BlaschkeBatch) -> np.ndarray:
    """a0..a4 (coefficient-major, one column per member) of a drawn batch."""
    w = _schwarz_coeffs(batch, 3)   # c1..c3, all that a2..a4 read
    f = np.zeros((FUNCTIONAL_ORDER + 1, w.shape[1]), dtype=np.complex128)
    f[1] = 1.0
    f[2:] = coeffs_from_schwarz_direct(label, w[1], w[2], w[3])
    return f


def _check_members(f: np.ndarray, sides: tuple[tuple[str, BoundCheck], ...],
                   tol: float) -> tuple[list[float], list[float], list[int], float]:
    """Per-functional minima and maxima (in ``STAT_NAMES`` order), violation
    counts per bound side (in ``sides`` order) and the inverse cross-check of
    a block of members, given coefficient-major as f[:5]."""
    report = evaluate(CoeffTriple(f[2], f[3], f[4]))
    crosscheck = inverse_crosscheck(f, report)
    return (*_reduce(report, sides, tol), crosscheck)


def _reduce(report, sides, tol) -> tuple[list[float], list[float], list[int]]:
    """The minima, maxima and violation counts of ``_check_members``, from
    the report of a block."""
    values = {name: value(report) for name, value in FUNCTIONAL_VALUES.items()}
    mins = [float(v.min()) for v in values.values()]
    maxs = [float(v.max()) for v in values.values()]
    violations = []
    for functional, chk in sides:   # -v > -b + tol is v < -(-b + tol), exactly
        v, b = values[functional], float(chk.bound)
        violations.append(int(np.count_nonzero(
            v > b + tol if chk.sign > 0 else v < -(-b + tol))))
    return mins, maxs, violations


def _check_chunk(label: ClassLabel, seed: np.random.SeedSequence, size: int,
                 max_zeros: int, sides, tol: float,
                 buf: np.ndarray | None = None) -> list[tuple]:
    """Draw a chunk from ``seed`` into ``buf`` (see ``_draw_batch``); one
    ``_check_members`` result per tile."""
    batch = _draw_batch(np.random.default_rng(seed), size, max_zeros, buf)
    return [_check_members(_members(label, batch[start:start + _TILE]), sides, tol)
            for start in range(0, size, _TILE)]


def _merge(blocks: list[tuple]) -> tuple:
    """``_check_members`` of a union of blocks, exactly, from the blocks'."""
    mins, maxs, violations, crosschecks = zip(*blocks)
    return ([min(col) for col in zip(*mins)], [max(col) for col in zip(*maxs)],
            [sum(col) for col in zip(*violations)], max(crosschecks))


def _thread_count() -> int:
    raw = os.environ.get(THREADS_ENV_VAR, "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def sample_and_check(cfg: SampleConfig) -> SampleReport:
    """Generate cfg.count members, evaluate every functional, and compare the
    empirical ranges against the sharp bounds of cfg.label.

    With ``cfg.include_extremals`` the witnesses of those bounds are checked
    as one more block, so they count toward the ranges, the violation counts
    and the cross-check residual.  Each witness sits on its bound and inverts
    exactly, so it adds no violation and does not raise the residual.
    """
    sides = tuple((e.functional, chk) for e in entries_for(cfg.label)
                  for chk in e.checks)
    nchunks = -(-cfg.count // _CHUNK)
    sizes = [_CHUNK] * (nchunks - 1) + [cfg.count - _CHUNK * (nchunks - 1)]
    seeds = np.random.SeedSequence(cfg.seed).spawn(nchunks)

    tol = cfg.violation_tolerance
    jobs = list(zip(seeds, sizes))

    def check(share):   # one buffer per share, so per thread
        buf = np.empty(4 * sizes[0] * max(cfg.blaschke_max_zeros, 1))
        return [_check_chunk(cfg.label, seed, size, cfg.blaschke_max_zeros,
                             sides, tol, buf) for seed, size in share]

    workers = min(_thread_count(), nchunks)
    shares = [jobs[i::workers] for i in range(workers)]   # chunks i, i + workers, ...
    if workers == 1:   # in this thread: no pool, and one malloc arena
        done = list(map(check, shares))
    else:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(check, shares))
    blocks = [tile for j in range(nchunks)   # in chunk order
              for tile in done[j % workers][j // workers]]
    if cfg.include_extremals:
        witnesses = sorted({chk.witness for _, chk in sides})
        block = np.stack([extremal_member(name, FUNCTIONAL_ORDER).coeffs
                          for name in witnesses], axis=1)
        blocks.append(_check_members(block, sides, tol))

    low, high, violations, crosscheck = _merge(blocks)
    mins, maxs = dict(zip(STAT_NAMES, low)), dict(zip(STAT_NAMES, high))

    checks = []
    for (functional, chk), bad in zip(sides, violations):
        s = chk.sign
        empirical = (maxs if s > 0 else mins)[functional]
        # not s * (empirical - bound): on a lower side that turns 0 into -0
        checks.append(SampleCheck(functional=functional, side=chk.side,
                                  bound=chk.bound, empirical=empirical,
                                  margin=s * empirical - s * float(chk.bound),
                                  violations=bad))

    stats = tuple((name, mins[name], maxs[name]) for name in STAT_NAMES)
    return SampleReport(config=cfg, stats=stats, checks=tuple(checks),
                        worst_margin=max(c.margin for c in checks),
                        total_violations=sum(violations),
                        inverse_crosscheck_residual=crosscheck)
