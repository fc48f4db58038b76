"""Deterministic nested grid extremization over the objective regions.

The extrema of the reduced objectives sit on region boundaries: the UpsilonF
maximum on the x = 1 edge of the rectangle, the PhiG maximum on the p = 2
edge, the PsiF and NG minima at its (0, 1) corner, and the maxima of the
parabolic objectives at the (1, 0) corner.  So the search combines an
R x R grid, whose first and last rows and columns are the straight edges of
the region wherever they lie in the window, with explicit 1-D sampling of the
curved edge v = 1 - u^2, then shrinks the window by a factor of 10 around the
incumbent for a fixed number of refinement rounds.  For fixed
(resolution, refine_iters) the result is deterministic, and the incumbent
value is monotone in the number of rounds.

The grid is searched row by row, without evaluating all R^2 points.  Every
objective is a quadratic a(u) + b(u) v + c(u) v^2 in its second variable
with c(u) <= 0 (tests/test_objectives.py guards both), and the window never
starts below v = 0, so a row's in-domain columns are the run from the first
column up to the last one with v <= ``DomainSpec.v_max(u)``.  For a maximum,
a quadratic with c < 0 is unimodal in v, so its largest value at the run's
grid points lies at one of the two columns that bracket the vertex
-b / (2c), clipped to the run; when the sign-adjusted quadratic is convex or
linear (every minimum, and rows where c = 0) it lies at an end of the run.
b and c are recovered from the objective itself at v = 0, 1/2, 1 and only
place these at most four candidates per row.  The values compared and
reported are the objective at the same grid points the full grid holds, with
ties going to the smallest column and then the smallest row, as a flat
argmax over the full grid breaks them.  So each round returns the full
grid's maximum while evaluating O(R) points.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .objectives import OBJECTIVES, DomainKind, DomainSpec, Objective, ObjectiveId

__all__ = ["OptResult", "grid_extremize"]


@dataclass(frozen=True)
class OptResult:
    mode: str
    value: float
    argpoint: tuple[float, float]
    paper_value: Fraction | None
    gap: float | None


def _curved_edge(domain: DomainSpec, win: tuple[float, float, float, float],
                n: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Points of the curve v = 1 - u^2 bounding the parabolic region that lie
    in the window, or None.

    The straight edges need no sampling: the window is clipped to the bounds,
    so an edge in it is the first or last grid row or column, at the same
    points, and the row search already takes each row's exact maximum.
    """
    if domain.kind is DomainKind.BOX:
        return None
    u0, u1, v0, v1 = win
    uu = np.linspace(u0, min(u1, 1.0), n)
    vv = 1.0 - uu * uu
    keep = (vv >= v0) & (vv <= v1)
    if not np.any(keep):
        return None
    return uu[keep], vv[keep]


def _row_maxima(obj: Objective, sign: float, uu: np.ndarray,
                vv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest in-domain value of sign * fn on each grid row, and its column.

    The window never starts below v = 0, so a row's in-domain columns run
    from 0 to j_hi, the last column with v <= v_max(u).  Rows with no
    in-domain column get -inf; of equal values the smallest column wins.
    """
    u = uu[:, None]
    last = len(vv) - 1
    j_hi = np.searchsorted(vv, np.broadcast_to(obj.domain.v_max(uu), uu.shape),
                           side="right") - 1
    f0, fh, f1 = (sign * obj.fn(u, np.array([0.0, 0.5, 1.0]))).T
    c = 2.0 * (f0 - 2.0 * fh + f1)
    b = 4.0 * fh - 3.0 * f0 - f1
    # after many rounds the v-window is one point, where any column will do,
    # or so narrow that the scaled offset overflows to +-inf, which clip bounds
    span = vv[-1] - vv[0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vertex = np.where(c < 0.0, -b / (2.0 * c), vv[0])
        j_v = (np.floor((vertex - vv[0]) * last / span) if span > 0
               else np.zeros_like(vertex))
    j_v = np.clip(j_v, 0, j_hi).astype(np.intp)
    cols = np.stack([np.zeros_like(j_v), j_v, np.minimum(j_v + 1, j_hi), j_hi], axis=1)
    # clipping to the grid only moves columns of rows with an empty run
    # (j_hi = -1), all of whose columns contains() rejects
    cols = np.sort(np.clip(cols, 0, last), axis=1)
    v = vv[cols]
    vals = np.where(obj.domain.contains(u, v), sign * obj.fn(u, v), -np.inf)
    k = np.argmax(vals, axis=1)
    rows = np.arange(len(uu))
    return vals[rows, k], cols[rows, k]


def grid_extremize(objective_id: ObjectiveId, mode: str | None = None,
                   resolution: int = 2000, refine_iters: int = 3) -> OptResult:
    """Extremize one objective by nested grid search.

    ``mode`` defaults to the objective's tabulated direction; the paper's
    tabulated extremum and the gap to it are only reported for that
    direction.
    """
    obj: Objective = OBJECTIVES[objective_id]
    if mode is None:
        mode = obj.mode
    if mode not in ("max", "min"):
        raise ValueError(f"mode must be 'max' or 'min', got {mode!r}")
    if resolution < 100:
        raise ValueError("resolution must be >= 100")
    if refine_iters < 0:
        raise ValueError("refine_iters must be >= 0")

    (u_lo, u_hi), (v_lo, v_hi) = obj.domain.bounds()
    sign = 1.0 if mode == "max" else -1.0
    best = -np.inf
    best_pt = (u_lo, v_lo)
    win = (u_lo, u_hi, v_lo, v_hi)

    for round_idx in range(refine_iters + 1):
        u0, u1, v0, v1 = win
        uu = np.linspace(u0, u1, resolution)
        vv = np.linspace(v0, v1, resolution)
        row_vals, row_cols = _row_maxima(obj, sign, uu, vv)
        i = int(np.argmax(row_vals))
        if row_vals[i] > best:
            best = float(row_vals[i])
            best_pt = (float(uu[i]), float(vv[row_cols[i]]))
        edge = _curved_edge(obj.domain, win, resolution)
        if edge is not None:
            su, sv = edge
            bvals = sign * obj.fn(su, sv)
            k = int(np.argmax(bvals))
            if bvals[k] > best:
                best = float(bvals[k])
                best_pt = (float(su[k]), float(sv[k]))
        # shrink by 10x around the incumbent, staying inside the bounds; past
        # 10^308, the largest power of ten a float holds, the window is far
        # below the grid's resolution and keeps its size
        shrink = 10.0 ** min(round_idx + 1, sys.float_info.max_10_exp)
        half_u = (u_hi - u_lo) / shrink / 2.0
        half_v = (v_hi - v_lo) / shrink / 2.0
        win = (max(u_lo, best_pt[0] - half_u), min(u_hi, best_pt[0] + half_u),
               max(v_lo, best_pt[1] - half_v), min(v_hi, best_pt[1] + half_v))

    value = sign * best
    if mode == obj.mode:
        paper_value: Fraction | None = obj.target
        gap: float | None = abs(value - float(obj.target))
    else:
        paper_value, gap = None, None
    return OptResult(mode=mode, value=value, argpoint=best_pt,
                     paper_value=paper_value, gap=gap)
