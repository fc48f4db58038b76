"""Deterministic nested grid extremization over the objective regions.

The extrema of the reduced objectives sit on region boundaries: the UpsilonF
maximum on the x = 1 edge of the rectangle, the PhiG maximum on the p = 2
edge, the PsiF and NG minima at its (0, 1) corner, and the maxima of the
parabolic objectives at the (1, 0) corner.  So the search combines an
R x R grid, whose first and last rows and columns are the straight edges of
the region wherever they lie in the window, with explicit 1-D sampling of the
curved edge v = 1 - u^2, then shrinks the window by a factor of 10 around the
incumbent for a fixed number of refinement rounds.  The rounds stop early
once the window is narrower than one float step of the region's extent,
after 16 rounds; no later round has changed a result.  For fixed
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
So a row has two candidates: the columns around the vertex when c < 0, else
the run's two ends; b and c are recovered from the objective itself at
v = 0, 1/2, 1 and only place them.  The values compared and reported are the
objective at the same grid points the full grid holds, with ties going to
the smallest column and then the smallest row, as a flat argmax over the
full grid breaks them.  So each round returns the full grid's maximum while
evaluating 5R points, 3R probes and 2R candidates, each set one (k, R) array
so that every numpy operation runs one loop of length R.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .objectives import OBJECTIVES, DomainKind, DomainSpec, Objective, ObjectiveId

__all__ = ["OptResult", "grid_extremize"]

_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class OptResult:
    mode: str
    value: float
    argpoint: tuple[float, float]
    paper_value: Fraction
    gap: float


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

    A row's in-domain columns run from 0 to j_hi, the last column with
    v <= v_max(u); every column up to j_hi is in the domain.  The probes are
    (3, R) and the candidates (2, R): lo <= hi, so a strict > keeps the
    smaller column on ties.  An empty run (j_hi = -1) gets -inf at column 0.
    """
    u = uu[None, :]
    # v_max falls along the rows; searchsorted is faster on ascending needles
    needles = np.broadcast_to(obj.domain.v_max(uu), uu.shape)[::-1]
    j_hi = np.searchsorted(vv, needles, side="right")[::-1] - 1
    j_top = np.maximum(j_hi, 0)
    f0, fh, f1 = sign * obj.fn(u, np.array([[0.0], [0.5], [1.0]]))
    c = 2.0 * (f0 - 2.0 * fh + f1)
    b = 4.0 * fh - 3.0 * f0 - f1
    concave = c < 0.0
    # np.where evaluates -b / (2c) on the rows with c >= 0 too, then drops it
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = np.where(concave, -b / (2.0 * c), vv[0])
    j_v = np.floor((vertex - vv[0]) * (len(vv) - 1) / (vv[-1] - vv[0]))
    lo = np.minimum(np.maximum(j_v, 0.0), j_top).astype(np.intp)
    hi = np.where(concave, np.minimum(lo + 1, j_top), j_top)
    v_lo, v_hi = sign * obj.fn(u, vv[np.stack([lo, hi])])
    take = v_hi > v_lo
    return (np.where(j_hi >= 0, np.where(take, v_hi, v_lo), -np.inf),
            np.where(take, hi, lo))


def _nested_search(obj: Objective, sign: float, resolution: int,
                   refine_iters: int) -> tuple[float, tuple[float, float]]:
    """Value and point of the search: a maximum at sign 1, a minimum at -1."""
    (u_lo, u_hi), (v_lo, v_hi) = obj.domain.bounds()
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
        # shrink by 10x around the incumbent, staying inside the bounds; stop
        # once the window is below one float step of the region's extent
        shrink = 10.0 ** (round_idx + 1)
        half_u = (u_hi - u_lo) / shrink / 2.0
        half_v = (v_hi - v_lo) / shrink / 2.0
        if half_u < _EPS * (u_hi - u_lo) and half_v < _EPS * (v_hi - v_lo):
            break
        win = (max(u_lo, best_pt[0] - half_u), min(u_hi, best_pt[0] + half_u),
               max(v_lo, best_pt[1] - half_v), min(v_hi, best_pt[1] + half_v))
    return sign * best, best_pt


def grid_extremize(objective_id: ObjectiveId, resolution: int = 2000,
                   refine_iters: int = 3) -> OptResult:
    """Extremize one objective by nested grid search in the direction of its
    tabulated extremum, and report the gap to that extremum."""
    obj: Objective = OBJECTIVES[objective_id]
    if resolution < 100:
        raise ValueError("resolution must be >= 100")
    if refine_iters < 0:
        raise ValueError("refine_iters must be >= 0")
    value, point = _nested_search(obj, 1.0 if obj.mode == "max" else -1.0,
                                  resolution, refine_iters)
    return OptResult(mode=obj.mode, value=value, argpoint=point,
                     paper_value=obj.target, gap=abs(value - float(obj.target)))
