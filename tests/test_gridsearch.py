"""Grid extremization: correct extrema, boundary handling, determinism, and
equality with the search over the full R x R grid."""

import warnings
from fractions import Fraction

import numpy as np
import pytest

from ozaki.gridsearch import _nested_search, _row_maxima, grid_extremize
from ozaki.objectives import OBJECTIVES, DomainKind, ObjectiveId

# modest resolution here; the acceptance suite runs the full 2000/3 setting
RES, REFINE = 600, 2


def test_psi_minimum():
    res = grid_extremize(ObjectiveId.PSI_F, resolution=RES, refine_iters=REFINE)
    assert res.mode == "min"
    assert res.value == pytest.approx(-1 / 16, abs=1e-6)
    assert res.argpoint[0] == pytest.approx(0.0, abs=1e-3)
    assert res.argpoint[1] == pytest.approx(1.0, abs=1e-3)


def test_n_minimum():
    res = grid_extremize(ObjectiveId.N_G, resolution=RES, refine_iters=REFINE)
    assert res.value == pytest.approx(-1 / 144, abs=1e-6)


def test_phi_maximum():
    res = grid_extremize(ObjectiveId.PHI_G, resolution=RES, refine_iters=REFINE)
    assert res.value == pytest.approx(15 / 256, abs=1e-6)
    assert res.argpoint[0] == pytest.approx(2.0, abs=1e-3)


def test_parabolic_maxima_at_corner():
    for oid, target in ((ObjectiveId.CHI_F, 7 / 8), (ObjectiveId.M_F, 25 / 16),
                        (ObjectiveId.S_G, 5 / 24), (ObjectiveId.DELTA_G, 6.0)):
        res = grid_extremize(oid, resolution=RES, refine_iters=REFINE)
        assert res.value == pytest.approx(target, abs=1e-6), oid
        assert res.argpoint == pytest.approx((1.0, 0.0), abs=1e-6)
        assert res.gap <= 1e-6


def test_upsilon_maximum_exceeds_tabulated_value():
    """The tabulated extremum 95/256 sits at the (2, x) edge, but the
    objective's true maximum over the rectangle is 45/121 at p^2 = 464/121
    on the x = 1 edge; the search must find the larger value."""
    res = grid_extremize(ObjectiveId.UPSILON_F, resolution=RES, refine_iters=3)
    assert res.value == pytest.approx(45 / 121, abs=1e-6)
    assert res.value > 95 / 256
    assert res.argpoint[1] == pytest.approx(1.0, abs=1e-6)
    assert res.argpoint[0] ** 2 == pytest.approx(464 / 121, abs=1e-3)
    assert res.paper_value == Fraction(95, 256)
    assert res.gap == pytest.approx(45 / 121 - 95 / 256, abs=1e-6)


def test_monotone_in_refinement_rounds():
    prev = -float("inf")
    for k in range(4):
        res = grid_extremize(ObjectiveId.CHI_F, resolution=150, refine_iters=k)
        assert res.value >= prev
        prev = res.value


def test_deterministic():
    a = grid_extremize(ObjectiveId.M_F, resolution=200, refine_iters=2)
    b = grid_extremize(ObjectiveId.M_F, resolution=200, refine_iters=2)
    assert a == b


@pytest.mark.parametrize("oid", list(ObjectiveId))
def test_refinement_past_window_collapse(oid):
    """After about 16 rounds the window is one point wide in v, and past 308
    rounds 10^rounds exceeds the float range: neither may warn or fail, and
    the incumbent still only improves, at an in-domain point."""
    obj = OBJECTIVES[oid]
    sign = 1.0 if obj.mode == "max" else -1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = [grid_extremize(oid, resolution=200, refine_iters=k)
                   for k in (15, 40, 400)]
    values = [sign * r.value for r in results]
    assert values[0] <= values[1] <= values[2]
    for r in results:
        assert obj.domain.contains(*r.argpoint)


@pytest.mark.parametrize("mode", ["max", "min"])
@pytest.mark.parametrize("oid", list(ObjectiveId))
def test_refinement_stops_once_window_is_below_float_step(oid, mode):
    """Rounds past the window's collapse below one float step are not run;
    running them had not changed any result, so refine 400 equals refine 20,
    in either direction of the search."""
    obj, sign = OBJECTIVES[oid], 1.0 if mode == "max" else -1.0
    assert (_nested_search(obj, sign, 2000, 400)
            == _nested_search(obj, sign, 2000, 20))


def test_parameter_validation():
    with pytest.raises(ValueError):
        grid_extremize(ObjectiveId.CHI_F, resolution=50)
    with pytest.raises(ValueError):
        grid_extremize(ObjectiveId.CHI_F, refine_iters=-1)


def _boundary_segments(domain, win, n):
    """Points along each domain boundary segment, clipped to the window."""
    u0, u1, v0, v1 = win
    segs = []
    if domain.kind is DomainKind.BOX:
        for u_edge in (0.0, 2.0):
            if u0 <= u_edge <= u1:
                vv = np.linspace(v0, v1, n)
                segs.append((np.full(n, u_edge), vv))
        for v_edge in (0.0, 1.0):
            if v0 <= v_edge <= v1:
                uu = np.linspace(u0, u1, n)
                segs.append((uu, np.full(n, v_edge)))
    else:
        if u0 <= 0.0 <= u1:
            vv = np.linspace(v0, min(v1, 1.0), n)
            segs.append((np.full(n, 0.0), vv))
        if v0 <= 0.0 <= v1:
            uu = np.linspace(u0, min(u1, 1.0), n)
            segs.append((uu, np.full(n, 0.0)))
        # the curve v = 1 - u^2, kept where it crosses the window
        uu = np.linspace(u0, min(u1, 1.0), n)
        vv = 1.0 - uu * uu
        keep = (vv >= v0) & (vv <= v1)
        if np.any(keep):
            segs.append((uu[keep], vv[keep]))
    return segs


def _dense_extremize(oid, mode, resolution, refine_iters):
    """Reference: the full R x R grid per round, first flat argmax wins, plus
    a sweep of every boundary segment, the straight edges included."""
    obj = OBJECTIVES[oid]
    (u_lo, u_hi), (v_lo, v_hi) = obj.domain.bounds()
    sign = 1.0 if mode == "max" else -1.0
    best, best_pt, win = -np.inf, (u_lo, v_lo), (u_lo, u_hi, v_lo, v_hi)
    for r in range(refine_iters + 1):
        u0, u1, v0, v1 = win
        uu = np.linspace(u0, u1, resolution)[:, None]
        vv = np.linspace(v0, v1, resolution)[None, :]
        vals = np.where(obj.domain.contains(uu, vv), sign * obj.fn(uu, vv), -np.inf)
        i, j = divmod(int(np.argmax(vals)), resolution)
        if vals[i, j] > best:
            best, best_pt = float(vals[i, j]), (float(uu[i, 0]), float(vv[0, j]))
        for su, sv in _boundary_segments(obj.domain, win, resolution):
            bvals = sign * obj.fn(su, sv)
            k = int(np.argmax(bvals))
            if bvals[k] > best:
                best, best_pt = float(bvals[k]), (float(su[k]), float(sv[k]))
        hu = (u_hi - u_lo) / 10.0 ** (r + 1) / 2.0
        hv = (v_hi - v_lo) / 10.0 ** (r + 1) / 2.0
        win = (max(u_lo, best_pt[0] - hu), min(u_hi, best_pt[0] + hu),
               max(v_lo, best_pt[1] - hv), min(v_hi, best_pt[1] + hv))
    return sign * best, best_pt


@pytest.mark.parametrize("resolution, refine_iters",
                         [(100, 0), (101, 4), (257, 2), (600, 1), (999, 3)])
@pytest.mark.parametrize("mode", ["max", "min"])
@pytest.mark.parametrize("oid", list(ObjectiveId))
def test_row_reduction_equals_dense_grid(oid, mode, resolution, refine_iters):
    """The nested search equals the dense reference in both directions, and
    grid_extremize is the search in the tabulated one."""
    obj, sign = OBJECTIVES[oid], 1.0 if mode == "max" else -1.0
    found = _nested_search(obj, sign, resolution, refine_iters)
    assert found == _dense_extremize(oid, mode, resolution, refine_iters)
    if mode == obj.mode:
        res = grid_extremize(oid, resolution, refine_iters)
        assert (res.value, res.argpoint) == found


@pytest.mark.parametrize("oid", [ObjectiveId.UPSILON_F, ObjectiveId.M_F])
def test_row_reduction_equals_dense_grid_at_default_setting(oid):
    res = grid_extremize(oid)
    assert ((res.value, res.argpoint)
            == _dense_extremize(oid, OBJECTIVES[oid].mode, 2000, 3))


# windows (u0, u1, v0, v1) per region; on the parabolic region they hold
# rows whose in-domain run is empty (the whole of the second window) and
# rows with a one-column run
_ROW_WINDOWS = {
    DomainKind.PARABOLIC: [(0.0, 1.0, 0.0, 1.0), (0.9, 1.0, 0.25, 0.5),
                           (0.85, 0.95, 0.15, 1.0), (0.8, 0.9, 0.19, 0.5),
                           (0.95, 1.0, 0.0, 0.1)],
    DomainKind.BOX: [(0.0, 2.0, 0.0, 1.0), (1.9, 2.0, 0.9, 1.0),
                     (0.0, 0.1, 0.0, 0.05), (1.5, 2.0, 0.2, 0.7)],
}


def _brute_row_maxima(obj, sign, uu, vv):
    """Every grid point of every row; first argmax per row, and the length
    of each row's in-domain run."""
    inside = obj.domain.contains(uu[:, None], vv[None, :])
    vals = np.where(inside, sign * obj.fn(uu[:, None], vv[None, :]), -np.inf)
    cols = np.argmax(vals, axis=1)
    return vals[np.arange(len(uu)), cols], cols, inside.sum(axis=1)


@pytest.mark.parametrize("resolution", [100, 101, 257])
@pytest.mark.parametrize("mode", ["max", "min"])
@pytest.mark.parametrize("oid", list(ObjectiveId))
def test_row_maxima_equal_brute_force_per_row(oid, mode, resolution):
    """The candidates need no sort: on every row, empty and one-column runs
    included, the value is bitwise the row's maximum over all its grid
    points and the column is that maximum's first index."""
    obj = OBJECTIVES[oid]
    sign = 1.0 if mode == "max" else -1.0
    runs = []
    for u0, u1, v0, v1 in _ROW_WINDOWS[obj.domain.kind]:
        uu = np.linspace(u0, u1, resolution)
        vv = np.linspace(v0, v1, resolution)
        vals, cols = _row_maxima(obj, sign, uu, vv)
        want_vals, want_cols, run = _brute_row_maxima(obj, sign, uu, vv)
        assert vals.tobytes() == want_vals.tobytes()
        assert np.array_equal(cols, want_cols)
        runs.append(run)
    if obj.domain.kind is DomainKind.PARABOLIC:
        runs = np.concatenate(runs)
        assert np.any(runs == 0) and np.any(runs == 1)
