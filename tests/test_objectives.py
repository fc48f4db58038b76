"""Transcription guards and domain handling for the reduced objectives.

Each formula is re-coded here from scratch (different algebraic grouping,
Horner in p^2 where possible) and compared against the package's version on
random in-domain points.
"""

import numpy as np
import pytest

from ozaki.classes import ClassLabel
from ozaki.ledger import LEDGER
from ozaki.objectives import BOX, OBJECTIVES, PARABOLIC, ObjectiveId


# independent second transcriptions
def upsilon_ref(p, x):
    s = p * p
    t = 4.0 - s
    return (s * (576.0 - 49.0 * s) + x * t * (56.0 * s - 16.0 * t * x)) / 4096.0


def psi_ref(p, x):
    s = p * p
    t = 4.0 - s
    return (s * (576.0 - 49.0 * s) - x * t * (56.0 * s + 16.0 * t * x)) / 4096.0


def phi_ref(p, x):
    s = p * p
    t = 4.0 - s
    return (s * (576.0 - 9.0 * s) + x * t * (24.0 * s - 16.0 * t * x)) / 36864.0


def n_ref(p, x):
    s = p * p
    t = 4.0 - s
    return (s * (576.0 - 9.0 * s) - x * t * (24.0 * s + 16.0 * t * x)) / 36864.0


def chi_ref(u, v):
    tail = 1.0 - u * u - v * v / (1.0 + u)
    return (u * (42.0 * u * u + 33.0 * v) + 6.0 * tail) / 48.0


def m_ref(u, v):
    tail = 1.0 - u * u - v * v / (1.0 + u)
    return (u * (42.0 * u * u + 33.0 * v + 33.0 * u) + 12.0 * v + 6.0 * tail) / 48.0


def s_ref(u, v):
    tail = 1.0 - u * u - v * v / (1.0 + u)
    return (u * (10.0 * u * u + 9.0 * v) + 2.0 * tail) / 48.0


def delta_ref(u, v):
    tail = 1.0 - u * u - v * v / (1.0 + u)
    return u * (6.0 * u * u + 7.0 * v) + 2.0 * tail


REFERENCE = {
    ObjectiveId.UPSILON_F: upsilon_ref,
    ObjectiveId.PSI_F: psi_ref,
    ObjectiveId.PHI_G: phi_ref,
    ObjectiveId.N_G: n_ref,
    ObjectiveId.CHI_F: chi_ref,
    ObjectiveId.M_F: m_ref,
    ObjectiveId.S_G: s_ref,
    ObjectiveId.DELTA_G: delta_ref,
}


@pytest.mark.parametrize("oid", list(ObjectiveId))
def test_formula_matches_independent_transcription(oid):
    obj = OBJECTIVES[oid]
    ref = REFERENCE[oid]
    rng = np.random.default_rng(hash(oid.value) % 2 ** 31)
    (u0, u1), (v0, v1) = obj.domain.bounds()
    count = 0
    while count < 10000:
        u = rng.uniform(u0, u1, 20000)
        v = rng.uniform(v0, v1, 20000)
        ok = obj.domain.contains(u, v)
        u, v = u[ok], v[ok]
        got = obj.fn(u, v)
        want = ref(u, v)
        np.testing.assert_allclose(got, want, atol=1e-14, rtol=0)
        count += u.size


def test_point_values():
    assert OBJECTIVES[ObjectiveId.UPSILON_F].fn(2.0, 0.5) == pytest.approx(
        95 / 256, abs=1e-16)
    assert OBJECTIVES[ObjectiveId.CHI_F].fn(1.0, 0.0) == pytest.approx(
        7 / 8, abs=1e-16)
    assert OBJECTIVES[ObjectiveId.DELTA_G].fn(0.0, 1.0) == 0.0
    assert OBJECTIVES[ObjectiveId.N_G].fn(0.0, 1.0) == pytest.approx(
        -1 / 144, abs=1e-18)


def test_upsilon_independent_of_x_at_p_two():
    vals = [OBJECTIVES[ObjectiveId.UPSILON_F].fn(2.0, x)
            for x in (0.0, 0.25, 0.5, 1.0)]
    assert all(v == pytest.approx(95 / 256, abs=1e-16) for v in vals)


def test_domain_membership():
    assert BOX.contains(0.0, 0.0) and BOX.contains(2.0, 1.0)
    assert not BOX.contains(2.1, 0.5) and not BOX.contains(1.0, -0.01)
    assert PARABOLIC.contains(0.6, 1 - 0.36)       # exactly on the curve
    assert not PARABOLIC.contains(0.6, 1 - 0.36 + 1e-12)
    assert PARABOLIC.contains(1.0, 0.0)
    assert not PARABOLIC.contains(1.0, 0.1)


def test_registry_targets():
    from fractions import Fraction
    assert OBJECTIVES[ObjectiveId.UPSILON_F].target == Fraction(95, 256)
    assert OBJECTIVES[ObjectiveId.N_G].target == Fraction(-1, 144)
    assert OBJECTIVES[ObjectiveId.DELTA_G].target == 6
    modes = {oid: OBJECTIVES[oid].mode for oid in ObjectiveId}
    assert modes[ObjectiveId.PSI_F] == "min" and modes[ObjectiveId.N_G] == "min"
    assert sum(1 for m in modes.values() if m == "max") == 6


def _v_coefficients(fn, u):
    """a(u), b(u), c(u) of fn(u, v) = a + b v + c v^2, from v = 0, 1/2, 1."""
    f0, fh, f1 = fn(u, 0.0), fn(u, 0.5), fn(u, 1.0)
    return f0, 4.0 * fh - 3.0 * f0 - f1, 2.0 * (f0 - 2.0 * fh + f1)


@pytest.mark.parametrize("oid", list(ObjectiveId))
def test_objective_is_concave_quadratic_in_v(oid):
    """The grid search reduces each row to the run's end points and the
    v-vertex; that is exact only for a quadratic in v whose v^2 coefficient
    is never positive on the region."""
    obj = OBJECTIVES[oid]
    rng = np.random.default_rng(sum(map(ord, oid.value)))
    (u0, u1), (v0, v1) = obj.domain.bounds()
    u = rng.uniform(u0, u1, 40000)
    v = rng.uniform(v0, v1, 40000)
    ok = obj.domain.contains(u, v)
    u, v = u[ok], v[ok]
    assert u.size > 10000
    a, b, c = _v_coefficients(obj.fn, u)
    np.testing.assert_allclose(obj.fn(u, v), a + b * v + c * v * v, atol=1e-14, rtol=0)
    _, _, c = _v_coefficients(obj.fn, np.linspace(u0, u1, 20001))
    assert np.all(c <= 0.0)


def test_row_upper_limit_of_v():
    u = np.linspace(0.0, 1.0, 11)
    assert BOX.v_max(u) == 1.0
    np.testing.assert_array_equal(PARABOLIC.v_max(u), 1.0 - u * u)
    assert np.all(PARABOLIC.contains(u, PARABOLIC.v_max(u)))
    assert not np.any(PARABOLIC.contains(u, np.nextafter(PARABOLIC.v_max(u), 2.0)))


# the ledger side whose value each objective's tabulated extremum repeats
LEDGER_SIDE = {
    ObjectiveId.UPSILON_F: (ClassLabel.F, "T21_log", "upper"),
    ObjectiveId.PSI_F: (ClassLabel.F, "T21_log", "lower"),
    ObjectiveId.PHI_G: (ClassLabel.G, "T21_log", "upper"),
    ObjectiveId.N_G: (ClassLabel.G, "T21_log", "lower"),
    ObjectiveId.CHI_F: (ClassLabel.F, "Gamma3_abs", "upper"),
    ObjectiveId.M_F: (ClassLabel.F, "diff_Gamma", "upper"),
    ObjectiveId.S_G: (ClassLabel.G, "Gamma3_abs", "upper"),
    ObjectiveId.DELTA_G: (ClassLabel.G, "S4_abs", "upper"),
}


@pytest.mark.parametrize("oid", list(ObjectiveId))
def test_target_repeats_its_ledger_side(oid):
    label, functional, side = LEDGER_SIDE[oid]
    bounds = [chk.bound for e in LEDGER
              if e.label is label and e.functional == functional
              for chk in e.checks if chk.side == side]
    assert len(bounds) == 1
    obj = OBJECTIVES[oid]
    assert obj.mode == {"upper": "max", "lower": "min"}[side]
    assert obj.target == bounds[0]
