"""Coefficient functional formulas, rotation handling, and full reports."""

from fractions import Fraction

import numpy as np
import pytest

from blaschke_oracle import BlaschkeSpec, schwarz_from_blaschke
from ozaki.classes import (ClassLabel, build_member, coeffs_from_schwarz_direct,
                           extremal_member)
from ozaki.functionals import (FUNCTIONAL_VALUES, CoeffTriple,
                               InverseSeriesMismatch, _composition_terms,
                               evaluate, full_report, inverse_coeffs,
                               inverse_crosscheck, log_coeffs,
                               schwarzian_initial)
from ozaki.ledger import LEDGER
from ozaki.sampling import _CHUNK, _draw_batch, _members
from ozaki.series import NormalizedFunction, TruncatedSeries, inverse
from rotation_oracle import (NonRealSecondCoefficient, rotate_to_real_a2,
                             toeplitz_t21_log)

F1 = CoeffTriple(1.5, 2.0, 2.5)
F2 = CoeffTriple(0.0, 0.5, 0.0)
G1 = CoeffTriple(-0.5, 0.0, 0.0)
G2 = CoeffTriple(0.0, -1 / 6, 0.0)
ZERO = CoeffTriple(0.0, 0.0, 0.0)


def test_inverse_coeffs():
    np.testing.assert_allclose(inverse_coeffs(F1), [-1.5, 2.5, -35 / 8], atol=0)
    np.testing.assert_allclose(inverse_coeffs(ZERO), [0, 0, 0], atol=0)
    np.testing.assert_allclose(inverse_coeffs(G1), [0.5, 0.5, 5 / 8], atol=0)


def test_log_coeffs():
    np.testing.assert_allclose(log_coeffs(F1), [0.75, 7 / 16, 5 / 16], atol=0)
    np.testing.assert_allclose(log_coeffs(ZERO), [0, 0, 0], atol=0)
    np.testing.assert_allclose(log_coeffs(F2), [0, 0.25, 0], atol=0)


def test_log_inverse_coeffs():
    # Gamma_n are the gamma_n of the inverse function
    np.testing.assert_allclose(log_coeffs(inverse_coeffs(F1)),
                               [-0.75, 11 / 16, -7 / 8], atol=1e-16)
    np.testing.assert_allclose(log_coeffs(inverse_coeffs(ZERO)), [0, 0, 0],
                               atol=0)
    np.testing.assert_allclose(log_coeffs(inverse_coeffs(G1)),
                               [0.25, 3 / 16, 5 / 24], atol=1e-16)


def test_schwarzian_initial():
    np.testing.assert_allclose(schwarzian_initial(F2), [3, 0], atol=0)
    np.testing.assert_allclose(schwarzian_initial(ZERO), [0, 0], atol=0)
    np.testing.assert_allclose(schwarzian_initial(G1), [-1.5, -6], atol=0)


def test_toeplitz_values():
    assert toeplitz_t21_log(F1) == pytest.approx(95 / 256, abs=1e-16)
    assert toeplitz_t21_log(F2) == pytest.approx(-1 / 16, abs=1e-16)
    assert toeplitz_t21_log(G1) == pytest.approx(15 / 256, abs=1e-16)
    assert toeplitz_t21_log(G2) == pytest.approx(-1 / 144, abs=1e-18)


def test_toeplitz_requires_real_a2():
    with pytest.raises(NonRealSecondCoefficient):
        toeplitz_t21_log(CoeffTriple(0.1j, 0.0, 0.0))


def test_rotation_noop_cases():
    f = NormalizedFunction(TruncatedSeries([0, 1, 0.5, 0.1, 0.2]))
    assert rotate_to_real_a2(f) is f  # already real positive? a2=0.5 real>0
    g = NormalizedFunction(TruncatedSeries([0, 1, 0, 0.3, 0]))
    assert rotate_to_real_a2(g) is g  # a2 = 0 left untouched


def test_rotation_makes_a2_real():
    f = NormalizedFunction(TruncatedSeries([0, 1, 1.5j, 0, 0]))
    r = rotate_to_real_a2(f)
    assert r.coeff(2) == pytest.approx(1.5, abs=1e-15)
    assert abs(r.coeff(2).imag) <= 1e-15


def test_rotation_preserves_moduli():
    rng = np.random.default_rng(33)
    for _ in range(50):
        c = np.zeros(7, dtype=complex)
        c[1] = 1.0
        c[2:] = rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5)
        f = NormalizedFunction(TruncatedSeries(c))
        r = rotate_to_real_a2(f)
        np.testing.assert_allclose(np.abs(r.series.coeffs), np.abs(c), atol=1e-14)
        assert r.coeff(2).real >= 0
        assert abs(r.coeff(2).imag) <= 1e-13 * max(1.0, abs(c[2]))


def test_rotation_invariant_functionals():
    # Gamma2, Gamma3, S3, S4 have constant weight in (a2, a3, a4), so their
    # moduli are rotation invariant, and so is T21 = |gamma1|^2 - |gamma2|^2;
    # checked numerically
    rng = np.random.default_rng(34)
    for _ in range(50):
        c = np.zeros(5, dtype=complex)
        c[1] = 1.0
        c[2:] = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
        f = NormalizedFunction(TruncatedSeries(c))
        t0 = CoeffTriple.from_function(f)
        t1 = CoeffTriple.from_function(rotate_to_real_a2(f))
        for fn in (lambda t: log_coeffs(inverse_coeffs(t)), schwarzian_initial):
            before = np.abs(fn(t0))
            after = np.abs(fn(t1))
            np.testing.assert_allclose(after, before, atol=1e-12)
        assert evaluate(t1).T21_log == pytest.approx(evaluate(t0).T21_log,
                                                     abs=1e-12)


def test_successive_diffs():
    r = evaluate(F1)
    assert (r.diff_A, r.diff_Gamma) == pytest.approx((4.0, 25 / 16), abs=1e-15)
    r = evaluate(ZERO)
    assert (r.diff_A, r.diff_Gamma) == (0.0, 0.0)
    r = evaluate(G1)
    assert r.diff_A == pytest.approx(0.0, abs=1e-16)
    assert r.diff_Gamma == pytest.approx(1 / 48, abs=1e-16)


def test_full_report_on_f1():
    r = full_report(extremal_member("f1", 8))
    assert abs(r.Gamma1) == pytest.approx(3 / 4, abs=1e-15)
    assert abs(r.Gamma2) == pytest.approx(11 / 16, abs=1e-15)
    assert abs(r.Gamma3) == pytest.approx(7 / 8, abs=1e-14)
    assert r.T21_log == pytest.approx(95 / 256, abs=1e-15)
    assert r.diff_A == pytest.approx(4.0, abs=1e-14)
    assert r.diff_Gamma == pytest.approx(25 / 16, abs=1e-14)
    assert r.A2 == -r.a2
    assert r.Gamma1 == -r.a2 / 2


def test_full_report_on_g1():
    r = full_report(extremal_member("g1", 8))
    assert abs(r.Gamma1) == pytest.approx(1 / 4, abs=1e-16)
    assert abs(r.Gamma2) == pytest.approx(3 / 16, abs=1e-16)
    assert abs(r.Gamma3) == pytest.approx(5 / 24, abs=1e-16)
    assert abs(r.S3) == pytest.approx(3 / 2, abs=1e-15)
    assert abs(r.S4) == pytest.approx(6.0, abs=1e-14)
    assert r.T21_log == pytest.approx(15 / 256, abs=1e-16)


def test_full_report_on_identity_function():
    from ozaki.series import identity
    r = full_report(NormalizedFunction(identity(6)))
    for field in ("a2", "a3", "a4", "A2", "A3", "A4", "gamma1", "gamma2",
                  "Gamma1", "Gamma2", "Gamma3", "S3", "S4"):
        assert getattr(r, field) == 0
    assert r.T21_log == 0.0
    assert r.diff_A == 0.0 and r.diff_Gamma == 0.0


def test_report_agrees_with_series_functionals():
    """Closed forms vs actual series manipulation on random members."""
    rng = np.random.default_rng(35)
    for _ in range(100):
        nz = int(rng.integers(0, 4))
        zeros = tuple((rng.uniform(0, 1) ** 0.5) * np.exp(2j * np.pi * rng.uniform())
                      for _ in range(nz))
        spec = BlaschkeSpec(rotation=rng.uniform(0, 2 * np.pi), zeros=zeros)
        label = ClassLabel.F if rng.uniform() < 0.5 else ClassLabel.G
        m = build_member(label, schwarz_from_blaschke(spec, 8), 8)
        r = full_report(m)  # raises InverseSeriesMismatch past 1e-10
        f = NormalizedFunction(TruncatedSeries(m.coeffs))
        inv = f.inverse()
        np.testing.assert_allclose([r.A2, r.A3, r.A4], inv.coeffs[2:5], atol=1e-10)
        lr = f.log_ratio()
        np.testing.assert_allclose([r.gamma1, r.gamma2], lr.coeffs[1:3] / 2,
                                   atol=1e-12)
        gamma3 = log_coeffs(CoeffTriple.from_function(f))[2]
        assert gamma3 == pytest.approx(lr.coeffs[3] / 2, abs=1e-12)
        inv_log = NormalizedFunction(inv).log_ratio()
        np.testing.assert_allclose([r.Gamma1, r.Gamma2, r.Gamma3],
                                   inv_log.coeffs[1:4] / 2, atol=1e-10)
        assert r.Gamma1 == -r.gamma1


@pytest.mark.parametrize("label", [ClassLabel.F, ClassLabel.G])
def test_t21_phase_shortcut_matches_rotated_function(label):
    """evaluate takes |gamma1|^2 - |gamma2|^2 without rotating; the paper
    rotates the whole function to a real a2 and takes the quartic there.
    Both must agree."""
    rng = np.random.default_rng(36 if label is ClassLabel.F else 37)
    checked = 0
    while checked < 1000:
        nz = int(rng.integers(0, 4))
        zeros = tuple((rng.uniform(0, 1) ** 0.5) * np.exp(2j * np.pi * rng.uniform())
                      for _ in range(nz))
        spec = BlaschkeSpec(rotation=rng.uniform(0, 2 * np.pi), zeros=zeros)
        m = build_member(label, schwarz_from_blaschke(spec, 8), 8)
        if m.coeff(2).imag == 0:
            continue
        f = NormalizedFunction(TruncatedSeries(m.coeffs))
        want = toeplitz_t21_log(CoeffTriple.from_function(rotate_to_real_a2(f)))
        assert full_report(m).T21_log == pytest.approx(want, abs=1e-14)
        checked += 1


def test_witness_functionals_are_exact():
    """The witnesses' Schwarz data are rational (w = z or w = z^2) and every
    formula has integer coefficients, so in Fraction arithmetic each of the
    15 ledger sides comes out exactly equal to its bound."""
    data = {"f1": (1, 0, 0), "f2": (0, 1, 0), "g1": (1, 0, 0), "g2": (0, 1, 0)}
    reports = {}
    for name, c in data.items():
        exact = coeffs_from_schwarz_direct(ClassLabel(name[0].upper()),
                                           *map(Fraction, c))
        assert all(type(a) is Fraction for a in exact)
        np.testing.assert_allclose([complex(a) for a in exact],
                                   extremal_member(name, 4).coeffs[2:5],
                                   rtol=0, atol=1e-15)
        reports[name] = evaluate(CoeffTriple(*exact))
    sides = [(entry.functional, chk) for entry in LEDGER for chk in entry.checks]
    assert len(sides) == 15
    for functional, chk in sides:
        value = FUNCTIONAL_VALUES[functional](reports[chk.witness])
        assert type(value) is Fraction, functional
        assert value == chk.bound, (functional, chk.witness, value)


def test_full_report_requires_order_four():
    with pytest.raises(ValueError):
        full_report(NormalizedFunction(TruncatedSeries([0, 1, 0.2])))


# ----------------------------------------------------------------------
# the inverse cross-check by composition

WITNESS_SCHWARZ = {"f1": (1, 0, 0), "f2": (0, 1, 0), "g1": (1, 0, 0),
                   "g2": (0, 1, 0)}


def test_composition_vanishes_exactly_at_the_witnesses():
    for name, c in WITNESS_SCHWARZ.items():
        t = CoeffTriple(*coeffs_from_schwarz_direct(ClassLabel(name[0].upper()),
                                                    *map(Fraction, c)))
        terms = _composition_terms(t, inverse_coeffs(t))
        assert all(type(term) is Fraction for term in terms), name
        assert terms == (0, 0, 0), name


def _moved(report, field, cols=None):
    """``report`` with ``field`` moved by 1e-6 (in columns ``cols``)."""
    value = getattr(report, field)
    if cols is None:
        value = value + 1e-6
    else:
        value = value.copy()
        value[cols] += 1e-6
    return report._replace(**{field: value})


def _drawn_chunk(label, seed):
    batch = _draw_batch(np.random.default_rng(seed), _CHUNK, 3)
    return _members(label, batch)


@pytest.mark.parametrize("field", ["A3", "A4"])
def test_moved_inverse_coefficient_fails_the_check(field):
    f = extremal_member("f1", 8).coeffs
    report = evaluate(CoeffTriple(f[2], f[3], f[4]))
    assert inverse_crosscheck(f, report) == 0.0
    with pytest.raises(InverseSeriesMismatch):
        inverse_crosscheck(f, _moved(report, field))
    block = _drawn_chunk(ClassLabel.F, 1904)[:, :64]
    report = evaluate(CoeffTriple(block[2], block[3], block[4]))
    assert inverse_crosscheck(block, report) <= 1e-13
    with pytest.raises(InverseSeriesMismatch):
        inverse_crosscheck(block, _moved(report, field, 17))


def test_nan_coefficient_fails_the_check():
    """A NaN a3 raises, for one member (as an array or as Python numbers,
    whose first term is finite) and in one column of a batch."""
    member = np.array([0, 1, 0.5, np.nan, 0.1])
    block = _drawn_chunk(ClassLabel.G, 1907)[:, :2].copy()
    block[3, 1] = np.nan
    for f in (member, tuple(member.tolist()), block):
        with pytest.raises(InverseSeriesMismatch):
            inverse_crosscheck(f, evaluate(CoeffTriple(f[2], f[3], f[4])))


@pytest.mark.parametrize("label,seed", [(ClassLabel.F, 1905),
                                        (ClassLabel.G, 1906)])
def test_composition_agrees_with_series_inversion(label, seed):
    """The series inversion of f is the oracle: on a drawn chunk both
    residuals are tiny, and both single out the same corrupted column."""
    f = _drawn_chunk(label, seed)
    report = evaluate(CoeffTriple(f[2], f[3], f[4]))
    inv = inverse(f)

    def series_residual(r):
        return np.max(np.abs(inv[2:5] - np.array([r.A2, r.A3, r.A4])), axis=0)

    def composition_residual(r):
        terms = _composition_terms(CoeffTriple(f[2], f[3], f[4]),
                                   (r.A2, r.A3, r.A4))
        return np.max(np.abs(np.array(terms)), axis=0)

    assert series_residual(report).max() <= 1e-13
    assert composition_residual(report).max() <= 1e-13
    assert inverse_crosscheck(f, report) == composition_residual(report).max()
    bad = 5000
    for field in ("A3", "A4"):
        moved = _moved(report, field, bad)
        assert int(np.argmax(series_residual(moved))) == bad
        assert int(np.argmax(composition_residual(moved))) == bad
