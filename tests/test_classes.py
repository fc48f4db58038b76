"""Construction of class F and G members and their coefficient formulas."""

import ast
import cmath
import random
import warnings
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from blaschke_oracle import (BlaschkeSpec, LiberaParams, ZeroOutsideDisk,
                             libera_expand, schwarz_from_blaschke)
from ozaki import classes
from ozaki.classes import (CaratheodoryCoeffs, ClassLabel, OzakiFunction,
                           SchwarzCoeffs, UnknownExtremalName, build_member,
                           build_member_from_caratheodory, caratheodory_array,
                           caratheodory_from_schwarz,
                           coeffs_from_caratheodory_direct,
                           coeffs_from_schwarz_direct, extremal_member,
                           solve_member)
from ozaki.sampling import blaschke_product
from ozaki.series import TruncatedSeries
from test_series import binomial_pow_oracle

F, G = ClassLabel.F, ClassLabel.G


def mobius_factor_oracle(a, order):
    """(a - z)/(1 - conj(a) z) expanded by the plain geometric series."""
    geo = np.array([np.conj(a) ** k for k in range(order + 1)], dtype=complex)
    num = np.zeros(order + 1, dtype=complex)
    num[0] = a
    if order >= 1:
        num[1] = -1.0
    return np.convolve(num, geo)[: order + 1]


# ----------------------------------------------------------------------
# Blaschke generation

def test_empty_product_is_rotationless_identity():
    w = schwarz_from_blaschke(BlaschkeSpec(rotation=0.0), 5)
    np.testing.assert_allclose(w.c, [1, 0, 0, 0, 0], atol=0)


def test_pure_rotation_by_pi():
    w = schwarz_from_blaschke(BlaschkeSpec(rotation=np.pi), 4)
    assert abs(w.c[0] + 1.0) < 1e-15
    np.testing.assert_allclose(w.c[1:], 0, atol=0)


def test_single_zero_at_origin_gives_minus_z_squared():
    w = schwarz_from_blaschke(BlaschkeSpec(rotation=0.0, zeros=(0.0,)), 5)
    np.testing.assert_allclose(w.c, [0, -1, 0, 0, 0], atol=0)


def test_product_matches_mobius_oracle():
    rng = np.random.default_rng(4)
    for _ in range(25):
        a = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * 0.7
        theta = rng.uniform(0, 2 * np.pi)
        w = schwarz_from_blaschke(BlaschkeSpec(rotation=theta, zeros=(a,)), 8)
        want = cmath.exp(1j * theta) * mobius_factor_oracle(a, 7)
        np.testing.assert_allclose(w.c, want, atol=1e-14)


def test_batched_product_matches_product_of_mobius_factors():
    rng = np.random.default_rng(8)
    n, length = 40, 9
    zeros = (np.sqrt(rng.uniform(0, 0.98, (3, n)))
             * np.exp(2j * np.pi * rng.uniform(size=(3, n))))
    counts = np.arange(n) % 4
    theta = rng.uniform(0, 2 * np.pi, n)
    got = blaschke_product(theta, zeros, counts, length)
    for i in range(n):
        want = np.zeros(length, dtype=complex)
        want[0] = 1.0
        for a in zeros[: counts[i], i]:
            want = np.convolve(want, mobius_factor_oracle(a, length - 1))[:length]
        np.testing.assert_allclose(got[:, i], cmath.exp(1j * theta[i]) * want,
                                   rtol=0, atol=1e-14)


def test_mixture_is_convex_combination():
    s1 = BlaschkeSpec(rotation=0.3, zeros=(0.5,))
    s2 = BlaschkeSpec(rotation=1.1, zeros=(0.2 + 0.4j, -0.3))
    mix = BlaschkeSpec(rotation=0.3, zeros=(0.5,), second=s2, mixture_weight=0.25)
    w1 = np.asarray(schwarz_from_blaschke(s1, 8).c)
    w2 = np.asarray(schwarz_from_blaschke(s2, 8).c)
    wm = np.asarray(schwarz_from_blaschke(mix, 8).c)
    np.testing.assert_allclose(wm, 0.25 * w1 + 0.75 * w2, atol=1e-15)


def test_zero_outside_disk_rejected():
    with pytest.raises(ZeroOutsideDisk):
        BlaschkeSpec(rotation=0.0, zeros=(1.0,))
    with pytest.raises(ZeroOutsideDisk):
        BlaschkeSpec(rotation=0.0, zeros=(0.3, 1.2j))


def test_mixture_weight_validation():
    with pytest.raises(ValueError):
        BlaschkeSpec(rotation=0.0, mixture_weight=0.5)  # no second product
    with pytest.raises(ValueError):
        BlaschkeSpec(rotation=0.0, second=BlaschkeSpec(rotation=0.0),
                     mixture_weight=1.5)


def test_generated_schwarz_functions_validate():
    rng = np.random.default_rng(8)
    for _ in range(200):
        nz = int(rng.integers(0, 4))
        zeros = tuple((rng.uniform(0, 1) ** 0.5) * np.exp(2j * np.pi * rng.uniform())
                      for _ in range(nz))
        spec = BlaschkeSpec(rotation=rng.uniform(0, 2 * np.pi), zeros=zeros)
        build_member(F, schwarz_from_blaschke(spec, 8), 8)


# ----------------------------------------------------------------------
# prefix membership: build_member applies the Caratheodory-Toeplitz rule

def test_prefix_boundary_case():
    build_member(F, SchwarzCoeffs((1.0, 0.0, 0.0)), 8)


def test_prefix_c2_boundary():
    # |c2| = 1 - |c1|^2 makes w a Blaschke product of degree 2, which forces
    # c3 = -conj(c1) c2^2 / (1 - |c1|^2) = -0.375
    build_member(F, SchwarzCoeffs((0.5, 0.75, -0.375)), 8)
    with pytest.raises(ValueError, match="Caratheodory-Toeplitz"):
        build_member(F, SchwarzCoeffs((0.5, 0.75, 0.0)), 8)


def test_prefix_c3_violation():
    # with c2 = 0 the largest |c3| is 1 - |c1|^2 = 0.75
    build_member(F, SchwarzCoeffs((0.5, 0.0, 0.75)), 8)
    with pytest.raises(ValueError, match="Caratheodory-Toeplitz"):
        build_member(F, SchwarzCoeffs((0.5, 0.0, 0.76)), 8)


def test_non_finite_prefix_rejected():
    # inf and nan coefficients, given or (for 1e200) from overflow in p, fail
    # the criterion itself, before the recursion sees them and without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c in ((float("nan"),), (float("inf"),), (1e200,), (1e200j,)):
            with pytest.raises(ValueError, match="Caratheodory-Toeplitz"):
                build_member(F, SchwarzCoeffs(c), 8)
        for p in ((float("nan"),), (float("inf"),)):
            with pytest.raises(ValueError, match="Caratheodory-Toeplitz"):
                CaratheodoryCoeffs(p)


def lowest_toeplitz_eigenvalue(p):
    """The lowest eigenvalue of the Hermitian Toeplitz matrix of
    (2, p1, ..., pN), by LAPACK: the oracle of the membership rule."""
    c = np.concatenate(([2.0], np.asarray(p, dtype=complex)))
    index = np.abs(np.arange(c.size)[:, None] - np.arange(c.size))
    return np.linalg.eigvalsh(c[index], UPLO="U")[0]


def levinson_accepts(p):
    try:
        classes._require_caratheodory_prefix(p)
    except ValueError:
        return False
    return True


def test_levinson_rule_agrees_with_the_eigenvalue_rule():
    """The recursion accepts (p1, ..., pN) exactly when the lowest eigenvalue
    of the Toeplitz matrix of (2, p1, ..., pN) is >= -1e-9, except within
    rounding of -1e-9 itself, where both rules are decided by rounding."""
    rng = np.random.default_rng(2028)

    def blaschke_prefix(n):
        """p1..pn of a genuine Schwarz function: T is positive semidefinite,
        and singular once n exceeds the degree of the product."""
        k = rng.integers(0, 4)
        zeros = np.sqrt(rng.uniform(0, 0.98, k)) * np.exp(2j * np.pi * rng.uniform(size=k))
        w = schwarz_from_blaschke(BlaschkeSpec(rng.uniform(0, 2 * np.pi), tuple(zeros)), n)
        return caratheodory_array([0.0, *w.prefix(n)])[1:]

    corpus = []
    for n in range(3, 33):
        for _ in range(3):
            p = blaschke_prefix(n)
            corpus.append(p)
            for e in range(5, 14):   # one coefficient moved by 1 +- 10^-e
                for sign in (1, -1):
                    q, j = list(p), rng.integers(n)
                    q[j] *= 1 + sign * 10.0 ** -e
                    corpus.append(q)
            # s p with s = 1 + 5e-10 puts the lowest eigenvalue of a singular
            # T at -1e-9 exactly: the case where the rules may differ
            corpus.append([(1 + 5e-10) * x for x in p])
    for n in (3, 5, 8):
        corpus += (2 * np.sqrt(rng.uniform(size=(300, n)))
                   * np.exp(2j * np.pi * rng.uniform(size=(300, n)))).tolist()
    for n in (3, 4, 9):   # the witnesses' p = (1 + w)/(1 - w), rotated
        for step in (1, 2):
            for angle in (0.0, 0.3, 1.7):
                corpus.append([2.0 * (k % step == 0) * cmath.exp(1j * angle * k)
                               for k in range(1, n + 1)])

    accepted, band, differ = 0, 0, []
    for p in corpus:
        lowest = lowest_toeplitz_eigenvalue(p)
        by_levinson = levinson_accepts(p)
        accepted += by_levinson
        band += abs(lowest + 1e-9) <= 1e-12
        if by_levinson != (lowest >= -1e-9):
            differ.append(lowest + 1e-9)
    assert all(abs(gap) <= 1e-12 for gap in differ), differ
    assert len(corpus) // 4 < accepted < 3 * len(corpus) // 4
    assert band >= 60   # the equality case is exercised, not only approached
    assert levinson_accepts((2, 2, 2 + 1e-12)) and lowest_toeplitz_eigenvalue((2, 2, 2 + 1e-12)) >= -1e-9
    assert not levinson_accepts((2, 2, 2 + 1e-8)) and lowest_toeplitz_eigenvalue((2, 2, 2 + 1e-8)) < -1e-9


# ----------------------------------------------------------------------
# Caratheodory transform

def test_caratheodory_of_w_equals_z():
    p = caratheodory_from_schwarz(SchwarzCoeffs((1.0,)), 6)
    np.testing.assert_allclose(p.p, [2, 2, 2, 2, 2, 2], atol=0)


def test_caratheodory_of_zero_w():
    p = caratheodory_from_schwarz(SchwarzCoeffs(()), 4)
    np.testing.assert_allclose(p.p, [0, 0, 0, 0], atol=0)


def test_caratheodory_of_w_equals_z_squared():
    p = caratheodory_from_schwarz(SchwarzCoeffs((0.0, 1.0)), 5)
    np.testing.assert_allclose(p.p, [0, 2, 0, 2, 0], atol=0)


def test_caratheodory_coefficient_bound_enforced():
    with pytest.raises(ValueError):
        CaratheodoryCoeffs((2.5,))


# ----------------------------------------------------------------------
# Libera expansion

def test_libera_degenerate_p1_equals_two():
    p = libera_expand(LiberaParams(2.0, 0.3 + 0.2j, -0.5, 1j))
    np.testing.assert_allclose(p.p, [2, 2, 2, 2], atol=1e-15)


def test_libera_xi_one():
    p = libera_expand(LiberaParams(0.0, 1.0, 0.7j, -0.2))
    np.testing.assert_allclose(p.p, [0, 2, 0, 2], atol=1e-15)


def test_libera_eta_one():
    p = libera_expand(LiberaParams(0.0, 0.0, 1.0, 0.9))
    np.testing.assert_allclose(p.p, [0, 0, 2, 0], atol=1e-15)


def test_libera_matches_schwarz_route():
    # w = z^2 has p = (0, 2, 0, 2); reachable with p1 = 0, xi = 1
    via_w = caratheodory_from_schwarz(SchwarzCoeffs((0.0, 1.0)), 4)
    via_libera = libera_expand(LiberaParams(0.0, 1.0, 0.0, 0.0))
    np.testing.assert_allclose(via_w.p, via_libera.p, atol=1e-15)


def test_libera_necessary_bounds_hold():
    rng = np.random.default_rng(21)
    for _ in range(10000):
        p1 = rng.uniform(0, 2)
        xi, eta, gam = (rng.uniform(0, 1) ** 0.5 * np.exp(2j * np.pi * rng.uniform())
                        for _ in range(3))
        p = libera_expand(LiberaParams(p1, xi, eta, gam))
        assert abs(p.p[1]) <= 2 + 1e-12
        assert abs(p.p[2]) <= 2 + 1e-12


def test_libera_params_validated():
    with pytest.raises(ValueError):
        LiberaParams(2.5, 0, 0, 0)
    with pytest.raises(ValueError):
        LiberaParams(1.0, 1.5, 0, 0)
    assert LiberaParams(1.0, 0, 0, 0).t == pytest.approx(3.0)


# ----------------------------------------------------------------------
# members from the differential equation

def test_build_f_member_from_w_equals_z():
    m = build_member(F, SchwarzCoeffs((1.0,)), 8)
    np.testing.assert_allclose(m.coeffs[:5], [0, 1, 1.5, 2, 2.5],
                               atol=1e-14)


def test_build_g_member_from_w_equals_z():
    m = build_member(G, SchwarzCoeffs((1.0,)), 8)
    want = np.zeros(9)
    want[1], want[2] = 1.0, -0.5
    np.testing.assert_allclose(m.coeffs, want, atol=1e-14)


def test_build_g_member_from_w_equals_z_squared():
    m = build_member(G, SchwarzCoeffs((0.0, 1.0)), 8)
    np.testing.assert_allclose(m.coeffs[:6],
                               [0, 1, 0, -1 / 6, 0, -1 / 40], atol=1e-14)


def test_build_member_rejects_invalid_prefix():
    with pytest.raises(ValueError, match="Caratheodory-Toeplitz"):
        build_member(F, SchwarzCoeffs((0.5, 0.75, 0.4)), 8)


def test_build_member_rejects_small_order():
    """One check, the member's own, rejects every order below 4, a negative
    one below the length of the data included."""
    long_data = (0.1,) * 8
    for order in (3, 0, -2):
        for build, data in ((build_member, SchwarzCoeffs((0.5,))),
                            (build_member, SchwarzCoeffs(long_data)),
                            (build_member_from_caratheodory,
                             CaratheodoryCoeffs(long_data))):
            with pytest.raises(ValueError, match="order >= 4"):
                build(F, data, order)
    # a member checks its own coefficients too: N >= 4, a0 = 0, a1 = 1
    for coeffs in ((0, 1, 0, 0), (1e-300, 1, 0, 0, 0), (0, 1 + 1e-16j, 0, 0, 0)):
        with pytest.raises(ValueError):
            OzakiFunction(F, coeffs, "data")


def test_records_are_immutable_tuples_that_keep_their_checks():
    """The member records compare, hash and print by their fields, cannot be
    written, and coerce and check their fields also through ``_replace``."""
    w = SchwarzCoeffs([0.5, 0.25])
    assert w == SchwarzCoeffs((0.5 + 0j, 0.25 + 0j))
    assert w.c == (0.5 + 0j, 0.25 + 0j)
    assert hash(w) == hash(SchwarzCoeffs((0.5, 0.25)))
    assert repr(w) == "SchwarzCoeffs(c=((0.5+0j), (0.25+0j)))"
    assert SchwarzCoeffs._fields == ("c",)
    assert w._replace(c=[2]).c == (2 + 0j,)
    p = CaratheodoryCoeffs((1, 0.5))
    with pytest.raises(ValueError, match="Caratheodory-Toeplitz"):
        p._replace(p=(2, 2, -2))
    with pytest.raises(ValueError, match="Caratheodory-Toeplitz"):
        CaratheodoryCoeffs._make([(2, 2, -2)])
    member = build_member(F, w, 6)
    assert member == OzakiFunction(F, member.coeffs, w)
    assert repr(member).startswith("OzakiFunction(label=<ClassLabel.F: 'F'>, ")
    assert OzakiFunction._fields == ("label", "coeffs", "provenance")
    with pytest.raises(ValueError, match="order >= 4"):
        member._replace(coeffs=member.coeffs[:4])
    for record, field in ((w, "c"), (p, "p"), (member, "coeffs")):
        with pytest.raises(AttributeError):
            setattr(record, field, ())
        with pytest.raises(AttributeError):
            record.other = 1


def test_build_from_caratheodory_matches_schwarz_route():
    w = SchwarzCoeffs((0.4, -0.2 + 0.1j, 0.05))
    p = caratheodory_from_schwarz(w, 8)
    m1 = build_member(F, w, 8)
    m2 = build_member_from_caratheodory(F, p, 8)
    np.testing.assert_allclose(m1.coeffs, m2.coeffs, atol=1e-15)


# ----------------------------------------------------------------------
# extremal functions

def test_extremal_f1():
    m = extremal_member("f1", 4)
    assert m.label is F
    np.testing.assert_allclose(m.coeffs, [0, 1, 1.5, 2, 2.5], atol=0)


def test_extremal_f2():
    m = extremal_member("f2", 5)
    np.testing.assert_allclose(m.coeffs, [0, 1, 0, 0.5, 0, 0.375], atol=0)


def test_extremal_g1():
    m = extremal_member("g1", 6)
    want = np.zeros(7)
    want[1], want[2] = 1.0, -0.5
    np.testing.assert_allclose(m.coeffs, want, atol=0)


def test_extremal_g2():
    m = extremal_member("g2", 5)
    np.testing.assert_allclose(m.coeffs,
                               [0, 1, 0, -1 / 6, 0, -1 / 40], atol=1e-16)


def test_extremals_match_ode_construction():
    """The members generated by w = z and w = z^2 are the closed forms
    f1' = (1-z)^-3, f2' = (1-z^2)^(-3/2), g1' = 1-z and g2' = (1-z^2)^(1/2),
    expanded by the binomial series and integrated once."""
    order = 40
    cases = {"f1": (F, (1.0,), -3.0, False), "f2": (F, (0.0, 1.0), -1.5, True),
             "g1": (G, (1.0,), 1.0, False), "g2": (G, (0.0, 1.0), 0.5, True)}
    for name, (label, c, alpha, square) in cases.items():
        ode = build_member(label, SchwarzCoeffs(c), order).coeffs
        fprime = binomial_pow_oracle(alpha, order - 1, square)
        closed = np.concatenate(([0.0], fprime / np.arange(1, order + 1)))
        np.testing.assert_allclose(ode, closed, atol=1e-13, rtol=0)
        witness = extremal_member(name, order)
        assert witness.label is label and witness.provenance == name
        np.testing.assert_array_equal(witness.coeffs, ode)


# name: (class, Schwarz data, alpha, step) with f' = (1 - z^step)^alpha
WITNESS_CLOSED_FORMS = {"f1": (F, (1,), Fraction(-3), 1),
                        "f2": (F, (0, 1), Fraction(-3, 2), 2),
                        "g1": (G, (1,), Fraction(1), 1),
                        "g2": (G, (0, 1), Fraction(1, 2), 2)}


@pytest.mark.parametrize("name", sorted(WITNESS_CLOSED_FORMS))
def test_member_solve_reproduces_witnesses_exactly(name):
    """Through order 12 every coefficient the solve gives a witness is the
    double nearest its exact rational value, so the witnesses that sample,
    verify and extremal print carry no rounding of the solve."""
    label, c, alpha, step = WITNESS_CLOSED_FORMS[name]
    order = 12
    fprime = [Fraction(0)] * order   # binomial series of (1 - z^step)^alpha
    term = Fraction(1)
    for k in range(0, order, step):
        fprime[k] = term
        term *= (k // step - alpha) / (k // step + 1)
    exact = [0.0] + [float(a / n) for n, a in enumerate(fprime, 1)]
    got = solve_member(label, caratheodory_array([0.0, *SchwarzCoeffs(c).prefix(order)]))
    assert got == exact


def test_extremal_member_is_cached_but_never_shared():
    """A witness is solved once per (name, order); every call gets the
    cached coefficients as a tuple, which no caller can write, bitwise equal
    to the member solve."""
    data = {"f1": (F, (1,)), "f2": (F, (0, 1)), "g1": (G, (1,)), "g2": (G, (0, 1))}
    for order in (4, 8, 25):
        for name, (label, c) in data.items():
            solved = build_member(label, SchwarzCoeffs(c), order).coeffs
            first, again = extremal_member(name, order), extremal_member(name, order)
            assert first.coeffs is again.coeffs
            for m in (first, again):
                assert m.label is label and m.provenance == name
                assert type(m.coeffs) is tuple
                assert (np.array(m.coeffs).tobytes()
                        == np.array(solved).tobytes())


def test_unknown_extremal_rejected():
    with pytest.raises(UnknownExtremalName):
        extremal_member("f3", 8)


# ----------------------------------------------------------------------
# direct coefficient formulas

def test_direct_caratheodory_formulas():
    np.testing.assert_allclose(
        coeffs_from_caratheodory_direct(F, CaratheodoryCoeffs((2, 2, 2))),
        [1.5, 2.0, 2.5], atol=0)
    np.testing.assert_allclose(
        coeffs_from_caratheodory_direct(G, CaratheodoryCoeffs((0, 0, 0))),
        [0, 0, 0], atol=0)
    np.testing.assert_allclose(
        coeffs_from_caratheodory_direct(G, CaratheodoryCoeffs((0, 2, 0))),
        [0, -1 / 6, 0], atol=0)


def test_direct_schwarz_formulas():
    np.testing.assert_allclose(
        coeffs_from_schwarz_direct(F, *SchwarzCoeffs((1, 0, 0)).prefix(3)),
        [1.5, 2.0, 2.5], atol=0)
    np.testing.assert_allclose(
        coeffs_from_schwarz_direct(G, *SchwarzCoeffs((0, 0, 0)).prefix(3)),
        [0, 0, 0], atol=0)
    np.testing.assert_allclose(
        coeffs_from_schwarz_direct(G, *SchwarzCoeffs((0, 1, 0)).prefix(3)),
        [0, -1 / 6, 0], atol=0)


def test_direct_schwarz_formulas_on_arrays_match_scalar_calls():
    rng = np.random.default_rng(23)
    c = rng.uniform(-0.6, 0.6, (3, 50)) + 1j * rng.uniform(-0.6, 0.6, (3, 50))
    for label in (F, G):
        columns = np.array(coeffs_from_schwarz_direct(label, *c))
        for i in range(c.shape[1]):
            scalar = coeffs_from_schwarz_direct(label, *(complex(v) for v in c[:, i]))
            np.testing.assert_allclose(columns[:, i], scalar, rtol=0, atol=1e-15)


def _schwarz_branches(label, c1, c2, c3):
    """The closed forms as they were written per class before ClassLabel.m."""
    if label is ClassLabel.F:
        return (3 * c1 / 2, (4 * c1 ** 2 + c2) / 2,
                (20 * c1 ** 3 + 13 * c1 * c2 + 2 * c3) / 8)
    return -c1 / 2, -c2 / 6, -(c1 * c2 + 2 * c3) / 24


def _caratheodory_branches(label, p1, p2, p3):
    if label is ClassLabel.F:
        return (3 * p1 / 4, (3 * p1 ** 2 + 2 * p2) / 8,
                (9 * p1 ** 3 + 18 * p1 * p2 + 8 * p3) / 64)
    return -p1 / 4, (p1 ** 2 - 2 * p2) / 24, (-p1 ** 3 + 6 * p1 * p2 - 8 * p3) / 192


def test_m_formulas_equal_the_per_class_branches_exactly():
    """On random rationals the formulas in m = 2 kappa give the old per-class
    closed forms exactly, as fractions.  The Caratheodory data go in through a
    stand-in with a prefix(), since CaratheodoryCoeffs holds complex numbers."""
    rng = random.Random(27)
    for _ in range(200):
        data = tuple(Fraction(rng.randint(-60, 60), rng.randint(1, 40))
                     for _ in range(3))
        for label in (F, G):
            got = coeffs_from_schwarz_direct(label, *data)
            assert got == _schwarz_branches(label, *data)
            assert all(type(a) is Fraction for a in got)
            got = coeffs_from_caratheodory_direct(
                label, SimpleNamespace(prefix=lambda k, data=data: data[:k]))
            assert got == _caratheodory_branches(label, *data)
            assert all(type(a) is Fraction for a in got)


def _is_class_constant(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr in ("F", "G")
            and isinstance(node.value, ast.Name) and node.value.id == "ClassLabel")


def _class_branches(node, function: str):
    """(function, line) of each comparison with ClassLabel.F or ClassLabel.G,
    each dict keyed by one and each match case on one."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    tested = ([node.left, *node.comparators] if isinstance(node, ast.Compare)
              else node.keys if isinstance(node, ast.Dict)
              else [node.value] if isinstance(node, ast.MatchValue) else [])
    if any(_is_class_constant(n) for n in tested):
        yield function, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _class_branches(child, function)


def test_only_class_label_m_tells_the_classes_apart():
    """No module of the package branches on F or G: the class enters every
    formula as the integer ClassLabel.m, whose definition holds the one
    comparison."""
    package = Path(classes.__file__).parent
    found = [(path.name, function)
             for path in sorted(package.glob("*.py"))
             for function, _ in _class_branches(ast.parse(path.read_text()), "")]
    assert found == [("classes.py", "m")]


def test_three_routes_agree_on_random_members():
    rng = np.random.default_rng(17)
    for _ in range(200):
        nz = int(rng.integers(0, 4))
        zeros = tuple((rng.uniform(0, 1) ** 0.5) * np.exp(2j * np.pi * rng.uniform())
                      for _ in range(nz))
        spec = BlaschkeSpec(rotation=rng.uniform(0, 2 * np.pi), zeros=zeros)
        w = schwarz_from_blaschke(spec, 8)
        p = caratheodory_from_schwarz(w, 8)
        for label in (F, G):
            built = build_member(label, w, 8)
            triple_ode = tuple(built.coeffs[2:5])
            triple_c = coeffs_from_caratheodory_direct(label, p)
            triple_s = coeffs_from_schwarz_direct(label, *w.prefix(3))
            np.testing.assert_allclose(triple_ode, triple_c, atol=1e-12)
            np.testing.assert_allclose(triple_ode, triple_s, atol=1e-12)
            np.testing.assert_allclose(triple_c, triple_s, atol=1e-12)


# ----------------------------------------------------------------------
# class membership sanity check on a circle of radius 0.95

def test_membership_on_circle():
    """Re(1 + z f''/f') stays above -1/2 for F and below 3/2 for G on
    |z| = 0.95, evaluated from a high-order truncation."""
    order = 160
    rng = np.random.default_rng(29)
    zs = 0.95 * np.exp(1j * np.linspace(0, 2 * np.pi, 720, endpoint=False))
    powers = zs[None, :] ** np.arange(order)[:, None]   # (order, 720)
    for label, check in ((F, lambda re: re > -0.5), (G, lambda re: re < 1.5)):
        for _ in range(120):
            nz = int(rng.integers(0, 4))
            zeros = tuple((rng.uniform(0, 1) ** 0.5)
                          * np.exp(2j * np.pi * rng.uniform()) for _ in range(nz))
            spec = BlaschkeSpec(rotation=rng.uniform(0, 2 * np.pi), zeros=zeros)
            w = schwarz_from_blaschke(spec, order)
            m = build_member(label, w, order)
            f = TruncatedSeries(m.coeffs)
            ratio = f.derivative().derivative() / f.derivative()
            curv = np.zeros(order, dtype=complex)      # 1 + z f''/f'
            curv[0] = 1.0
            curv[1:] = ratio.coeffs[: order - 1]
            vals = curv @ powers
            assert check(vals.real.min() if label is F else vals.real.max())
