"""Oracle and property tests for truncated series arithmetic.

Expected values are produced by independent routes: direct convolution of
binomial coefficients, the geometric-series division recursion, factorial
reciprocals, and a naive substitute-and-expand composition that never
truncates intermediates.
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ozaki import series as kernels
from ozaki.series import (CompositionAtNonOrigin, DivisionByNonUnit,
                          ExpOfNonZeroConstant, LogOfNonUnitConstant,
                          NormalizedFunction, NotNormalized,
                          PowOfNonUnitConstant, SeriesError, TruncatedSeries,
                          identity)


def series(*coeffs):
    return TruncatedSeries(coeffs)


def assert_coeffs(s, expected, tol=1e-12):
    np.testing.assert_allclose(s.coeffs, np.asarray(expected, dtype=complex),
                               atol=tol, rtol=0)


# ----------------------------------------------------------------------
# independent oracles

def geometric_div_oracle(s, order):
    """Quotient by (1 - z) via q_k = s_k + q_{k-1}."""
    q = np.zeros(order + 1, dtype=complex)
    q[0] = s[0]
    for k in range(1, order + 1):
        q[k] = (s[k] if k < len(s) else 0.0) + q[k - 1]
    return q


def naive_compose_oracle(outer, inner, order):
    """Full polynomial substitution, truncated only at the very end."""
    acc = np.zeros(1, dtype=complex)
    power = np.ones(1, dtype=complex)
    for a in outer:
        term = a * power
        n = max(len(acc), len(term))
        acc = np.pad(acc, (0, n - len(acc))) + np.pad(term, (0, n - len(term)))
        power = np.convolve(power, inner)
    out = np.zeros(order + 1, dtype=complex)
    out[: min(order + 1, len(acc))] = acc[: order + 1]
    return out


def binomial_pow_oracle(alpha, order, square=False):
    """(1 - z)^alpha or (1 - z^2)^alpha by the binomial series."""
    out = np.zeros(order + 1, dtype=complex)
    term = 1.0
    for k in range(order + 1):
        idx = 2 * k if square else k
        if idx > order:
            break
        out[idx] = term * (-1.0) ** k
        term = term * (alpha - k) / (k + 1)
    return out


# ----------------------------------------------------------------------
# padding

def test_padded_extends_with_zeros_and_cuts_off():
    s = series(1, -1, 2)
    assert_coeffs(s.padded(4), [1, -1, 2, 0, 0], tol=0)
    assert_coeffs(s.padded(2), [1, -1, 2], tol=0)
    assert_coeffs(s.padded(1), [1, -1], tol=0)


# ----------------------------------------------------------------------
# mul / div

def test_mul_one_minus_z_times_one_plus_z():
    assert_coeffs(series(1, 1) * series(1, -1), [1, 0], tol=0)
    assert_coeffs(series(1, 1, 0) * series(1, -1, 0), [1, 0, -1], tol=0)


def test_mul_identity_and_min_order():
    s = series(2, 3, 4, 5)
    assert_coeffs(s * series(1, 0, 0, 0), s.coeffs, tol=0)
    assert (s * series(1, 0)).order == 1


def test_mul_binomial_inverse_pair():
    # (1-z)^-3 times (1-z)^3 is 1; both factors from direct binomials
    cube = np.convolve(np.convolve([1, -1], [1, -1]), [1, -1])
    got = series(1, 3, 6, 10) * TruncatedSeries(cube)
    assert_coeffs(got, [1, 0, 0, 0], tol=0)


def test_div_geometric():
    got = series(1, 0, 0, 0) / series(1, -1, 0, 0)
    assert_coeffs(got, geometric_div_oracle([1, 0, 0, 0], 3), tol=0)
    assert_coeffs(got, [1, 1, 1, 1], tol=0)


def test_div_by_one():
    s = series(3, 1, 4)
    assert_coeffs(s / series(1, 0, 0), s.coeffs, tol=0)


def test_div_shifted_geometric():
    got = series(0, 3, 0) / series(1, -1, 0)
    assert_coeffs(got, geometric_div_oracle([0, 3, 0], 2), tol=0)
    assert_coeffs(got, [0, 3, 3], tol=0)


def test_div_by_nonunit_raises():
    with pytest.raises(DivisionByNonUnit):
        series(1, 2) / series(0, 1)


# ----------------------------------------------------------------------
# derivative / antiderivative

def test_derivative_examples():
    assert_coeffs(series(0, 1, 1.5, 2, 2.5).derivative(), [1, 3, 6, 10], tol=0)
    assert_coeffs(series(7, 0).derivative(), [0], tol=0)
    assert_coeffs(series(0, 1).derivative(), [1], tol=0)


def test_derivative_order_zero_rejected():
    with pytest.raises(SeriesError):
        series(5).derivative()


def test_antiderivative_examples():
    assert_coeffs(series(1, 3, 6, 10).antiderivative(), [0, 1, 1.5, 2, 2.5], tol=0)
    assert_coeffs(series(0).antiderivative(), [0, 0], tol=0)
    assert_coeffs(series(1, 0, 1.5).antiderivative(), [0, 1, 0, 0.5], tol=0)


def test_derivative_of_antiderivative_roundtrip():
    rng = np.random.default_rng(2)
    c = rng.uniform(-1, 1, 9) + 1j * rng.uniform(-1, 1, 9)
    s = TruncatedSeries(c)
    back = s.antiderivative().derivative()
    assert_coeffs(back, c, tol=1e-15)


# ----------------------------------------------------------------------
# compose

def test_compose_identity_inner():
    s = series(3, 1, 4, 1)
    assert_coeffs(s.compose(identity(3)), s.coeffs, tol=0)


def test_compose_polynomial_at_z_squared():
    # (1+z)/(1-z) coefficients composed with z^2
    got = series(1, 2, 2, 2).compose(series(0, 0, 1))
    assert_coeffs(got, naive_compose_oracle([1, 2, 2, 2], [0, 0, 1], 3), tol=0)
    assert_coeffs(got, [1, 0, 2, 0], tol=0)


def test_compose_self_substitution():
    got = series(0, 1, 1).compose(series(0, 1, 1))
    assert_coeffs(got, naive_compose_oracle([0, 1, 1], [0, 1, 1], 2), tol=0)
    assert_coeffs(got, [0, 1, 2], tol=0)


def test_compose_carries_outer_order():
    assert series(1, 2, 2, 2).compose(series(0, 0, 1)).order == 3
    assert series(0, 1, 1).compose(series(0, 1, 1, 9, 9)).order == 2


def test_compose_nonzero_inner_rejected():
    with pytest.raises(CompositionAtNonOrigin):
        series(1, 1).compose(series(1, 1))


def test_compose_matches_naive_oracle_on_random_inputs():
    rng = np.random.default_rng(5)
    for _ in range(50):
        outer = rng.uniform(-1, 1, 7) + 1j * rng.uniform(-1, 1, 7)
        inner = rng.uniform(-1, 1, 7) + 1j * rng.uniform(-1, 1, 7)
        inner[0] = 0.0
        got = TruncatedSeries(outer).compose(TruncatedSeries(inner))
        want = naive_compose_oracle(outer, inner, 6)
        np.testing.assert_allclose(got.coeffs, want, atol=1e-12, rtol=0)


# ----------------------------------------------------------------------
# exp / log / pow

def test_exp_of_zero_series():
    assert_coeffs(series(0, 0, 0, 0, 0).exp(), [1, 0, 0, 0, 0], tol=0)


def test_exp_reproduces_binomial_cube():
    log_one_minus_z = TruncatedSeries([0, -1, -1 / 2, -1 / 3])
    got = (log_one_minus_z * (-3.0)).exp()
    assert_coeffs(got, [1, 3, 6, 10], tol=1e-14)


def test_exp_factorial_reciprocals():
    got = series(0, 1, 0, 0).exp()
    assert_coeffs(got, [1 / math.factorial(k) for k in range(4)], tol=1e-15)


def test_exp_nonzero_constant_rejected():
    with pytest.raises(ExpOfNonZeroConstant):
        series(1, 1).exp()


def test_log_nonunit_constant_rejected():
    with pytest.raises(LogOfNonUnitConstant):
        series(2, 1).log()


def test_pow_binomial_cube_inverse():
    got = series(1, -1, 0, 0, 0).pow(-3.0)
    want = [math.comb(n + 2, 2) for n in range(5)]
    assert_coeffs(got, want, tol=0)


def test_pow_zero_exponent():
    assert_coeffs(series(1, 0.3, -0.2).pow(0.0), [1, 0, 0], tol=0)


def test_pow_sqrt_of_one_minus_z_squared():
    got = series(1, 0, -1, 0, 0).pow(0.5)
    assert_coeffs(got, binomial_pow_oracle(0.5, 4, square=True), tol=1e-16)
    assert_coeffs(got, [1, 0, -0.5, 0, -0.125], tol=1e-16)


def test_pow_nonunit_constant_rejected():
    with pytest.raises(PowOfNonUnitConstant):
        series(2, 1).pow(0.5)


# ----------------------------------------------------------------------
# normalized functions: log_ratio and inverse

def test_log_ratio_of_identity_is_zero():
    f = NormalizedFunction(identity(5))
    assert_coeffs(f.log_ratio(), [0, 0, 0, 0, 0], tol=0)


def test_log_ratio_logarithmic_coefficients():
    # gamma_n = coeffs[n]/2 checked against gamma1 = a2/2, gamma2 = (a3 - a2^2/2)/2
    f = NormalizedFunction(series(0, 1, 1.5, 2, 2.5))
    lr = f.log_ratio()
    a2, a3 = 1.5, 2.0
    assert lr[1] == pytest.approx(2 * (a2 / 2), abs=1e-15)
    assert lr[2] == pytest.approx(2 * ((a3 - a2 ** 2 / 2) / 2), abs=1e-15)
    assert lr[1] / 2 == pytest.approx(3 / 4, abs=1e-15)
    assert lr[2] / 2 == pytest.approx(7 / 16, abs=1e-15)


def test_inverse_of_identity():
    f = NormalizedFunction(identity(6))
    assert_coeffs(f.inverse(), identity(6).coeffs, tol=0)


def test_inverse_closed_forms():
    # A2 = -a2, A3 = 2 a2^2 - a3, A4 = -a4 + 5 a2 a3 - 5 a2^3
    f = NormalizedFunction(series(0, 1, 1.5, 2, 2.5))
    inv = f.inverse()
    a2, a3, a4 = 1.5, 2.0, 2.5
    np.testing.assert_allclose(
        inv.coeffs[2:],
        [-a2, 2 * a2 ** 2 - a3, -a4 + 5 * a2 * a3 - 5 * a2 ** 3],
        atol=1e-13, rtol=0)
    np.testing.assert_allclose(inv.coeffs[2:], [-1.5, 2.5, -35 / 8],
                               atol=1e-13, rtol=0)
    roundtrip = f.series.compose(inv)
    assert_coeffs(roundtrip, identity(4).coeffs, tol=1e-13)


def test_inverse_of_g1_prefix():
    f = NormalizedFunction(series(0, 1, -0.5, 0, 0))
    assert_coeffs(f.inverse(), [0, 1, 0.5, 0.5, 5 / 8], tol=1e-14)


def test_not_normalized_rejected():
    with pytest.raises(NotNormalized):
        NormalizedFunction(series(0, 2, 0))
    with pytest.raises(NotNormalized):
        NormalizedFunction(series(1, 1))


# ----------------------------------------------------------------------
# round-trip properties

def random_normalized(rng, order):
    c = np.zeros(order + 1, dtype=complex)
    c[1] = 1.0
    raw = rng.uniform(-1, 1, order - 1) + 1j * rng.uniform(-1, 1, order - 1)
    big = np.abs(raw) > 1
    raw[big] /= np.abs(raw[big])
    c[2:] = raw
    return NormalizedFunction(TruncatedSeries(c))


def test_compose_inverse_roundtrip_residual():
    rng = np.random.default_rng(10)
    target = identity(10).coeffs
    for _ in range(100):
        f = random_normalized(rng, 10)
        residual = np.abs(f.series.compose(f.inverse()).coeffs - target).max()
        assert residual <= 1e-10


def test_mul_div_roundtrip_residual():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a = TruncatedSeries(rng.uniform(-1, 1, 11) + 1j * rng.uniform(-1, 1, 11))
        t = rng.uniform(-1, 1, 11) + 1j * rng.uniform(-1, 1, 11)
        t[0] = t[0] / abs(t[0])  # unit modulus, away from zero
        b = TruncatedSeries(t)
        residual = np.abs(((a * b) / b).coeffs - a.coeffs).max()
        assert residual <= 1e-12


def test_exp_log_roundtrip_residual():
    rng = np.random.default_rng(12)
    for _ in range(100):
        c = rng.uniform(-1, 1, 11) + 1j * rng.uniform(-1, 1, 11)
        c[0] = 1.0
        s = TruncatedSeries(c)
        residual = np.abs(s.log().exp().coeffs - c).max()
        assert residual <= 1e-12


finite = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(finite, finite), min_size=2, max_size=10))
def test_exp_log_inverse_property(pairs):
    c = np.array([complex(re, im) for re, im in pairs])
    c[0] = 1.0
    s = TruncatedSeries(c)
    assert np.abs(s.log().exp().coeffs - c).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(finite, finite), min_size=1, max_size=10),
       st.lists(st.tuples(finite, finite), min_size=1, max_size=10))
def test_mul_div_inverse_property(sa, sb):
    a = TruncatedSeries([complex(re, im) for re, im in sa])
    bc = np.array([complex(re, im) for re, im in sb])
    bc[0] = 1.0
    b = TruncatedSeries(bc)
    n = min(a.order, b.order)
    assert np.abs(((a * b) / b).coeffs - a.coeffs[: n + 1]).max() <= 1e-12


# ----------------------------------------------------------------------
# coefficient-major kernels: a batch of columns equals each column alone.
# A batch of one rounds exactly like a column of a larger batch.  A 1-D
# series goes through np.dot instead of einsum and may round differently in
# the last bits, so it is compared to 1e-14 of its largest coefficient; the
# largest such deviation over 400 seeds of these draws is 1.6e-15 (div).

def random_batch(rng, order, n, head=None):
    """(order+1, n) coefficients in the unit disk, row 0 (and 1) pinned."""
    raw = rng.uniform(-1, 1, (order + 1, n)) + 1j * rng.uniform(-1, 1, (order + 1, n))
    big = np.abs(raw) > 1
    raw[big] /= np.abs(raw[big])
    for k, value in enumerate(head or ()):
        raw[k] = value
    return raw


KERNEL_CASES = {
    "mul": (kernels.mul, (None, None)),
    "div": (kernels.div, (None, (1.0,))),
    "exp": (kernels.exp, ((0.0,),)),
    "log": (kernels.log, ((1.0,),)),
    "antiderivative": (kernels.antiderivative, (None,)),
    "inverse": (kernels.inverse, ((0.0, 1.0),)),
}


@pytest.mark.parametrize("n", [1, 37])
@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_kernel_batch_equals_columns(name, n):
    kernel, heads = KERNEL_CASES[name]
    rng = np.random.default_rng([sorted(KERNEL_CASES).index(name), n])
    args = [random_batch(rng, 8, n, head) for head in heads]
    batched = kernel(*args)
    for j in range(n):
        np.testing.assert_array_equal(batched[:, j: j + 1],
                                      kernel(*(a[:, j: j + 1] for a in args)))
        column = kernel(*(a[:, j] for a in args))
        scale = max(1.0, np.abs(column).max())
        np.testing.assert_allclose(batched[:, j], column, atol=1e-14 * scale, rtol=0)


def test_mul_kernel_matches_convolve():
    rng = np.random.default_rng(21)
    a, b = random_batch(rng, 10, 25), random_batch(rng, 10, 25)
    got = kernels.mul(a, b)
    for j in range(25):
        want = np.convolve(a[:, j], b[:, j])[:11]   # reference only
        np.testing.assert_allclose(got[:, j], want, atol=1e-15, rtol=0)


# the residual grows with the order: up to 8.6e-13 at order 8 and 1.9e-11
# at order 10 over 2000 such draws; order 10 keeps the scalar test's bound
@pytest.mark.parametrize("order, tol", [(8, 1e-12), (10, 1e-10)])
def test_batched_inverse_roundtrip(order, tol):
    rng = np.random.default_rng(22)
    f = random_batch(rng, order, 50, (0.0, 1.0))
    inv = kernels.inverse(f)
    target = identity(order).coeffs
    for j in range(50):
        back = naive_compose_oracle(f[:, j], inv[:, j], order)
        assert np.abs(back - target).max() <= tol


def test_series_kernels_live_only_in_series_module():
    """Reductions that make up a series product stay in ozaki.series, so
    the kernels cannot split into a second copy unnoticed."""
    reduction = re.compile(r"\b(?:np|numpy)\.(?:einsum|convolve|dot)\b")
    package = Path(kernels.__file__).parent
    offenders = [f"{path.name}:{number}"
                 for path in sorted(package.glob("*.py")) if path.name != "series.py"
                 for number, line in enumerate(path.read_text().splitlines(), 1)
                 if reduction.search(line)]
    assert not offenders, f"series reductions outside series.py: {offenders}"


def test_members_are_built_only_by_the_member_solve():
    """The modules that build, check and report members call no
    TruncatedSeries arithmetic, so every single member, the extremal
    witnesses included, comes from solve_member and no second construction
    returns.  Sampled chunks read a2..a4 from the direct Schwarz formulas."""
    series_call = re.compile(r"(\w*)\.(?:pow|log|exp|compose)\(")
    numeric = {"np", "numpy", "math", "cmath"}
    package = Path(kernels.__file__).parent
    offenders = [f"{name}.py:{number}"
                 for name in ("classes", "functionals", "sampling", "ledger", "cli")
                 for number, line in enumerate(
                     (package / f"{name}.py").read_text().splitlines(), 1)
                 if any(m.group(1) not in numeric
                        for m in series_call.finditer(line))]
    assert not offenders, f"series arithmetic in the engine: {offenders}"
