"""Ledger checks, randomized bound search, and batch/scalar agreement."""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from blaschke_oracle import BlaschkeSpec, schwarz_from_blaschke, spec_from_batch
from ozaki.classes import (ClassLabel, SchwarzCoeffs, build_member,
                           caratheodory_array, solve_member)
from ozaki.cli import main, run
from ozaki.functionals import (FUNCTIONAL_VALUES, CoeffTriple, evaluate,
                               full_report, inverse_crosscheck)
from ozaki.ledger import LEDGER, check_extremals, entries_for
from ozaki.sampling import (_CHUNK, _TILE, STAT_NAMES, SampleConfig,
                            _check_chunk, _check_members, _draw_batch, _members,
                            _merge, _schwarz_coeffs, blaschke_product,
                            sample_and_check)

F, G = ClassLabel.F, ClassLabel.G


def batch_member(label, w):
    """Members for the Schwarz columns of w, solved on the rows of w and
    stacked coefficient-major."""
    rows = solve_member(label, caratheodory_array(list(w)))
    return np.array(np.broadcast_arrays(*rows), dtype=complex)


def batch_values(f):
    """Every named functional per column of f, and the inverse cross-check."""
    report = evaluate(CoeffTriple(f[2], f[3], f[4]))
    crosscheck = inverse_crosscheck(f, report)
    return {name: value(report) for name, value in FUNCTIONAL_VALUES.items()}, crosscheck


# ----------------------------------------------------------------------
# ledger structure and sharpness checks

def test_ledger_has_thirteen_entries():
    assert len(LEDGER) == 13
    assert len(entries_for(F)) == 7
    assert len(entries_for(G)) == 6
    sides = sum(len(e.checks) for e in LEDGER)
    assert sides == 15


def test_ledger_values():
    by = {(e.label, e.functional): e for e in LEDGER}
    t21f = by[(F, "T21_log")]
    assert [(c.side, c.bound, c.witness) for c in t21f.checks] == [
        ("lower", Fraction(-1, 16), "f2"), ("upper", Fraction(95, 256), "f1")]
    assert by[(G, "Gamma3_abs")].checks[0].bound == Fraction(5, 24)
    assert by[(F, "diff_Gamma")].checks[0].bound == Fraction(25, 16)
    assert by[(G, "S4_abs")].checks[0].witness == "g1"


def test_extremal_checks_vanish():
    rows = check_extremals()
    assert len(rows) == 15
    for row in rows:
        assert abs(row.residual) <= 1e-12, row
    # spot values
    by = {(r.label, r.functional, r.side): r for r in rows}
    assert by[(F, "T21_log", "upper")].computed == pytest.approx(95 / 256)
    assert by[(G, "S4_abs", "upper")].computed == pytest.approx(6.0)
    assert by[(F, "Gamma2_abs", "upper")].computed == pytest.approx(11 / 16)


def test_extremal_checks_filter_by_class():
    rows = check_extremals(labels=(G,))
    assert {r.label for r in rows} == {G}
    assert len(rows) == 7


# ----------------------------------------------------------------------
# batch pipeline vs scalar construction

def test_batch_rows_match_scalar_path():
    rng = np.random.default_rng(3)
    batch = _draw_batch(rng, 200, 3)
    w = _schwarz_coeffs(batch, 8)
    for label in (F, G):
        f = batch_member(label, w)
        values, _ = batch_values(f)
        for i in range(0, 200, 7):
            spec = spec_from_batch(batch, i)
            ws = schwarz_from_blaschke(spec, 8)
            np.testing.assert_allclose(np.asarray(ws.c), w[1:, i], atol=1e-13)
            m = build_member(label, ws, 8)
            np.testing.assert_allclose(m.coeffs, f[:, i], atol=1e-12)
            r = full_report(m)
            assert values["T21_log"][i] == pytest.approx(r.T21_log, abs=1e-12)
            assert values["Gamma3_abs"][i] == pytest.approx(abs(r.Gamma3), abs=1e-12)
            assert values["diff_A"][i] == pytest.approx(r.diff_A, abs=1e-12)
            assert values["S4_abs"][i] == pytest.approx(abs(r.S4), abs=1e-12)


@pytest.mark.parametrize("label", [F, G])
def test_sampled_chunks_match_the_member_solve(label):
    """The sampler's direct formulas and the member solve of the same draw
    check each other, with and without Blaschke zeros."""
    for seed, max_zeros in zip(np.random.SeedSequence(2718).spawn(3), (3, 0, 3)):
        batch = _draw_batch(np.random.default_rng(seed), _CHUNK, max_zeros)
        direct = _members(label, batch)
        solved = batch_member(label, _schwarz_coeffs(batch, 4))[:5]
        np.testing.assert_allclose(direct, solved, rtol=0, atol=1e-13)


def dense_draw(rng, n, max_zeros):
    """The draw with every Blaschke zero expanded, read or not: the same
    generator calls in the same order as ``_draw_batch``."""
    k = max(max_zeros, 1)
    cat = rng.uniform(size=n)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=(n, 2))
    counts = rng.integers(0, max_zeros + 1, size=(n, 2))
    near_counts = rng.integers(1, k + 1, size=n)
    r2 = rng.uniform(size=(n, 2, k))
    ang = rng.uniform(0.0, 2.0 * np.pi, size=(n, 2, k))
    mix_u = rng.uniform(size=n)
    weight = rng.uniform(size=n)
    pure = cat < 0.10
    near = (~pure) & (cat < 0.20)
    counts[pure, 0] = 0
    if max_zeros > 0:
        counts[near, 0] = near_counts[near]
    r2[near, 0, :] = 0.81 + (1.0 - 0.81) * r2[near, 0, :]
    zeros = np.sqrt(r2) * np.exp(1j * ang)
    is_mix = ~(pure | near) & (mix_u < 0.25)
    weight = np.where(is_mix, weight, 1.0)
    counts[:, 1] = np.where(is_mix, counts[:, 1], 0)
    return theta, zeros, counts, is_mix, weight


@pytest.mark.parametrize("max_zeros", [0, 1, 3, 5])
def test_draw_expands_only_the_zeros_it_reads(max_zeros):
    """Every value read from a draw is bitwise the dense draw's; the zeros
    past a product's count are never read and stay 0."""
    for n, seed in itertools.product((1, 5000, _CHUNK),
                                     np.random.SeedSequence(1901).spawn(2)):
        batch = _draw_batch(np.random.default_rng(seed), n, max_zeros)
        theta, zeros, counts, is_mix, weight = dense_draw(
            np.random.default_rng(seed), n, max_zeros)
        for got, want in ((batch.theta, theta), (batch.counts, counts),
                          (batch.is_mix, is_mix), (batch.weight, weight)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        active = np.arange(zeros.shape[2]) < counts[:, :, None]
        assert batch.zeros[active].tobytes() == zeros[active].tobytes()
        inactive = batch.zeros[~active]
        assert inactive.tobytes() == np.zeros_like(inactive).tobytes()


def all_columns_schwarz(batch, order):
    """Both products expanded for every member, the second one kept only
    for mixtures."""
    b1, b2 = (blaschke_product(batch.theta[:, slot], batch.zeros[:, slot, :].T,
                               batch.counts[:, slot], order) for slot in (0, 1))
    lam = batch.weight
    w = np.zeros((order + 1,) + lam.shape, dtype=np.complex128)
    w[1:] = lam * b1 + np.where(batch.is_mix, (1.0 - lam) * b2, 0.0)
    return w


def test_second_product_is_expanded_only_for_mixtures():
    for seed, max_zeros in zip(np.random.SeedSequence(1902).spawn(3), (3, 0, 1)):
        batch = _draw_batch(np.random.default_rng(seed), 5000, max_zeros)
        unmixed = batch[np.flatnonzero(~batch.is_mix)]
        for sub, order in ((batch, 3), (batch, 8), (unmixed, 3)):
            got = _schwarz_coeffs(sub, order)
            assert got.tobytes() == all_columns_schwarz(sub, order).tobytes()


def float_bits(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("label", [F, G])
def test_tiles_change_nothing(label):
    """A chunk checked tile by tile merges to bitwise the check of the whole
    chunk at once, whether or not its size is a multiple of the tile.  At an
    infinitely negative tolerance every member counts as a violation of every
    side, so the tiles hold each member of the chunk once."""
    sides = tuple((e.functional, chk) for e in entries_for(label)
                  for chk in e.checks)
    seeds = np.random.SeedSequence(1903).spawn(4)
    for seed, size in zip(seeds, (_CHUNK, 1696, 1, 5000)):
        batch = _draw_batch(np.random.default_rng(seed), size, 3)
        for tol in (1e-9, -math.inf):
            tiles = _check_chunk(label, seed, size, 3, sides, tol)
            assert len(tiles) == -(-size // _TILE)
            mins, maxs, violations, crosscheck = _merge(tiles)
            whole = _check_members(_members(label, batch), sides, tol)
            assert float_bits(mins) == float_bits(whole[0])
            assert float_bits(maxs) == float_bits(whole[1])
            assert violations == whole[2]
            assert float_bits([crosscheck]) == float_bits([whole[3]])
        assert violations == [size] * len(sides)


def test_zero_schwarz_row_gives_identity_function():
    w = np.zeros((9, 1), dtype=complex)
    f = batch_member(G, w)
    want = np.zeros(9)
    want[1] = 1.0
    np.testing.assert_allclose(f[:, 0], want, atol=0)
    values, _ = batch_values(f)
    for name in STAT_NAMES:
        assert values[name][0] == 0.0
    # the identity sits strictly inside every bound
    for entry in entries_for(G):
        for chk in entry.checks:
            v = values[entry.functional][0]
            if chk.side == "upper":
                assert v < float(chk.bound)
            else:
                assert v > float(chk.bound)


def test_identity_member_within_bounds_scalar_route():
    m = build_member(G, SchwarzCoeffs((0.0, 0.0, 0.0)), 8)
    r = full_report(m)
    assert r.a2 == 0 and r.a3 == 0 and r.a4 == 0
    assert r.T21_log == 0.0


# ----------------------------------------------------------------------
# sampling harness

def test_sample_config_validation():
    with pytest.raises(ValueError):
        SampleConfig(F, 0)
    with pytest.raises(ValueError):
        SampleConfig(F, 10, violation_tolerance=0.0)


def test_negative_seed_is_rejected_by_name(capsys):
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        SampleConfig(F, 10, seed=-1)
    assert main(["sample", "--class", "F", "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "ozaki: seed must be >= 0, got -1\n"
    assert SampleConfig(F, 10, seed=0).seed == 0


def test_sample_class_g_is_clean():
    rep = sample_and_check(SampleConfig(G, 20000, seed=9))
    assert rep.ok
    assert rep.total_violations == 0
    assert rep.worst_margin <= 1e-9
    assert rep.inverse_crosscheck_residual <= 1e-10
    # extremal injection makes every bounded functional attain its bound
    for chk in rep.checks:
        assert abs(chk.margin) <= 1e-10, chk


def test_sample_report_stats_structure():
    rep = sample_and_check(SampleConfig(G, 2000, seed=1))
    assert tuple(name for name, _, _ in rep.stats) == STAT_NAMES
    for name, lo, hi in rep.stats:
        assert lo <= hi


def test_sample_seed_reproducibility():
    a = sample_and_check(SampleConfig(G, 5000, seed=77))
    b = sample_and_check(SampleConfig(G, 5000, seed=77))
    assert a == b
    c = sample_and_check(SampleConfig(G, 5000, seed=78))
    assert c != a


def test_sample_thread_count_does_not_change_results(monkeypatch):
    base = sample_and_check(SampleConfig(G, 40000, seed=5))
    monkeypatch.setenv("OZAKI_THREADS", "4")
    threaded = sample_and_check(SampleConfig(G, 40000, seed=5))
    assert base == threaded


def test_sample_zero_free_products_only():
    rep = sample_and_check(SampleConfig(G, 1000, seed=3,
                                        blaschke_max_zeros=0))
    assert rep.ok


def test_sample_without_extremals():
    rep = sample_and_check(SampleConfig(G, 2000, seed=2,
                                        include_extremals=False))
    assert not rep.config.include_extremals
    assert rep.ok
    by = {(c.functional, c.side): c for c in rep.checks}
    # pure-rotation draws are rotations of g1 and still attain its sharp
    # values, but the T21 lower witness needs a double zero at the origin,
    # which random draws never hit exactly
    assert abs(by[("S4_abs", "upper")].margin) <= 1e-12
    assert by[("T21_log", "lower")].margin < -1e-6


def test_lower_side_violation_is_counted():
    """The f2 witness sits on the class-F T21 lower bound -1/16; a column
    with a2 = 0 and a3 = 0.6 has T21 = -0.09, below it."""
    sides = tuple((e.functional, chk) for e in entries_for(F)
                  for chk in e.checks)
    lower = [i for i, (name, chk) in enumerate(sides)
             if name == "T21_log" and chk.side == "lower"]
    assert len(lower) == 1
    block = np.zeros((5, 2), dtype=np.complex128)
    block[1] = 1.0
    block[3] = (0.5, 0.6)
    _, _, violations, _ = _check_members(block, sides, 1e-9)
    assert violations[lower[0]] == 1
    _, _, violations, _ = _check_members(block[:, :1], sides, 1e-9)
    assert violations[lower[0]] == 0


def test_lower_side_margin_on_its_bound_prints_zero():
    """The f2 witness attains the lower bound exactly: the margin is +0."""
    code, text = run(["sample", "--class", "F", "--samples", "1"])
    check = [c for c in json.loads(text)["payload"]["checks"]
             if c["functional"] == "T21_log" and c["side"] == "lower"][0]
    assert code == 0 and check["margin"] == 0
    assert '"margin": 0,' in text and '"margin": -0' not in text
    code, text = run(["sample", "--class", "F", "--samples", "1",
                      "--format", "csv"])
    row = [ln for ln in text.splitlines() if ln.startswith("T21_log_lower,")]
    assert code == 0 and row[0].split(",")[-1] == "0"


# ----------------------------------------------------------------------
# the class F Toeplitz upper bound is attainable beyond its tabulated value

def test_toeplitz_upper_bound_counterexample():
    """The tabulated upper bound 95/256 is attained at f1 but is not the
    class maximum: the single-zero Blaschke member with real zero
    c = 2*sqrt(29)/11 reaches exactly 45/121 > 95/256."""
    c = 2.0 * math.sqrt(29.0) / 11.0
    w = schwarz_from_blaschke(BlaschkeSpec(rotation=0.0, zeros=(c,)), 8)
    r = full_report(build_member(F, w, 8))
    assert r.T21_log == pytest.approx(45 / 121, abs=1e-12)
    assert r.T21_log > 95 / 256 + 7e-4


def test_sample_class_f_detects_toeplitz_overshoot():
    """With the near-boundary sampler bias, class F draws land in the region
    where T21 exceeds 95/256, so the harness must report violations."""
    rep = sample_and_check(SampleConfig(F, 100000, seed=42))
    assert not rep.ok
    by = {(c.functional, c.side): c for c in rep.checks}
    over = by[("T21_log", "upper")]
    assert over.violations > 0
    assert 0 < over.margin <= 45 / 121 - 95 / 256 + 1e-12
    # every other bound holds with extremal-exact attainment
    for key, chk in by.items():
        if key != ("T21_log", "upper"):
            assert abs(chk.margin) <= 1e-10, chk
            assert chk.violations == 0
