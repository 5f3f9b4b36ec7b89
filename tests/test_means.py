import json

import numpy as np
import pytest

from diskmean import (
    ComplexSeries,
    DenominatorVanishes,
    FamilySpec,
    FamilyVariant,
    FunctionalKind,
    PhiVanishes,
    ball_coefficients,
    build,
    check_membership,
    from_phi,
    harmonic_mean,
    identity_function,
    koebe_function,
    verify_closure,
)
from diskmean.cli import main
from diskmean.functionals import phi_on_circle, zero_count
from diskmean.means import PROBE_GRID, PROBE_RADIUS, averaging_residual

U, M = FunctionalKind.U, FunctionalKind.M


def test_idempotence():
    f = koebe_function(32)
    out = harmonic_mean(f, f)
    assert np.array_equal(out.mean.phi.coeffs, f.phi.coeffs)


def test_symmetric_cancellation():
    f = from_phi(ComplexSeries([1, 1]))
    g = from_phi(ComplexSeries([1, -1]))
    out = harmonic_mean(f, g)
    assert np.array_equal(out.mean.phi.coeffs, np.array([1.0 + 0j, 0.0 + 0j]))


def test_average_with_identity():
    # mean of f = z and phi_g = 1 + z is phi = 1 + z/2, i.e. F = 2z/(2+z)
    f = identity_function(1)
    g = from_phi(ComplexSeries([1, 1]))
    out = harmonic_mean(f, g)
    assert np.array_equal(out.mean.phi.coeffs, np.array([1.0 + 0j, 0.5 + 0j]))


def test_commutativity():
    rng = np.random.default_rng(9)
    from diskmean import ball_coefficients
    f = from_phi(ball_coefficients(rng, 24, mass=0.4))
    g = from_phi(ball_coefficients(rng, 24, mass=0.4))
    ab = harmonic_mean(f, g).mean.phi.coeffs
    ba = harmonic_mean(g, f).mean.phi.coeffs
    assert np.array_equal(ab, ba)


def test_min_denominator_reported():
    f = identity_function(16)
    out = harmonic_mean(f, f)
    assert abs(out.min_denominator_modulus - 1.0) <= 1e-12


def test_denominator_vanishes_refused():
    # averaged phi = 1 - z/0.999 vanishes at the probe grid point theta = 0
    bad = from_phi(ComplexSeries([1, -1 / 0.999, 0, 0]))
    with pytest.raises(DenominatorVanishes):
        harmonic_mean(bad, bad)


def _interior_zero_pair():
    # (1 + z/1.05)^4 and (1 - z/1.05)^4 are zero-free in the disk; their
    # average 1 + 6w^2 + w^4 (w = z/1.05) vanishes twice at |z| = 0.435
    c = (1 / 1.05) ** np.arange(5) * np.array([1, 4, 6, 4, 1])
    return from_phi(ComplexSeries(c)), from_phi(ComplexSeries(c * (-1) ** np.arange(5)))


@pytest.mark.parametrize("pair, zeros", [
    (_interior_zero_pair, 2),
    # phi_F = 1 - (1 + i) z vanishes at |z| = 1/sqrt(2)
    (lambda: (koebe_function(), from_phi(ComplexSeries([1, -2j, -1]))), 1),
    # f = z/(1 + 3z) has a pole at -1/3 itself
    (lambda: (from_phi(ComplexSeries([1, 3])),) * 2, 1),
], ids=["interior-pair", "koebe-phi", "pole-self"])
def test_zeros_inside_probe_circle_refused(pair, zeros):
    f, g = pair()
    with pytest.raises(DenominatorVanishes, match=f"zero count {zeros} inside"):
        harmonic_mean(f, g)
    # zero_count agrees with the count from the unwrapped phase
    _, phiv = phi_on_circle(from_phi(ComplexSeries(_padded_mean(f, g))),
                            PROBE_RADIUS, PROBE_GRID)
    phase = np.unwrap(np.angle(np.append(phiv, phiv[0])))
    assert zero_count(phiv) == round(float(np.sum(np.diff(phase))) / (2 * np.pi)) == zeros


@pytest.mark.parametrize("order", [32, 128])
def test_koebe_mean_accepted(order):
    # (1 - z)^2 has its double zero on |z| = 1, outside the probe circle,
    # where its minimum (1 - 0.999)^2 = 1e-6 is only a diagnostic
    f = koebe_function(order)
    out = harmonic_mean(f, f)
    assert abs(out.min_denominator_modulus - 1e-6) <= 1e-12


def test_closure_residual_trivial():
    f = koebe_function(32)
    assert verify_closure(U, f, f) == 0.0


def _padded_mean(f, g):
    """(phi_f + phi_g)/2 by its definition: both added to zeros, then halved."""
    total = np.zeros(max(f.phi.coeffs.size, g.phi.coeffs.size), dtype=np.complex128)
    for c in (f.phi.coeffs, g.phi.coeffs):
        total[: c.size] += c
    total *= 0.5
    return total


def _signed_zeros(size):
    # -0.0 in either part, where adding to zeros gives +0.0
    c = np.full(size, complex(-0.0, -0.0))
    c[0] = 1.0
    c[1::3] = [complex(0.1 / k, -0.0) for k in range(1, c[1::3].size + 1)]
    return from_phi(ComplexSeries(c))


@pytest.mark.parametrize("pair", [
    lambda: (from_phi(ball_coefficients(np.random.default_rng(3), 40)),
             from_phi(ball_coefficients(np.random.default_rng(4), 40))),
    lambda: (from_phi(ball_coefficients(np.random.default_rng(5), 60)),
             from_phi(ball_coefficients(np.random.default_rng(6), 20))),
    lambda: (_signed_zeros(30), _signed_zeros(30)),
    lambda: (_signed_zeros(30), _signed_zeros(12)),
    lambda: (build(FamilySpec(FamilyVariant.EX32, order=2 ** 17)),
             build(FamilySpec(FamilyVariant.EX31, n=1))),
], ids=["equal-orders", "unequal-orders", "signed-zeros", "signed-zeros-unequal",
        "ex32@2^17-ex31"])
def test_mean_bits_equal_padded_sum(pair):
    f, g = pair()
    # each pair both ways round: the longer series first and the shorter first
    for a, b in ((f, g), (g, f)):
        got = harmonic_mean(a, b).mean.phi.coeffs
        assert got.dtype == np.complex128
        assert got.tobytes() == _padded_mean(a, b).tobytes()
        assert not got.flags.writeable
        assert not np.shares_memory(got, a.phi.coeffs)
        assert not np.shares_memory(got, b.phi.coeffs)


def _random_phi(size, seed):
    # phi(0) = 1, a random tail, and -0.0 in both parts at every fifth degree
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    c[5::5] = complex(-0.0, -0.0)
    c[0] = 1.0
    return from_phi(ComplexSeries(c))


@pytest.mark.parametrize("short", [2 ** 14 - 1, 2 ** 14, 2 ** 14 + 1])
def test_blocked_mean_bits_equal_padded_sum(short):
    # the mean is built in blocks of 2^14 coefficients; the longer series,
    # 3 * 2^14 + 5, ends in a partial block
    f, g = _random_phi(3 * 2 ** 14 + 5, 1), _random_phi(short, 2)
    for a, b in ((f, g), (g, f)):
        got = ComplexSeries.average(a.phi, b.phi).coeffs
        assert got.tobytes() == _padded_mean(a, b).tobytes()
        assert not got.flags.writeable


@pytest.mark.parametrize("short, where", [(3 * 2 ** 14 + 5, 2 ** 14 + 7),
                                          (3 * 2 ** 14 + 5, 3 * 2 ** 14 + 4),
                                          (2 ** 14 + 9, 2 ** 14 + 8)],
                         ids=["second-block", "last-block", "end-of-short"])
def test_overflow_past_the_first_block_refused(short, where):
    # each coefficient is finite; only the sum at one degree past the first
    # block overflows, and its block's check refuses the mean
    long = np.zeros(3 * 2 ** 14 + 5, dtype=np.complex128)
    long[0], long[where] = 1.0, 1e308
    f, g = from_phi(ComplexSeries(long)), from_phi(ComplexSeries(long[:short]))
    with pytest.warns(RuntimeWarning):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            harmonic_mean(f, g)


def test_overflowing_mean_refused():
    # each coefficient is finite, but their sum overflows to inf (and the
    # halving meets inf * 0): numpy warns of both before the refusal
    f = from_phi(ComplexSeries([1, 1e308, 1e308]))
    with pytest.warns(RuntimeWarning):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            harmonic_mean(f, f)


def test_mean_of_unequal_orders_keeps_longer_tail():
    f = from_phi(ComplexSeries([1, 0.2]))
    g = from_phi(ComplexSeries([1, 0, 0, 0.1]))
    out = harmonic_mean(f, g)
    want = np.array([1, 0.1, 0, 0.05], dtype=complex)
    assert np.array_equal(out.mean.phi.coeffs, want)
    for kind in FunctionalKind:
        assert verify_closure(kind, f, g) <= 1e-12


def test_closure_residual_budget_pair():
    f = build(FamilySpec(FamilyVariant.EX31, n=1))
    g = build(FamilySpec(FamilyVariant.EX31, n=2))
    assert verify_closure(M, f, g) <= 1e-10


def test_closure_residual_ex32_with_koebe():
    # ex32 at order 10^6: the eval cut reads only the rows that count at
    # |z| <= 0.95, so 500 points take tens of milliseconds, not seconds
    f = build(FamilySpec(FamilyVariant.EX32))
    assert verify_closure(M, f, koebe_function(), samples=500) <= 1e-10


def test_averaging_residual_matches_verify_closure():
    f = build(FamilySpec(FamilyVariant.EX31, n=1))
    g = build(FamilySpec(FamilyVariant.EX32, order=300))
    mean = harmonic_mean(f, g).mean
    for kind in FunctionalKind:
        for seed in (0, 9):
            assert (averaging_residual(kind, f, g, mean, 200, seed)
                    == verify_closure(kind, f, g, 200, seed))


@pytest.mark.parametrize("samples", [0, -3])
def test_closure_residual_refuses_fewer_than_one_sample(samples):
    f = build(FamilySpec(FamilyVariant.EX31, n=1))
    g = build(FamilySpec(FamilyVariant.EX31, n=2))
    mean = harmonic_mean(f, g).mean
    with pytest.raises(ValueError, match=r"^samples must be >= 1$"):
        averaging_residual(M, f, g, mean, samples)
    with pytest.raises(ValueError, match=r"^samples must be >= 1$"):
        verify_closure(M, f, g, samples)


def test_cli_mean_builds_the_mean_once(monkeypatch, capsys):
    built = []

    def counted(f, g):
        built.append((f, g))
        return harmonic_mean(f, g)

    monkeypatch.setattr("diskmean.cli.harmonic_mean", counted)
    monkeypatch.setattr("diskmean.means.harmonic_mean", counted)
    assert main(["mean", "ex31:n=1", "ex31:n=2", "--class", "M"]) == 0
    assert len(built) == 1
    assert json.loads(capsys.readouterr().out)["averaging_residual"] <= 1e-10


def test_closure_U_pair_and_membership():
    f = from_phi(ComplexSeries([1, 1, 0, 0]))
    g = from_phi(ComplexSeries([1, 0, 0.25, 0]))
    assert verify_closure(U, f, g) <= 1e-10
    mean = harmonic_mean(f, g).mean
    assert check_membership(U, mean).is_member


def test_averaging_identity_coefficientwise():
    rng = np.random.default_rng(17)
    from diskmean import ball_coefficients, functional_series
    f = from_phi(ball_coefficients(rng, 32, mass=0.5))
    g = from_phi(ball_coefficients(rng, 32, mass=0.5))
    mean = harmonic_mean(f, g).mean
    for kind in FunctionalKind:
        lhs = functional_series(kind, mean).coeffs
        rhs = 0.5 * (functional_series(kind, f).coeffs
                     + functional_series(kind, g).coeffs)
        assert np.max(np.abs(lhs - rhs)) <= 1e-15


def test_mean_result_json(capsys):
    assert main(["mean", "identity", "identity", "--class", "M", "--order", "8"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert list(data.keys()) == ["phi_coefficients", "min_denominator_modulus",
                                 "averaging_residual", "membership"]
    assert data["phi_coefficients"][0] == [1.0, 0.0]


def _ex32_with(variant, n):
    return (build(FamilySpec(FamilyVariant.EX32, order=2 ** 17)),
            build(FamilySpec(FamilyVariant(variant), n=n)))


@pytest.mark.parametrize("pair", [
    lambda: _ex32_with("ex31", 1), lambda: _ex32_with("ex31", 2),
    lambda: _ex32_with("ex34", 1), lambda: _ex32_with("ex34", 3),
    _interior_zero_pair,
    lambda: (koebe_function(), build(FamilySpec(FamilyVariant.EX31, n=1))),
], ids=["ex32-ex31:n=1", "ex32-ex31:n=2", "ex32-ex34:n=1", "ex32-ex34:n=3",
        "interior-pair", "koebe-ex31"])
def test_probe_by_linearity_matches_fold_of_mean(monkeypatch, pair):
    # the values harmonic_mean tests, the parents' values averaged, against
    # the fold of the mean's own coefficients
    f, g = pair()
    seen = []

    def recorded(values):
        seen.append(values)
        return zero_count(values)

    monkeypatch.setattr("diskmean.means.zero_count", recorded)
    want = ComplexSeries(_padded_mean(f, g)).on_circle(PROBE_RADIUS, PROBE_GRID)
    zeros = zero_count(want)
    if zeros:
        with pytest.raises(DenominatorVanishes, match=f"zero count {zeros} inside"):
            harmonic_mean(f, g)
    else:
        least = harmonic_mean(f, g).min_denominator_modulus
        assert least == float(np.min(np.abs(seen[0])))
        assert abs(least - np.min(np.abs(want))) <= 1e-14 * np.max(np.abs(want))
    (got,) = seen
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    assert zero_count(got) == zeros


def test_parent_vanishing_on_probe_circle_accepted():
    # 1 - z/0.999 vanishes at the probe grid point theta = 0; its mean with
    # identity, 1 - z/1.998, stays at least 1/2 from zero on the circle
    bad = from_phi(ComplexSeries([1, -1 / 0.999]))
    with pytest.raises(PhiVanishes):
        phi_on_circle(bad, PROBE_RADIUS, PROBE_GRID)
    for f, g in ((bad, identity_function(1)), (identity_function(1), bad)):
        out = harmonic_mean(f, g)
        assert np.array_equal(out.mean.phi.coeffs, [1, -0.5 / 0.999])
        assert abs(out.min_denominator_modulus - 0.5) <= 1e-15


def test_second_mean_reads_the_long_parents_kept_fold(monkeypatch):
    # a fresh copy of ex32 at 2^17 starts with nothing kept
    coeffs = build(FamilySpec(FamilyVariant.EX32, order=2 ** 17)).phi.coeffs
    f = from_phi(ComplexSeries(coeffs))
    g = build(FamilySpec(FamilyVariant.EX31, n=1))
    key = ((PROBE_RADIUS,), PROBE_GRID, 0)
    miss = harmonic_mean(f, g)
    (kept,) = [v for k, v in f.phi._sums if k == key]
    assert kept.nbytes == 16 * PROBE_GRID

    def refold(*args):
        raise AssertionError("the kept fold was computed again")

    monkeypatch.setattr("diskmean.series._binomial_moments", refold)
    hit = harmonic_mean(g, f)
    monkeypatch.undo()
    assert [v for k, v in f.phi._sums if k == key][0] is kept
    assert hit.min_denominator_modulus == miss.min_denominator_modulus
    assert hit.mean.phi.coeffs.tobytes() == miss.mean.phi.coeffs.tobytes()
    # and a cold parent gives the bits of the warm one
    cold = harmonic_mean(from_phi(ComplexSeries(coeffs)), g)
    assert cold.min_denominator_modulus == hit.min_denominator_modulus
