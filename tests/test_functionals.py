import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskmean import (
    ComplexSeries,
    FamilySpec,
    FamilyVariant,
    FunctionalKind,
    NotNormalized,
    PhiVanishes,
    ball_coefficients,
    boundary_image,
    build,
    check_membership,
    class_radius,
    from_phi,
    functional_eval_direct,
    functional_series,
    harmonic_mean,
    identity_function,
    koebe_function,
    starlike_scan,
    sup_on_circle,
)
from diskmean.cli import _json_dump

U, P, M, N = FunctionalKind.U, FunctionalKind.P, FunctionalKind.M, FunctionalKind.N

ALL_KINDS = (U, P, M, N)


def test_n_weight_is_the_correctly_rounded_cube():
    # libm pow is 1 ulp off the cube for some of these degrees
    from diskmean.functionals import _KIND_WEIGHTS
    want = -np.array([float(j ** 3) for j in range(1, 10 ** 6)])
    assert np.array_equal(_KIND_WEIGHTS[N](np.arange(2.0, 10 ** 6 + 1)), want)


def test_bounds():
    assert U.bound == M.bound == N.bound == 1.0
    assert P.bound == 2.0


# ---------------------------------------------------------------------------
# from_phi
# ---------------------------------------------------------------------------

def test_from_phi_identity():
    fn = from_phi(ComplexSeries.one(8))
    f = fn.f_series()
    want = np.zeros(10, dtype=complex)
    want[1] = 1.0
    assert np.max(np.abs(f.coeffs - want)) <= 1e-15


def test_from_phi_koebe_recovers_f():
    fn = koebe_function(16)
    # f = z/(1-z)^2 = sum k z^k, exact to degree 17 from phi of order 16
    f = fn.f_series()
    want = np.arange(18, dtype=complex)
    assert np.max(np.abs(f.coeffs - want)) <= 1e-12


def test_f_series_is_built_once_and_kept():
    fn = from_phi(ball_coefficients(np.random.default_rng(4), 100))
    f = fn.f_series()
    assert fn.f_series() is f
    assert np.array_equal(f.coeffs, np.concatenate([[0], fn.phi.reciprocal().coeffs]))
    assert not f.coeffs.flags.writeable


def test_wrappers_of_one_phi_keep_their_own_f():
    phi = ball_coefficients(np.random.default_rng(5), 40)
    a, b = from_phi(phi), from_phi(phi)
    fa, fb = a.f_series(), b.f_series()
    assert fa is not fb
    assert np.array_equal(fa.coeffs, fb.coeffs)


def test_normalized_function_stays_immutable():
    fn = identity_function(4)
    fn.f_series()
    for name in ("x", "_f", "phi"):
        with pytest.raises(AttributeError):
            setattr(fn, name, 1)


def test_from_phi_matches_family_builder():
    fn = build(FamilySpec(FamilyVariant.EX31, n=1))
    assert fn.phi.coeffs[1] == 0.75
    assert fn.phi.coeffs[3] == 0.25


def test_from_phi_rejects_unnormalized():
    with pytest.raises(NotNormalized):
        from_phi(ComplexSeries([1.001, 0.5]))


# ---------------------------------------------------------------------------
# functional_series: coefficient forms
# ---------------------------------------------------------------------------

def test_series_M_on_budget_family():
    fn = build(FamilySpec(FamilyVariant.EX31, n=1))
    s = functional_series(M, fn).coeffs
    want = np.zeros(fn.phi.order + 1, dtype=complex)
    want[3] = 1.0  # (3-1)^2 * 1/4
    assert np.max(np.abs(s - want)) == 0.0


def test_series_U_koebe_is_minus_z_squared():
    s = functional_series(U, koebe_function(8)).coeffs
    want = np.zeros(9, dtype=complex)
    want[2] = -1.0
    assert np.max(np.abs(s - want)) == 0.0


def test_series_P_on_budget_family():
    fn = build(FamilySpec(FamilyVariant.EX34, n=1))
    s = functional_series(P, fn).coeffs
    # phi'' of 1 + (2/3) z + (1/3) z^3 is 2 z
    assert abs(s[0]) == 0.0
    assert abs(s[1] - 2.0) <= 1e-15
    assert np.max(np.abs(s[2:])) == 0.0


def test_series_N_identity_is_zero():
    s = functional_series(N, identity_function(8)).coeffs
    assert np.max(np.abs(s)) == 0.0


def test_series_UMN_start_at_degree_two():
    rng = np.random.default_rng(3)
    fn = from_phi(ball_coefficients(rng, 16))
    for kind in (U, M, N):
        c = functional_series(kind, fn).coeffs
        assert c[0] == 0.0 and c[1] == 0.0


# ---------------------------------------------------------------------------
# functional_eval_direct: literal-definition path
# ---------------------------------------------------------------------------

def test_direct_identity_zero():
    fn = identity_function(16)
    for z in (0.0, 0.3 + 0.2j, -0.7j):
        assert abs(functional_eval_direct(M, fn, z)) <= 1e-14


def test_direct_budget_family_M_at_half():
    fn = build(FamilySpec(FamilyVariant.EX31, n=1))
    assert abs(functional_eval_direct(M, fn, 0.5) - 0.125) <= 1e-12


def test_direct_koebe_U():
    fn = koebe_function()
    assert abs(functional_eval_direct(U, fn, 0.3j) - 0.09) <= 1e-12


def test_direct_order_zero():
    # f = z exactly: every functional is 0, with no division by zero
    for fn in (identity_function(0), from_phi(ComplexSeries([1.0]))):
        for kind in ALL_KINDS:
            assert functional_eval_direct(kind, fn, 0.5) == 0


def test_direct_takes_one_reciprocal_per_function(monkeypatch):
    calls = []
    reciprocal = ComplexSeries.reciprocal

    def counted(self):
        calls.append(self)
        return reciprocal(self)

    monkeypatch.setattr(ComplexSeries, "reciprocal", counted)
    fn = from_phi(ball_coefficients(np.random.default_rng(6), 200))
    pts = np.array([0.3, -0.5j, 0.2 + 0.6j])
    functional_eval_direct(P, fn, pts)
    assert calls == []
    for kind in (U, M, N, U):
        functional_eval_direct(kind, fn, pts)
    assert calls == [fn.phi]


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_direct_empty_points(kind):
    # no points: no vanishing test to fail, the same empty answer as the series
    fn = from_phi(ball_coefficients(np.random.default_rng(7), 40))
    pts = np.empty(0, dtype=np.complex128)
    out = functional_eval_direct(kind, fn, pts)
    assert out.shape == (0,)
    assert np.array_equal(out, functional_series(kind, fn).eval(pts))


def test_direct_phi_vanishes():
    fn = from_phi(ComplexSeries([1, -1, 0, 0]))
    with pytest.raises(PhiVanishes):
        functional_eval_direct(U, fn, 1.0 - 1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_dual_path_agreement(seed):
    rng = np.random.default_rng(seed)
    fn = from_phi(ball_coefficients(rng, 64, decay=0.3, mass=0.3))
    r = 0.95 * np.sqrt(rng.random(20))
    t = 2 * np.pi * rng.random(20)
    pts = r * np.exp(1j * t)
    for kind in ALL_KINDS:
        via_series = functional_series(kind, fn).eval(pts)
        via_direct = functional_eval_direct(kind, fn, pts)
        assert np.max(np.abs(via_series - via_direct)) <= 1e-9


@pytest.mark.parametrize("kind, order", [(U, 2 ** 17), (P, 2 ** 17), (M, 2 ** 17),
                                         (N, 2 ** 17), (U, 10 ** 6)],
                         ids=["U-2^17", "P-2^17", "M-2^17", "N-2^17", "U-10^6"])
def test_dual_path_agreement_ex32(kind, order):
    # the literal path rebuilds f = z/phi from all order + 1 coefficients
    fn = build(FamilySpec(FamilyVariant.EX32, order=order))
    rng = np.random.default_rng(order)
    pts = 0.95 * np.sqrt(rng.random(64)) * np.exp(2j * np.pi * rng.random(64))
    via_series = functional_series(kind, fn).eval(pts)
    via_direct = functional_eval_direct(kind, fn, pts)
    assert np.max(np.abs(via_series - via_direct)) <= 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_linearity_in_tail(seed):
    # functional(phi1 + t*(phi2 - 1)) = functional(phi1) + t*functional(phi2)
    rng = np.random.default_rng(seed)
    p1 = ball_coefficients(rng, 24, decay=0.5, mass=0.4)
    p2 = ball_coefficients(rng, 24, decay=0.5, mass=0.4)
    t = rng.uniform(-2, 2)
    tail2 = p2.coeffs - ComplexSeries.one(24).coeffs
    combo = from_phi(ComplexSeries(p1.coeffs + t * tail2))
    for kind in ALL_KINDS:
        lhs = functional_series(kind, combo).coeffs
        rhs = (functional_series(kind, from_phi(p1)).coeffs
               + t * functional_series(kind, from_phi(p2)).coeffs)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


# ---------------------------------------------------------------------------
# sup_on_circle
# ---------------------------------------------------------------------------

def test_sup_identity_zero():
    rep = sup_on_circle(M, identity_function(16), 0.5, 64)
    assert rep.extremal_value == 0.0
    assert rep.margin == 1.0


def test_sup_koebe_U_is_r_squared():
    rep = sup_on_circle(U, koebe_function(), 0.9, 1024)
    assert abs(rep.extremal_value - 0.81) <= 1e-10
    assert rep.extremal_angle == 0.0  # all angles tie; smallest wins


def test_sup_budget_family_M_tracks_r_cubed():
    fn = build(FamilySpec(FamilyVariant.EX31, n=1))
    rep = sup_on_circle(M, fn, 0.999, 4096)
    assert rep.extremal_value <= 1.0
    assert abs(rep.extremal_value - 0.999 ** 3) <= 1e-12


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("coeffs", [[1], [1, 0.5 - 0.25j]], ids=["1-coeff", "2-coeffs"])
def test_sup_short_phi_is_zero(coeffs, kind):
    # every functional starts at b_2
    assert sup_on_circle(kind, from_phi(ComplexSeries(coeffs)), 0.9, 64).extremal_value == 0.0


def test_sup_triangle_bound():
    rng = np.random.default_rng(11)
    fn = from_phi(ball_coefficients(rng, 32, decay=0.5, mass=0.8))
    from diskmean import coefficient_criterion
    for kind in ALL_KINDS:
        total = coefficient_criterion(kind, fn)
        for r in (0.5, 0.9, 0.999):
            rep = sup_on_circle(kind, fn, r, 512)
            assert rep.extremal_value <= total + 1e-9


@pytest.mark.parametrize("scan", [
    lambda fn, r, grid: sup_on_circle(U, fn, r, grid),
    lambda fn, r, grid: starlike_scan(fn, (r,), grid),
    boundary_image,
], ids=["sup_on_circle", "starlike_scan", "boundary_image"])
def test_sup_rejects_bad_args(scan):
    fn = identity_function(8)
    with pytest.raises(ValueError):
        scan(fn, 1.5, 64)
    with pytest.raises(ValueError):
        scan(fn, 0.5, 8)


def test_phi_on_circle_refuses_empty_radii():
    from diskmean.functionals import phi_on_circle
    with pytest.raises(ValueError, match="radii must not be empty"):
        phi_on_circle(identity_function(8), [], 64)


def test_sup_raises_on_phi_zero_inside():
    fn = from_phi(ComplexSeries([1, -1 / 0.5, 0, 0]))  # phi zero at z=0.5
    with pytest.raises(PhiVanishes):
        sup_on_circle(U, fn, 0.5, 64)


def _angle_sum_count(values):
    """Reference: the winding number as the sum of the step angles."""
    steps = np.angle(np.roll(values, -1) / values)
    return round(float(np.sum(steps)) / (2.0 * np.pi))


def test_zero_count_matches_angle_sum_on_random_polynomials():
    # 6000 polynomials of degree 1..8 with zeros at moduli 0.2..3, on grids
    # of 16 to 8192 points: coarse grids near a zero break the no-half-turn
    # rule, and the two forms still give the same integer
    from diskmean.functionals import zero_count
    rng = np.random.default_rng(6000)
    for _ in range(6000):
        degree = int(rng.integers(1, 9))
        roots = rng.uniform(0.2, 3.0, degree) * np.exp(2j * np.pi * rng.random(degree))
        grid = 1 << int(rng.integers(4, 14))
        z = np.exp(2j * np.pi * np.arange(grid) / grid)
        values = np.prod(z - roots[:, None], axis=0)
        assert zero_count(values) == _angle_sum_count(values), (roots, grid)


@pytest.mark.parametrize("phi, zeros", [
    # the mean of (1 + z/1.05)^4 and (1 - z/1.05)^4: two zeros at 0.435
    ((1 / 1.05) ** np.arange(5) * [1, 0, 6, 0, 1], 2),
    # the mean of Koebe and its quarter turn, 1 - (1 + i) z: one zero
    ([1, -1 - 1j], 1),
    # z/(1 + 3z), a pole at -1/3
    ([1, 3], 1),
    # 1 + 2z^2: two zeros at 2^-1/2
    ([1, 0, 2], 2),
], ids=["interior-pair", "koebe-quarter-turn", "pole", "two-z-squared"])
@pytest.mark.parametrize("r, grid", [(0.999, 4096), (0.999, 2048), (0.9, 64)])
def test_zero_count_matches_angle_sum_on_zero_pairs(phi, zeros, r, grid):
    from diskmean.functionals import phi_on_circle, zero_count
    _, values = phi_on_circle(from_phi(ComplexSeries(phi)), r, grid)
    assert zero_count(values) == _angle_sum_count(values) == zeros


def test_scan_report_json_fields():
    rep = sup_on_circle(U, koebe_function(), 0.5, 64)
    data = json.loads(_json_dump(rep))
    assert list(data.keys()) == [
        "kind", "radius", "grid_size", "extremal_value", "extremal_angle", "margin"]
    assert data["kind"] == "U"
    assert data["margin"] == rep.kind.bound - rep.extremal_value


# ---------------------------------------------------------------------------
# sup_on_circle on series longer than the grid (the folded scan)
# ---------------------------------------------------------------------------

FOLD_SOURCES = {
    "ex32@1e6": lambda: build(FamilySpec(FamilyVariant.EX32)),
    "ex32@4097": lambda: build(FamilySpec(FamilyVariant.EX32, order=4096)),
    "ex32@4098": lambda: build(FamilySpec(FamilyVariant.EX32, order=4097)),
    "ball@129": lambda: from_phi(ball_coefficients(np.random.default_rng(47), 128)),
    "ex34n5@2^16": lambda: build(FamilySpec(FamilyVariant.EX34, n=5, order=2 ** 16)),
    "ball@100003": lambda: from_phi(ball_coefficients(
        np.random.default_rng(53), 100_002, decay=0.99995)),
}


@pytest.fixture(scope="module", params=sorted(FOLD_SOURCES))
def fold_source(request):
    return FOLD_SOURCES[request.param]()


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_folded_scan_matches_materialized_series(fold_source, kind):
    series = functional_series(kind, fold_source)
    degree = np.arange(series.coeffs.size)
    for grid in (16, 64, 4096, 8192):
        theta = 2.0 * np.pi * np.arange(grid) / grid
        for r in (0.5, 0.9, 0.999):
            rep = sup_on_circle(kind, fold_source, r, grid)
            modulus = np.abs(series.on_circle(r, grid))
            top = float(np.max(modulus))
            scale = np.sum(np.abs(series.coeffs) * r ** degree)
            assert abs(rep.extremal_value - top) <= 1e-13 * scale, (grid, r)
            first = np.nonzero(modulus >= top - 1e-12)[0][0]
            assert rep.extremal_angle == theta[first], (grid, r)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_folded_scan_raises_on_phi_zero(kind):
    # phi = 1 - z/0.999 vanishes at the grid point z = 0.999
    c = np.zeros(5000, dtype=complex)
    c[0], c[1] = 1.0, -1.0 / 0.999
    with pytest.raises(PhiVanishes):
        sup_on_circle(kind, from_phi(ComplexSeries(c)), 0.999, 4096)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_folded_scan_rejects_bad_args(kind):
    fn = build(FamilySpec(FamilyVariant.EX32, order=4096))
    with pytest.raises(ValueError):
        sup_on_circle(kind, fn, 0.5, 8)
    for r in (0.0, 1.0, 1.5, -0.5):
        with pytest.raises(ValueError):
            sup_on_circle(kind, fn, r, 4096)


def test_folded_scan_memory_bounded():
    fn = build(FamilySpec(FamilyVariant.EX32))
    for kind in ALL_KINDS:
        tracemalloc.start()
        try:
            sup_on_circle(kind, fn, 0.999, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20, (kind, peak)


@pytest.mark.parametrize("source, grid", [
    (lambda: from_phi(ball_coefficients(np.random.default_rng(59), 128)), 4096),
    (lambda: build(FamilySpec(FamilyVariant.EX32, order=4096)), 8192),
], ids=["ball@129", "ex32@4097"])
def test_scans_never_call_eval(monkeypatch, source, grid):
    # every circle scan reads its values from on_circle alone, at any length
    fn = source()

    def refuse(self, z):
        raise AssertionError("eval called by a circle scan")

    monkeypatch.setattr(ComplexSeries, "eval", refuse)
    monkeypatch.setattr(ComplexSeries, "__call__", refuse)
    for kind in ALL_KINDS:
        check_membership(kind, fn, grid=grid)
    starlike_scan(fn, grid=grid)
    class_radius(M, fn, grid=grid)
    harmonic_mean(fn, fn)


def test_boundary_image_evaluates_only_its_closing_point(monkeypatch):
    fn = from_phi(ball_coefficients(np.random.default_rng(61), 128))
    calls = []
    plain = ComplexSeries.eval

    def record(self, z):
        calls.append(z)
        return plain(self, z)

    monkeypatch.setattr(ComplexSeries, "eval", record)
    points = boundary_image(fn, 0.9, 64)
    assert calls == [0.9 * np.exp(2j * np.pi)]
    assert abs(points[-1] - points[0]) <= 1e-12


# ---------------------------------------------------------------------------
# class-chain spot check (small version; the acceptance suite runs 200)
# ---------------------------------------------------------------------------

def test_class_chain_spot_check_small():
    rng = np.random.default_rng(2024)
    k = np.arange(2, 33, dtype=float)
    for _ in range(20):
        fn = from_phi(_bounded_n_sum(rng, 32))
        b = np.abs(fn.phi.coeffs[2:])
        assert np.sum((k - 1) ** 3 * b) <= 1.0 + 1e-12
        for kind, bound in ((M, 1.0), (P, 2.0), (U, 1.0)):
            rep = sup_on_circle(kind, fn, 0.999, 1024)
            assert rep.margin >= -1e-9, (kind, rep)


def _bounded_n_sum(rng, order):
    u = rng.uniform(-1, 1, order) + 1j * rng.uniform(-1, 1, order)
    b = u * 0.4 ** np.arange(1, order + 1)
    k = np.arange(2, order + 1, dtype=float)
    total = np.sum((k - 1) ** 3 * np.abs(b[1:]))
    b *= rng.uniform(0.2, 1.0) / total
    c = np.zeros(order + 1, dtype=complex)
    c[0] = 1.0
    c[1:] = b
    return ComplexSeries(c)
