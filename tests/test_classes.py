import functools
import json
import math
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from diskmean import (
    ComplexSeries,
    FamilySpec,
    FamilyVariant,
    FunctionalKind,
    PhiVanishes,
    ball_coefficients,
    build,
    check_membership,
    class_radius,
    coefficient_criterion,
    from_phi,
    identity_function,
    koebe_function,
    starlike_scan,
    sup_on_circle,
)
from diskmean.classes import FAIL_NUMERIC, MEMBER_BY_COEFFICIENT, MEMBER_NUMERIC
from diskmean.families import boundary_image
from diskmean.cli import _json_dump
from diskmean.functionals import _KIND_WEIGHTS, MARGIN_TOL, grid_min, scan_report, zero_count
from diskmean.series import _binomial_moments, _forward_differences, circle_angles

U, P, M, N = (FunctionalKind.U, FunctionalKind.P,
              FunctionalKind.M, FunctionalKind.N)


# ---------------------------------------------------------------------------
# coefficient_criterion
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 11))
def test_criterion_M_budget_family_exact_one(n):
    fn = build(FamilySpec(FamilyVariant.EX31, n=n))
    assert coefficient_criterion(M, fn) == 1.0


def test_criterion_identity_zero():
    assert coefficient_criterion(M, identity_function(16)) == 0.0


def test_criterion_N_koebe():
    # phi = (1-z)^2 has b_2 = 1, so the cubic-weight sum is (2-1)^3 * 1
    assert coefficient_criterion(N, koebe_function(16)) == 1.0


def test_criterion_P_weights():
    fn = from_phi(ComplexSeries([1, 0, 0.5, 0.25]))
    # k(k-1) weights: 2*1*0.5 + 3*2*0.25
    assert abs(coefficient_criterion(P, fn) - 2.5) <= 1e-15


def _criterion_by_blocks(kind, f):
    # the sum before the moment form: term by term in blocks of 2^15 terms
    b = f.phi.coeffs
    total = 0.0
    for start in range(2, b.size, 1 << 15):
        stop = min(start + (1 << 15), b.size)
        w = np.abs(_KIND_WEIGHTS[kind](np.arange(float(start), stop)))
        w *= np.abs(b[start:stop])
        total += float(np.sum(w))
    return total


@pytest.mark.parametrize("size", [1, 2, 3, 4, 17, 129, 1000, 4095, 4096])
def test_criterion_first_row_bit_identical_to_block_sum(size):
    rng = np.random.default_rng(size)
    c = rng.normal(size=size) + 1j * rng.normal(size=size)
    c[0] = 1.0
    fn = from_phi(ComplexSeries(c))
    for kind in (U, P, M, N):
        assert coefficient_criterion(kind, fn) == _criterion_by_blocks(kind, fn), kind


@pytest.mark.parametrize("n", range(1, 11))
def test_criterion_budget_families_exact_past_the_first_row(n):
    # one term at k = 2n + 1 in the first row; the full rows and the
    # partial last one add exactly 0
    ex31 = build(FamilySpec(FamilyVariant.EX31, n=n, order=70000))
    ex34 = build(FamilySpec(FamilyVariant.EX34, n=n, order=70000))
    assert coefficient_criterion(M, ex31) == 1.0
    assert coefficient_criterion(P, ex34) == 2.0


# the ex33 sources of the benchmark's catalog (bench/workloads.py)
_CATALOG_EX33 = [(n, frac * (n - 2) / (n - 1), beta) for n in (3, 4, 5, 6, 8)
                 for frac in (0.5, 1.0) for beta in (0.3, 1.2)]


@pytest.mark.parametrize("n, b, beta", _CATALOG_EX33)
def test_criterion_ex33_long_equals_default_order(n, b, beta):
    long, short = (build(FamilySpec(FamilyVariant.EX33, n=n, b=b, beta=beta, order=order))
                   for order in (70000, 128))
    for kind in (U, P, M, N):
        assert coefficient_criterion(kind, long) == coefficient_criterion(kind, short)


@pytest.mark.parametrize("order", [10 ** 6, 2 ** 17 + 5, 5000])
def test_criterion_ex32_within_four_eps_of_exact_sum(order):
    b = _ex32(order).phi.coeffs
    for kind in (U, P, M, N):
        terms = np.abs(_KIND_WEIGHTS[kind](np.arange(2.0, b.size))) * np.abs(b[2:])
        exact = math.fsum(terms.tolist())
        got = coefficient_criterion(kind, _ex32(order))
        assert abs(got - exact) <= 4 * 2.0 ** -52 * exact, kind


def test_criterion_memory_bounded():
    # a full-length |b| alone would take 8 MiB; a fresh series, so that no
    # kept sums spare the product
    fn = build(FamilySpec(FamilyVariant.EX32, order=10 ** 6))
    tracemalloc.start()
    try:
        coefficient_criterion(N, fn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2 ** 20


# ---------------------------------------------------------------------------
# check_membership
# ---------------------------------------------------------------------------

def test_membership_M_budget_family():
    rep = check_membership(M, build(FamilySpec(FamilyVariant.EX31, n=1)))
    assert rep.verdict == MEMBER_BY_COEFFICIENT
    assert rep.coefficient_sum == 1.0


def test_membership_P_budget_family():
    rep = check_membership(P, build(FamilySpec(FamilyVariant.EX34, n=1)))
    assert rep.is_member
    assert all(s.margin > 0 for s in rep.scans)  # sup = 2r < 2


def test_membership_identity():
    rep = check_membership(U, identity_function(16))
    assert rep.verdict == MEMBER_BY_COEFFICIENT
    assert rep.coefficient_sum == 0.0


def test_membership_fail_numeric():
    # M's series is 2z^2, and phi = 1 + 2z^2 vanishes twice at |z| = 2^-1/2
    fn = from_phi(ComplexSeries([1, 0, 2]))
    rep = check_membership(M, fn)
    assert rep.verdict == FAIL_NUMERIC
    assert rep.zeros_inside == 2
    assert rep.scans == [sup_on_circle(M, fn, r, 4096) for r in (0.9, 0.99, 0.999)]
    for scan in rep.scans:
        assert abs(scan.extremal_value - 2 * scan.radius ** 2) <= 1e-15


@pytest.mark.parametrize("radii, pole, near", [
    ((0.9, 0.99, 0.999), 1, 1),
    ((0.999, 0.9), 1, 1),
    ((0.9,), 1, 0),
    ((0.3,), 0, 0),
])
def test_membership_counts_poles_inside_largest_radius(radii, pole, near):
    # f = z/(1 + 3z) has a pole at -1/3 and M_f = 0: only the zero count of
    # phi = 1 + 3z on the largest circle shows that f is in no class
    rep = check_membership(M, from_phi(ComplexSeries([1, 3])), radii=radii)
    assert rep.zeros_inside == pole
    assert rep.verdict == (FAIL_NUMERIC if pole else MEMBER_BY_COEFFICIENT)
    assert all(s.margin == 1.0 for s in rep.scans)
    # the pole of z/(1 + z/0.95) lies between the circles 0.9 and 0.99
    rep = check_membership(M, from_phi(ComplexSeries([1, 1 / 0.95])), radii=radii)
    assert rep.zeros_inside == near
    assert rep.is_member == (near == 0)


def test_membership_numeric_when_sum_exceeds_bound():
    # U series -z^2 (a + i b z + a z^2) = -z^3 (i b + 2a cos t) on |z| = 1:
    # sup sqrt(b^2 + 4a^2) = 0.92 below the bound, coefficient sum 2a + b = 1.3
    a, b = 0.35, 0.6
    rep = check_membership(U, from_phi(ComplexSeries([1, 0, a, 0.5j * b, a / 3])))
    assert rep.verdict == MEMBER_NUMERIC
    assert abs(rep.coefficient_sum - 1.3) <= 1e-15
    assert all(s.margin > 0 for s in rep.scans)


def test_membership_empty_radii_raises():
    with pytest.raises(ValueError, match="radii"):
        check_membership(M, build(FamilySpec(FamilyVariant.EX34, n=1)), radii=())


@pytest.mark.parametrize("source", [
    lambda: from_phi(ball_coefficients(np.random.default_rng(71), 128)),
    lambda: build(FamilySpec(FamilyVariant.EX32, order=2 ** 17)),
], ids=["ball@129", "ex32@2^17"])
def test_membership_scans_equal_per_radius_scans(source):
    fn = source()
    radii = (0.999, 0.9, 0.99)
    for kind in (U, P, M, N):
        rep = check_membership(kind, fn, radii=radii, grid=4096)
        assert rep.scans == [sup_on_circle(kind, fn, r, 4096) for r in radii]
        assert rep.zeros_inside == 0


def test_one_fold_per_membership_check_and_starlike_scan(monkeypatch):
    calls = []
    plain = ComplexSeries.on_circle

    def spy(self, r, grid, weight=None):
        calls.append(np.shape(r))
        return plain(self, r, grid, weight)

    monkeypatch.setattr(ComplexSeries, "on_circle", spy)
    fn = build(FamilySpec(FamilyVariant.EX32, order=8192))
    for kind in (U, P, M, N):
        calls.clear()
        check_membership(kind, fn)
        assert calls == [(3,)], kind
    calls.clear()
    starlike_scan(fn, radii=(0.9, 0.999, 0.99))
    assert calls == [(3,)]


@pytest.mark.parametrize("radii, first", [
    ((0.999, 0.99, 0.9), 0.99),
    ((0.9, 0.99), 0.9),
])
def test_phi_vanishes_names_first_radius_in_order(radii, first):
    # phi = (1 - z/0.9)(1 - z/0.99) vanishes at the grid points 0.9, 0.99
    a, b = 1 / 0.9, 1 / 0.99
    fn = from_phi(ComplexSeries([1, -(a + b), a * b]))
    with pytest.raises(PhiVanishes) as alone:
        sup_on_circle(M, fn, first, 64)
    for scan in (lambda: check_membership(M, fn, radii=radii, grid=64),
                 lambda: starlike_scan(fn, radii=radii, grid=64)):
        with pytest.raises(PhiVanishes) as batched:
            scan()
        assert str(batched.value) == str(alone.value)


@pytest.mark.parametrize("radii", [(0.9, 1.5), (0.0, 0.9), (0.9, 0.99, 1.0), (-0.5,)])
def test_scans_reject_radii_outside_the_disk(radii):
    fn = build(FamilySpec(FamilyVariant.EX34, n=1))
    with pytest.raises(ValueError, match="radius"):
        check_membership(M, fn, radii=radii)
    with pytest.raises(ValueError, match="radius"):
        starlike_scan(fn, radii=radii)


def test_membership_json_fields():
    rep = check_membership(U, identity_function(16))
    data = json.loads(_json_dump(rep))
    assert list(data.keys()) == ["kind", "coefficient_sum", "scans", "zeros_inside",
                                 "verdict"]
    assert len(data["scans"]) == 3
    assert data["zeros_inside"] == 0


def test_monotone_sup_across_radius_ladder():
    rng = np.random.default_rng(5)
    from diskmean import ball_coefficients
    for kind in (U, P, M, N):
        fn = from_phi(ball_coefficients(rng, 32, decay=0.5, mass=0.7))
        values = [sup_on_circle(kind, fn, r, 512).extremal_value
                  for r in (0.5, 0.9, 0.99, 0.999)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_rotation_covariance_of_sup():
    # phi_rho(z) = phi(rho z) with |rho| = 1 on a grid-aligned angle
    grid = 256
    rho = np.exp(2j * np.pi * 7 / grid)
    rng = np.random.default_rng(12)
    from diskmean import ball_coefficients
    phi = ball_coefficients(rng, 24, decay=0.5, mass=0.6)
    rotated = ComplexSeries(phi.coeffs * rho ** np.arange(25))
    for kind in (U, M, P):
        a = sup_on_circle(kind, from_phi(phi), 0.9, grid).extremal_value
        b = sup_on_circle(kind, from_phi(rotated), 0.9, grid).extremal_value
        assert abs(a - b) <= 1e-12


# ---------------------------------------------------------------------------
# starlike_scan
# ---------------------------------------------------------------------------

def test_starlike_identity():
    rep = starlike_scan(identity_function(16), radii=(0.9,), grid=256)
    assert abs(rep.min_value - 1.0) <= 1e-14
    assert rep.starlike_numeric


def test_starlike_constant_phi():
    # phi = 1 has no top term to drop: z f'/f = 1
    assert starlike_scan(from_phi(ComplexSeries([1])), grid=64).min_value == 1.0


def test_starlike_budget_family_passes():
    fn = build(FamilySpec(FamilyVariant.EX31, n=1))
    rep = starlike_scan(fn, radii=(0.999,), grid=8192)
    assert rep.min_value >= -1e-6
    assert rep.starlike_numeric


def test_starlike_ex34_fails():
    fn = build(FamilySpec(FamilyVariant.EX34, n=1))
    rep = starlike_scan(fn, radii=(0.999,), grid=8192)
    assert rep.min_value < 0
    assert not rep.starlike_numeric
    # the dip sits between the reference probe angle 6*pi/7 and pi
    assert 2.6 < rep.argmin_angle < 3.1
    assert rep.argmin_radius == 0.999


def test_starlike_rotation_invariance():
    grid = 512
    rho = np.exp(2j * np.pi * 3 / grid)
    fn = build(FamilySpec(FamilyVariant.EX34, n=2))
    rotated = from_phi(ComplexSeries(fn.phi.coeffs * rho ** np.arange(fn.phi.order + 1)))
    a = starlike_scan(fn, radii=(0.99,), grid=grid).min_value
    b = starlike_scan(rotated, radii=(0.99,), grid=grid).min_value
    assert abs(a - b) <= 1e-12


def test_starlike_phi_vanishing_is_error():
    fn = from_phi(ComplexSeries([1, -1 / 0.9, 0, 0]))
    with pytest.raises(PhiVanishes):
        starlike_scan(fn, radii=(0.9,), grid=64)


def test_starlike_empty_radii_raises():
    with pytest.raises(ValueError, match="radii"):
        starlike_scan(build(FamilySpec(FamilyVariant.EX34, n=1)), radii=())


def test_scans_take_radii_from_a_generator():
    fn = build(FamilySpec(FamilyVariant.EX34, n=1))
    radii = (0.9, 0.999)
    assert (check_membership(M, fn, radii=(r for r in radii), grid=256)
            == check_membership(M, fn, radii=radii, grid=256))
    assert (starlike_scan(fn, radii=(r for r in radii), grid=256)
            == starlike_scan(fn, radii=radii, grid=256))


def _starlike_exact_min(coeffs, r, grid):
    # Re((phi - z phi')/phi) from the full polynomials, nothing truncated
    c = np.asarray(coeffs, dtype=complex)
    z = r * np.exp(2j * np.pi * np.arange(grid) / grid)
    num = np.polyval((c * (1 - np.arange(c.size)))[::-1], z)
    return float(np.min((num / np.polyval(c[::-1], z)).real))


# the catalog source PHI[21] of bench/workloads.py, order 8
_PHI21 = ("1,0.134881-0.199707i,0.039921+0.0371446i,-0.0914959+0.105487i,"
          "-0.00165655-0.012721i,-0.0475466+0.0351814i,0.0367088-0.0198493i,"
          "-0.0262382+0.0230336i,0.0160252-0.00396056i")

_TRUNCATION_DEFECT = (
    "starlike_scan truncates phi - z phi' to phi's order less one and drops "
    "(1-N) b_N z^N; bench/reference.json pins the truncated minimum for the 8 "
    "catalog 'starlike phi:' entries and the fix moves 7 of them by more than "
    "its 1e-9 tolerance, so it lands with the next benchmark change")


@pytest.mark.xfail(strict=True, reason=_TRUNCATION_DEFECT)
@pytest.mark.parametrize("coeffs, r, grid", [
    ([1, 0, 2], 0.5, 4096),  # exact minimum 1/3 at z = 0.5; the scan says 2/3
    ([complex(t.replace("i", "j")) for t in _PHI21.split(",")], 0.999, 8192),
], ids=["two-z-squared", "catalog-phi21"])
def test_starlike_keeps_top_coefficient(coeffs, r, grid):
    rep = starlike_scan(from_phi(ComplexSeries(coeffs)), radii=(r,), grid=grid)
    exact = _starlike_exact_min(coeffs, r, grid)
    assert abs(rep.min_value - exact) <= 1e-9
    assert rep.starlike_numeric == (exact >= -1e-6)


# long numerators: folded with phi, never built

@functools.lru_cache(maxsize=None)
def _ex32(order):
    return build(FamilySpec(FamilyVariant.EX32, order=order))


def _starlike_built_numerator(f, r, grid):
    # Re((phi - z phi')/phi) with the whole numerator built and folded on
    # its own by ComplexSeries.on_circle, apart from phi
    b = f.phi.coeffs
    num = ComplexSeries(b * (1.0 - np.arange(b.size))).on_circle(r, grid)
    return grid_min((num / f.phi.on_circle(r, grid)).real)


@pytest.mark.parametrize("r", [0.9, 0.99, 0.999])
@pytest.mark.parametrize("order, grid", [
    (10 ** 6, 8192), (2 ** 17, 4096), (2 ** 17, 8192)])
def test_starlike_folded_matches_built_numerator(order, grid, r):
    fn = _ex32(order)
    rep = starlike_scan(fn, radii=(r,), grid=grid)
    want, idx = _starlike_built_numerator(fn, r, grid)
    # the values are O(1), so the bound is absolute
    assert abs(rep.min_value - want) <= 1e-13
    assert rep.argmin_angle == circle_angles(grid)[idx]
    assert rep.starlike_numeric == (want >= -1e-6)


def test_starlike_folded_keeps_top_coefficient():
    # 99 numerator coefficients on 64 points, and b_99 != 0
    phi = ball_coefficients(np.random.default_rng(53), 99, decay=0.97)
    assert phi.coeffs[-1] != 0
    rep = starlike_scan(from_phi(phi), radii=(0.9,), grid=64)
    assert abs(rep.min_value - _starlike_exact_min(phi.coeffs, 0.9, 64)) <= 1e-12


def test_starlike_folded_keeps_checks():
    c = np.zeros(10_000, dtype=complex)
    c[0], c[1] = 1.0, -1.0 / 0.999
    with pytest.raises(PhiVanishes):
        starlike_scan(from_phi(ComplexSeries(c)), radii=(0.999,), grid=8192)
    fn = _ex32(4096)
    with pytest.raises(ValueError):
        starlike_scan(fn, radii=(0.5,), grid=8)
    for r in (0.0, 1.0, 1.5, -0.5):
        with pytest.raises(ValueError):
            starlike_scan(fn, radii=(r,), grid=1024)


def test_starlike_folded_memory_bounded():
    fn = build(FamilySpec(FamilyVariant.EX32, order=10 ** 6))
    tracemalloc.start()
    try:
        starlike_scan(fn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_starlike_json_fields():
    rep = starlike_scan(identity_function(8), radii=(0.9,), grid=64)
    data = json.loads(_json_dump(rep))
    assert list(data.keys()) == [
        "radii", "min_value", "argmin_angle", "argmin_radius", "zeros_inside",
        "starlike_numeric"]
    assert data["zeros_inside"] == 0


@pytest.mark.parametrize("radii, zeros", [
    ((0.999,), 1),
    ((0.999, 0.3), 1),
    ((0.3, 0.999), 1),
    ((0.3,), 0),
])
def test_starlike_counts_poles_inside_largest_radius(radii, zeros):
    # f = z/(1 + 3z) has a pole at -1/3; only on circles past it is that
    # a zero of phi inside, which makes the scan not starlike
    rep = starlike_scan(from_phi(ComplexSeries([1, 3])), radii=radii, grid=1024)
    assert rep.zeros_inside == zeros
    assert rep.starlike_numeric == (zeros == 0 and rep.min_value >= -1e-6)


@pytest.mark.parametrize("source", [
    lambda: build(FamilySpec(FamilyVariant.EX31, n=2)),
    lambda: _ex32(2 ** 17),
], ids=["ex31", "ex32@2^17"])
def test_starlike_zero_free_family_has_no_zeros_inside(source):
    rep = starlike_scan(source(), radii=(0.9, 0.999, 0.99))
    assert rep.zeros_inside == 0
    assert rep.starlike_numeric


# ---------------------------------------------------------------------------
# class_radius
# ---------------------------------------------------------------------------

def test_radius_identity_full_disk():
    assert class_radius(U, identity_function(16)) == 1.0


def test_radius_koebe_U_full_disk():
    assert class_radius(U, koebe_function()) == 1.0


def test_radius_violated_at_bracket_floor():
    # P_f = phi'' = 3 everywhere, above the bound 2 on every circle
    assert class_radius(P, from_phi(ComplexSeries([1, 0, 1.5]))) == 1e-3


@pytest.mark.parametrize("tol", [0.0, -1e-5])
def test_radius_tol_must_be_positive(tol):
    with pytest.raises(ValueError, match="tol"):
        class_radius(U, identity_function(16), tol=tol)


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_radius_tol_must_be_a_finite_number(tol):
    # NaN passes a tol <= 0 test, and inf would stop at the first midpoint
    with pytest.raises(ValueError, match="tol"):
        class_radius(M, from_phi(ComplexSeries([1, 0, 2])), tol=tol)


def test_radius_two_z_squared():
    fn = from_phi(ComplexSeries([1, 0, 2]))
    tol = 1e-5
    r = class_radius(M, fn, tol=tol)
    assert abs(r - 2 ** -0.5) <= 3 * tol


#: Zero-free polynomial phis (every zero outside the closed disk) whose
#: functional meets its bound inside the disk, or nowhere (the first and last)
ZERO_FREE_RADIUS_CASES = [
    (U, [1, 0.5, 0.4]),
    (U, [1, 0, 0, 0.9]),
    (P, [1, 0, 0, 0.9]),
    (M, [1, 0, 0, 0.9]),
    (N, [1, 0, 0, 0.9]),
    (P, [1, 0.3, 0.5, 0.2j]),
    (M, [1, 0.3, 0.5, 0.2j]),
    (U, [1, -0.2, 0.4, 0, 0.3]),
    (N, [1, 0.1, 0.2, 0.3, 0.15]),
    (M, [1, 0.25, -0.3, 0.1, 0, 0, 0.12]),
    (P, [1, 0.25, -0.3, 0.1, 0, 0, 0.12]),
    (N, [1, -0.4, 0, 0.25j]),
]
POLE_RADIUS_CASES = [(M, [1, 3]), (U, [1, 1.05]), (M, [1, 0, 2])]


def _bisection_radius(kind, f, tol, grid=2048):
    # plain bisection on the same violation rule: the reference for the
    # radius search's answers and its number of folds
    import diskmean.classes

    def scan(r):
        theta, phis, values = diskmean.classes.phi_on_circle(
            f, r, grid, weight=_KIND_WEIGHTS[kind])
        return phis, scan_report(kind, r, theta, values).margin < -MARGIN_TOL

    lo, hi = 1e-3, 1.0 - 1e-4
    phis, over = scan(hi)
    poles = zero_count(phis) > 0
    if not (poles or over):
        return 1.0

    def violated(r):
        phis, over = scan(r)
        return over or (poles and zero_count(phis) > 0)

    if violated(lo):
        return lo
    for _ in range(60):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if violated(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@pytest.fixture
def fold_count(monkeypatch):
    import diskmean.classes
    folds = [0]
    phi_on_circle = diskmean.classes.phi_on_circle

    def spy(*args, **kwargs):
        folds[0] += 1
        return phi_on_circle(*args, **kwargs)

    monkeypatch.setattr(diskmean.classes, "phi_on_circle", spy)
    return folds


def test_zero_free_radius_cases_are_zero_free():
    for _, phi in ZERO_FREE_RADIUS_CASES:
        assert np.min(np.abs(np.roots(phi[::-1]))) > 1.0


@pytest.mark.parametrize("kind, phi", ZERO_FREE_RADIUS_CASES + POLE_RADIUS_CASES)
def test_radius_search_no_more_folds_than_bisection(kind, phi, fold_count):
    fn = from_phi(ComplexSeries(phi))
    tol = 1e-5
    expected = _bisection_radius(kind, fn, tol)
    bisection_folds, fold_count[0] = fold_count[0], 0
    r = class_radius(kind, fn, tol=tol)
    assert fold_count[0] <= bisection_folds
    assert abs(r - expected) <= 2 * tol


def test_radius_consistency():
    tol = 1e-5
    for kind, phi in [(M, [1, 0, 2]), (P, [1, 0.3, 0.5, 0.2j]),
                      (U, [1, -0.2, 0.4, 0, 0.3]), (N, [1, 0.1, 0.2, 0.3, 0.15])]:
        fn = from_phi(ComplexSeries(phi))
        r = class_radius(kind, fn, tol=tol)
        below = sup_on_circle(kind, fn, r - 2 * tol, 2048)
        above = sup_on_circle(kind, fn, r + 2 * tol, 2048)
        assert below.margin >= -1e-9
        assert above.margin < -1e-9


@pytest.mark.parametrize("kind, phi, pole", [
    # M's functional of z/(1 + 3z) is identically 0, so only the pole at
    # -1/3 bounds the radius
    (M, [1, 3], 1 / 3),
    # z/(1 + 1.05z): a pole at |z| = 1/1.05 = 0.952
    (U, [1, 1.05], 1 / 1.05),
], ids=["M-pole-third", "U-pole-0.952"])
def test_radius_stops_at_pole(kind, phi, pole):
    assert abs(class_radius(kind, from_phi(ComplexSeries(phi))) - pole) <= 1e-4


@pytest.mark.parametrize("kind, phi, pole", [
    (M, [1, 3], 1 / 3),
    (M, [1, 0, 2], 2 ** -0.5),
    (U, [1, 1.05], 1 / 1.05),
], ids=["M-pole-third", "M-zeros-at-radius", "U-pole-0.952"])
def test_radius_tight_tol_counts_vanishing_circle_as_violated(kind, phi, pole):
    # probes come within 1e-9 of phi's zero, where phi_on_circle raises
    # PhiVanishes: such a circle passes through the zero, so it is violated
    r = class_radius(kind, from_phi(ComplexSeries(phi)), tol=1e-12)
    assert abs(r - pole) <= 1e-8


def test_radius_tiny_tol_converges(fold_count):
    # the safeguard's midpoints keep the secant from stalling on one side
    r = class_radius(M, from_phi(ComplexSeries([1, 0, 0, 0.9])), tol=1e-14)
    assert abs(r - 3.6 ** (-1 / 3)) <= 1e-9
    assert fold_count[0] <= 122


def test_radius_counts_zeros_only_with_one_inside_upper_bracket(monkeypatch):
    # the zero count cannot fall as r grows: zero-free at r = 1 - 1e-4
    # means the search's probes never count
    import diskmean.classes
    counts = []
    zero_count = diskmean.classes.zero_count

    def spy(values):
        counts.append(zero_count(values))
        return counts[-1]

    monkeypatch.setattr(diskmean.classes, "zero_count", spy)
    # |M| = 4 * 0.9 r^3 for phi = 1 + 0.9z^3, whose zeros lie at 1.036
    r = class_radius(M, from_phi(ComplexSeries([1, 0, 0, 0.9])))
    assert abs(r - 3.6 ** (-1 / 3)) <= 3e-5
    assert counts == [0]
    counts.clear()
    # 1 + 2z^2 has its zeros at its class radius 2^-1/2: every step counts
    r = class_radius(M, from_phi(ComplexSeries([1, 0, 2])))
    assert abs(r - 2 ** -0.5) <= 3e-5
    assert len(counts) > 10 and counts[0] == 2


# ---------------------------------------------------------------------------
# sums kept on phi: every question shares them, with the same bits
# ---------------------------------------------------------------------------

_QUESTIONS = {
    **{f"check-{k.value}": functools.partial(check_membership, k) for k in (U, P, M, N)},
    "starlike": starlike_scan,
    "radius-N": functools.partial(class_radius, N),
    "boundary": lambda f: boundary_image(f, 0.999, 2048),
}


def _fresh_ex32():
    # the family builder keeps no cache: each call is a series with no sums
    return build(FamilySpec(FamilyVariant.EX32, order=2 ** 17))


def _bits(answer):
    return answer.tobytes() if isinstance(answer, np.ndarray) else _json_dump(answer)


@pytest.mark.parametrize("name", list(_QUESTIONS))
def test_kept_sums_hit_equals_miss(name):
    cold = _QUESTIONS[name](_fresh_ex32())
    fn = _fresh_ex32()
    for other, question in _QUESTIONS.items():
        if other != name:
            question(fn)
    assert fn.phi._sums
    assert _bits(_QUESTIONS[name](fn)) == _bits(cold)


def _criterion_at_weight_degree(kind, b):
    # the criterion with its moment product at the weight's own degree, as
    # a term-by-term head and tail plus 16 rows of |b| at a time
    weight, row = _KIND_WEIGHTS[kind], 4096
    head, rows = min(b.size, row), max(b.size // row, 1)
    total = float(np.sum(np.abs(weight(np.arange(2.0, head))) * np.abs(b[2:head])))
    if rows > 1:
        diffs = _forward_differences(weight, row)
        while not diffs[-1].any():
            diffs = diffs[:-1]
        q = np.arange(1.0, rows)
        moments = _binomial_moments(np.ones(q.size), q, len(diffs) - 1)
        full = np.abs(b[row: rows * row].reshape(q.size, row))
        sums = sum(moments[:, j: j + 16] @ full[j: j + 16] for j in range(0, q.size, 16))
        total += abs(float(np.sum(diffs * sums)))
    return total + float(np.sum(np.abs(weight(np.arange(float(rows * row), b.size)))
                                * np.abs(b[rows * row:])))


@pytest.mark.parametrize("order", [10 ** 6, 2 ** 17 + 5])
def test_kept_criterion_matches_criterion_at_weight_degree(order):
    fn = build(FamilySpec(FamilyVariant.EX32, order=order))
    for _ in range(2):  # a miss, then hits
        for kind in (U, P, M, N):
            want = _criterion_at_weight_degree(kind, fn.phi.coeffs)
            assert abs(coefficient_criterion(kind, fn) - want) <= 1e-13 * want


def test_kept_sums_bounded_after_radius_search():
    fn = _fresh_ex32()
    class_radius(N, fn)
    kept = fn.phi._sums
    assert len(kept) > 1
    assert sum(v.nbytes for _, v in kept) <= fn.phi.coeffs.nbytes
    assert not any(v.flags.writeable for _, v in kept)


def test_threads_share_kept_sums():
    def questions(fn):
        return [_bits(check_membership(k, fn)) for k in (U, P, M, N)] + [
            _bits(starlike_scan(fn))]

    want = questions(_fresh_ex32())
    fn = _fresh_ex32()
    start = threading.Barrier(4)

    def worker(_):
        start.wait()
        return questions(fn)

    with ThreadPoolExecutor(4) as pool:
        got = list(pool.map(worker, range(4)))
    assert got == [want] * 4



def test_four_checks_and_starlike_share_their_sums():
    fn = _fresh_ex32()
    for kind in (U, P, M, N):
        check_membership(kind, fn)
    starlike_scan(fn)
    assert [key for key, _ in fn.phi._sums] == [
        ((0.9, 0.99, 0.999), 4096, 3), ("|b|", 4096), ((0.999,), 8192, 3)]
