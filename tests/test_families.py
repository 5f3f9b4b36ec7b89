import math
import tracemalloc

import numpy as np
import pytest

from diskmean import (
    FamilySpec,
    FamilyVariant,
    FunctionalKind,
    InvalidFamilyParams,
    a_theta,
    a_theta_reduced,
    boundary_image,
    build,
    coefficient_criterion,
    critical_points,
    d_prime_theta,
    d_theta,
    ex31_a_factored_m3,
    ex32_tail_by_coefficients,
    ex32_tail_by_integral,
    ex33_functional_modulus,
    ex33_re_at_1,
    extend_table1,
    identity_function,
    sup_on_circle,
    table1,
    table1_angle,
    zeta_constant,
)

from diskmean.families import EX32_ORDER, _alpha
from diskmean.series import DEFAULT_ORDER

EX31, EX32, EX33, EX34 = (FamilyVariant.EX31, FamilyVariant.EX32,
                          FamilyVariant.EX33, FamilyVariant.EX34)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def test_build_ex31_n1():
    fn = build(FamilySpec(EX31, n=1))
    c = fn.phi.coeffs
    assert c[0] == 1.0 and c[1] == 0.75 and c[3] == 0.25
    assert np.all(c[4:] == 0)


def test_build_ex34_n1():
    fn = build(FamilySpec(EX34, n=1))
    c = fn.phi.coeffs
    assert abs(c[1] - 2 / 3) <= 1e-15
    assert abs(c[3] - 1 / 3) <= 1e-15


def test_build_ex32_leading_coefficients():
    fn = build(FamilySpec(EX32, order=4096))
    c = fn.phi.coeffs
    assert abs(c[2] - 0.8319073) <= 1e-6  # 1/zeta(3)
    assert abs(c[1] - (1 - zeta_constant(5) / zeta_constant(3))) <= 1e-15
    # quadratic-weight partial sums telescope toward 1
    k = np.arange(2, c.size, dtype=float)
    partial = np.sum((k - 1) ** 2 * np.abs(c[2:]))
    assert partial < 1.0
    assert abs(partial - 1.0) <= 1e-6


def test_build_keeps_no_series_alive():
    # 40 ex32 members of 2^16 coefficients hold 40 MiB while referenced
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for order in range(2 ** 16, 2 ** 16 + 40):
            build(FamilySpec(EX32, order=order))
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 4 * 2 ** 20


def test_build_ex33():
    fn = build(FamilySpec(EX33, n=3, b=0.5, beta=0.3))
    c = fn.phi.coeffs
    assert c[1] == 0.5j
    assert abs(c[3] - np.exp(0.6j) / 2) <= 1e-15


@pytest.mark.parametrize("spec", [
    FamilySpec(EX31, n=0),
    FamilySpec(EX34, n=0),
    FamilySpec(EX31, n=5, order=7),       # cannot hold z^11
    FamilySpec(EX33, n=2),
    FamilySpec(EX33, n=3, b=0.9),         # |b| > (n-2)/(n-1) = 1/2
    FamilySpec(EX32, order=1),
])
def test_build_rejects_bad_params(spec):
    with pytest.raises(InvalidFamilyParams):
        build(spec)


# The rules build and validate had while each family's top degree and budget
# were written out per variant: the reference for the sweeps below.

def _reference_alpha(variant, n):
    return 1.0 / (4 * n * n) if variant is EX31 else 1.0 / (n * (2 * n + 1))


def _reference_budget_exact(alpha, weight, target):
    # the old search: six ulps up from alpha, then six down
    for direction in (2.0 * alpha, 0.0):
        cand = alpha
        for _ in range(6):
            if weight * cand == target:
                return cand
            cand = np.nextafter(cand, direction)
    return alpha


def _reference_order(spec):
    # the order build uses, or None where validate refuses the spec
    v, n, order = spec.variant, spec.n, spec.order
    if v in (EX31, EX34):
        if n < 1 or (order is not None and order < 2 * n + 1):
            return None
        return max(DEFAULT_ORDER, 2 * n + 1) if order is None else order
    if v is EX33:
        if n < 3 or abs(spec.b) > (n - 2) / (n - 1) + 1e-12 or (
                order is not None and order < n):
            return None
        return max(DEFAULT_ORDER, n) if order is None else order
    if order is not None and order < 2:
        return None
    return EX32_ORDER if order is None else order


def test_budget_families_match_reference_search():
    # n = 1..2000: every ex31 / ex34 array is the old one bit for bit, and
    # the coefficient criterion is the budget exactly when the search found
    # an alpha, else the budget's predecessor, never above it
    misses = {EX31: [], EX34: []}
    for v, kind, weight in ((EX31, FunctionalKind.M, lambda m: (m - 1) ** 2),
                            (EX34, FunctionalKind.P, lambda m: m * (m - 1))):
        bound = kind.bound
        for n in range(1, 2001):
            m = 2 * n + 1
            w = float(weight(m))
            a = _reference_budget_exact(_reference_alpha(v, n), w, bound)
            want = np.zeros(max(DEFAULT_ORDER, m) + 1, dtype=np.complex128)
            want[0], want[1], want[m] = 1.0, 1.0 - a, a
            fn = build(FamilySpec(v, n=n))
            assert np.array_equal(fn.phi.coeffs, want), (v, n)
            total = coefficient_criterion(kind, fn)
            if w * a == bound:
                assert total == bound, (v, n)
            else:
                misses[v].append(n)
                assert total == math.nextafter(bound, 0.0), (v, n)
    assert misses[EX34][:4] == [11, 29, 42, 63]
    assert misses[EX31][:3] == [61, 89, 122]


def test_alpha_array_form_matches_reference():
    n = np.arange(1, 500)
    for v in (EX31, EX34):
        got = _alpha(v, n)
        assert np.array_equal(got, [_reference_alpha(v, int(k)) for k in n])
        assert all(_alpha(v, int(k)) == g for k, g in zip(n, got))


def test_validate_and_default_order_match_reference():
    orders = (None, -1, 0, 1, 2, 3, 5, 59, 200)
    for v in FamilyVariant:
        for n in range(-2, 60):
            for order in orders:
                spec = FamilySpec(v, n=n, b=0.25, order=order)
                want = _reference_order(spec)
                if want is None:
                    with pytest.raises(InvalidFamilyParams):
                        spec.validate()
                elif v is EX32 and order is None:
                    spec.validate()  # 10^6 coefficients: order checked apart
                else:
                    assert build(spec).phi.order == want, (v, n, order)
    assert build(FamilySpec(EX32, order=None)).phi.order == EX32_ORDER


# ---------------------------------------------------------------------------
# zeta
# ---------------------------------------------------------------------------

def test_zeta_2_classical_identity():
    assert abs(zeta_constant(2) - math.pi ** 2 / 6) <= 1e-12


def test_zeta_3():
    assert abs(zeta_constant(3) - 1.2020569031596) <= 1e-12


def test_zeta_5():
    assert abs(zeta_constant(5) - 1.0369277551434) <= 1e-12


def test_zeta_rejects_small_s():
    with pytest.raises(ValueError):
        zeta_constant(1)


# ---------------------------------------------------------------------------
# A(theta) and D(theta)
# ---------------------------------------------------------------------------

def test_a_theta_ex31_endpoints():
    assert abs(a_theta(EX31, 1, math.pi)) <= 1e-15
    assert abs(a_theta(EX31, 1, 0.0) - 1.0) <= 1e-15


def test_a_theta_ex34_rational_anchor():
    theta = math.acos(-8.0 / 9.0)
    assert abs(a_theta(EX34, 1, theta) - (-55.0 / 2187.0)) <= 1e-12


def test_a_theta_ex34_reference_angle():
    theta = 6 * math.pi / 7
    assert abs(table1_angle(1) - theta) <= 1e-15
    assert abs(a_theta(EX34, 1, theta) - (-0.0258011)) <= 5e-7


def test_d_theta_values():
    assert abs(d_theta(EX31, 1, 0.0) - (-1 / 6)) <= 1e-15
    assert abs(d_theta(EX31, 1, math.pi) - (7 / 6)) <= 1e-15
    assert abs(d_theta(EX34, 1, 0.0) - (-1 / 3)) <= 1e-15


def test_d_prime_zeros():
    for n in (1, 2, 5, 9):
        assert d_prime_theta(n, 0.0) == 0.0
        assert abs(d_prime_theta(n, math.pi)) <= 1e-12
    assert abs(d_prime_theta(2, math.pi / 2)) <= 1e-12


def test_d_prime_matches_finite_difference():
    rng = np.random.default_rng(31)
    h = 1e-5
    for n in (1, 2, 3, 7, 12):
        for theta in rng.uniform(0, math.pi, 40):
            fd = (d_theta(EX31, n, theta + h)
                  - d_theta(EX31, n, theta - h)) / (2 * h)
            assert abs(d_prime_theta(n, theta) - fd) <= 1e-6


def test_d_prime_matches_sine_sum():
    # product form == sin t - sin(mt) - sin((m-1)t)
    t = np.linspace(0.01, math.pi, 200)
    for n in (2, 4, 8):
        m = 2 * n + 1
        direct = np.sin(t) - np.sin(m * t) - np.sin((m - 1) * t)
        assert np.max(np.abs(d_prime_theta(n, t) - direct)) <= 1e-12


# ---------------------------------------------------------------------------
# formula cross-validation
# ---------------------------------------------------------------------------

def test_ex31_three_forms_agree():
    t = np.linspace(0.0, math.pi, 1000)
    for n in (1, 2, 5, 10):
        dev = np.max(np.abs(a_theta(EX31, n, t) - a_theta_reduced(EX31, n, t)))
        assert dev <= 1e-12
    dev = np.max(np.abs(a_theta(EX31, 1, t) - ex31_a_factored_m3(t)))
    assert dev <= 1e-12


def test_ex34_forms_agree_at_probe_angles():
    for n, theta, value in table1(1, 15):
        assert abs(value - a_theta(EX34, n, theta)) <= 1e-12
        assert abs(value - a_theta_reduced(EX34, n, theta)) <= 1e-12


def test_a_pi_zero_for_ex31():
    for n in range(1, 21):
        assert abs(a_theta(EX31, n, math.pi)) <= 1e-12


def test_d_below_value_at_pi():
    t = 2 * np.pi * np.arange(4096) / 4096
    mask = t <= math.pi
    for n in range(2, 11):
        d = d_theta(EX31, n, t[mask])
        assert np.max(d) <= d_theta(EX31, n, math.pi) + 1e-12


# ---------------------------------------------------------------------------
# critical points
# ---------------------------------------------------------------------------

def test_critical_points_n2():
    first, second = critical_points(2)
    assert np.allclose(first, [math.pi / 5, 3 * math.pi / 5], atol=1e-15)
    assert np.allclose(second, [math.pi / 2], atol=1e-15)


def test_critical_points_n3():
    first, second = critical_points(3)
    assert np.allclose(first, [math.pi / 7, 3 * math.pi / 7, 5 * math.pi / 7])
    assert np.allclose(second, [math.pi / 3, 2 * math.pi / 3])


@pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
def test_critical_points_are_zeros_and_interlace(n):
    first, second = critical_points(n)
    for x in first + second:
        assert abs(d_prime_theta(n, x)) <= 1e-10
    merged = []
    for j in range(n - 1):
        merged += [first[j], second[j]]
    merged += [first[-1], math.pi]
    assert all(a < b for a, b in zip(merged, merged[1:]))


def test_critical_points_rejects_n1():
    with pytest.raises(InvalidFamilyParams):
        critical_points(1)


# ---------------------------------------------------------------------------
# reference table
# ---------------------------------------------------------------------------

REFERENCE_ROWS = [
    (1, "-0.0258011"), (2, "-0.0103986"), (3, "-0.00437311"),
    (4, "-0.00211511"), (5, "-0.00113174"), (6, "-0.00064961"),
    (7, "-0.00039145"), (8, "-0.000243709"), (9, "-0.000154718"),
    (10, "-0.0000989276"), (11, "-0.0000628326"), (12, "-0.0000388937"),
    (13, "-0.000022708"), (14, "-0.0000116051"),
]


def test_table_matches_reference_values():
    rows = table1(1, 14)
    for (n, theta, value), (n_ref, text) in zip(rows, REFERENCE_ROWS):
        assert n == n_ref
        ref = float(text)
        decimals = len(text.split(".")[1])
        assert abs(value - ref) <= 5 * 10.0 ** -decimals, (n, value, text)


def test_table_tight_rows():
    rows = dict((n, v) for n, _, v in table1(1, 14))
    assert abs(rows[1] - (-0.0258011)) <= 5e-7
    assert abs(rows[7] - (-0.00039145)) <= 5e-9
    assert abs(rows[8] - (-0.000243709)) <= 5e-10
    assert abs(rows[14] - (-0.0000116051)) <= 5e-11


def test_table_rejects_bad_range():
    with pytest.raises(ValueError):
        table1(3, 2)
    with pytest.raises(ValueError):
        table1(0, 4)


def _scalar_golden_row(n):
    # reference: the scalar search, one bracket at a time
    seed, half = table1_angle(n), math.pi / (4 * n + 3)
    lo, hi = seed - half, min(seed + half, math.pi)
    g = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - g * (hi - lo), lo + g * (hi - lo)
    fc, fd = a_theta(EX34, n, c), a_theta(EX34, n, d)
    for _ in range(120):
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - g * (hi - lo)
            fc = a_theta(EX34, n, c)
        else:
            lo, c, fc = c, d, fd
            d = lo + g * (hi - lo)
            fd = a_theta(EX34, n, d)
    theta = 0.5 * (lo + hi)
    return theta, a_theta(EX34, n, theta)


def test_extended_rows_match_scalar_search():
    rows = extend_table1(1, 200)
    assert [n for n, _, _ in rows] == list(range(1, 201))
    for n, theta, value in rows:
        ref_theta, ref_value = _scalar_golden_row(n)
        assert abs(theta - ref_theta) <= 1e-6, (n, theta, ref_theta)
        assert abs(value - ref_value) <= 1e-12, (n, value, ref_value)


def test_extended_rows_negative():
    # each row is negative and reaches the least value of a dense sample
    # of its bracket
    for n, theta, value in extend_table1(15, 200):
        seed, half = table1_angle(n), math.pi / (4 * n + 3)
        dense = a_theta(EX34, n, np.linspace(seed - half, min(seed + half, math.pi), 20_001))
        assert value < 0, (n, theta, value)
        assert 0 < theta <= math.pi
        assert value <= dense.min() + 1e-12, (n, value, dense.min())


@pytest.mark.parametrize("n_from, n_to", [(0, 4), (5, 4)])
def test_extend_table1_rejects_bad_range(n_from, n_to):
    with pytest.raises(ValueError):
        extend_table1(n_from, n_to)


# ---------------------------------------------------------------------------
# ex33 closed forms
# ---------------------------------------------------------------------------

def test_ex33_modulus_origin():
    assert ex33_functional_modulus(3, 0.5, 0.3, 0j) == 0.0


def test_ex33_modulus_at_half():
    assert abs(ex33_functional_modulus(3, 0.5, 0.3, 0.5 + 0j) - 0.125) <= 1e-12


def test_ex33_modulus_angle_independent():
    for arg in (0.0, 1.0, 2.5, 4.0):
        z = 0.9 * np.exp(1j * arg)
        assert abs(ex33_functional_modulus(4, 0.4, 0.7, z) - 0.9 ** 4) <= 1e-12


def test_ex33_re_at_1_zero_beta():
    assert ex33_re_at_1(3, 0.5, 0.0) == 0.0


def test_ex33_re_at_1_sign():
    assert ex33_re_at_1(3, 0.5, 0.3) < 0  # 0.3 < arctan(1) = pi/4
    assert ex33_re_at_1(3, 0.5, math.pi / 4 + 0.05) > 0


def test_ex33_re_at_1_rejects_small_n():
    with pytest.raises(InvalidFamilyParams):
        ex33_re_at_1(2, 0.1, 0.1)


# ---------------------------------------------------------------------------
# ex32 integral representation
# ---------------------------------------------------------------------------

def test_ex32_folded_sup_is_positive_sum():
    # all tail coefficients are positive, so sup |M| on |z| = r is the
    # value at z = r: sum_k r^k / (zeta(3) (k-1)^3)
    order, r = 2 ** 15, 0.99
    fn = build(FamilySpec(EX32, order=order))
    k = np.arange(2, order + 1, dtype=float)
    want = math.fsum((r ** k / (zeta_constant(3) * (k - 1.0) ** 3)).tolist())
    rep = sup_on_circle(FunctionalKind.M, fn, r, 4096)
    assert abs(rep.extremal_value - want) <= 1e-13 * want
    assert rep.extremal_angle == 0.0


def test_ex32_integral_identity():
    fn = build(FamilySpec(EX32, order=4096))
    rng = np.random.default_rng(90)
    for _ in range(20):
        z = 0.9 * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        lhs = ex32_tail_by_coefficients(fn, z)
        rhs = ex32_tail_by_integral(z)
        assert abs(lhs - rhs) <= 1e-8


def test_ex32_tail_by_integral_rule_reused():
    z = 0.6 - 0.5j
    first = ex32_tail_by_integral(z)
    assert ex32_tail_by_integral(z) == first
    x, w = np.polynomial.laguerre.laggauss(64)
    assert first == z ** 2 / 24.0 * complex(np.sum(w * (x ** 4 / (1.0 - z * np.exp(-x)))))


# ---------------------------------------------------------------------------
# boundary images
# ---------------------------------------------------------------------------

def test_boundary_identity_circle():
    pts = boundary_image(identity_function(8), 0.5, 64)
    assert len(pts) == 65
    assert np.max(np.abs(np.abs(pts) - 0.5)) <= 1e-14


def test_boundary_near_origin_looks_like_circle():
    fn = build(FamilySpec(EX31, n=2))
    pts = boundary_image(fn, 0.01, 128)
    assert np.max(np.abs(np.abs(pts) - 0.01)) <= 0.02 * 0.01


def test_boundary_closed_curve():
    fn = build(FamilySpec(EX32, order=4096))
    pts = boundary_image(fn, 0.999, 512)
    assert abs(pts[0] - pts[-1]) <= 1e-9 * max(1.0, abs(pts[0]))
