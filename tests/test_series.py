import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diskmean.series
from diskmean import (
    ComplexSeries,
    FamilySpec,
    FamilyVariant,
    FunctionalKind,
    LeadingCoefficientNearZero,
    ball_coefficients,
    build,
    check_membership,
    from_phi,
    functional_series,
    harmonic_mean,
    koebe_function,
)
from diskmean.functionals import _KIND_WEIGHTS, scan_report, zero_count
from diskmean.series import circle_angles


def series(*coeffs):
    return ComplexSeries(list(coeffs))


def assert_coeffs(s, expected, tol=0.0):
    got = s.coeffs
    want = np.asarray(expected, dtype=complex)
    assert got.size == want.size, (got, want)
    assert np.max(np.abs(got - want)) <= tol, (got, want)


# ---------------------------------------------------------------------------
# mul
# ---------------------------------------------------------------------------

def test_mul_difference_of_squares():
    assert_coeffs(series(1, 1, 0).mul(series(1, -1, 0)), [1, 0, -1])


def test_mul_one_identity():
    s = series(2, -1, 3j)
    assert_coeffs(s.mul(ComplexSeries.one(2)), [2, -1, 3j])


def test_mul_truncated_cauchy_product():
    # hand Cauchy product: (1+z+z^2)(1-z) = 1 + 0 z + 0 z^2 - z^3, cut at 2
    assert_coeffs(series(1, 1, 1).mul(series(1, -1, 0)), [1, 0, 0])


# ---------------------------------------------------------------------------
# reciprocal
# ---------------------------------------------------------------------------

def test_reciprocal_geometric():
    r = series(1, -1, 0, 0, 0, 0).reciprocal()
    assert_coeffs(r, [1, 1, 1, 1, 1, 1], tol=1e-14)


def test_reciprocal_long_division_oracle():
    # 1/(1 + 3/4 z + 1/4 z^3): long division gives 1, -3/4, 9/16, -43/64
    r = series(1, 0.75, 0, 0.25).reciprocal()
    assert_coeffs(r, [1, -0.75, 9 / 16, -43 / 64], tol=1e-15)


def test_reciprocal_near_zero_lead_raises():
    with pytest.raises(LeadingCoefficientNearZero):
        series(1e-13, 1, 1).reciprocal()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_reciprocal_involution(seed):
    rng = np.random.default_rng(seed)
    s = ball_coefficients(rng, 32, decay=0.4, mass=0.6)
    back = s.reciprocal().reciprocal()
    assert np.max(np.abs(back.coeffs - s.coeffs)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_reciprocal_roundtrip_unit(seed):
    # random lead |a_0| in [0.5, 2]: series * reciprocal = 1 to 1e-10 at order 64
    rng = np.random.default_rng(seed)
    lead = (0.5 + 1.5 * rng.random()) * np.exp(2j * np.pi * rng.random())
    s = ComplexSeries(ball_coefficients(rng, 64, decay=0.35, mass=0.5).coeffs * lead)
    prod = s.mul(s.reciprocal()).coeffs.copy()
    prod[0] -= 1.0
    assert np.max(np.abs(prod)) <= 1e-10


def test_reciprocal_one_coefficient():
    assert_coeffs(series(2 - 2j).reciprocal(), [0.25 + 0.25j])


def test_reciprocal_near_zero_lead_raises_on_long_series():
    with pytest.raises(LeadingCoefficientNearZero):
        ComplexSeries([1e-13] + [1.0] * 500).reciprocal()


def _reciprocal_loop(a):
    """Reference: the recurrence, one coefficient at a time."""
    r = np.zeros(a.size, dtype=complex)
    r[0] = 1.0 / a[0]
    for k in range(1, a.size):
        r[k] = -np.dot(a[1: k + 1], r[k - 1:: -1]) / a[0]
    return r


@pytest.fixture
def recurrence_sizes(monkeypatch):
    """Sizes of the inputs reciprocal hands to its recurrence."""
    sizes = []
    inner = diskmean.series._recurrence

    def spy(a):
        sizes.append(a.size)
        return inner(a)

    monkeypatch.setattr(diskmean.series, "_recurrence", spy)
    return sizes


_ACCEPTED = {
    "ball": lambda order: ball_coefficients(np.random.default_rng(47), order),
    "ex31": lambda order: build(FamilySpec(FamilyVariant.EX31, n=3, order=order)).phi,
    "ex33": lambda order: build(FamilySpec(FamilyVariant.EX33, n=5, b=0.5, beta=1.0,
                                           order=order)).phi,
    "ex34-1": lambda order: build(FamilySpec(FamilyVariant.EX34, n=1, order=order)).phi,
    "ex34-5": lambda order: build(FamilySpec(FamilyVariant.EX34, n=5, order=order)).phi,
    "ex32": lambda order: build(FamilySpec(FamilyVariant.EX32, order=order)).phi,
}


@pytest.mark.parametrize("order", [2047, 2048, 6000, 8192])
@pytest.mark.parametrize("name", list(_ACCEPTED))
def test_reciprocal_newton_matches_recurrence(recurrence_sizes, name, order):
    # phi has no zero in the closed disk, so 1/phi's coefficients stay
    # bounded and Newton's result passes the residual gate
    a = _ACCEPTED[name](order)
    want = _reciprocal_loop(a.coeffs)
    got = a.reciprocal().coeffs
    assert len(recurrence_sizes) == 1 and recurrence_sizes[0] <= 64
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("size", [2049, 8193])
def test_reciprocal_wrapped_terms_with_large_top_coefficient(recurrence_sizes, size):
    # at 2^k + 1 coefficients the step to t = size // 2 + 1, the last step
    # and the residual gate each run at a cyclic length one short of exact,
    # and a_{t-1} (0.001i, then 0.01) sets the term that wraps onto degree 0
    a = np.zeros(size, dtype=complex)
    a[:2] = [1.0, -0.999]
    a[size // 2] = 0.001j
    a[-1] = 0.01
    want = _reciprocal_loop(a)
    got = ComplexSeries(a).reciprocal().coeffs
    assert len(recurrence_sizes) == 1 and recurrence_sizes[0] <= 64
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.fixture
def fft_lengths(monkeypatch):
    """Lengths of the forward and inverse transforms numpy is asked for."""
    lengths = []
    for name in ("fft", "ifft"):
        def spy(x, n=None, *args, inner=getattr(np.fft, name), **kwargs):
            lengths.append(len(x) if n is None else n)
            return inner(x, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, spy)
    return lengths


@pytest.mark.parametrize("size, steps, gate", [
    (8193, [64, 128, 256, 512, 1024, 2048, 4096, 8192], 16384),
    (6001, [96, 192, 384, 768, 1536, 3072, 6144], 12288),
], ids=["wrapped-8193", "unwrapped-6001"])
def test_reciprocal_fft_lengths(recurrence_sizes, fft_lengths, size, steps, gate):
    # each Newton step transforms r[:m], a[:t] and E and inverts two
    # products, all at one length; the gate transforms a and r and inverts
    # once.  6001 keeps the lengths of exact linear convolution.
    ball_coefficients(np.random.default_rng(5), size - 1).reciprocal()
    assert len(recurrence_sizes) == 1
    assert fft_lengths == [n for n in steps for _ in range(5)] + [gate] * 3


def test_reciprocal_koebe_falls_back_exact(recurrence_sizes):
    # 1/(1-z)^2 = sum (k+1) z^k; Newton is off by about 2e3 max|r| here
    got = ComplexSeries([1, -2, 1] + [0] * 8190).reciprocal().coeffs
    assert recurrence_sizes[1:] == [8193]
    assert np.array_equal(got, np.arange(1, 8194))


@pytest.mark.parametrize("phi", [
    np.convolve([1, -np.exp(0.7j)], [1, -np.exp(0.7j)]),
    np.array([1, -1.01]),
], ids=["koebe-rotated", "pole-inside"])
def test_reciprocal_growing_coefficients_fall_back(recurrence_sizes, phi):
    a = np.zeros(2049, dtype=complex)
    a[: phi.size] = phi
    want = _reciprocal_loop(a)
    got = ComplexSeries(a).reciprocal().coeffs
    assert recurrence_sizes[1:] == [2049]
    assert np.max(np.abs(got / want - 1.0)) <= 1e-12


@pytest.mark.parametrize("q, size", [(2.0, 510), (1.5, 517), (2.0, 1024)])
def test_reciprocal_zero_inside_falls_back(recurrence_sizes, q, size):
    # 1/(1 - qz) = sum q^k z^k.  A gate on the 2-norms of all of a and r
    # passes Newton's result at (2, 510), whose middle coefficients are off
    # by up to 1e59 of their own size, and at (1.5, 517), where that norm
    # overflows; at (2, 1024) the sum of r's coefficients, 2^1024 - 1,
    # overflows in the FFT and the residual is NaN
    a = np.zeros(size, dtype=complex)
    a[:2] = [1.0, -q]
    got = ComplexSeries(a).reciprocal().coeffs
    assert recurrence_sizes[1:] == [size]
    assert np.max(np.abs(got / q ** np.arange(size) - 1.0)) <= 1e-12


def test_reciprocal_ex32_at_order_million():
    a = build(FamilySpec(FamilyVariant.EX32, order=10 ** 6)).phi.coeffs
    r = ComplexSeries(a).reciprocal().coeffs
    size = 1 << 21
    prod = np.fft.ifft(np.fft.fft(a, size) * np.fft.fft(r, size))[: a.size]
    prod[0] -= 1.0
    assert np.max(np.abs(prod)) <= 1e-15


# ---------------------------------------------------------------------------
# derivative
# ---------------------------------------------------------------------------

def test_derivative_basic():
    assert_coeffs(series(1, 0, 1).derivative(), [0, 2])


def test_derivative_constant_is_zero():
    assert_coeffs(series(5).derivative(), [0])


def test_derivative_family_phi():
    # d/dz (1 + (1-a) z + a z^3) with a = 1/4
    assert_coeffs(series(1, 0.75, 0, 0.25).derivative(), [0.75, 0, 0.75])


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_at_zero_gives_constant():
    assert series(3 + 1j, 5, 7).eval(0) == 3 + 1j


def test_eval_geometric_partial_sum():
    s = ComplexSeries(np.ones(51))
    assert abs(s.eval(0.5) - 2.0) <= 1e-12


def test_eval_vectorized_matches_scalar():
    s = series(1, 2, 3, 4)
    pts = np.array([0.1 + 0.2j, -0.5, 0.9j])
    vec = s.eval(pts)
    for z, v in zip(pts, vec):
        assert abs(s.eval(complex(z)) - v) <= 1e-15


def _horner_loop(c, pts):
    """Reference: one Horner step per coefficient."""
    acc = np.full(pts.shape, c[-1], dtype=complex)
    for k in range(c.size - 2, -1, -1):
        acc = acc * pts + c[k]
    return acc


@pytest.mark.parametrize("order, points", [(5000, 64), (100_000, 16), (2000, 600)])
def test_eval_blocks_match_horner_loop(order, points):
    # rows of 64 and of 256 coefficients
    rng = np.random.default_rng(41)
    s = ball_coefficients(rng, order, decay=0.999)
    pts = 0.99 * np.exp(2j * np.pi * rng.random(points))
    mass = np.sum(np.abs(s.coeffs) * 0.99 ** np.arange(s.coeffs.size))
    want = _horner_loop(s.coeffs, pts)
    assert np.max(np.abs(s.eval(pts) - want)) <= 1e-13 * mass
    assert abs(s.eval(complex(pts[0])) - want[0]) <= 1e-13 * mass


@pytest.mark.parametrize("zeros", [0, 3], ids=["no-trailing-zeros", "trailing-zeros"])
@pytest.mark.parametrize("size", [1, 8, 1025, 100_001])
def test_eval_skips_trailing_zeros(size, zeros):
    rng = np.random.default_rng(size)
    c = rng.uniform(-1, 1, size) + 1j * rng.uniform(-1, 1, size)
    c[size - min(zeros, size):] = 0.0  # size 1: the zero series
    trimmed = c[: np.flatnonzero(c)[-1] + 1] if c.any() else c[:1]
    pts = 0.9 * np.exp(2j * np.pi * rng.random(16))
    s, cut = ComplexSeries(c), ComplexSeries(trimmed)
    assert np.array_equal(s.eval(pts), cut.eval(pts))
    assert s.eval(complex(pts[0])) == cut.eval(complex(pts[0]))


@pytest.mark.parametrize("points", [1, 64, 600])
def test_eval_matches_horner_at_every_length(points):
    # one blocked algorithm from 1 coefficient up
    rng = np.random.default_rng(points)
    pts = 0.999 * np.sqrt(rng.random(points)) * np.exp(2j * np.pi * rng.random(points))
    for size in (1, 2, 3, 4, 8, 16, 129, 513, 1024, 1025, 2049):
        c = rng.uniform(-1, 1, size) + 1j * rng.uniform(-1, 1, size)
        mass = np.abs(c) @ np.abs(pts[None]) ** np.arange(size)[:, None]
        gap = np.abs(ComplexSeries(c).eval(pts) - _horner_loop(c, pts))
        assert np.all(gap <= 1e-13 * mass), (size, np.max(gap / mass))


def _spy_powers(monkeypatch):
    """The shapes of the power tables eval builds from now on."""
    shapes = []
    powers = diskmean.series._powers

    def spy(x, count):
        table = powers(x, count)
        shapes.append(table.shape)
        return table

    monkeypatch.setattr(diskmean.series, "_powers", spy)
    return shapes


@pytest.mark.parametrize("points", [1, 64, 500, 5000])
@pytest.mark.parametrize("size", [2, 4, 9, 129, 513, 1024, 1025, 100_000])
def test_eval_takes_sqrt_n_giant_steps(monkeypatch, size, points):
    # the about sqrt(N) giant steps are a second doubled table, not a loop
    # over the rows: each chunk builds z**0 .. z**(L-1), and w**0 .. w**R
    # (w = z**L) when there is a full row, and the two together stay within
    # the chunk budget
    shapes = _spy_powers(monkeypatch)
    c = np.random.default_rng(size).uniform(0.5, 1.0, size)  # no zero to trim
    # on |z| = 1 no row can be cut
    ComplexSeries(c).eval(np.exp(2j * np.pi * np.arange(points) / points))
    width = 1 << (size.bit_length() // 2)
    rows = (size - 1) // width
    counts = [width, rows + 1] if rows else [width]
    assert max(counts) <= 2 * int(np.ceil(np.sqrt(size))) + 1
    chunks = [shapes[i: i + len(counts)] for i in range(0, len(shapes), len(counts))]
    assert sum(chunk[0][1] for chunk in chunks) == points
    for chunk in chunks:
        assert [count for count, _ in chunk] == counts, shapes
        assert len({n for _, n in chunk}) == 1, shapes
        assert sum(count * n for count, n in chunk) <= diskmean.series._CHUNK_VALUES
    if points <= 500 and size <= 1025:
        assert len(chunks) == 1  # short series do not split hundreds of points


def _kept_rows(c, width, rho):
    """Q + 1, Q the least row index with sum_{q>Q} A_q rho**(qL) <= eps
    sum_{m<L} |c_m| rho**m, A_q the modulus sum of row q, one row at a time."""
    rows = [np.sum(np.abs(c[j: j + width])) for j in range(0, c.size, width)]
    head = sum(abs(c[m]) * rho ** m for m in range(width))
    for q in range(len(rows)):
        tail = sum(rows[j] * rho ** (j * width) for j in range(q + 1, len(rows)))
        if tail <= np.finfo(np.float64).eps * head:
            return q + 1
    raise AssertionError("the last row always has an empty tail")


@pytest.mark.parametrize("points", [1, 64, 500])
@pytest.mark.parametrize("size", [129, 513, 1024, 1025, 100_000])
def test_eval_giant_steps_cover_the_kept_prefix(monkeypatch, size, points):
    # at |z| = 0.5 the rows past the cut are dropped before either table is
    # built: the tables cover exactly rows 0..Q, with the same width
    shapes = _spy_powers(monkeypatch)
    c = np.random.default_rng(size).uniform(0.5, 1.0, size)
    ComplexSeries(c).eval(0.5 * np.exp(2j * np.pi * np.arange(points) / points))
    width = 1 << (size.bit_length() // 2)
    kept = _kept_rows(c, width, 0.5)
    assert kept < (size - 1) // width + 1  # some row is dropped
    counts = [width, kept] if kept > 1 else [width]
    chunks = [shapes[i: i + len(counts)] for i in range(0, len(shapes), len(counts))]
    assert sum(chunk[0][1] for chunk in chunks) == points
    for chunk in chunks:
        assert [count for count, _ in chunk] == counts, shapes


def _cut_cases():
    # geometric decay, a ball series' f = z/phi (FFT rounding near 5e-17
    # past degree 1000, no trailing zero) and ex32's k**-5
    yield "ball-0.99", ball_coefficients(np.random.default_rng(7), 8192, decay=0.99)
    yield "ball-0.999", ball_coefficients(np.random.default_rng(8), 8192, decay=0.999)
    yield "ball-f", from_phi(ball_coefficients(np.random.default_rng(9), 8192)).f_series()
    yield "ex32", build(FamilySpec(FamilyVariant.EX32, order=2 ** 17)).phi


@pytest.mark.parametrize("rho", [0.5, 0.9, 0.999])
def test_eval_cut_matches_horner_loop(rho):
    # the dropped rows stay within eps sum_k |c_k| |z|**k at every point,
    # so the cut value keeps the uncut bound against one Horner step per
    # coefficient; one point on |z| = rho, the rest inside
    rng = np.random.default_rng(int(rho * 1000))
    radius = rho * np.sqrt(rng.random(16))
    radius[0] = rho
    pts = radius * np.exp(2j * np.pi * rng.random(16))
    for name, s in _cut_cases():
        c = s.coeffs
        mass = np.abs(c) @ np.abs(pts[None]) ** np.arange(c.size)[:, None]
        gap = np.abs(s.eval(pts) - _horner_loop(c, pts))
        assert np.all(gap <= 1e-13 * mass), (name, np.max(gap / mass))


def _giant_counts(monkeypatch, s, pts):
    shapes = _spy_powers(monkeypatch)
    with np.errstate(all="ignore"):  # values at inf are not asked for
        s.eval(pts)
    return [count for count, _ in shapes]


@pytest.mark.parametrize("pts", [
    [0.5, 1.0], [0.5, 1.0 + 1e-16j], [0.5, np.nan], [0.5, complex(np.nan, 0.5)],
    [0.5, np.inf], [0.5, -np.inf], [complex(0.1, np.inf)]],
    ids=["one", "past-one", "nan", "nan-real", "inf", "-inf", "inf-imag"])
def test_eval_cuts_nothing_at_or_past_the_unit_circle(monkeypatch, pts):
    # every row is kept, and the check keeps no row sums
    c = np.random.default_rng(3).uniform(0.5, 1.0, 5001)
    s = ComplexSeries(c)
    assert _giant_counts(monkeypatch, s, np.array(pts)) == [64, 79]
    assert s._sums == ()


def test_eval_of_no_point_keeps_nothing():
    s = build(FamilySpec(FamilyVariant.EX32, order=2 ** 15)).phi
    assert s.eval(np.array([], dtype=complex)).shape == (0,)
    assert s.eval(np.zeros((3, 0))).shape == (3, 0)
    assert s._sums == ()


def test_eval_keeps_a_lone_far_coefficient(monkeypatch):
    # rows 1..77 are zero; the suffix sum still sees c_5000 in the last row
    c = np.zeros(5001, dtype=complex)
    c[0], c[5000] = 1.0, 0.5
    s = ComplexSeries(c)
    z = 0.999 * np.exp(2j * np.pi * np.arange(8) / 8)
    assert _giant_counts(monkeypatch, s, z) == [64, 79]
    # z**5000 by either path carries up to about 5000 eps relative error
    assert np.max(np.abs(s.eval(z) - (1.0 + 0.5 * z ** 5000))) <= 1e-12


@pytest.mark.parametrize("size", [9, 1025, 131_073])
def test_eval_keeps_row_sums_only_past_one_full_row(size):
    # 4 coefficients have one full row of 2: nothing to cut, no work
    s = ComplexSeries(np.ones(4))
    s.eval(0.5)
    assert s._sums == ()
    s = ComplexSeries(np.ones(size))
    s.eval(0.5)
    assert [key for key, _ in s._sums] == [("eval rows", 1 << (size.bit_length() // 2))]


@pytest.mark.parametrize("name", ["ball-f", "ex32"])
def test_eval_row_sums_hit_equals_miss(name):
    s = dict(_cut_cases())[name]
    fresh = ComplexSeries._adopt(s.coeffs.copy())
    z = 0.9 * np.exp(2j * np.pi * np.arange(64) / 64)
    cold = fresh.eval(z)
    assert fresh._sums  # the row sums are kept
    for pts in (z[:3], 0.5j, 0.999 * z):  # a hit at other radii
        s.eval(pts)
        other = ComplexSeries._adopt(s.coeffs.copy())
        assert np.asarray(s.eval(pts)).tobytes() == np.asarray(other.eval(pts)).tobytes()
    assert fresh.eval(z).tobytes() == cold.tobytes()


def test_eval_row_sums_read_only_and_bounded():
    s = build(FamilySpec(FamilyVariant.EX32, order=2 ** 17)).phi
    s.eval(0.9)
    s.on_circle(0.999, 8192)
    (key, value), *_ = s._sums
    width = 1 << (s.coeffs.size.bit_length() // 2)
    assert key == ("eval rows", width)
    assert value.shape == ((s.coeffs.size - 1) // width + 1,)
    want = [np.sum(np.abs(s.coeffs[j: j + width])) for j in range(0, s.coeffs.size, width)]
    assert np.allclose(value, want, rtol=1e-14, atol=0)
    assert sum(v.nbytes for _, v in s._sums) <= s.coeffs.nbytes
    assert not value.flags.writeable
    with pytest.raises(ValueError):
        value[0] = 0.0


@pytest.mark.parametrize("size, points", [(1_000_000, 1), (131_077, 4), (8193, 3000)],
                         ids=["1e6-one-point", "131077-four-points", "many-chunks"])
def test_eval_giant_table_matches_horner_loop(size, points):
    # points near |z| = 1 - 1/N keep the last rows' terms near e**-1 of the
    # first ones, so every giant power counts; 3000 points at 8193
    # coefficients take three chunks
    rng = np.random.default_rng(size)
    c = rng.uniform(-1, 1, size) + 1j * rng.uniform(-1, 1, size)
    radius = 1.0 - 1.0 / size
    pts = radius * np.exp(2j * np.pi * rng.random(points))
    mass = np.abs(c) @ radius ** np.arange(size)
    gap = np.abs(ComplexSeries(c).eval(pts) - _horner_loop(c, pts))
    assert np.all(gap <= 1e-13 * mass), np.max(gap / mass)


def test_eval_short_series_at_huge_point():
    # no full row, so z**L is never formed: squaring 1e200 would overflow
    assert ComplexSeries([1, 1]).eval(1e200) == 1e200


def test_eval_zero_series():
    pts = 0.9 * np.exp(2j * np.pi * np.arange(8) / 8)
    assert np.array_equal(ComplexSeries([0]).eval(pts), _horner_loop(np.zeros(1), pts))
    assert ComplexSeries([0]).eval(0.5) == 0


@pytest.mark.parametrize("r", [0.9, 0.999])
def test_on_circle_fold_matches_horner(r):
    # 10001 coefficients on 1024 points: every point sums ~10 aliases
    s = ball_coefficients(np.random.default_rng(43), 10_000, decay=0.9995)
    grid = 1024
    pts = r * np.exp(1j * 2.0 * np.pi * np.arange(grid) / grid)
    mass = np.sum(np.abs(s.coeffs) * r ** np.arange(s.coeffs.size))
    got = s.on_circle(r, grid)
    assert np.max(np.abs(got - _horner_loop(s.coeffs, pts))) <= 1e-13 * mass


# on_circle against Horner: C * eps * log2(grid) * sum_k |w_k| |c_k| r**k.
# The reference's points are doubles, so its angles are off by up to
# eps * theta and z**k by k times that; for weights growing like k**3 on
# r = 0.999 that rounding, not the fold's, sets the gap (at most 28 of
# these units over the sizes and weights below, where an extended-precision
# sum with exactly reduced angles puts the fold itself within 0.3).
_FOLD_C = 64


def _fold_bound(weighted_coeffs, r, grid):
    mass = np.sum(np.abs(weighted_coeffs) * r ** np.arange(weighted_coeffs.size))
    return _FOLD_C * np.finfo(np.float64).eps * np.log2(grid) * mass


@pytest.mark.parametrize("grid", [16, 4096, 8192])
def test_on_circle_matches_horner_at_every_length(grid):
    # shorter than, as long as and longer than the grid, with and without
    # full rows past the first block; plain values and the four kinds'
    # weights, which on_circle applies from k = 2 on
    r = 0.999
    pts = r * np.exp(1j * 2.0 * np.pi * np.arange(grid) / grid)
    for size in sorted({1, 2, 3, 129, 1024, 1025, grid - 1, grid, grid + 1}):
        s = ball_coefficients(np.random.default_rng(size), size - 1, decay=0.999)
        k = np.arange(size, dtype=float)
        want = _horner_loop(s.coeffs, pts)
        bound = _fold_bound(s.coeffs, r, grid)
        assert np.max(np.abs(s.on_circle(r, grid) - want)) <= bound
        for kind, weight in _KIND_WEIGHTS.items():
            w = np.where(k >= 2, weight(k), 0.0) * s.coeffs
            plain, weighted = s.on_circle(r, grid, weight)
            assert np.max(np.abs(plain - want)) <= bound
            gap = np.max(np.abs(weighted - _horner_loop(w, pts)))
            assert gap <= _fold_bound(w, r, grid), (size, kind)


def test_on_circle_koebe_minimum():
    # Koebe's phi (1 - z)**2 at order 128: its minimum on r = 0.999 is
    # (1 - 0.999)**2 = 1e-6, at theta = 0
    s = ComplexSeries([1, -2, 1] + [0] * 126)
    low = np.min(np.abs(s.on_circle(0.999, 4096)))
    assert abs(low - 1e-6) <= _fold_bound(s.coeffs, 0.999, 4096)


@pytest.mark.parametrize("weight", [
    lambda k: np.full_like(k, 3.0),
    lambda k: -(k - 1.0),
    lambda k: k * k - 5.0 * k,
    lambda k: (k - 1.0) ** 3,
], ids=["degree0", "degree1", "degree2", "degree3"])
@pytest.mark.parametrize("size", [10, 64, 65, 1000])
def test_weighted_on_circle_matches_horner(weight, size):
    # fewer, as many and more coefficients than grid points; the weight is
    # applied from k = 2 on
    s = ball_coefficients(np.random.default_rng(size), size - 1, decay=0.99)
    grid, r = 64, 0.7
    k = np.arange(size, dtype=float)
    w = np.where(k >= 2, weight(k), 0.0)
    pts = r * np.exp(1j * 2.0 * np.pi * np.arange(grid) / grid)
    plain, weighted = s.on_circle(r, grid, weight)
    mass = np.sum(np.abs(s.coeffs) * r ** k)
    assert np.max(np.abs(plain - _horner_loop(s.coeffs, pts))) <= 1e-13 * mass
    mass = np.sum(np.abs(w * s.coeffs) * r ** k)
    assert np.max(np.abs(weighted - _horner_loop(w * s.coeffs, pts))) <= 1e-13 * mass


@pytest.mark.parametrize("source", [
    lambda: ComplexSeries([1, -2, 1]),
    lambda: ball_coefficients(np.random.default_rng(67), 128),
    lambda: build(FamilySpec(FamilyVariant.EX32, order=2 ** 17)).phi,
], ids=["short", "padded", "folded"])
def test_on_circle_radii_equal_stacked_scalar_calls(source):
    # one fold for every radius gives each circle exactly its own values
    s = source()
    radii, grid = [0.999, 0.9, 0.99], 4096
    assert s.on_circle(0.9, grid).shape == (grid,)
    assert s.on_circle([0.9], grid).shape == (1, grid)
    for weight in (None, *_KIND_WEIGHTS.values()):
        batched = s.on_circle(radii, grid, weight)
        stacked = [s.on_circle(r, grid, weight) for r in radii]
        if weight is None:
            batched, stacked = (batched,), [(v,) for v in stacked]
        for part, values in enumerate(batched):
            assert values.shape == (len(radii), grid)
            assert np.array_equal(values, np.array([v[part] for v in stacked]))


def _direct_fold(c, r, grid, weight=None):
    # every term weight(k) c_k r**k (k >= 2 with a weight) added into its
    # residue mod grid, all rows at once, then one inverse FFT per circle
    k = np.arange(float(c.size))
    terms = c if weight is None else np.where(k >= 2, weight(k), 0.0) * c
    rows = -(-c.size // grid)
    out = []
    for rad in np.atleast_1d(r):
        padded = np.zeros(rows * grid, dtype=complex)
        padded[: c.size] = terms * np.power(rad, k)
        out.append(np.fft.ifft(padded.reshape(rows, grid).sum(axis=0), norm="forward"))
    return np.reshape(out, np.shape(r) + (grid,))


def _blocked_fold(c, r, grid, weight):
    # on_circle's weighted sum written out: whole rows of weight(k) c_k, at
    # most 2**14 coefficients at a time, times s**q, then the first row and
    # the partial last one term by term, times r**m
    rad = np.reshape(np.asarray(r, dtype=np.float64), (-1, 1))
    rows, step, per = c.size // grid, rad ** grid, max((1 << 14) // grid, 1)
    folded = np.zeros((len(rad), grid), dtype=complex)
    for q in range(1, rows, per):
        end = min(q + per, rows)
        block = weight(np.arange(float(q * grid), end * grid)) * c[q * grid: end * grid]
        folded += (np.power(step, np.arange(float(q), end))
                   @ block.view(np.float64).reshape(end - q, 2 * grid)).view(complex)
    m = np.arange(grid, dtype=np.float64)
    tail = c[rows * grid:] * step ** rows
    folded[:, 2:] += weight(m[2:]) * c[2:grid]
    folded[:, : tail.shape[1]] += weight(m[: tail.shape[1]] + rows * grid) * tail
    folded *= np.power(rad, m)
    return np.fft.ifft(folded, norm="forward").reshape(np.shape(r) + (grid,))


@pytest.mark.parametrize("radii, grid", [((0.9, 0.99, 0.999), 4096), (0.999, 8192),
                                         (0.9999, 2048)])
def test_kept_fold_matches_fold_at_weight_degree(radii, grid):
    # a miss, then a hit, against every term added into its residue afresh
    s = build(FamilySpec(FamilyVariant.EX32, order=2 ** 17)).phi
    for _ in range(2):
        for weight in (None, *_KIND_WEIGHTS.values()):
            got = s.on_circle(radii, grid, weight)
            got = (got,) if weight is None else got
            for part, w in zip(got, (None, weight)):
                want = _direct_fold(s.coeffs, radii, grid, w)
                assert np.max(np.abs(part - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("source", [
    lambda: build(FamilySpec(FamilyVariant.EX32, order=2 ** 17 + 7)).phi,
    # random rows, where adding the terms in another order changes bits
    lambda: ComplexSeries([1, 1j] @ np.random.default_rng(5).standard_normal(
        (2, 2 ** 17 + 7))),
], ids=["ex32", "random"])
@pytest.mark.parametrize("kind", list(FunctionalKind))
def test_weighted_fold_bytes_equal_explicit_sum(kind, source):
    # on_circle's weighted values give the bytes of its sum written out in
    # the test, and lie within the fold's bound of the direct sum
    s = source()
    radii = (0.9, 0.99, 0.999)
    _, got = s.on_circle(radii, 4096, kind.weight)
    assert got.tobytes() == _blocked_fold(s.coeffs, radii, 4096, kind.weight).tobytes()
    k = np.arange(float(s.coeffs.size))
    w = np.where(k >= 2, kind.weight(k), 0.0) * s.coeffs
    for r, values, want in zip(radii, got, _direct_fold(s.coeffs, radii, 4096, kind.weight)):
        assert np.max(np.abs(values - want)) <= _fold_bound(w, r, 4096)


def test_kept_hit_returns_the_bits_of_a_miss():
    coeffs = build(FamilySpec(FamilyVariant.EX32, order=2 ** 17 + 7)).phi.coeffs
    s = ComplexSeries(coeffs)
    for weight in (None, *_KIND_WEIGHTS.values()):
        for radii, grid in (((0.9, 0.99, 0.999), 4096), (0.999, 8192)):
            miss = s.on_circle(radii, grid, weight)
            hit = s.on_circle(radii, grid, weight)
            cold = ComplexSeries(coeffs).on_circle(radii, grid, weight)
            for got in (hit, cold):
                assert np.asarray(got).tobytes() == np.asarray(miss).tobytes()
            for part in (miss,) if weight is None else miss:
                assert not part.flags.writeable


def test_kept_sums_bounded_oldest_first_and_read_only():
    # 32769 coefficients, 512 KiB: each radius keeps two entries of 64 KiB,
    # plain and weighted, so the last four radii's fit
    s = build(FamilySpec(FamilyVariant.EX32, order=2 ** 15)).phi
    weight = _KIND_WEIGHTS[FunctionalKind.N]
    radii = [0.5 + 0.04 * j for j in range(12)]
    for r in radii:
        s.on_circle(r, 4096, weight)
    want = [((r,), 4096, w) for r in radii[8:] for w in (None, weight)]
    assert [key for key, _ in s._sums] == want
    # ten radii at once take more bytes than the coefficients: not kept
    s.on_circle(radii[:10], 4096, weight)
    assert [key for key, _ in s._sums] == want
    assert sum(v.nbytes for _, v in s._sums) <= s.coeffs.nbytes
    for _, value in s._sums:
        assert not value.flags.writeable
        with pytest.raises(ValueError):
            value[0] = 0.0


def test_kept_sums_plain_fold_at_degree_zero():
    # the plain values, those of the weight of degree 0, under weight None
    s = build(FamilySpec(FamilyVariant.EX32, order=2 ** 15)).phi
    weight = _KIND_WEIGHTS[FunctionalKind.U]
    s.on_circle(0.999, 2048)
    s.on_circle(0.999, 2048, weight)
    assert [(key, v.shape) for key, v in s._sums] == [
        (((0.999,), 2048, None), (1, 2048)), (((0.999,), 2048, weight), (1, 2048))]


@pytest.mark.parametrize("size", [1, 100, 4096, 8191])
def test_series_without_a_full_row_past_the_grid_keep_nothing(size):
    s = ball_coefficients(np.random.default_rng(size), size - 1)
    for weight in (None, *_KIND_WEIGHTS.values()):
        s.on_circle([0.9, 0.999], 4096, weight)
    assert s._sums == ()


@pytest.mark.parametrize("radii, length", [((0.9, 0.99, 0.999), 4096), ((0.999,), 8192),
                                           ((0.5,), 7), ((-0.0, 0.0), 3)])
def test_radius_power_tables_built_once_read_only(radii, length):
    rad = np.reshape(np.array(radii), (-1, 1))
    table = diskmean.series._radius_powers(rad.tobytes(), length)
    assert diskmean.series._radius_powers(rad.tobytes(), length) is table
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 0.0
    # bit for bit, so -0.0 and +0.0 keep their own odd powers
    assert table.tobytes() == np.power(rad, np.arange(float(length))).tobytes()


def test_fold_tables_bounded_and_shared():
    # a fresh copy of ex32 at 2^13 keeps no values, so each fold reads the
    # table: the plain and the weighted fold of the first call, then the
    # second copy's two
    coeffs = build(FamilySpec(FamilyVariant.EX32, order=2 ** 13)).phi.coeffs
    weight = _KIND_WEIGHTS[FunctionalKind.M]
    cache = diskmean.series._radius_powers
    cache.cache_clear()
    first = ComplexSeries(coeffs).on_circle([0.9, 0.999], 1024, weight)
    assert (cache.cache_info().misses, cache.cache_info().hits) == (1, 1)
    again = ComplexSeries(coeffs).on_circle([0.9, 0.999], 1024, weight)
    assert (cache.cache_info().misses, cache.cache_info().hits) == (1, 3)
    for a, b in zip(first, again):
        assert a.tobytes() == b.tobytes()
    for j in range(40):
        ComplexSeries(coeffs).on_circle(0.5 + 0.01 * j, 64 + j, weight)
    info = cache.cache_info()
    assert 0 < info.maxsize <= 16
    assert info.currsize == info.maxsize


def test_check_membership_matches_fold_recomputed_afresh():
    f = build(FamilySpec(FamilyVariant.EX32, order=2 ** 17))
    radii, grid = (0.9, 0.99, 0.999), 4096
    theta = circle_angles(grid)
    phis = _direct_fold(f.phi.coeffs, radii, grid)
    for kind in FunctionalKind:
        diskmean.series._radius_powers.cache_clear()
        # a cold table and nothing kept, then every value kept: one report
        cold = check_membership(kind, f, radii, grid)
        assert check_membership(kind, f, radii, grid) == cold
        # the direct sum rounds otherwise, so extrema agree to 1e-13
        values = _direct_fold(f.phi.coeffs, radii, grid, _KIND_WEIGHTS[kind])
        assert cold.zeros_inside == zero_count(phis[-1]) == 0
        for scan, r, v in zip(cold.scans, radii, values):
            want = scan_report(kind, r, theta, v)
            assert scan.extremal_angle == want.extremal_angle
            assert scan.extremal_value == pytest.approx(want.extremal_value, rel=1e-13, abs=0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_eval_derivative_matches_finite_difference(seed):
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1, 1, 24) + 1j * rng.uniform(-1, 1, 24)
    s = ComplexSeries(c)
    z = 0.9 * rng.random() * np.exp(2j * np.pi * rng.random())
    h = 1e-5
    fd = (s.eval(z + h) - s.eval(z - h)) / (2 * h)
    assert abs(s.derivative().eval(z) - fd) <= 1e-6


# ---------------------------------------------------------------------------
# ring axioms of mul at shared order
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_ring_axioms(seed):
    rng = np.random.default_rng(seed)
    a = ball_coefficients(rng, 24, decay=0.5, mass=0.8)
    b = ball_coefficients(rng, 24, decay=0.5, mass=0.8)
    c = ball_coefficients(rng, 24, decay=0.5, mass=0.8)
    comm = a.mul(b).coeffs - b.mul(a).coeffs
    assert np.max(np.abs(comm)) <= 1e-14
    assoc = a.mul(b).mul(c).coeffs - a.mul(b.mul(c)).coeffs
    assert np.max(np.abs(assoc)) <= 1e-13
    # distributivity over coefficient-wise sums
    dist = (a.mul(ComplexSeries(b.coeffs + c.coeffs)).coeffs
            - (a.mul(b).coeffs + a.mul(c).coeffs))
    assert np.max(np.abs(dist)) <= 1e-14


def test_invariants_rejected():
    with pytest.raises(ValueError):
        ComplexSeries([])
    with pytest.raises(ValueError):
        ComplexSeries([1.0, np.nan])
    with pytest.raises(ValueError):
        ComplexSeries([1.0, np.inf])


def test_infinite_imaginary_part_rejected():
    with pytest.raises(ValueError, match="finite"):
        ComplexSeries([1.0, complex(1.0, np.inf)])


def test_constructor_copies_outside_input():
    arr = np.array([1.0, 2.0, 3.0], dtype=np.complex128)
    s = ComplexSeries(arr)
    arr[1] = 9.0
    assert s.coeffs[1] == 2.0
    assert arr.flags.writeable
    assert not s.coeffs.flags.writeable


def test_adopt_keeps_constructor_checks():
    for bad in (np.zeros(0, dtype=np.complex128), np.ones((2, 2), dtype=np.complex128),
                np.array([1.0, complex(0.0, np.inf)])):
        with pytest.raises(ValueError):
            ComplexSeries._adopt(bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("part", ["real", "imag"])
@pytest.mark.parametrize("make", [ComplexSeries, ComplexSeries._adopt],
                         ids=["constructor", "adopt"])
def test_non_finite_part_refused(make, part, bad):
    c = np.ones(5000, dtype=np.complex128)
    setattr(c[4321:4322], part, bad)
    with pytest.raises(ValueError, match="finite"):
        make(c)


_A = ball_coefficients(np.random.default_rng(11), 80)
_B = ball_coefficients(np.random.default_rng(12), 40)


@pytest.mark.parametrize("make", [
    lambda: _A.mul(_B),
    lambda: _A.derivative(), lambda: ComplexSeries([3.0]).derivative(),
    lambda: _B.reciprocal(), lambda: _A.reciprocal(),
    lambda: ComplexSeries.one(4),
    lambda: ball_coefficients(np.random.default_rng(1), 8),
    lambda: functional_series(FunctionalKind.P, from_phi(_A)),
    lambda: functional_series(FunctionalKind.M, from_phi(_A)),
    lambda: functional_series(FunctionalKind.P, from_phi(ComplexSeries([1.0]))),
    lambda: koebe_function(8).phi,
    lambda: build(FamilySpec(FamilyVariant.EX32, order=300)).phi,
    lambda: harmonic_mean(from_phi(_A), from_phi(_B)).mean.phi,
], ids=["mul", "derivative", "derivative-constant",
        "reciprocal-recurrence", "reciprocal-newton", "one",
        "ball", "functional-P", "functional-M", "functional-P-constant", "koebe",
        "build", "harmonic_mean"])
def test_internal_results_own_read_only_arrays(make):
    c = make().coeffs
    assert c.dtype == np.complex128
    assert not c.flags.writeable
    for operand in (_A, _B):
        assert not np.shares_memory(c, operand.coeffs)


def test_immutable():
    s = series(1, 2)
    with pytest.raises((AttributeError, ValueError)):
        s.coeffs = np.zeros(2)
    with pytest.raises(ValueError):
        s.coeffs[0] = 5.0
