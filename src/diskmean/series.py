"""Truncated power series with complex coefficients.

A :class:`ComplexSeries` holds coefficients c_0..c_N of a polynomial that
stands in for a Taylor series truncated at degree N; the caller picks the
error budget up front by choosing N.  Each result keeps the degree it is
exact to: the reciprocal keeps N, the derivative drops one, and f = z/phi
(``NormalizedFunction.f_series``) holds N + 2 coefficients, since its
z^(N+1) term needs only c_0..c_N.  :meth:`ComplexSeries.mul` truncates at
the smaller order; the package never calls it, and it stays only as the
layer the benchmark's tracer times.

Values are immutable after construction and every operation is a pure
function, so instances can be shared freely between threads.

A series owns its coefficient array.  The constructor copies its argument,
so later writes to an array from outside cannot reach the series; the
arrays the package builds itself (families, functional series, means and
every operation here) are adopted without a copy by
:meth:`ComplexSeries._adopt`.  Both paths check the same invariants (1-D,
non-empty, finite) and make the array read-only.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import LeadingCoefficientNearZero

#: Default truncation degree.  The functions treated by this package are
#: either polynomials of modest degree or have coefficients decaying at
#: least like k**-5, so 128 terms keep tails far below every tolerance used
#: on |z| <= 0.999.
DEFAULT_ORDER = 128

#: Reciprocal refuses a leading coefficient of modulus at or below this:
#: the inverse's k-th coefficient carries up to k + 1 factors of 1/a_0, by
#: either algorithm, so noise would swamp every useful tolerance.
EPS_LEAD = 1e-12

# reciprocal runs the recurrence alone on at most _NEWTON_MIN coefficients
# and seeds Newton iteration with it on longer series.  The recurrence and
# gated Newton, its products at cyclic length t - 1, tie at 129 to 137
# coefficients (over 65..289, one thread); of the limits 32, 64 and 128, 64
# gave the least total time over 49..289 coefficients.
_NEWTON_MIN = 64

# eval takes as many points at a time as keep its two power tables, of
# about sqrt(N) rows each, within _CHUNK_VALUES values (4 MiB): short series
# take hundreds of points in one chunk, long ones a hundred or so.
_CHUNK_VALUES = 1 << 18

# highest polynomial degree of the weights on_circle accepts
_WEIGHT_DEGREE = 3


class ComplexSeries:
    """Coefficients of a truncated complex power series, degree 0 first."""

    __slots__ = ("coeffs",)

    coeffs: np.ndarray

    def __init__(self, coeffs) -> None:
        self._own(np.array(coeffs, dtype=np.complex128))

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> "ComplexSeries":
        """The series of ``arr``, a complex128 array the caller has just
        built and holds no other reference to, taken over without a copy."""
        series = object.__new__(cls)
        series._own(arr)
        return series

    def _own(self, arr: np.ndarray) -> None:
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must be a non-empty 1-D sequence")
        if not np.isfinite(arr).all():
            raise ValueError("coefficients must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("ComplexSeries is immutable")

    # ------------------------------------------------------------------
    # basics
    # ------------------------------------------------------------------
    @property
    def order(self) -> int:
        """Truncation degree N; the series has N + 1 stored coefficients."""
        return self.coeffs.size - 1

    @classmethod
    def one(cls, order: int = DEFAULT_ORDER) -> "ComplexSeries":
        c = np.zeros(order + 1, dtype=np.complex128)
        c[0] = 1.0
        return cls._adopt(c)

    def __repr__(self) -> str:
        head = np.array2string(self.coeffs[:4], precision=6, separator=", ")
        more = "" if self.order < 4 else f", ... ({self.order + 1} coeffs)"
        return f"ComplexSeries({head}{more})"

    # ------------------------------------------------------------------
    # product, calculus and inversion
    # ------------------------------------------------------------------
    def mul(self, other: "ComplexSeries") -> "ComplexSeries":
        """Cauchy product truncated at the smaller operand order.

        No scan multiplies series; the product stays as the layer the
        benchmark's tracer times, until that tracer is retired.
        """
        n = min(self.coeffs.size, other.coeffs.size)
        full = np.convolve(self.coeffs, other.coeffs)
        # full is this call's own: shrink it in place rather than copy a slice
        full.resize(n, refcheck=False)
        return ComplexSeries._adopt(full)

    def derivative(self) -> "ComplexSeries":
        """Termwise derivative; the order drops by one."""
        c = self.coeffs
        if c.size == 1:
            return ComplexSeries._adopt(np.zeros(1, dtype=np.complex128))
        return ComplexSeries._adopt(c[1:] * np.arange(1, c.size))

    def reciprocal(self) -> "ComplexSeries":
        """Multiplicative inverse, same order.

        Up to 64 coefficients this is the standard recurrence r_0 = 1/a_0,
        r_k = -(1/a_0) * sum_{j=1..k} a_j r_{k-j}.  A longer series goes
        through Newton iteration r <- r(2 - a r) (Brent & Kung, "Fast
        algorithms for manipulating formal power series", JACM 25, 1978),
        seeded with the recurrence on at most the first 64 coefficients.
        Each step about doubles the number m of known coefficients: with
        E = (a r)[m:t], t <= 2m, the next block is r[m:t] = -(r E)[0:t-m].
        Both products are FFTs, so N coefficients cost O(N log N) instead
        of O(N^2).

        Both products of a step run at one cyclic length, L =
        _fft_length(t - 1), and share one transform of r[:m].  A cyclic
        product of length L adds the coefficient of z^(d + L) to that of
        z^d, so only degrees past L - 1 can spoil it.  r[:m] E has degree at
        most t - 2, so nothing wraps.  For a r, degrees m..t-1 could only
        receive degrees from L + m on, and at L >= t those lie past the
        product's top degree, t + m - 2.  At L = t - 1, which every step of
        a 2^k + 1-coefficient series takes, the product is of a[:t-1] and
        r[:m]: degrees m..t-2 are exact and degree t - 1 lands on degree 0,
        so E's last entry is y_0 - a_0 r_0 + a_{t-1} r_0, with y the cyclic
        product and a_{t-1} r_0 the one term a[:t-1] leaves out.

        FFT rounding is bounded relative to the operands' 2-norms, not
        coefficient by coefficient, so the Newton result must pass a
        residual gate at every degree k < N (N the number of coefficients):
        |(a r - 1)_k| <= eps log2(2N) ||a_0..a_k||_2 ||r_0..r_k||_2, with
        eps the double-precision machine epsilon.  Taking only the terms up
        to degree k in the norms makes the gate hold each coefficient to
        its own scale.  The residual's product runs at _fft_length(2N - 2);
        at exactly 2N - 2 its top degree wraps onto degree 0, and that
        term, a_{N-1} r_{N-1}, is subtracted there.  Where r's coefficients
        grow (a zero of a on or inside the unit circle, as for Koebe's
        (1 - z)^2), rounding at the scale of the large late terms swamps
        the small early ones and the residual exceeds the gate by orders of
        magnitude; the result of the recurrence is returned then, and also
        when the residual is NaN.

        Raises:
            LeadingCoefficientNearZero: if ``|a_0| <= 1e-12``.
        """
        a = self.coeffs
        if abs(a[0]) <= EPS_LEAD:
            raise LeadingCoefficientNearZero(
                f"|a_0| = {abs(a[0]):.3e} <= {EPS_LEAD}")
        n = a.size
        if n > _NEWTON_MIN:
            # known counts n, ceil(n/2), ... down to the seed, so that every
            # step doubles or nearly doubles and the last one ends at n
            counts = [n]
            while counts[-1] > _NEWTON_MIN:
                counts.append((counts[-1] + 1) // 2)
            m = counts.pop()
            r = np.empty(n, dtype=np.complex128)
            r[:m] = _recurrence(a[:m])
            # overflow turns into inf/NaN, which the gate rejects
            with np.errstate(over="ignore", invalid="ignore"):
                for t in reversed(counts):
                    length = _fft_length(t - 1)
                    fr = np.fft.fft(r[:m], length)
                    # a[:t] is cropped to a[:t-1] when length = t - 1
                    prod = np.fft.ifft(np.fft.fft(a[:t], length) * fr)
                    high = prod[m:t]
                    if length < t:
                        # degree t - 1 wrapped onto degree 0
                        high = np.append(high, prod[0] - a[0] * r[0] + a[t - 1] * r[0])
                    fr *= np.fft.fft(high, length)
                    r[m:t] = -np.fft.ifft(fr)[: t - m]
                    m = t
                length = _fft_length(2 * n - 2)
                resid = np.fft.ifft(np.fft.fft(a, length) * np.fft.fft(r, length))[:n]
                if length < 2 * n - 1:
                    # degree 2n - 2 wrapped onto degree 0
                    resid[0] -= a[n - 1] * r[n - 1]
                resid[0] -= 1.0
                gate = np.finfo(np.float64).eps * np.log2(2 * n) * np.sqrt(
                    np.cumsum(np.abs(a) ** 2) * np.cumsum(np.abs(r) ** 2))
                if np.all(np.abs(resid) <= gate):  # False wherever NaN
                    return ComplexSeries._adopt(r)
        return ComplexSeries._adopt(_recurrence(a))

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def eval(self, z):
        """Value at a complex point or an array of scattered points.

        Values on a whole circle come from :meth:`on_circle`.  Trailing zero
        coefficients are skipped (scanned for only when the last one is 0).
        Every length takes one path (Paterson & Stockmeyer, SIAM J. Comput.
        2, 1973): rows of L = 2**(bitlen(N) // 2) ~ sqrt(N) coefficients times
        a table of z**0 .. z**(L-1) give every row's value, and a second
        table of w**0 .. w**R, w = z**L and R the number of full rows, sums
        them: the value is top w**R + sum_q row_q w**q, where the last row,
        1 to L coefficients, holds the top one.  Both tables double,
        x**(k..2k-1) = x**(0..k-1) * x**k, so a chunk of points costs
        O(log N) array steps.  Without a full row, z**L is never formed, so
        a short series does not overflow at a huge point.  As in Horner,
        the k-th term carries at most about k eps relative error, so the
        error is at worst about N eps sum_k |c_k| |z|**k; truncation error
        grows outside |z| <= 1.
        """
        pts = np.asarray(z, dtype=np.complex128)
        c = self.coeffs
        if c[-1] == 0:
            c = c[: c.size - int(np.argmax(c[::-1] != 0))]
        width = 1 << (c.size.bit_length() // 2)
        full = c[: (c.size - 1) // width * width].reshape(-1, width)
        rest = c[full.size:]
        flat = pts.reshape(-1)
        out = np.empty(flat.shape, dtype=np.complex128)
        chunk = max(_CHUNK_VALUES // (width + full.shape[0] + 1), 1)
        for start in range(0, flat.size, chunk):
            x = flat[start: start + chunk]
            table = _powers(x, width)
            value = rest @ table[: rest.size]
            if full.size:
                giant = _powers(table[-1] * x, full.shape[0] + 1)
                rows = full @ table
                rows *= giant[:-1]
                value *= giant[-1]
                value += rows.sum(axis=0)
            out[start: start + chunk] = value
        out = out.reshape(pts.shape)
        return complex(out) if isinstance(z, numbers.Number) else out

    __call__ = eval

    def on_circle(self, r, grid: int, weight=None):
        """Values at the points r e^{2 pi i j/grid}, j = 0..grid-1.

        ``r`` is one radius or a 1-D array of radii; the values have shape
        ``np.shape(r) + (grid,)``.  With ``weight``, the result is the pair
        of those values and the values of sum_{k>=2} weight(k) c_k z**k at
        the same points, from one pass over the coefficients.  ``weight``
        maps an array of degrees k (as floats) to the weights and must be a
        polynomial in k of degree at most 3.

        Every length goes through one fold (Henrici, SIAM Review 21, 1979):
        z**k and z**(k mod G) agree on the grid (G = grid), so summing
        c_k r**k over each residue class mod G gives a polynomial of degree
        below G with the same values there, which one inverse FFT evaluates.
        The block q = 0, the first min(N + 1, G) coefficients, is taken term
        by term, weighted with k < 2 left out exactly (subtracting those
        terms afterwards would lose accuracy where r**k is small); so is the
        partial last block.  Only a series with full rows of G past the
        first also needs the moments: with k = qG + m and s = r**G, Newton's
        forward formula gives weight(m + qG) = sum_i d_i(m) binom(q, i),
        where d_i(m) is the i-th difference of the weight at m with step G
        (exact for integer weights below 2**53).  One matrix product of the
        moments binom(q, i) s**q, q >= 1, with those rows gives
        S_i[m] = sum_{q>=1} binom(q, i) s**q c_{qG+m}; the weighted fold
        gains sum_i d_i(m) S_i[m] and the plain fold S_0[m].

        All radii's moments form one matrix, so that product reads the
        coefficients once, and one batched inverse FFT gives every circle:
        no coefficient is dropped, and memory is O(len(r) grid) beyond the
        coefficients.  For the weights of the four functionals the terms
        d_i(m) binom(q, i) share one sign, bar one of modulus 1 at m = 0,
        so the weighted values are accurate to a small multiple of
        eps log2(grid) sum_k |weight(k)| |c_k| r**k.
        """
        c = self.coeffs
        rad = np.reshape(np.asarray(r, dtype=np.float64), (-1, 1))
        head = min(c.size, grid)
        rows = max(c.size // grid, 1)
        step = rad ** grid
        m = np.arange(head, dtype=np.float64)
        folded = np.zeros((1 if weight is None else 2, len(rad), grid), dtype=np.complex128)
        if rows > 1:
            degree = 0
            if weight is not None:
                diffs = _forward_differences(weight, grid)
                degree = diffs.shape[0] - 1
            q = np.arange(1.0, rows)
            moments = _binomial_moments(np.power(step, q), q, degree)
            # all radii's real moments times the coefficients' (re, im)
            # pairs: one read of them, half the work of a complex product
            body = c[grid: rows * grid].view(np.float64).reshape(q.size, 2 * grid)
            sums = (moments.reshape(-1, q.size) @ body).view(np.complex128)
            sums = sums.reshape(len(rad), degree + 1, grid)
            folded[0] = sums[:, 0]
            if weight is not None:
                folded[1] = np.sum(diffs * sums, axis=1)
        tail = c[rows * grid:] * step ** rows
        folded[0, :, :head] += c[:head]
        folded[0, :, : tail.shape[1]] += tail
        if weight is not None:
            folded[1, :, 2:head] += weight(m[2:]) * c[2:head]
            folded[1, :, : tail.shape[1]] += weight(m[: tail.shape[1]] + rows * grid) * tail
        folded[:, :, :head] *= np.power(rad, m)
        values = np.fft.ifft(folded, norm="forward").reshape(len(folded), *np.shape(r), grid)
        return values[0] if weight is None else (values[0], values[1])


def _forward_differences(weight, step: int) -> np.ndarray:
    """Rows d_0 .. d_D of Newton's forward differences of ``weight`` with
    the given step, at m = 0 .. step-1: weight(m + q step) equals
    sum_i d_i[m] binom(q, i) for every q >= 0.

    ``weight`` must be a polynomial in k of degree at most 3; the table is
    exact while its values at k < 4 step are integers below 2**53.  A
    weight of lower degree has exactly zero higher differences, and those
    rows are left out, so D is the weight's degree.
    """
    m = np.arange(float(step))
    diffs = weight(m + step * np.arange(_WEIGHT_DEGREE + 1.0)[:, None])
    for i in range(1, diffs.shape[0]):
        diffs[i:] = diffs[i:] - diffs[i - 1: -1]
    while diffs.shape[0] > 1 and not diffs[-1].any():
        diffs = diffs[:-1]
    return diffs


def _binomial_moments(first: np.ndarray, q: np.ndarray, degree: int) -> np.ndarray:
    """first * binom(q, i) for i = 0 .. degree, stacked on a new axis
    before q's last one."""
    moments = np.empty(first.shape[:-1] + (degree + 1, q.size))
    moments[..., 0, :] = first
    for i in range(1, degree + 1):
        moments[..., i, :] = moments[..., i - 1, :] * (q - (i - 1)) / i
    return moments


def circle_angles(grid: int) -> np.ndarray:
    """The uniform closed-open angle grid 2 pi j/grid, j = 0..grid-1."""
    return 2.0 * np.pi * np.arange(grid) / grid


def _recurrence(a: np.ndarray) -> np.ndarray:
    """Coefficients of 1/a by the recurrence, one coefficient at a time."""
    inv = 1.0 / a[0]
    r = np.zeros(a.size, dtype=np.complex128)
    r[0] = inv
    for k in range(1, a.size):
        r[k] = -inv * np.dot(a[1: k + 1], r[k - 1:: -1])
    return r


def _fft_length(size: int) -> int:
    """The least L >= ``size`` of the form 2^j or 3 * 2^j, the FFT lengths
    of every product in :meth:`ComplexSeries.reciprocal`.

    Admitting a factor 5 shortens no product of a 2^k + 1-coefficient
    series and rounds worse at other sizes: Newton's result on ex31 at 8001
    coefficients moved from within 2.5e-13 to 8.3e-13 of the recurrence's.
    """
    length = 1 << (size - 1).bit_length()
    if 3 * length >= 4 * size:
        length = 3 * length // 4
    return length


def _powers(x: np.ndarray, count: int) -> np.ndarray:
    """Rows x**0 .. x**(count-1), doubled from row 0: rows k .. 2k-1 are
    rows 0 .. k-1 times x**k, and x**k is squared only while needed."""
    table = np.empty((count, x.size), dtype=np.complex128)
    table[0] = 1.0
    step, k = x, 1
    while k < count:
        m = min(k, count - k)
        np.multiply(table[:m], step, table[k: k + m])
        step, k = (step * step if 2 * k < count else step), 2 * k
    return table


def ball_coefficients(rng: np.random.Generator, order: int,
                      decay: float = 0.3, mass: float = 0.3) -> ComplexSeries:
    """Random series 1 + b_1 z + ... with geometrically decaying tail.

    The coefficients satisfy sum |b_k| = ``mass`` with |b_k| shrinking like
    ``decay**k``; this keeps the zeros of the series well outside the unit
    circle so that its reciprocal has fast-decaying coefficients.  Used by
    the randomized consistency checks.
    """
    u = rng.uniform(-1.0, 1.0, order) + 1j * rng.uniform(-1.0, 1.0, order)
    b = u * decay ** np.arange(1, order + 1)
    total = np.sum(np.abs(b))
    if total > 0:
        b *= mass / total
    c = np.zeros(order + 1, dtype=np.complex128)
    c[0] = 1.0
    c[1:] = b
    return ComplexSeries._adopt(c)
