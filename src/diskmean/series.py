"""Truncated power series with complex coefficients.

A :class:`ComplexSeries` holds coefficients c_0..c_N of a polynomial that
stands in for a Taylor series truncated at degree N.  Arithmetic never
extends the truncation degree: every binary operation returns a series of
order ``min(a.order, b.order)``, so the caller picks the error budget once,
up front, by choosing N.

Values are immutable after construction and every operation is a pure
function, so instances can be shared freely between threads.
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
# gated Newton tie near 130 coefficients; of the limits 32, 64 and 128, 64
# gave the least total time over 49..289 coefficients.
_NEWTON_MIN = 64

# eval splits a series of more than _BLOCK_MIN coefficients into blocks; at
# 1025 coefficients and beyond the blocked form was faster than Horner at
# every point count measured (1 to 4096).  Points go through it _CHUNK at a
# time, which bounds the power table at _CHUNK * sqrt(N) values.
_BLOCK_MIN = 1024
_CHUNK = 256

# highest polynomial degree of the weights on_circle accepts
_WEIGHT_DEGREE = 3


class ComplexSeries:
    """Coefficients of a truncated complex power series, degree 0 first."""

    __slots__ = ("coeffs",)

    coeffs: np.ndarray

    def __init__(self, coeffs) -> None:
        arr = np.array(coeffs, dtype=np.complex128)
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
    def zero(cls, order: int = DEFAULT_ORDER) -> "ComplexSeries":
        return cls(np.zeros(order + 1))

    @classmethod
    def one(cls, order: int = DEFAULT_ORDER) -> "ComplexSeries":
        c = np.zeros(order + 1, dtype=np.complex128)
        c[0] = 1.0
        return cls(c)

    def __repr__(self) -> str:
        head = np.array2string(self.coeffs[:4], precision=6, separator=", ")
        more = "" if self.order < 4 else f", ... ({self.order + 1} coeffs)"
        return f"ComplexSeries({head}{more})"

    # ------------------------------------------------------------------
    # ring operations (result order = min of operand orders)
    # ------------------------------------------------------------------
    def add(self, other: "ComplexSeries") -> "ComplexSeries":
        n = min(self.coeffs.size, other.coeffs.size)
        return ComplexSeries(self.coeffs[:n] + other.coeffs[:n])

    def sub(self, other: "ComplexSeries") -> "ComplexSeries":
        n = min(self.coeffs.size, other.coeffs.size)
        return ComplexSeries(self.coeffs[:n] - other.coeffs[:n])

    def mul(self, other: "ComplexSeries") -> "ComplexSeries":
        """Cauchy product truncated at the smaller operand order."""
        n = min(self.coeffs.size, other.coeffs.size)
        full = np.convolve(self.coeffs, other.coeffs)
        return ComplexSeries(full[:n])

    def scale(self, factor: complex) -> "ComplexSeries":
        return ComplexSeries(self.coeffs * complex(factor))

    def __add__(self, other):
        if isinstance(other, ComplexSeries):
            return self.add(other)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, ComplexSeries):
            return self.sub(other)
        return NotImplemented

    def __neg__(self):
        return self.scale(-1.0)

    def __mul__(self, other):
        if isinstance(other, ComplexSeries):
            return self.mul(other)
        if isinstance(other, numbers.Number):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    # ------------------------------------------------------------------
    # calculus and inversion
    # ------------------------------------------------------------------
    def derivative(self) -> "ComplexSeries":
        """Termwise derivative; the order drops by one."""
        c = self.coeffs
        if c.size == 1:
            return ComplexSeries([0.0])
        return ComplexSeries(c[1:] * np.arange(1, c.size))

    def shift_up(self) -> "ComplexSeries":
        """Multiply by z without extending the order (top coefficient drops)."""
        c = np.empty_like(self.coeffs)
        c[0] = 0.0
        c[1:] = self.coeffs[:-1]
        return ComplexSeries(c)

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

        FFT rounding is bounded relative to the operands' 2-norms, not
        coefficient by coefficient, so the Newton result must pass a
        residual gate at every degree k < N (N the number of coefficients):
        |(a r - 1)_k| <= eps log2(2N) ||a_0..a_k||_2 ||r_0..r_k||_2, with
        eps the double-precision machine epsilon.  Taking only the terms up
        to degree k in the norms makes the gate hold each coefficient to
        its own scale.  Where r's coefficients grow (a zero of a on or
        inside the unit circle, as for Koebe's (1 - z)^2), rounding at the
        scale of the large late terms swamps the small early ones and the
        residual exceeds the gate by orders of magnitude; the result of the
        recurrence is returned then, and also when the residual is NaN.

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
                    # wrapped terms land below degree m, which is not read
                    high = _fft_mul(a[:t], r[:m], t)[m:t]
                    r[m:t] = -_fft_mul(r[:m], high, t)[: t - m]
                    m = t
                resid = _fft_mul(a, r, 2 * n - 1)[:n]
                resid[0] -= 1.0
                gate = np.finfo(np.float64).eps * np.log2(2 * n) * np.sqrt(
                    np.cumsum(np.abs(a) ** 2) * np.cumsum(np.abs(r) ** 2))
                if np.all(np.abs(resid) <= gate):  # False wherever NaN
                    return ComplexSeries(r)
        return ComplexSeries(_recurrence(a))

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def eval(self, z):
        """Horner evaluation at a complex point or an array of points.

        Trailing zero coefficients are skipped; all others are used.  The
        scan for them runs only when the last coefficient is zero, so a
        series without any costs no pass over its coefficients.  A series
        of more than 1024 coefficients is cut into blocks of
        L ~ sqrt(N) coefficients: one matrix product with the powers
        z**0 .. z**(L-1) gives every block's value, and Horner in z**L sums
        them, in about sqrt(N) array steps instead of N.  Truncation error
        grows quickly outside |z| <= 1.
        """
        pts = np.asarray(z, dtype=np.complex128)
        c = self.coeffs
        if c[-1] == 0:
            c = c[: c.size - int(np.argmax(c[::-1] != 0))]
        if c.size <= _BLOCK_MIN:
            out = _horner(c, pts)
        else:
            width = 1 << (c.size.bit_length() // 2)
            rows = c.size // width
            full, rest = c[: rows * width].reshape(rows, width), c[rows * width:]
            flat = pts.reshape(-1)
            out = np.empty(flat.shape, dtype=np.complex128)
            for start in range(0, flat.size, _CHUNK):
                x = flat[start: start + _CHUNK]
                table = np.power(x[:, None], np.arange(width))
                vals = np.concatenate([full @ table.T, (table[:, : rest.size] @ rest)[None]])
                out[start: start + _CHUNK] = _horner(vals, x ** width)
            out = out.reshape(pts.shape)
        return complex(out) if isinstance(z, numbers.Number) else out

    __call__ = eval

    def on_circle(self, r: float, grid: int, weight=None):
        """Values at the points r e^{2 pi i j/grid}, j = 0..grid-1.

        With ``weight``, the result is the pair of those values and the
        values of sum_{k>=2} weight(k) c_k z**k at the same points, from one
        pass over the coefficients.  ``weight`` maps an array of degrees k
        (as floats) to the weights and must be a polynomial in k of degree
        at most 3.

        A series of at most ``grid`` coefficients is evaluated at the points
        by :meth:`eval` (plain Horner up to 1024 coefficients), and the
        weighted series, built from it, by a second :meth:`eval`.  A longer
        one is folded: z**k and z**(k mod G) agree on the grid (G = grid),
        so summing c_k r**k over each residue class mod G gives a polynomial
        of degree below G with the same values there, which one inverse FFT
        evaluates (Henrici, SIAM Review 21, 1979).  With k = qG + m and
        s = r**G, Newton's forward formula gives
        weight(m + qG) = sum_i d_i(m) binom(q, i), where d_i(m) is the i-th
        difference of the weight at m with step G (exact for integer
        weights below 2**53).  One matrix product of the moments
        binom(q, i) s**q, q >= 1, with the coefficients seen as rows of G
        gives the rows S_i[m] = sum_{q>=1} binom(q, i) s**q c_{qG+m}; the
        weighted fold is sum_i d_i(m) S_i[m] and the plain fold S_0[m].
        The block q = 0 is added to each fold apart, weighted term by term
        with k < 2 left out exactly (subtracting those terms afterwards
        would lose accuracy where r**k is small); so is the partial last
        block.  One inverse FFT then evaluates the folds.

        No coefficient is dropped either way, and the fold needs O(grid)
        memory beyond the coefficients.  For the weights of the four
        functionals the terms d_i(m) binom(q, i) share one sign, bar one of
        modulus 1 at m = 0, so the folded weighted values are accurate to a
        small multiple of eps sum_k |weight(k)| |c_k| r**k.
        """
        c = self.coeffs
        if c.size <= grid:
            pts = circle_points(r, grid)
            if weight is None:
                return self.eval(pts)
            w = np.zeros_like(c)
            w[2:] = weight(np.arange(2.0, c.size)) * c[2:]
            return self.eval(pts), ComplexSeries(w).eval(pts)
        rows = c.size // grid
        step = r ** grid
        m = np.arange(grid, dtype=np.float64)
        degree = 0
        if weight is not None:
            diffs = weight(m + grid * np.arange(_WEIGHT_DEGREE + 1.0)[:, None])
            for i in range(1, diffs.shape[0]):
                diffs[i:] = diffs[i:] - diffs[i - 1: -1]
            # a weight of lower degree has exactly zero higher differences
            while diffs.shape[0] > 1 and not diffs[-1].any():
                diffs = diffs[:-1]
            degree = diffs.shape[0] - 1
        q = np.arange(1.0, rows)
        moments = np.empty((degree + 1, q.size))
        moments[0] = np.power(step, q)
        for i in range(1, degree + 1):
            moments[i] = moments[i - 1] * (q - (i - 1)) / i
        # real moments times the coefficients' (re, im) pairs: half the
        # work of a complex product
        body = c[grid: rows * grid].view(np.float64).reshape(q.size, 2 * grid)
        sums = (moments @ body).view(np.complex128)
        tail = c[rows * grid:] * step ** rows
        folded = np.zeros((1 if weight is None else 2, grid), dtype=np.complex128)
        folded[0] = c[:grid] + sums[0]
        folded[0, : tail.size] += tail
        if weight is not None:
            folded[1, 2:] = weight(m[2:]) * c[2:grid]
            folded[1] += np.sum(diffs * sums, axis=0)
            folded[1, : tail.size] += weight(m[: tail.size] + rows * grid) * tail
        values = np.fft.ifft(folded * np.power(r, m), norm="forward")
        return values[0] if weight is None else (values[0], values[1])


def circle_angles(grid: int) -> np.ndarray:
    """The uniform closed-open angle grid 2 pi j/grid, j = 0..grid-1."""
    return 2.0 * np.pi * np.arange(grid) / grid


def circle_points(r: float, grid: int) -> np.ndarray:
    """The points r e^{i theta} of the :func:`circle_angles` grid."""
    return r * np.exp(1j * circle_angles(grid))


def _recurrence(a: np.ndarray) -> np.ndarray:
    """Coefficients of 1/a by the recurrence, one coefficient at a time."""
    inv = 1.0 / a[0]
    r = np.zeros(a.size, dtype=np.complex128)
    r[0] = inv
    for k in range(1, a.size):
        r[k] = -inv * np.dot(a[1: k + 1], r[k - 1:: -1])
    return r


def _fft_mul(x: np.ndarray, y: np.ndarray, size: int) -> np.ndarray:
    """Cyclic convolution of x and y at the least length L >= ``size`` of
    the form 2^j or 3 * 2^j (both fast FFT lengths).

    Degree d < L holds the Cauchy product's coefficient of z^d plus that of
    z^(d + L), if the product reaches that degree.
    """
    length = 1 << (size - 1).bit_length()
    if 3 * length >= 4 * size:
        length = 3 * length // 4
    return np.fft.ifft(np.fft.fft(x, length) * np.fft.fft(y, length))


def _horner(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k c[k] x**k by Horner's rule; each c[k] broadcasts against x."""
    acc = np.full(np.broadcast_shapes(x.shape, c.shape[1:]), c[-1],
                  dtype=np.complex128)
    for k in range(c.shape[0] - 2, -1, -1):
        acc *= x
        acc += c[k]
    return acc


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
    return ComplexSeries(c)
