"""Truncated power series with complex coefficients.

A :class:`ComplexSeries` holds coefficients c_0..c_N of a polynomial that
stands in for a Taylor series truncated at degree N; the caller picks the
error budget up front by choosing N.  Each result keeps the degree it is
exact to: the reciprocal keeps N, the derivative drops one, and f = z/phi
(``NormalizedFunction.f_series``) holds N + 2 coefficients, since its
z^(N+1) term needs only c_0..c_N.  The coefficient criterion's sum is
:meth:`ComplexSeries.modulus_sum`, beside the circle fold.

Values are immutable after construction.  A series keeps the values of
its circle folds on grids of at most half its length, keyed by (radii,
grid, weight), its modulus sum for each weight, keyed by
("|b|", weight), and the modulus sum of each row :meth:`ComplexSeries.eval`
evaluates, keyed by ("eval rows", width), one float a row
(:meth:`ComplexSeries._kept`).  A call computes them the same way, kept or
not, so a hit gives the bits of a miss.  Kept arrays are read-only and
take no more bytes than the coefficients, the oldest dropped first.  The
slot is replaced whole, never changed in place, so threads may share a
series; two that both miss compute equal bits.

A series owns its coefficient array.  The constructor copies its argument,
so later writes from outside cannot reach it; the arrays the package builds
itself are adopted without a copy (:meth:`ComplexSeries._adopt`), the mean
checked block by block as it is built (:meth:`ComplexSeries.average`).
Every path checks the same invariants (1-D, non-empty, finite) and makes
the array read-only.
"""

from __future__ import annotations

import functools
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

# coefficients per block of ComplexSeries.average, modulus_sum and the
# fold's full rows: 256 KiB of complex values
_BLOCK = 1 << 14

# the fold's tables of r**m, which depend only on (radii, length), are
# kept for this many of the last pairs used
_TABLES = 16


class ComplexSeries:
    """Coefficients of a truncated complex power series, degree 0 first."""

    __slots__ = ("coeffs", "_sums")

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

    def _own(self, arr: np.ndarray, finite: bool = False) -> None:
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must be a non-empty 1-D sequence")
        # both parts at once, on the float64 view: half the work of complex
        if not (finite or np.isfinite(arr.view(np.float64)).all()):
            raise ValueError("coefficients must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "_sums", ())

    def _kept(self, key, compute) -> np.ndarray:
        """The read-only array kept under ``key``, else ``compute()``'s."""
        value = next((v for k, v in self._sums if k == key), None)
        if value is None:
            value = compute()
            value.setflags(write=False)
            if value.nbytes <= self.coeffs.nbytes:
                kept = self._sums + ((key, value),)
                while sum(v.nbytes for _, v in kept) > self.coeffs.nbytes:
                    kept = kept[1:]
                object.__setattr__(self, "_sums", kept)
        return value

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

    @classmethod
    def average(cls, a: "ComplexSeries", b: "ComplexSeries") -> "ComplexSeries":
        """(a + b)/2 coefficientwise, the shorter padded with zeros: ((0 + long)
        + short)/2, the 0 turning -0.0 into +0.0, so the order of a and b
        changes no bit.  Built and checked finite in blocks of 2**14 (Wolf &
        Lam, PLDI 1991), each while in cache, so no second pass reads it."""
        short, long = sorted((a.coeffs, b.coeffs), key=len)
        total = np.empty_like(long)
        finite = True
        for start in range(0, long.size, _BLOCK):
            part = slice(start, start + _BLOCK)
            block = np.add(long[part], 0.0, out=total[part])
            block[: short[part].size] += short[part]
            block *= 0.5
            finite = finite and bool(np.isfinite(block.view(np.float64)).all())
        series = object.__new__(cls)
        series._own(total, finite)  # not finite: rescanned there, and refused
        return series

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

        Before that pass the rows that cannot change the value are dropped.
        With A_q = sum_m |c_{qL+m}| the modulus sum of row q and rho the
        largest |z| over the points, only rows 0..Q are kept, Q the least
        index with sum_{q>Q} A_q rho**(qL) <= eps sum_{m<L} |c_m| rho**m.
        Every power on the left is above every power on the right, so the
        ratio of the two sides only grows with |z|: checked at rho, the
        dropped terms stay within eps sum_k |c_k| |z|**k at every point,
        inside the error above.  Nothing is dropped, and nothing is
        checked, without a point, at rho >= 1 or NaN, or without a full
        row past the first.  The row sums do not depend on the points and
        are kept (:meth:`_kept`); a zero row 0 drops only an exactly zero
        tail, and a rho**(qL) that underflows to 0 still bounds its row.
        """
        pts = np.asarray(z, dtype=np.complex128)
        c = self.coeffs
        if c[-1] == 0:
            c = c[: c.size - int(np.argmax(c[::-1] != 0))]
        width = 1 << (c.size.bit_length() // 2)
        flat = pts.reshape(-1)
        if (c.size - 1) // width > 1 and flat.size:
            rho = np.abs(flat).max()
            if rho < 1:  # False at NaN
                starts = np.arange(0, c.size, width)
                terms = self._kept(("eval rows", width),
                                   lambda: np.add.reduceat(np.abs(c), starts)) * rho ** starts
                head = np.abs(c[:width]) @ rho ** np.arange(width)
                # the sums over the last 1, 2, .. R rows, never decreasing
                last = terms[:0:-1].cumsum()
                dropped = np.count_nonzero(last <= np.finfo(np.float64).eps * head)
                c = c[: (terms.size - dropped) * width]
        full = c[: (c.size - 1) // width * width].reshape(-1, width)
        rest = c[full.size:]
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
        the same points.  ``weight`` maps an array of degrees k (as floats)
        to the weights.

        Every length goes through one fold (Henrici, SIAM Review 21, 1979):
        z**k and z**(k mod G) agree on the grid (G = grid), so summing
        c_k r**k over each residue class mod G gives a polynomial of degree
        below G with the same values there, which one inverse FFT evaluates.
        The block q = 0, the first min(N + 1, G) coefficients, is taken term
        by term, weighted with k < 2 left out exactly (subtracting those
        terms afterwards would lose accuracy where r**k is small); so is the
        partial last block.  With k = qG + m and s = r**G, the full rows
        between add sum_{q>=1} s**q weight(k) c_k to residue m: the powers
        s**q of every radius times whole rows of weight(k) c_k, as many at
        a time as fit in 2**14 coefficients (one if none fits), so that the
        product reads the coefficients once for all radii and no temporary
        is as long as the series.  The powers r**m of the first block are
        built once per (radii, block length) and kept read-only in a module
        cache of the last 16 pairs (:func:`_radius_powers`).

        A series of at least 2G coefficients keeps each weight's finished
        values under (radii, grid, weight), the plain ones under weight
        None (:meth:`_kept`), so a repeat call returns the kept read-only
        arrays; the key holds the whole tuple of radii, since a radius's
        values may round differently batched with others; there a weighted
        miss folds the plain and the weighted values in two passes, where a
        shorter series folds both in one.  No
        coefficient is dropped, memory is O(len(r) grid) beyond the
        coefficients, and the weighted values are accurate to a small
        multiple of eps log2(grid) sum_k |weight(k)| |c_k| r**k.
        """
        rad = np.reshape(np.asarray(r, dtype=np.float64), (-1, 1))
        weights = (None,) if weight is None else (None, weight)
        if self.coeffs.size < 2 * grid:
            values = self._fold(rad, grid, weights)
        else:
            radii = tuple(rad[:, 0].tolist())
            values = [self._kept((radii, grid, w), lambda w=w: self._fold(rad, grid, (w,))[0])
                      for w in weights]
        values = [v.reshape(np.shape(r) + (grid,)) for v in values]
        return values[0] if weight is None else tuple(values)

    def _fold(self, rad: np.ndarray, grid: int, weights) -> np.ndarray:
        """:meth:`on_circle`'s values for each of ``weights`` (None: the
        plain ones), stacked, on each circle of the column of radii ``rad``."""
        c = self.coeffs
        head = min(c.size, grid)
        rows = max(c.size // grid, 1)
        step = rad ** grid
        folded = np.zeros((len(weights), len(rad), grid), dtype=np.complex128)
        per = max(_BLOCK // grid, 1)
        for q in range(1, rows, per):
            end = min(q + per, rows)
            powers = np.power(step, np.arange(float(q), end))
            for out, weight in zip(folded, weights):
                block = c[q * grid: end * grid]
                if weight is not None:
                    block = weight(np.arange(float(q * grid), end * grid)) * block
                # real powers times the (re, im) pairs: half the work of a complex product
                out += (powers @ block.view(np.float64).reshape(end - q, 2 * grid)).view(np.complex128)
        tail = c[rows * grid:] * step ** rows
        m = np.arange(head, dtype=np.float64)
        for out, weight in zip(folded, weights):
            if weight is None:
                out[:, :head] += c[:head]
                out[:, : tail.shape[1]] += tail
            else:
                out[:, 2:head] += weight(m[2:]) * c[2:head]
                out[:, : tail.shape[1]] += weight(m[: tail.shape[1]] + rows * grid) * tail
        folded[:, :, :head] *= _radius_powers(rad.tobytes(), head)
        return np.fft.ifft(folded, norm="forward")

    def modulus_sum(self, weight) -> float:
        """sum_{k>=2} |weight(k)| |c_k|, ``weight`` as for :meth:`on_circle`.

        Not sum_k |w_k c_k|: the two round differently, and on-budget
        families such as ex33 sit exactly on the bound.  One numpy sum of
        the terms per block of 2**14 degrees from k = 2, the blocks' sums
        added in order, so that no temporary is as long as the series and a
        series of at most 2**14 + 2 coefficients is one sum.  Where all
        terms past one block are 0 (ex31, ex33 and ex34 at any order) they
        add exactly 0.  Every term is nonnegative, so the relative error is
        at most about (R + 14) eps over R blocks; ex32 at order 10^6 lands
        within 4 eps of the exactly rounded sum.  The sum is kept for each
        weight (:meth:`_kept`).
        """
        c = self.coeffs

        def blocked():
            total = 0.0
            for start in range(2, c.size, _BLOCK):
                part = c[start: start + _BLOCK]
                total += float(np.sum(np.abs(weight(np.arange(float(start), start + part.size)))
                                      * np.abs(part)))
            return np.array(total)

        return float(self._kept(("|b|", weight), blocked))


@functools.lru_cache(maxsize=_TABLES)
def _radius_powers(radii: bytes, length: int) -> np.ndarray:
    """Rows r**0 .. r**(length-1), one per radius of ``radii`` (their
    float64 bytes, so that -0.0 and 0.0 stay apart), kept read-only for the
    last 16 (radii, length) pairs."""
    table = np.power(np.frombuffer(radii).reshape(-1, 1), np.arange(float(length)))
    table.setflags(write=False)
    return table


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
