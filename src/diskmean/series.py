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

#: Reciprocal refuses to run below this leading-coefficient modulus; the
#: inversion recurrence amplifies noise past any useful tolerance there.
EPS_LEAD = 1e-12

# eval splits a series of more than _BLOCK_MIN coefficients into blocks; at
# 1025 coefficients and beyond the blocked form was faster than Horner at
# every point count measured (1 to 4096).  Points go through it _CHUNK at a
# time, which bounds the power table at _CHUNK * sqrt(N) values.
_BLOCK_MIN = 1024
_CHUNK = 256


class ComplexSeries:
    """Coefficients of a truncated complex power series, degree 0 first."""

    __slots__ = ("coeffs",)

    coeffs: np.ndarray

    def __init__(self, coeffs) -> None:
        arr = np.array(coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
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

    @classmethod
    def monomial(cls, degree: int, coefficient: complex = 1.0,
                 order: int | None = None) -> "ComplexSeries":
        """c * z**degree stored at the given truncation order (>= degree)."""
        order = degree if order is None else order
        if order < degree:
            raise ValueError("order must be at least the monomial degree")
        c = np.zeros(order + 1, dtype=np.complex128)
        c[degree] = coefficient
        return cls(c)

    def truncate(self, order: int) -> "ComplexSeries":
        """Copy of the series cut down to the given order (no extension)."""
        if order >= self.order:
            return self
        return ComplexSeries(self.coeffs[: order + 1])

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

        Standard recurrence: r_0 = 1/a_0 and
        r_k = -(1/a_0) * sum_{j=1..k} a_j r_{k-j}.

        Raises:
            LeadingCoefficientNearZero: if ``|a_0| <= 1e-12``.
        """
        a = self.coeffs
        if abs(a[0]) <= EPS_LEAD:
            raise LeadingCoefficientNearZero(
                f"|a_0| = {abs(a[0]):.3e} <= {EPS_LEAD}")
        inv = 1.0 / a[0]
        r = np.zeros(a.size, dtype=np.complex128)
        r[0] = inv
        for k in range(1, a.size):
            r[k] = -inv * np.dot(a[1: k + 1], r[k - 1:: -1])
        return ComplexSeries(r)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def eval(self, z):
        """Horner evaluation at a complex point or an array of points.

        Trailing zero coefficients are skipped; all others are used.  A
        series of more than 1024 coefficients is cut into blocks of
        L ~ sqrt(N) coefficients: one matrix product with the powers
        z**0 .. z**(L-1) gives every block's value, and Horner in z**L sums
        them, in about sqrt(N) array steps instead of N.  Truncation error
        grows quickly outside |z| <= 1.
        """
        pts = np.asarray(z, dtype=np.complex128)
        c = self.coeffs[: self.coeffs.size - int(np.argmax(self.coeffs[::-1] != 0))]
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

    def on_circle(self, r: float, grid: int) -> np.ndarray:
        """Values at the points r e^{2 pi i j/grid}, j = 0..grid-1.

        A series with at most ``grid`` coefficients is evaluated at those
        points by :meth:`eval` (plain Horner up to 1024 coefficients).  A
        longer one is folded first: z**k and z**(k mod grid) agree on the
        grid, so summing c_k r**k over each residue class mod grid gives a
        polynomial of degree below grid with the same values there, which
        one inverse FFT evaluates (Henrici, SIAM Review 21, 1979).  No
        coefficient is dropped either way, and the fold needs O(grid)
        memory beyond the coefficients.
        """
        c = self.coeffs
        if c.size <= grid:
            return self.eval(circle_points(r, grid))
        rows = c.size // grid
        step = r ** grid
        folded = np.power(step, np.arange(rows)) @ c[: rows * grid].reshape(rows, grid)
        rest = c[rows * grid:]
        folded[: rest.size] += step ** rows * rest
        return np.fft.ifft(folded * np.power(r, np.arange(grid)), norm="forward")


def circle_angles(grid: int) -> np.ndarray:
    """The uniform closed-open angle grid 2 pi j/grid, j = 0..grid-1."""
    return 2.0 * np.pi * np.arange(grid) / grid


def circle_points(r: float, grid: int) -> np.ndarray:
    """The points r e^{i theta} of the :func:`circle_angles` grid."""
    return r * np.exp(1j * circle_angles(grid))


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
