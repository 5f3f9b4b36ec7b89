"""The four differential functionals and boundary sup-modulus scans.

A normalized analytic function f (f(0) = 0, f'(0) = 1) is carried by the
series of phi(z) = z/f(z) = 1 + b_1 z + b_2 z^2 + ...  Writing
h(z) = 1/f(z) - 1/z = (phi(z) - 1)/z, the four functionals are

    U_f(z) = f'(z) (z/f(z))^2 - 1            (= -z^2 h'(z))
    P_f(z) = (z/f(z))''                       (= phi''(z))
    M_f(z) = z^2 (z/f(z))'' + f'(z)(z/f(z))^2 - 1
    N_f(z) = -z^3 (z/f(z))''' + f'(z)(z/f(z))^2 - 1

Each is linear in the b-coefficients, which gives exact closed coefficient
forms (the primary computation path):

    U: -sum_{k>=2} (k-1)   b_k z^k       bound 1
    M:  sum_{k>=2} (k-1)^2 b_k z^k       bound 1
    N: -sum_{k>=2} (k-1)^3 b_k z^k       bound 1
    P:  sum_{k>=2} k(k-1)  b_k z^{k-2}   bound 2

``functional_eval_direct`` instead evaluates the defining expressions
literally through series reciprocal/derivative/eval and serves as the
independent cross-check of the coefficient forms.

This module owns each kind's weight (:attr:`FunctionalKind.weight`) and the
scans' input rules; ``series`` owns the criterion's sums (``modulus_sum``).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NotNormalized, PhiVanishes
from .series import DEFAULT_ORDER, ComplexSeries, circle_angles

#: |phi(z)| at or below this is treated as a zero of phi (pole of 1/f).
PHI_EPS = 1e-9

#: Numerical membership: pass iff margin >= -MARGIN_TOL at every radius.
MARGIN_TOL = 1e-9

# Tolerance for breaking extremum ties toward the smallest angle; mirror
# pairs theta and 2*pi - theta of real-coefficient functions land within
# rounding of each other and must resolve deterministically.
_TIE_TOL = 1e-12


class FunctionalKind(Enum):
    """Selector for which differential functional is meant."""

    U = "U"
    P = "P"
    M = "M"
    N = "N"

    @property
    def bound(self) -> float:
        """The defining bound: 2 for P, 1 for the others."""
        return 2.0 if self is FunctionalKind.P else 1.0

    @property
    def weight(self):
        """The signed weight of b_k, one function per kind (:data:`_KIND_WEIGHTS`)."""
        return _KIND_WEIGHTS[self]


#: Signed weight of b_k (k >= 2) in each functional's series, as a
#: function of the degree k.  The term sits at z^k for U, M and N, and at
#: z^(k-2) for P.
_KIND_WEIGHTS = {
    FunctionalKind.U: lambda k: 1.0 - k,
    FunctionalKind.P: lambda k: k * (k - 1.0),
    FunctionalKind.M: lambda k: (k - 1.0) ** 2,
    FunctionalKind.N: lambda k: -((j := k - 1.0) * j * j),  # j * j exact: one rounding
}


class NormalizedFunction:
    """Element of the normalized class, stored via its phi = z/f series.

    Immutable from outside.  The series of f itself is built on the first
    call of :meth:`f_series` and kept in a private slot, so the function
    then holds one more array of N + 2 coefficients.  Threads may share an
    instance: two that both find the slot empty each build f, with equal
    bits, and either result is kept.
    """

    __slots__ = ("phi", "label", "_f")

    def __init__(self, phi: ComplexSeries, label: str = "") -> None:
        if abs(phi.coeffs[0] - 1.0) > 1e-12:
            raise NotNormalized(
                f"phi(0) = {phi.coeffs[0]} but phi must start with the constant 1 "
                "(within 1e-12)")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_f", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("NormalizedFunction is immutable")

    def __repr__(self) -> str:
        tag = f" {self.label!r}" if self.label else ""
        return f"NormalizedFunction(order={self.phi.order}{tag})"

    def f_series(self) -> ComplexSeries:
        """f itself, z * reciprocal(phi), built on the first call and kept.

        f_{k+1} = r_k depends on b_0..b_k alone, so f is exact to degree
        N + 1 for phi of order N: the series holds 0, r_0, ..., r_N.  Every
        call returns the same read-only series.
        """
        f = self._f
        if f is None:
            f = ComplexSeries._adopt(np.concatenate(([0.0], self.phi.reciprocal().coeffs)))
            object.__setattr__(self, "_f", f)
        return f


def from_phi(phi: ComplexSeries, label: str = "") -> NormalizedFunction:
    """Wrap a phi-series; requires phi(0) = 1 within 1e-12."""
    return NormalizedFunction(phi, label)


def identity_function(order: int = DEFAULT_ORDER) -> NormalizedFunction:
    """f(z) = z, i.e. phi identically 1."""
    if order < 0:
        raise ValueError("identity needs order >= 0")
    return NormalizedFunction(ComplexSeries.one(order), "identity")


def koebe_function(order: int = DEFAULT_ORDER) -> NormalizedFunction:
    """f(z) = z/(1-z)^2, i.e. phi = (1 - z)^2."""
    if order < 2:
        raise ValueError("koebe needs order >= 2")
    c = np.zeros(order + 1, dtype=np.complex128)
    c[0], c[1], c[2] = 1.0, -2.0, 1.0
    return NormalizedFunction(ComplexSeries._adopt(c), "koebe")


# ---------------------------------------------------------------------------
# coefficient path
# ---------------------------------------------------------------------------

def functional_series(kind: FunctionalKind, f: NormalizedFunction) -> ComplexSeries:
    """Exact truncated series of the selected functional.

    For U, M and N the constant and linear coefficients are zero; for P the
    result is phi'' (order drops by two).
    """
    b = f.phi.coeffs
    if kind is FunctionalKind.P:
        return ComplexSeries._adopt(
            kind.weight(np.arange(2.0, b.size)) * b[2:] if b.size > 2
            else np.zeros(1, dtype=np.complex128))
    c = np.zeros_like(b)
    # in place, and no named temporaries: ex32 carries 10^6 terms
    np.multiply(kind.weight(np.arange(2.0, b.size)), b[2:], out=c[2:])
    return ComplexSeries._adopt(c)


def coefficient_criterion(kind: FunctionalKind, f: NormalizedFunction) -> float:
    """Weighted absolute coefficient sum of the functional's series: phi's
    :meth:`ComplexSeries.modulus_sum` with the kind's weight.

    The sup of the functional over the disk is at most this sum (the
    triangle inequality), so a sum <= bound(kind) certifies membership.
    """
    return f.phi.modulus_sum(kind.weight)


# ---------------------------------------------------------------------------
# literal-definition path
# ---------------------------------------------------------------------------

def functional_eval_direct(kind: FunctionalKind, f: NormalizedFunction, z):
    """Evaluate the defining expression of the functional at z (|z| < 1).

    Goes through the series plumbing on purpose: f is reconstructed as
    z * reciprocal(phi), differentiated and evaluated, and the z/f powers
    come from dividing z by the evaluated f.  The first U, M or N
    evaluation on ``f`` builds that series and ``f`` keeps it
    (:meth:`NormalizedFunction.f_series`), so later ones skip the
    reciprocal; P needs no f.  Accepts a scalar or an array of points.

    Raises:
        PhiVanishes: if |phi(z)| <= 1e-9 at any requested point.
    """
    scalar = isinstance(z, numbers.Number)
    pts = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    phi = f.phi
    phiv = phi.eval(pts)
    if np.any(np.abs(phiv) <= PHI_EPS):
        raise PhiVanishes("phi(z) is numerically zero at a requested point")

    if kind is FunctionalKind.P:
        out = phi.derivative().derivative().eval(pts)
        return complex(out[0]) if scalar else out

    fser = f.f_series()
    fv = fser.eval(pts)
    fpv = fser.derivative().eval(pts)
    # z/f(z) -> 1 as z -> 0; avoid the 0/0 at the origin.
    ratio = np.ones_like(pts)
    nz = pts != 0
    ratio[nz] = pts[nz] / fv[nz]
    core = fpv * ratio * ratio - 1.0

    if kind is FunctionalKind.U:
        out = core
    elif kind is FunctionalKind.M:
        out = pts * pts * phi.derivative().derivative().eval(pts) + core
    else:  # N
        d3 = phi.derivative().derivative().derivative().eval(pts)
        out = -(pts ** 3) * d3 + core
    return complex(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# boundary scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanReport:
    """Result of one sup-modulus scan over a circle |z| = radius."""

    kind: FunctionalKind
    radius: float
    grid_size: int
    extremal_value: float
    extremal_angle: float
    margin: float


def phi_on_circle(f: NormalizedFunction, r, grid: int, weight=None):
    """Angles of the uniform grid on |z| = r and the values of phi there.

    ``r`` is one radius or a 1-D sequence of radii, all folded in one pass
    over phi's coefficients (:meth:`ComplexSeries.on_circle`).  With
    ``weight``, a function of the degree k, the values of
    sum_{k>=2} weight(k) b_k z^k come third.

    Raises:
        ValueError: from :func:`check_scan_inputs`.
        PhiVanishes: for the first radius whose min |phi| is at most 1e-9.
    """
    check_scan_inputs(r, grid)
    values = f.phi.on_circle(r, grid, weight)
    if weight is None:
        values = (values,)
    least_moduli(r, values[0])
    return (circle_angles(grid), *values)


def check_scan_inputs(radii, grid: int) -> None:
    """Refuse empty radii, a radius outside (0, 1) and a grid below 16."""
    radii = np.ravel(radii).tolist()  # plain floats: cheaper than numpy on a few
    if not radii:
        raise ValueError("radii must not be empty")
    if not all(0.0 < r < 1.0 for r in radii):  # False at NaN
        raise ValueError("each radius must lie in (0, 1)")
    if grid < 16:
        raise ValueError("grid must be >= 16")


def least_moduli(radii, values: np.ndarray) -> np.ndarray:
    """min |phi| on each circle, from phi's values there (the last axis).

    This is the one vanishing rule of the scans and the mean probe: a
    minimum at or below :data:`PHI_EPS` is taken for a zero of phi on that
    circle, a pole of f.

    Raises:
        PhiVanishes: for the first radius whose min |phi| is at most 1e-9.
    """
    least = np.atleast_1d(np.min(np.abs(values), axis=-1))
    for rad, low in zip(np.atleast_1d(radii), least):
        if low <= PHI_EPS:
            raise PhiVanishes(f"min |phi| = {low:.3e} on |z| = {rad:g}; "
                              "the function has a pole there")
    return least


def zero_count(values: np.ndarray) -> int:
    """Winding number about 0 of phi's values on one circle, in grid order.

    The signed count of steps v[j] -> v[j+1], the last one from v[-1] back
    to v[0], that cross the negative real axis: Im v changes sign there,
    and the sign of Im(conj(v[j]) v[j+1]), taken of the two values divided
    by their moduli so that no product overflows, says whether the step turns
    counterclockwise (+1, from Im v >= 0 to Im v < 0) or clockwise (-1,
    the other way) through it, not through the positive axis.  By the
    argument principle this is the number of zeros of phi inside the
    circle, provided no step between neighbouring grid points turns by pi
    or more.  ``values`` must be nonzero, as :func:`phi_on_circle` ensures.
    """
    upper = values.imag >= 0
    j = np.flatnonzero(upper != np.roll(upper, -1))
    a, b = (v / np.abs(v) for v in (values[j], values[(j + 1) % values.size]))
    turn = (a.conj() * b).imag
    up = upper[j]
    return int(np.count_nonzero(up & (turn > 0)) - np.count_nonzero(~up & (turn < 0)))


def grid_min(values: np.ndarray) -> tuple[float, int]:
    """Minimum of sampled values and the first index within 1e-12 of it."""
    low = float(np.min(values))
    return low, int(np.nonzero(values <= low + _TIE_TOL)[0][0])


def scan_report(kind: FunctionalKind, r: float, theta: np.ndarray,
                values: np.ndarray) -> ScanReport:
    """One circle's sup-modulus report; P's values are z^2 P_f(z), so their
    modulus is divided by r^2.  Ties (within 1e-12) go to the least angle."""
    modulus = np.abs(values) / r ** (2 if kind is FunctionalKind.P else 0)
    # the largest modulus is the smallest of its negation
    low, idx = grid_min(-modulus)
    best = -low
    return ScanReport(
        kind=kind,
        radius=float(r),
        grid_size=int(theta.size),
        extremal_value=best,
        extremal_angle=float(theta[idx]),
        margin=float(kind.bound - best),
    )


def sup_on_circle(kind: FunctionalKind, f: NormalizedFunction,
                  r: float, grid: int) -> ScanReport:
    """Max of |functional| over z = r e^{i theta} on a uniform angle grid.

    The functional's values come with phi's from one pass over phi's
    coefficients (:meth:`ComplexSeries.on_circle` with the kind's weight),
    so its series is never built; :func:`scan_report` reads the extremum.

    Raises:
        ValueError: from :func:`check_scan_inputs`.
        PhiVanishes: if phi vanishes at a grid point (degenerate input).
    """
    theta, _, values = phi_on_circle(f, r, grid, weight=kind.weight)
    return scan_report(kind, r, theta, values)
