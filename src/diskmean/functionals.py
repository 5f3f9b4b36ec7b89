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
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass
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


#: Signed weight of b_k (k >= 2) in each functional's series, as a
#: function of the degree k.  The term sits at z^k for U, M and N, and at
#: z^(k-2) for P.
_KIND_WEIGHTS = {
    FunctionalKind.U: lambda k: 1.0 - k,
    FunctionalKind.P: lambda k: k * (k - 1.0),
    FunctionalKind.M: lambda k: (k - 1.0) ** 2,
    FunctionalKind.N: lambda k: -((k - 1.0) ** 3),
}


class NormalizedFunction:
    """Element of the normalized class, stored via its phi = z/f series."""

    __slots__ = ("phi", "label")

    def __init__(self, phi: ComplexSeries, label: str = "") -> None:
        if abs(phi.coeffs[0] - 1.0) > 1e-12:
            raise NotNormalized(
                f"phi(0) = {phi.coeffs[0]} but phi must start with the constant 1 "
                "(within 1e-12)")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "label", label)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("NormalizedFunction is immutable")

    def __repr__(self) -> str:
        tag = f" {self.label!r}" if self.label else ""
        return f"NormalizedFunction(order={self.phi.order}{tag})"

    def f_series(self) -> ComplexSeries:
        """f itself, recovered as z * reciprocal(phi) at phi's order."""
        return self.phi.reciprocal().shift_up()


def from_phi(phi: ComplexSeries, label: str = "") -> NormalizedFunction:
    """Wrap a phi-series; requires phi(0) = 1 within 1e-12."""
    return NormalizedFunction(phi, label)


def identity_function(order: int = DEFAULT_ORDER) -> NormalizedFunction:
    """f(z) = z, i.e. phi identically 1."""
    return NormalizedFunction(ComplexSeries.one(order), "identity")


def koebe_function(order: int = DEFAULT_ORDER) -> NormalizedFunction:
    """f(z) = z/(1-z)^2, i.e. phi = (1 - z)^2."""
    c = np.zeros(order + 1, dtype=np.complex128)
    c[0], c[1], c[2] = 1.0, -2.0, 1.0
    return NormalizedFunction(ComplexSeries(c), "koebe")


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
        return ComplexSeries(
            _KIND_WEIGHTS[kind](np.arange(2.0, b.size)) * b[2:] if b.size > 2 else [0])
    c = np.zeros_like(b)
    # in place, and no named temporaries: ex32 carries 10^6 terms
    np.multiply(_KIND_WEIGHTS[kind](np.arange(2.0, b.size)), b[2:], out=c[2:])
    return ComplexSeries(c)


def coefficient_criterion(kind: FunctionalKind, f: NormalizedFunction) -> float:
    """Weighted absolute coefficient sum of the functional's series.

    This is the triangle-inequality membership test: the sup of the
    functional over the disk is at most this sum, so a sum <= bound(kind)
    certifies membership.  Weights per phi-coefficient b_k (k >= 2):
    (k-1) for U, (k-1)^2 for M, (k-1)^3 for N, k(k-1) for P.
    """
    # sum |w_k| |b_k|, not sum |w_k b_k|: the two round differently, and
    # on-budget families such as ex33 sit exactly on the bound.  In place,
    # as each full-length temporary costs about 1 ms on ex32's 10^6 terms
    b = f.phi.coeffs
    w = np.abs(_KIND_WEIGHTS[kind](np.arange(2.0, b.size)))
    w *= np.abs(b[2:])
    return float(np.sum(w))


# ---------------------------------------------------------------------------
# literal-definition path
# ---------------------------------------------------------------------------

def functional_eval_direct(kind: FunctionalKind, f: NormalizedFunction, z):
    """Evaluate the defining expression of the functional at z (|z| < 1).

    Goes through the series plumbing on purpose: f is reconstructed as
    z * reciprocal(phi), differentiated and evaluated, and the z/f powers
    come from dividing z by the evaluated f.  Accepts a scalar or an array
    of points.

    Raises:
        PhiVanishes: if |phi(z)| <= 1e-9 at any requested point.
    """
    scalar = isinstance(z, numbers.Number)
    pts = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    phi = f.phi
    phiv = phi.eval(pts)
    if np.min(np.abs(phiv)) <= PHI_EPS:
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

def _by_value(items) -> dict:
    return {k: v.value if isinstance(v, Enum) else v for k, v in items}


class JsonReport:
    """Serialization shared by the report dataclasses: fields in order,
    nested reports as dicts, enum members by value."""

    def to_dict(self) -> dict:
        return asdict(self, dict_factory=_by_value)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


@dataclass(frozen=True)
class ScanReport(JsonReport):
    """Result of one sup-modulus scan over a circle |z| = radius."""

    kind: FunctionalKind
    radius: float
    grid_size: int
    extremal_value: float
    extremal_angle: float
    margin: float


def phi_on_circle(f: NormalizedFunction, r: float, grid: int,
                  eps: float = PHI_EPS, weight=None):
    """Angles of the uniform grid on |z| = r and the values of phi there.

    With ``weight``, a polynomial of degree at most 3 in k, the values of
    sum_{k>=2} weight(k) b_k z^k come third, from the same pass over phi's
    coefficients (:meth:`ComplexSeries.on_circle`).

    Raises:
        ValueError: unless 0 < r < 1 and grid >= 16.
        PhiVanishes: if min |phi| on the grid is at or below ``eps``.
    """
    if not 0.0 < r < 1.0:
        raise ValueError("radius must lie in (0, 1)")
    if grid < 16:
        raise ValueError("grid must be at least 16")
    values = f.phi.on_circle(r, grid, weight)
    if weight is None:
        values = (values,)
    low = float(np.min(np.abs(values[0])))
    if low <= eps:
        raise PhiVanishes(
            f"min |phi| = {low:.3e} on |z| = {r:g}; the function has a pole there")
    return (circle_angles(grid), *values)


def grid_min(values: np.ndarray) -> tuple[float, int]:
    """Minimum of sampled values and the first index within 1e-12 of it."""
    low = float(np.min(values))
    return low, int(np.nonzero(values <= low + _TIE_TOL)[0][0])


def sup_on_circle(kind: FunctionalKind, f: NormalizedFunction,
                  r: float, grid: int) -> ScanReport:
    """Max of |functional| over z = r e^{i theta} on a uniform angle grid.

    The functional's values come with phi's from one pass over phi's
    coefficients (:meth:`ComplexSeries.on_circle` with the kind's weight),
    so its series is never built.  For P that pass gives
    sum k(k-1) b_k z^k = z^2 P_f(z), so its modulus is divided by r^2.
    Ties (within 1e-12) break toward the smallest angle, so the result does
    not depend on evaluation order.

    Raises:
        ValueError: unless 0 < r < 1 and grid >= 16.
        PhiVanishes: if phi vanishes at a grid point (degenerate input).
    """
    theta, _, values = phi_on_circle(f, r, grid, weight=_KIND_WEIGHTS[kind])
    modulus = np.abs(values) / r ** (2 if kind is FunctionalKind.P else 0)
    # the largest modulus is the smallest of its negation
    low, idx = grid_min(-modulus)
    best = -low
    return ScanReport(
        kind=kind,
        radius=float(r),
        grid_size=int(grid),
        extremal_value=best,
        extremal_angle=float(theta[idx]),
        margin=float(kind.bound - best),
    )
