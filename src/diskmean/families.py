"""Constructors and closed-form boundary math for the built-in families.

Four one-parameter families exercise the class machinery (grammar tokens in
parentheses match the CLI):

* ``ex31`` -- phi = 1 + (1-a) z + a z^m with m = 2n+1 and a (m-1)^2 = 1.
  Sits on the M-class coefficient budget and is starlike.
* ``ex32`` -- phi = 1 + (1 - zeta(5)/zeta(3)) z
  + (1/zeta(3)) sum_{k>=2} z^k/(k-1)^5.  M-class member with slowly
  decaying coefficients; its tail admits an integral representation used
  as an independent cross-check.
* ``ex33`` -- phi = 1 + i b z + e^{2 i beta} z^n/(n-1), n >= 3,
  |b| <= (n-2)/(n-1).  U-class member whose functional has modulus |z|^n
  exactly; fails starlikeness for suitable (b, beta).
* ``ex34`` -- phi = 1 + (1-a) z + a z^m with a m (m-1) = 2.  Sits on the
  P-class coefficient budget and is *not* starlike: the boundary
  quantity A(theta) dips negative near theta = pi.

Each budget is read from the class's weight and bound: a is the bound over
the weight of z^m, nudged one ulp up where that puts the weighted sum
exactly on the budget.  For some n no double does (ex34 at n = 11, 29, 42,
63, ..., ex31 at n = 61, 89, 122, ...); the sum is then one ulp below the
budget, never above, so the coefficient criterion still reports a member.

For the two polynomial families, writing z = e^{i theta},

    Re(z f'(z)/f(z)) = A(theta) / |phi(e^{i theta})|^2,

and A has the closed forms implemented below, together with the helper
D(theta), its critical points, and the reference table of A values at
theta_n = 2(2n+1) pi / (4n+3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import InvalidFamilyParams
from .functionals import (
    _KIND_WEIGHTS,
    FunctionalKind,
    NormalizedFunction,
    functional_eval_direct,
    phi_on_circle,
)
from .series import DEFAULT_ORDER, ComplexSeries

#: Truncation used for ex32.  Its quadratic-weight coefficient sum
#: converges like a p-series with p = 3, leaving a tail of roughly
#: 0.42/order**2; one million terms keep the stored sum within 1e-12 of
#: the limit value 1.  Circle scans still use every term: they fold the
#: series onto the grid (ComplexSeries.on_circle) in one linear pass.
EX32_ORDER = 1_000_000

_GAUSS_LAGUERRE_NODES = 64


class FamilyVariant(Enum):
    EX31 = "ex31"
    EX32 = "ex32"
    EX33 = "ex33"
    EX34 = "ex34"


@dataclass(frozen=True)
class FamilySpec:
    """Parameter record for one member of a built-in family."""

    variant: FamilyVariant
    n: int = 1
    b: float = 0.0
    beta: float = 0.0
    order: int | None = None

    @property
    def _top(self) -> int:
        # degree of the highest term: z^m, m = 2n+1, for ex31/ex34, z^n for
        # ex33; ex32's first tail term, z^2, is the least it can hold
        v = self.variant
        if v is FamilyVariant.EX32:
            return 2
        return self.n if v is FamilyVariant.EX33 else 2 * self.n + 1

    def validate(self) -> None:
        v = self.variant
        if v in _BUDGET_KIND and self.n < 1:
            raise InvalidFamilyParams(f"{v.value} requires n >= 1")
        if v is FamilyVariant.EX33:
            if self.n < 3:
                raise InvalidFamilyParams("ex33 requires n >= 3")
            if abs(self.b) > (self.n - 2) / (self.n - 1) + 1e-12:
                raise InvalidFamilyParams(
                    f"ex33 requires |b| <= (n-2)/(n-1) = {(self.n - 2) / (self.n - 1)}")
        if self.order is not None and self.order < self._top:
            raise InvalidFamilyParams(f"{v.value} needs order >= {self._top}")


#: The class whose coefficient budget the one z^m term of ex31 / ex34 uses up.
_BUDGET_KIND = {FamilyVariant.EX31: FunctionalKind.M, FamilyVariant.EX34: FunctionalKind.P}


def _alpha(variant: FamilyVariant, n):
    # the z^m coefficient that spends the whole budget: |w(m)| a = bound; n may be an array
    kind = _BUDGET_KIND.get(variant)
    if kind is None:
        raise InvalidFamilyParams(f"{variant.value} has no alpha parameter")
    return kind.bound / abs(_KIND_WEIGHTS[kind](2 * n + 1))


def _budget_exact(alpha: float, weight: float, target: float) -> float:
    # alpha = fl(t/w) never overshoots: w*alpha = t(1+d), |d| <= u, rounds to at most t;
    # one ulp up adds more than u, so it rounds to t or past it.  Where neither hits
    # t, no double does, and w*alpha rounds to t's predecessor: one ulp under budget.
    if weight * alpha == target:
        return alpha
    up = math.nextafter(alpha, math.inf)
    return up if weight * up == target else alpha


def build(spec: FamilySpec) -> NormalizedFunction:
    """Construct the phi-series for a family member.

    Raises:
        InvalidFamilyParams: if the spec violates its parameter ranges.
    """
    spec.validate()
    v, n, top = spec.variant, spec.n, spec._top
    order = spec.order if spec.order is not None else (
        EX32_ORDER if v is FamilyVariant.EX32 else max(DEFAULT_ORDER, top))
    c = np.zeros(order + 1, dtype=np.complex128)
    c[0] = 1.0
    if v in _BUDGET_KIND:
        kind = _BUDGET_KIND[v]
        a = _budget_exact(_alpha(v, n), _KIND_WEIGHTS[kind](top), kind.bound)
        c[1] = 1.0 - a
        c[top] = a
        label = f"{v.value}:n={n}"
    elif v is FamilyVariant.EX33:
        c[1] = 1j * spec.b
        c[top] = np.exp(2j * spec.beta) / (n - 1)
        label = f"ex33:n={n},b={spec.b},beta={spec.beta}"
    else:
        z3 = zeta_constant(3)
        z5 = zeta_constant(5)
        c[1] = 1.0 - z5 / z3
        k = np.arange(2, order + 1, dtype=np.float64)
        c[2:] = 1.0 / (z3 * (k - 1.0) ** 5)
        label = "ex32"
    return NormalizedFunction(ComplexSeries._adopt(c), label)


# ---------------------------------------------------------------------------
# zeta constants
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def zeta_constant(s: int) -> float:
    """sum_{k>=1} k^-s for integer s >= 2, absolute error below 1e-14.

    Partial sum up to the first term below 1e-17 (capped at 1e5 terms) plus
    an Euler-Maclaurin tail through the z^-(s+3) correction; the correction
    makes the cap loss-free.
    """
    if s < 2:
        raise ValueError("zeta_constant requires s >= 2")
    cutoff = int(math.ceil(1e17 ** (1.0 / s)))
    head_end = min(cutoff, 100_000)
    ks = np.arange(1, head_end, dtype=np.float64)
    head = math.fsum((ks ** -float(s)).tolist())
    a = float(head_end)
    tail = (a ** (1 - s) / (s - 1) + 0.5 * a ** -s
            + s * a ** (-s - 1) / 12.0
            - s * (s + 1) * (s + 2) * a ** (-s - 3) / 720.0)
    return head + tail


# ---------------------------------------------------------------------------
# boundary angle functions for ex31 / ex34
# ---------------------------------------------------------------------------

def a_theta(variant: FamilyVariant, n: int, theta):
    """Boundary numerator A(theta) of Re(zf'/f) for ex31/ex34.

    Full form, valid for both variants (only alpha differs):

        A = 1 + (1-a) cos t - a(m-2) cos(mt)
              - a(1-a)(m-1) cos((m-1)t) - a^2 (m-1).

    Accepts a scalar or an array of angles.
    """
    if n < 1:
        raise InvalidFamilyParams("n must be >= 1")
    out = _a_form(_alpha(variant, n), 2 * n + 1, np.asarray(theta, dtype=np.float64))
    return float(out) if np.isscalar(theta) else out


def _a_form(a, m, t):
    # A(t) for alpha a and degree m; a and m may be arrays shaped like t
    return (1.0 + (1.0 - a) * np.cos(t) - a * (m - 2) * np.cos(m * t)
            - a * (1.0 - a) * (m - 1) * np.cos((m - 1) * t)
            - a * a * (m - 1))


def a_theta_reduced(variant: FamilyVariant, n: int, theta):
    """A(theta) through the D-form; must agree with :func:`a_theta`.

    ex31:  A = 1 - 1/(m-1)^3 - (m(m-2)/(m-1)^2) D(theta)
    ex34:  A = 1 - 2/(n(2n+1)^2) + ((2n-1)/(n(2n+1))) D(theta)
    """
    d = d_theta(variant, n, theta)  # rejects n < 1 and ex32 / ex33
    m = 2 * n + 1
    if variant is FamilyVariant.EX31:
        out = 1.0 - 1.0 / (m - 1) ** 3 - (m * (m - 2) / (m - 1) ** 2) * d
    else:
        out = (1.0 - 2.0 / (n * (2 * n + 1) ** 2)
               + ((2 * n - 1) / (n * (2 * n + 1))) * d)
    return float(out) if np.isscalar(theta) else out


def ex31_a_factored_m3(theta):
    """Degree-3 special case of the ex31 boundary numerator:
    A(theta) = (1 + cos t)^2 (5 - 4 cos t) / 4."""
    ct = np.cos(np.asarray(theta, dtype=np.float64))
    out = 0.25 * (1.0 + ct) ** 2 * (5.0 - 4.0 * ct)
    return float(out) if np.isscalar(theta) else out


def d_theta(variant: FamilyVariant, n: int, theta):
    """The oscillatory part D(theta) entering the reduced A forms.

    ex31:  D = -cos t + cos(mt)/m + cos((m-1)t)/(m-1)
    ex34:  D = (n+1) cos t - cos((2n+1)t) - (2(n+1)/(2n+1)) cos(2nt)
    """
    if n < 1:
        raise InvalidFamilyParams("n must be >= 1")
    m = 2 * n + 1
    t = np.asarray(theta, dtype=np.float64)
    if variant is FamilyVariant.EX31:
        out = -np.cos(t) + np.cos(m * t) / m + np.cos((m - 1) * t) / (m - 1)
    elif variant is FamilyVariant.EX34:
        out = ((n + 1) * np.cos(t) - np.cos((2 * n + 1) * t)
               - (2.0 * (n + 1) / (2 * n + 1)) * np.cos(2 * n * t))
    else:
        raise InvalidFamilyParams(f"{variant.value} has no D(theta) form")
    return float(out) if np.isscalar(theta) else out


def d_prime_theta(n: int, theta):
    """Derivative of the ex31 D(theta) in product form.

    D'(t) = sin t - sin(mt) - sin((m-1)t)
          = -4 cos(t/2) cos((2n+1)t/2) sin(nt).

    The leading sign of the product form was pinned by validating against
    central finite differences of d_theta; see the tests.
    """
    if n < 1:
        raise InvalidFamilyParams("n must be >= 1")
    m = 2 * n + 1
    t = np.asarray(theta, dtype=np.float64)
    out = -4.0 * np.cos(t / 2.0) * np.cos(m * t / 2.0) * np.sin(n * t)
    return float(out) if np.isscalar(theta) else out


def critical_points(n: int) -> tuple[list[float], list[float]]:
    """Zeros of D'(theta) for ex31 in (0, pi), as two interlacing lists.

        theta_j  = (2j-1) pi / (2n+1),  j = 1..n     (cosine factor)
        theta'_j = j pi / n,            j = 1..n-1   (sine factor)

    With theta'_n = pi appended, theta_1 < theta'_1 < ... < theta_n < pi.

    Raises:
        InvalidFamilyParams: for n < 2.
    """
    if n < 2:
        raise InvalidFamilyParams("critical_points requires n >= 2")
    first = [(2 * j - 1) * math.pi / (2 * n + 1) for j in range(1, n + 1)]
    second = [j * math.pi / n for j in range(1, n)]
    return first, second


# ---------------------------------------------------------------------------
# the reference A(theta_n) table for ex34
# ---------------------------------------------------------------------------

def table1_angle(n: int) -> float:
    """The probe angle theta_n = 2(2n+1) pi / (4n+3)."""
    return 2.0 * (2 * n + 1) * math.pi / (4 * n + 3)


def _a_sinphi(n: int) -> float:
    # Reduced expression at theta_n in terms of s = sin(pi / (2(4n+3))):
    # the three cosines collapse to 2s^2-1, -s and 3s-4s^3 there.
    s = math.sin(math.pi / (2.0 * (4 * n + 3)))
    return (1.0 - 2.0 / (n * (2 * n + 1) ** 2)
            - 2.0 * (2 * n - 1) * (n + 1) / (2.0 * n * (2 * n + 1))
            + ((2 * n - 1) / (n * (2 * n + 1)))
            * (2.0 * (n + 1) * s * s
               - ((4 * n + 5) / (2 * n + 1)) * s
               + (8.0 * (n + 1) / (2 * n + 1)) * s ** 3))


def table1(n_from: int = 1, n_to: int = 14) -> list[tuple[int, float, float]]:
    """Rows (n, theta_n, A(theta_n)) for the ex34 family.

    A is computed from the reduced sine expression and cross-checked
    against the full formula to 1e-12.

    Raises:
        ArithmeticError: if the two forms disagree (internal inconsistency).
    """
    if not 1 <= n_from <= n_to:
        raise ValueError("need 1 <= n_from <= n_to")
    rows = []
    for n in range(n_from, n_to + 1):
        theta = table1_angle(n)
        value = _a_sinphi(n)
        general = a_theta(FamilyVariant.EX34, n, theta)
        if abs(value - general) > 1e-12:
            raise ArithmeticError(
                f"A(theta_{n}) forms disagree: {value} vs {general}")
        rows.append((n, theta, value))
    return rows


def extend_table1(n_from: int, n_to: int) -> list[tuple[int, float, float]]:
    """Golden-section minimum of A near theta_n for larger n.

    Past n = 15 the fixed probe angle theta_n stops exhibiting the negative
    dip, but a local minimization seeded there still finds it.  One batched
    golden-section search covers all rows, each in the bracket
    theta_n +- pi/(4n+3) capped at pi.  Each row is (n, located angle, A at
    that angle); no claim beyond the numbers found.
    """
    if not 1 <= n_from <= n_to:
        raise ValueError("need 1 <= n_from <= n_to")
    n = np.arange(n_from, n_to + 1)
    # _alpha and table1_angle are plain arithmetic in n, so they take the array
    a, m, seed = _alpha(FamilyVariant.EX34, n), 2 * n + 1, table1_angle(n)
    half = math.pi / (4 * n + 3)
    theta = _golden_min(lambda t: _a_form(a, m, t),
                        seed - half, np.minimum(seed + half, math.pi))
    return list(zip(n.tolist(), theta.tolist(), _a_form(a, m, theta).tolist()))


def _golden_min(fn, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    # Golden-section search on every bracket [lo_i, hi_i] at once, fn acting
    # elementwise: each bracket keeps its left part where fc < fd, else its right.
    g = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - g * (hi - lo)
    d = lo + g * (hi - lo)
    fc, fd = fn(c), fn(d)
    # the widest bracket, n = 1, is 2 pi/7 = 0.90 wide, and 40 steps shrink
    # it by 0.618^40, to 4e-9; the batched bracket reaches rounding in ~60
    for _ in range(40):
        left = fc < fd
        hi = np.where(left, d, hi)
        lo = np.where(left, lo, c)
        x = np.where(left, hi - g * (hi - lo), lo + g * (hi - lo))
        fx = fn(x)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# ex33 closed forms
# ---------------------------------------------------------------------------

def ex33_functional_modulus(n: int, b: float, beta: float, z: complex) -> float:
    """|U-functional| of the ex33 member at z, which is exactly |z|^n.

    The closed value is cross-checked against the literal evaluation of the
    defining expression through the series plumbing.

    Raises:
        InvalidFamilyParams: on bad (n, b).
        ArithmeticError: if the cross-check misses 1e-9 (internal error).
    """
    fn = build(FamilySpec(FamilyVariant.EX33, n=n, b=b, beta=beta))
    closed = abs(z) ** n
    direct = functional_eval_direct(FunctionalKind.U, fn, complex(z))
    if abs(abs(direct) - closed) > 1e-9:
        raise ArithmeticError(
            f"|U| cross-check failed at z={z}: {abs(direct)} vs {closed}")
    return closed


def ex33_re_at_1(n: int, b: float, beta: float) -> float:
    """Re(z f'/f) of the ex33 member at the boundary point z = 1.

        [ (2(n-2)/(n-1)) sin(beta) - 2 b cos(beta) ] sin(beta)
        -----------------------------------------------------
               | 1 + i b + e^{2 i beta}/(n-1) |^2

    Negative for 0 < b <= (n-2)/(n-1) and 0 < beta < arctan(b(n-1)/(n-2)),
    which is how the family fails starlikeness.
    """
    if n < 3:
        raise InvalidFamilyParams("ex33_re_at_1 requires n >= 3")
    num = ((2.0 * (n - 2) / (n - 1)) * math.sin(beta)
           - 2.0 * b * math.cos(beta)) * math.sin(beta)
    den = abs(1.0 + 1j * b + np.exp(2j * beta) / (n - 1)) ** 2
    return num / den


# ---------------------------------------------------------------------------
# ex32 integral representation
# ---------------------------------------------------------------------------

def ex32_tail_by_integral(z: complex) -> complex:
    """sum_{k>=2} z^k/(k-1)^5 via its integral representation.

    Substituting u = log(1/t) turns the weighted interval integral into
    (z^2/4!) * int_0^inf u^4 e^-u / (1 - z e^-u) du, which Gauss-Laguerre
    handles without any endpoint singularity.  Independent of the stored
    coefficients; used to cross-check the ex32 construction.
    """
    x, w = _laguerre_rule()
    g = x ** 4 / (1.0 - complex(z) * np.exp(-x))
    return complex(z) ** 2 / 24.0 * complex(np.sum(w * g))


@lru_cache(maxsize=1)
def _laguerre_rule() -> tuple[np.ndarray, np.ndarray]:
    # laggauss solves an eigenvalue problem; the rule is the same every call
    x, w = np.polynomial.laguerre.laggauss(_GAUSS_LAGUERRE_NODES)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def ex32_tail_by_coefficients(fn: NormalizedFunction, z: complex) -> complex:
    """Same tail sum read off the stored ex32 coefficients:
    zeta(3) * (phi(z) - 1 - b_1 z)."""
    z3 = zeta_constant(3)
    b1 = fn.phi.coeffs[1]
    return z3 * (fn.phi.eval(complex(z)) - 1.0 - b1 * complex(z))


# ---------------------------------------------------------------------------
# boundary images
# ---------------------------------------------------------------------------

def boundary_image(f: NormalizedFunction, r: float, grid: int) -> np.ndarray:
    """Points f(r e^{i theta}) on a closed uniform angle grid.

    Returns grid + 1 points with theta from 0 to 2*pi inclusive, so the
    polyline closes on itself (last point equals first up to rounding).

    Raises:
        PhiVanishes: if phi vanishes on the circle.
    """
    theta, phiv = phi_on_circle(f, r, grid)
    end = r * np.exp(2j * np.pi)  # theta = 2 pi as a float, not exactly 0
    return np.append(r * np.exp(1j * theta) / phiv, end / f.phi.eval(end))
