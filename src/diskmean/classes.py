"""Class membership checks, starlikeness scans, and radius search."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functionals import (
    MARGIN_TOL,
    FunctionalKind,
    JsonReport,
    NormalizedFunction,
    ScanReport,
    functional_series,  # noqa: F401  (a binding site bench/tracing.py wraps)
    grid_min,
    kind_weights,
    phi_on_circle,
    sup_on_circle,
)
from .series import ComplexSeries

#: Membership is assessed on these circles by default; each functional is
#: analytic where phi != 0, so its modulus over |z| <= r peaks on |z| = r.
DEFAULT_RADII = (0.9, 0.99, 0.999)

DEFAULT_GRID = 4096

#: Starlikeness verdicts tolerate this much negativity: some families touch
#: Re(zf'/f) = 0 on the boundary and rounding must not flip the verdict.
STARLIKE_TOL = 1e-6

MEMBER_BY_COEFFICIENT = "MemberByCoefficient"
MEMBER_NUMERIC = "MemberNumeric"
FAIL_NUMERIC = "FailNumeric"


@dataclass(frozen=True)
class MembershipReport(JsonReport):
    kind: FunctionalKind
    coefficient_sum: float
    scans: list[ScanReport]
    verdict: str

    @property
    def is_member(self) -> bool:
        return self.verdict != FAIL_NUMERIC


@dataclass(frozen=True)
class StarlikeReport(JsonReport):
    radii: list[float]
    min_value: float
    argmin_angle: float
    argmin_radius: float
    starlike_numeric: bool


def coefficient_criterion(kind: FunctionalKind, f: NormalizedFunction) -> float:
    """Weighted absolute coefficient sum of the functional's series.

    This is the triangle-inequality membership test: the sup of the
    functional over the disk is at most this sum, so a sum <= bound(kind)
    certifies membership.  Weights per phi-coefficient b_k (k >= 2):
    (k-1) for U, (k-1)^2 for M, (k-1)^3 for N, k(k-1) for P.
    """
    b = np.abs(f.phi.coeffs)
    return float(np.sum(np.abs(kind_weights(kind, b.size)) * b[2:]))


def check_membership(kind: FunctionalKind, f: NormalizedFunction,
                     radii=DEFAULT_RADII, grid: int = DEFAULT_GRID) -> MembershipReport:
    """Coefficient criterion plus one sup scan per radius.

    Verdict: FailNumeric if any scan margin drops below -1e-9,
    MemberByCoefficient if the coefficient sum is within the bound,
    MemberNumeric otherwise (scans pass but the sufficient test does not).
    """
    radii = list(radii)
    if any(not 0.0 < r < 1.0 for r in radii):
        raise ValueError("all radii must lie in (0, 1)")
    total = coefficient_criterion(kind, f)
    scans = [sup_on_circle(kind, f, r, grid) for r in radii]
    if any(s.margin < -MARGIN_TOL for s in scans):
        verdict = FAIL_NUMERIC
    elif total <= kind.bound:
        verdict = MEMBER_BY_COEFFICIENT
    else:
        verdict = MEMBER_NUMERIC
    return MembershipReport(kind=kind, coefficient_sum=total,
                            scans=scans, verdict=verdict)


def starlike_scan(f: NormalizedFunction, radii=(0.999,),
                  grid: int = 8192) -> StarlikeReport:
    """Minimum of Re(z f'(z)/f(z)) over the sampled circles.

    The quotient is evaluated as (phi - z phi')/phi, which is algebraically
    z f'/f and stays exact-to-rounding arbitrarily close to boundary zeros
    of phi; reconstructing f through a truncated reciprocal would lose all
    accuracy near such points.  One complex division per grid point.

    Raises:
        PhiVanishes: if phi vanishes on the sampled set.
    """
    radii = list(radii)
    if any(not 0.0 < r < 1.0 for r in radii):
        raise ValueError("all radii must lie in (0, 1)")
    # phi - z phi' has coefficients b_k - k b_k, one order shorter like phi';
    # built in one pass, as phi - phi.derivative().shift_up() keeps three
    # more full-length temporaries and raised the ex32 peak RSS by about 8 MiB
    b = f.phi.coeffs
    numerator = ComplexSeries((b - b * np.arange(b.size))[: max(b.size - 1, 1)])
    best = np.inf
    best_angle = 0.0
    best_radius = radii[0] if radii else 0.0
    for r in radii:
        theta, phiv = phi_on_circle(f, r, grid)
        lo, idx = grid_min((numerator.on_circle(r, grid) / phiv).real)
        if lo < best:
            best = lo
            best_angle = float(theta[idx])
            best_radius = float(r)
    return StarlikeReport(
        radii=[float(r) for r in radii],
        min_value=best,
        argmin_angle=best_angle,
        argmin_radius=best_radius,
        starlike_numeric=bool(best >= -STARLIKE_TOL),
    )


def class_radius(kind: FunctionalKind, f: NormalizedFunction,
                 tol: float = 1e-5, grid: int = 2048) -> float:
    """Largest radius (within tol) at which the defining inequality holds.

    Bisection of sup_on_circle(kind, f, r) - bound over r in
    [1e-3, 1 - 1e-4], at most 60 iterations.  Returns 1.0 when no violation
    is found up to r = 1 - 1e-4; returns the bracket floor if the
    functional already violates the bound there.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    lo, hi = 1e-3, 1.0 - 1e-4

    def violated(r: float) -> bool:
        return sup_on_circle(kind, f, r, grid).extremal_value > kind.bound

    if not violated(hi):
        return 1.0
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
