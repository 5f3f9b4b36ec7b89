"""Harmonic means of normalized functions and the averaging identities.

For F(z) = 2 f(z) g(z) / (f(z) + g(z)) one has

    1/F - 1/z = ((1/f - 1/z) + (1/g - 1/z)) / 2,

so phi_F = (phi_f + phi_g)/2 coefficientwise.  All four functionals are
linear in the phi tail, hence

    kind_F(z) = (kind_f(z) + kind_g(z)) / 2

exactly, and membership of F in a class follows from membership of f and g
by the triangle inequality whenever (f + g)/z does not vanish on the disk.
That hypothesis is probed on the circle |z| = 0.999: construction is refused
when phi_F vanishes on it or winds around 0 along it, i.e. has zeros inside
it (the argument principle).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DenominatorVanishes, PhiVanishes
from .functionals import (
    FunctionalKind,
    NormalizedFunction,
    functional_series,
    phi_on_circle,
    zero_count,
)
from .series import ComplexSeries

PROBE_RADIUS = 0.999
PROBE_GRID = 4096


@dataclass(frozen=True)
class MeanResult:
    mean: NormalizedFunction
    min_denominator_modulus: float


def harmonic_mean(f: NormalizedFunction, g: NormalizedFunction) -> MeanResult:
    """F = 2fg/(f+g), built as the coefficientwise average of the phis.

    A phi of lower order is padded with zeros, so the mean keeps the longer
    series' tail: past the shorter phi its coefficients are half the
    longer's.  phi_F is built in one coefficient-length array.  The
    nonvanishing hypothesis on (f+g)/z is probed on a finite grid (radius
    0.999, 4096 angles): phi_F must not vanish there by
    :func:`phi_on_circle`'s rule, and the winding number of its values (the
    count of phi_F's zeros inside) must be 0.  This is a numerical
    surrogate, not a proof; min |phi_F| is reported as a diagnostic only.

    Raises:
        DenominatorVanishes: if phi_F vanishes on the probe grid or has
            zeros inside the probe circle.
    """
    short, long = sorted((f.phi.coeffs, g.phi.coeffs), key=len)
    # ((0 + long) + short)/2 with short padded by zeros: the 0 turns -0.0
    # into +0.0, which makes the bits the same whichever phi comes first
    total = long + 0.0
    total[: short.size] += short
    total *= 0.5
    label = f"mean({f.label or 'f'},{g.label or 'g'})"
    mean = NormalizedFunction(ComplexSeries._adopt(total), label)
    try:
        _, phiv = phi_on_circle(mean, PROBE_RADIUS, PROBE_GRID)
    except PhiVanishes as exc:
        raise DenominatorVanishes(f"(phi_f + phi_g)/2: {exc}") from exc
    zeros = zero_count(phiv)
    if zeros:
        raise DenominatorVanishes(f"(phi_f + phi_g)/2 has zero count {zeros} inside "
                                  f"|z| = {PROBE_RADIUS:g} (its winding number there)")
    return MeanResult(mean=mean, min_denominator_modulus=float(np.min(np.abs(phiv))))


def verify_closure(kind: FunctionalKind, f: NormalizedFunction,
                   g: NormalizedFunction, samples: int = 500,
                   seed: int = 0) -> float:
    """Max residual of the averaging identity at random points:
    :func:`averaging_residual` of the mean that :func:`harmonic_mean` builds.

    Raises:
        DenominatorVanishes: propagated from harmonic_mean.
    """
    return averaging_residual(kind, f, g, harmonic_mean(f, g).mean, samples, seed)


def averaging_residual(kind: FunctionalKind, f: NormalizedFunction,
                       g: NormalizedFunction, mean: NormalizedFunction,
                       samples: int = 500, seed: int = 0) -> float:
    """Max residual of the averaging identity for a mean already built.

    Draws ``samples`` points uniformly from the disk of radius 0.95 and
    returns max |kind_F(z) - (kind_f(z) + kind_g(z))/2|, F = ``mean``, with
    every value taken from the exact coefficient path.  The identity is
    linear-exact, so for F = harmonic_mean(f, g).mean anything above
    rounding level indicates an implementation error.
    """
    rng = np.random.default_rng(seed)
    r = 0.95 * np.sqrt(rng.random(samples))
    t = 2.0 * np.pi * rng.random(samples)
    pts = r * np.exp(1j * t)
    vf = functional_series(kind, f).eval(pts)
    vg = functional_series(kind, g).eval(pts)
    vm = functional_series(kind, mean).eval(pts)
    return float(np.max(np.abs(vm - 0.5 * (vf + vg))))
