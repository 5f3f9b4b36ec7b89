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
it (the argument principle), from the average of the parents' values
there (:func:`harmonic_mean`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DenominatorVanishes, PhiVanishes
from .functionals import (
    FunctionalKind,
    NormalizedFunction,
    functional_series,
    least_moduli,
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

    phi_F is :meth:`ComplexSeries.average` of the two: the shorter phi is
    padded with zeros, so past it phi_F's coefficients are half the
    longer's, and it is built and checked in cache-sized blocks.  The
    nonvanishing hypothesis on (f+g)/z is probed on a finite grid (radius
    0.999, 4096 angles): phi_F must not vanish there by the scans' rule
    (:func:`least_moduli`), and the winding number of its values (the
    count of phi_F's zeros inside) must be 0.  This is a numerical
    surrogate, not a proof; min |phi_F| is reported as a diagnostic only.

    phi_F's values there are (phi_f + phi_g)/2 of the parents' values: the
    fold is linear, so they differ from phi_F's own only by rounding, within
    a small multiple of eps log2(4096) sum_k (|b_k(f)| + |b_k(g)|) 0.999**k
    (5e-16 of max |phi_F| on ex32 at order 10^6 with a small partner).  A
    long parent keeps its plain fold there (64 KiB), so from its second
    mean on the probe costs two short transforms.  A parent may itself
    vanish on the circle; only the average is tested.

    Raises:
        DenominatorVanishes: if phi_F vanishes on the probe grid or has
            zeros inside the probe circle.
    """
    label = f"mean({f.label or 'f'},{g.label or 'g'})"
    mean = NormalizedFunction(ComplexSeries.average(f.phi, g.phi), label)
    phiv = 0.5 * (f.phi.on_circle(PROBE_RADIUS, PROBE_GRID)
                  + g.phi.on_circle(PROBE_RADIUS, PROBE_GRID))
    try:
        (least,) = least_moduli(PROBE_RADIUS, phiv)
    except PhiVanishes as exc:
        raise DenominatorVanishes(f"(phi_f + phi_g)/2: {exc}") from exc
    zeros = zero_count(phiv)
    if zeros:
        raise DenominatorVanishes(f"(phi_f + phi_g)/2 has zero count {zeros} inside "
                                  f"|z| = {PROBE_RADIUS:g} (its winding number there)")
    return MeanResult(mean=mean, min_denominator_modulus=float(least))


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

    Raises:
        ValueError: if ``samples`` < 1.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    r = 0.95 * np.sqrt(rng.random(samples))
    t = 2.0 * np.pi * rng.random(samples)
    pts = r * np.exp(1j * t)
    vf = functional_series(kind, f).eval(pts)
    vg = functional_series(kind, g).eval(pts)
    vm = functional_series(kind, mean).eval(pts)
    return float(np.max(np.abs(vm - 0.5 * (vf + vg))))
