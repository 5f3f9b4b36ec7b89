"""Numerics for differential-inequality function classes on the unit disk.

Normalized analytic functions are carried by the series of z/f(z); the
package computes the four class functionals (U, P, M, N) in coefficient
and literal form, runs boundary membership and starlikeness scans, forms
harmonic means and verifies their averaging identities, and ships the
built-in example families with their closed-form boundary math.
"""

from .errors import (
    DenominatorVanishes,
    DiskMeanError,
    InvalidFamilyParams,
    LeadingCoefficientNearZero,
    NotNormalized,
    PhiVanishes,
)
from .series import DEFAULT_ORDER, EPS_LEAD, ComplexSeries, ball_coefficients
from .functionals import (
    FunctionalKind,
    NormalizedFunction,
    ScanReport,
    coefficient_criterion,
    from_phi,
    functional_eval_direct,
    functional_series,
    identity_function,
    koebe_function,
    sup_on_circle,
)
from .classes import (
    DEFAULT_RADII,
    MembershipReport,
    StarlikeReport,
    check_membership,
    class_radius,
    starlike_scan,
)
from .means import MeanResult, harmonic_mean, verify_closure
from .families import (
    FamilySpec,
    FamilyVariant,
    a_theta,
    a_theta_reduced,
    boundary_image,
    build,
    critical_points,
    d_prime_theta,
    d_theta,
    ex31_a_factored_m3,
    ex32_tail_by_coefficients,
    ex32_tail_by_integral,
    ex33_functional_modulus,
    ex33_re_at_1,
    extend_table1,
    table1,
    table1_angle,
    zeta_constant,
)

__version__ = "0.1.0"

__all__ = [
    "ComplexSeries",
    "DEFAULT_ORDER",
    "DEFAULT_RADII",
    "EPS_LEAD",
    "DenominatorVanishes",
    "DiskMeanError",
    "FamilySpec",
    "FamilyVariant",
    "FunctionalKind",
    "InvalidFamilyParams",
    "LeadingCoefficientNearZero",
    "MeanResult",
    "MembershipReport",
    "NormalizedFunction",
    "NotNormalized",
    "PhiVanishes",
    "ScanReport",
    "StarlikeReport",
    "a_theta",
    "a_theta_reduced",
    "ball_coefficients",
    "boundary_image",
    "build",
    "check_membership",
    "class_radius",
    "coefficient_criterion",
    "critical_points",
    "d_prime_theta",
    "d_theta",
    "ex31_a_factored_m3",
    "ex32_tail_by_coefficients",
    "ex32_tail_by_integral",
    "ex33_functional_modulus",
    "ex33_re_at_1",
    "extend_table1",
    "from_phi",
    "functional_eval_direct",
    "functional_series",
    "harmonic_mean",
    "identity_function",
    "koebe_function",
    "starlike_scan",
    "sup_on_circle",
    "table1",
    "table1_angle",
    "verify_closure",
    "zeta_constant",
]
