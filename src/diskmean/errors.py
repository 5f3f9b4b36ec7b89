"""Exception types shared across the package."""


class DiskMeanError(Exception):
    """Base class for all library-specific errors."""


class LeadingCoefficientNearZero(DiskMeanError):
    """Series inversion refused: the constant coefficient is too close to zero."""


class NotNormalized(DiskMeanError):
    """A phi-series must have constant coefficient exactly 1 (within 1e-12)."""


class PhiVanishes(DiskMeanError):
    """phi(z) is numerically zero at a requested point, so z/f and f'(z) blow up."""


class DenominatorVanishes(DiskMeanError):
    """The averaged phi of a harmonic mean vanishes on or inside the probe circle."""


class InvalidFamilyParams(DiskMeanError):
    """Family parameters violate the admissible ranges."""
