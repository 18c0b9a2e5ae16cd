"""Propagation-medium and hardware constants for a dipole link."""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

# Every gain carries the factor 2 c mu / ANTENNA_FACTOR, which a SINR sees only
# through |h|^2 / noise_power: noise_power alone sets that ratio.
SPEED_OF_LIGHT = 299_792_458.0          # m/s
VACUUM_PERMEABILITY = 4e-7 * np.pi      # H/m, the permeability of air
ANTENNA_FACTOR = 1.0                    # field-amplitude-to-voltage conversion


@dataclass(frozen=True)
class MediumParams:
    """Medium and receiver constants entering the closed-form link gain.

    wavelength            carrier wavelength in meters
    relative_permittivity antenna-to-air permittivity ratio, must exceed 1
    noise_power           receiver noise power in watts

    Each value, and the wavenumber, must be finite.
    """

    wavelength: float = 0.01
    relative_permittivity: float = 2.0
    noise_power: float = 1e-5

    def __post_init__(self):
        if not 0 < self.wavelength < np.inf or not np.isfinite(self.wavenumber):
            raise ConfigurationError(f"wavelength must be positive and finite, with a finite "
                                     f"wavenumber, got {self.wavelength}")
        if not 1 < self.relative_permittivity < np.inf:
            raise ConfigurationError(f"relative permittivity must be finite and exceed 1, "
                                     f"got {self.relative_permittivity}")
        if not 0 < self.noise_power < np.inf:
            raise ConfigurationError(
                f"noise power must be positive and finite, got {self.noise_power}")

    @property
    def wavenumber(self) -> float:
        """Phase constant 2*pi/lambda in rad/m."""
        return 2.0 * np.pi / self.wavelength
