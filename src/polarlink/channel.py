"""Closed-form line-of-sight channel for movable half-wave dipoles.

The complex gain between one transmit and one receive dipole factors into
a spherical-spreading constant, the dipole radiation factor at the emission
angle, a polarization matching efficiency combining Fresnel reflection and
field/axis alignment, and a translation-induced phase term. Everything is
evaluated in far-field form: directions and distances use the receiver
position alone, and the transmit position contributes only to the phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence, Tuple

import numpy as np

from .errors import GeometryError, NumericalError, UnsupportedConfigurationError
from .geometry import AntennaPose
from .medium import MediumParams

_DEGENERATE_TOL = 1e-12
_RADICAND_TOL = 1e-12


@dataclass(frozen=True)
class ChannelMatrix:
    """K x L complex gains between base-station antennas and single-antenna users."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=complex)
        if arr.ndim != 2:
            raise UnsupportedConfigurationError(
                f"channel matrix must be 2-D, got {arr.ndim}-D")
        if arr.shape[0] > arr.shape[1]:
            raise UnsupportedConfigurationError(
                f"more users ({arr.shape[0]}) than antennas ({arr.shape[1]}) is unsupported")
        object.__setattr__(self, "entries", arr)

    @property
    def user_count(self) -> int:
        return self.entries.shape[0]

    @property
    def antenna_count(self) -> int:
        return self.entries.shape[1]


def radiation_factor(theta_e) -> np.ndarray:
    """Half-wave dipole pattern cos((pi/2) cos t) / sin t, zero at the axis.

    Continuously extended to 0 at t = 0 and t = pi; bounded by 1, peaking
    broadside at t = pi/2. Accepts scalars or arrays.
    """
    theta = np.asarray(theta_e, dtype=float)
    ct = np.cos(theta)
    st = np.sin(theta)
    safe = np.where(np.abs(st) < _DEGENERATE_TOL, 1.0, st)
    out = np.where(np.abs(st) < _DEGENERATE_TOL, 0.0,
                   np.cos(0.5 * np.pi * ct) / safe)
    if np.isscalar(theta_e) or np.ndim(theta_e) == 0:
        return float(out)
    return out


def reflection_coefficients(theta_i, medium: MediumParams) -> Tuple[np.ndarray, np.ndarray]:
    """Signed Fresnel reflection coefficients (parallel, perpendicular).

    Both equal +1 at grazing incidence; the parallel one crosses zero at
    the Brewster angle arccos(1/sqrt(eps_r + 1)).
    """
    ct = np.cos(np.asarray(theta_i, dtype=float))
    eps_r = medium.relative_permittivity
    root = np.sqrt(eps_r - 1.0 + ct**2)
    gamma_par = (root - eps_r * ct) / (root + eps_r * ct)
    gamma_perp = (root - ct) / (root + ct)
    if np.ndim(theta_i) == 0:
        return float(gamma_par), float(gamma_perp)
    return gamma_par, gamma_perp


class LinkTerms(NamedTuple):
    """The channel kernel's terms for K users and L transmit antennas.

    cos_emission, cos_matching, matching, degenerate and gains are (K, L);
    sin_incidence, gamma_par and gamma_perp are per user, (K,). matching is
    the amplitude fraction captured after reflection loss and polarization
    mismatch, sqrt(1 - G_par^2 cos^2 a - G_perp^2 sin^2 a),
    with cos a the clipped cos_matching. Where degenerate is set the transmit
    axis points along the path: the gain is exactly 0 and the matching terms
    carry no meaning.
    """

    cos_emission: np.ndarray
    sin_incidence: np.ndarray
    gamma_par: np.ndarray
    gamma_perp: np.ndarray
    cos_matching: np.ndarray
    matching: np.ndarray
    degenerate: np.ndarray
    gains: np.ndarray


def link_terms(tx_positions, tx_orientations, rx_positions, rx_orientations,
               medium: MediumParams) -> LinkTerms:
    """Vectorized channel kernel: the K x L complex gains and the terms they
    are built from.

    tx_positions and tx_orientations: (L, 3); rx_positions and
    rx_orientations: (K, 3). Orientations must be unit vectors. Degenerate
    transmit-axis/propagation alignments yield exactly zero gains.
    """
    tx_p = np.atleast_2d(np.asarray(tx_positions, dtype=float))
    tx_n = np.atleast_2d(np.asarray(tx_orientations, dtype=float))
    rx_p = np.atleast_2d(np.asarray(rx_positions, dtype=float))
    rx_n = np.atleast_2d(np.asarray(rx_orientations, dtype=float))

    rx_dist = np.linalg.norm(rx_p, axis=1)
    if np.any(rx_dist < _DEGENERATE_TOL):
        raise GeometryError("receiver at the origin")
    rx_hat = rx_p / rx_dist[:, None]

    # Emission angle and field direction, far-field: receiver direction only.
    cos_e = rx_hat @ tx_n.T                                      # (K, L)
    rad = radiation_factor(np.arccos(np.clip(cos_e, -1.0, 1.0)))

    stripped = tx_n[None, :, :] - cos_e[:, :, None] * rx_hat[:, None, :]
    stripped_norm = np.linalg.norm(stripped, axis=-1)
    degenerate = stripped_norm < _DEGENERATE_TOL
    field_dir = stripped / np.where(degenerate, 1.0, stripped_norm)[:, :, None]

    # Incident angle and reflection coefficients are per-user quantities.
    sin_i = np.clip(np.abs(np.einsum("ki,ki->k", rx_hat, rx_n)), 0.0, 1.0)
    theta_i = np.arcsin(sin_i)
    gamma_par, gamma_perp = reflection_coefficients(theta_i, medium)

    cos_a = np.clip(np.einsum("kli,ki->kl", field_dir, rx_n), -1.0, 1.0)
    cos2 = cos_a ** 2
    radicand = 1.0 - (gamma_par**2)[:, None] * cos2 - (gamma_perp**2)[:, None] * (1.0 - cos2)
    if np.any(radicand < -_RADICAND_TOL):
        raise NumericalError(f"matching-efficiency radicand fell below 0: min {np.min(radicand)}")
    match = np.sqrt(np.maximum(radicand, 0.0))

    wavenumber = medium.wavenumber
    prefactor = (2j * medium.speed_of_light * medium.permeability / medium.antenna_factor
                 * np.exp(-1j * wavenumber * rx_dist) / (4.0 * np.pi * rx_dist))  # (K,)
    phase = np.exp(1j * wavenumber * (rx_p @ tx_p.T) / rx_dist[:, None])

    gains = prefactor[:, None] * rad * match * phase
    gains[degenerate] = 0.0
    return LinkTerms(cos_e, sin_i, gamma_par, gamma_perp, cos_a, match, degenerate, gains)


def gain_matrix(tx_positions, tx_orientations, rx_positions, rx_orientations,
                medium: MediumParams) -> np.ndarray:
    """(K, L) complex gains: the gains of link_terms."""
    return link_terms(tx_positions, tx_orientations, rx_positions, rx_orientations,
                      medium).gains


def element_gain(tx: AntennaPose, rx: AntennaPose, medium: MediumParams) -> complex:
    """Complex far-field gain of a single dipole link; 0 if the transmit axis
    points at the receiver."""
    return complex(gain_matrix(tx.position[None, :], tx.orientation[None, :],
                               rx.position[None, :], rx.orientation[None, :], medium)[0, 0])


def channel_matrix(tx_poses: Sequence[AntennaPose], rx_poses: Sequence[AntennaPose],
                   medium: MediumParams) -> ChannelMatrix:
    """Assemble the K x L matrix of element gains; requires K <= L."""
    if len(rx_poses) < 1 or len(tx_poses) < 1:
        raise UnsupportedConfigurationError("need at least one antenna on each side")
    if len(rx_poses) > len(tx_poses):
        raise UnsupportedConfigurationError(
            f"more users ({len(rx_poses)}) than antennas ({len(tx_poses)}) is unsupported")
    tx_p = np.array([p.position for p in tx_poses])
    tx_n = np.array([p.orientation for p in tx_poses])
    rx_p = np.array([p.position for p in rx_poses])
    rx_n = np.array([p.orientation for p in rx_poses])
    return ChannelMatrix(entries=gain_matrix(tx_p, tx_n, rx_p, rx_n, medium))
