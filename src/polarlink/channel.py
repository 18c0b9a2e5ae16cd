"""Closed-form line-of-sight channel for movable half-wave dipoles.

The complex gain between one transmit and one receive dipole factors into
a spherical-spreading constant, the dipole radiation factor at the emission
angle, a polarization matching efficiency combining Fresnel reflection and
field/axis alignment, and a translation-induced phase term. Everything is
evaluated in far-field form: directions and distances use the receiver
position alone, and the transmit position contributes only to the phase.
link_terms computes each factor once from cosines and sines, never through
an angle: the form the optimizer's exact gradient differentiates.

link_terms is the composition of three pure pieces and one combining step:
link_geometry (the positions' factors), transmit_terms (the transmit axes'),
receive_terms (the receive axes') and combine_terms (the matching terms and
the gains, the per-evaluation kernel), whose LinkTerms nests the pieces'
tuples, so each term is declared once, by the piece that computes it. The
optimizer calls the same pieces: it builds the geometry once per run, and each
evaluated point makes one combine_terms call after building the side terms of
the one block its step moved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence, Tuple

import numpy as np

from .errors import GeometryError, NumericalError, UnsupportedConfigurationError
from .geometry import AntennaPose
from .medium import ANTENNA_FACTOR, SPEED_OF_LIGHT, VACUUM_PERMEABILITY, MediumParams

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


def _dipole_pattern(cos_e, sin_e):
    """The half-wave dipole pattern cos((pi/2) cos t) / sin t from cos t and sin t."""
    return np.cos(0.5 * np.pi * cos_e) / sin_e


def radiation_factor(theta_e) -> np.ndarray:
    """Half-wave dipole pattern cos((pi/2) cos t) / sin t, zero at the axis.

    Continuously extended to 0 at t = 0 and t = pi; bounded by 1, peaking
    broadside at t = pi/2. Accepts scalars or arrays.
    """
    theta = np.asarray(theta_e, dtype=float)
    st = np.sin(theta)
    axial = np.abs(st) < _DEGENERATE_TOL
    out = np.where(axial, 0.0, _dipole_pattern(np.cos(theta), np.where(axial, 1.0, st)))
    if np.ndim(theta_e) == 0:
        return float(out)
    return out


def _fresnel(cos_i, eps_r):
    """Signed Fresnel coefficients (parallel, perpendicular) at incidence cosine cos_i."""
    root = np.sqrt(eps_r - 1.0 + cos_i**2)
    return (root - eps_r * cos_i) / (root + eps_r * cos_i), (root - cos_i) / (root + cos_i)


def reflection_coefficients(theta_i, medium: MediumParams) -> Tuple[np.ndarray, np.ndarray]:
    """Signed Fresnel reflection coefficients (parallel, perpendicular).

    Both equal +1 at grazing incidence; the parallel one crosses zero at
    the Brewster angle arccos(1/sqrt(eps_r + 1)).
    """
    gamma_par, gamma_perp = _fresnel(np.cos(theta_i), medium.relative_permittivity)
    if np.ndim(theta_i) == 0:
        return float(gamma_par), float(gamma_perp)
    return gamma_par, gamma_perp


class LinkGeometry(NamedTuple):
    """The position-only factors of the K x L links: path_dir (K, 3) holds the
    unit direction u to each user, prefactor (K,) the spherical-spreading
    constant and phase (K, L) the translation phase exp(j k u_k . p_l)."""

    path_dir: np.ndarray
    prefactor: np.ndarray
    phase: np.ndarray


class TransmitTerms(NamedTuple):
    """The terms of the unit transmit axes n, axes (L, 3), toward the path
    directions u, per link (K, L): cos_emission = u . n, sin_emission =
    |n - (u . n) u|, degenerate (n along u) and the dipole pattern; field_dir
    (K, L, 3) is n - (u . n) u over sin_emission. Where degenerate, pattern
    and field_dir are meaningless."""

    axes: np.ndarray
    cos_emission: np.ndarray
    sin_emission: np.ndarray
    field_dir: np.ndarray
    degenerate: np.ndarray
    pattern: np.ndarray


class ReceiveTerms(NamedTuple):
    """The terms of the unit receive axes r, axes (K, 3), per user (K,):
    sin_incidence = |u . r|, cos_incidence = |r - (u . r) u| and the signed
    Fresnel coefficients gamma_par and gamma_perp at that incidence."""

    axes: np.ndarray
    sin_incidence: np.ndarray
    cos_incidence: np.ndarray
    gamma_par: np.ndarray
    gamma_perp: np.ndarray


class LinkTerms(NamedTuple):
    """The channel kernel's terms for K users and L transmit antennas: the
    pieces it combined and, per link (K, L), cos_matching = field_dir . r
    clipped to [-1, 1], the cosine of the matching angle a, matching =
    sqrt(1 - G_par^2 cos^2 a - G_perp^2 sin^2 a), the amplitude kept after
    reflection loss and polarization mismatch, and the gains. Where
    tx.degenerate, the gain is exactly 0 and the matching terms are meaningless.
    """

    geometry: LinkGeometry
    tx: TransmitTerms
    rx: ReceiveTerms
    cos_matching: np.ndarray
    matching: np.ndarray
    gains: np.ndarray


def link_geometry(tx_positions, rx_positions, medium: MediumParams) -> LinkGeometry:
    """The factors fixed by the positions, tx_positions (L, 3) and rx_positions
    (K, 3): far-field, the directions and distances use the receiver position
    alone, and the transmit position enters only the phase. Positions too far
    out for a finite distance, spreading constant or phase raise GeometryError."""
    tx_p = np.atleast_2d(np.asarray(tx_positions, dtype=float))
    rx_p = np.atleast_2d(np.asarray(rx_positions, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):   # an overflow raises below
        rx_dist = np.linalg.norm(rx_p, axis=1)
        if np.any(rx_dist < _DEGENERATE_TOL):
            raise GeometryError("receiver at the origin")
        wavenumber = medium.wavenumber
        prefactor = (2j * SPEED_OF_LIGHT * VACUUM_PERMEABILITY / ANTENNA_FACTOR
                     * np.exp(-1j * wavenumber * rx_dist) / (4.0 * np.pi * rx_dist))
        phase = np.exp(1j * wavenumber * (rx_p @ tx_p.T) / rx_dist[:, None])
    # A distance that overflowed to inf leaves the prefactor nan.
    if not (np.isfinite(prefactor).all() and np.isfinite(phase).all()):
        raise GeometryError("positions too far out for a finite link distance or phase")
    return LinkGeometry(rx_p / rx_dist[:, None], prefactor, phase)


def transmit_terms(path_dir: np.ndarray, tx_n: np.ndarray) -> TransmitTerms:
    """Emission angle, field direction and dipole pattern of the unit transmit
    axes tx_n (L, 3) toward the users along path_dir (K, 3). sin_emission is
    the field direction's length, summed over its three components as
    receive_terms does: np.linalg.norm's value, without its reduction over a
    length-3 axis."""
    cos_e = path_dir @ tx_n.T                                    # (K, L)
    field_dir = tx_n[None, :, :] - cos_e[:, :, None] * path_dir[:, None, :]
    sin_e = np.sqrt(field_dir[..., 0]**2 + field_dir[..., 1]**2 + field_dir[..., 2]**2)
    degenerate = sin_e < _DEGENERATE_TOL
    safe_sin_e = np.where(degenerate, 1.0, sin_e)
    field_dir /= safe_sin_e[:, :, None]
    return TransmitTerms(tx_n, cos_e, sin_e, field_dir, degenerate,
                         _dipole_pattern(cos_e, safe_sin_e))


def receive_terms(path_dir: np.ndarray, rx_n: np.ndarray,
                  medium: MediumParams) -> ReceiveTerms:
    """Incidence angle and Fresnel coefficients of the unit receive axes rx_n
    (K, 3) along path_dir (K, 3)."""
    # cos_i is the length of r's part off the path, which keeps every digit
    # near grazing, where sqrt(1 - sin_i^2) keeps half.
    sin_i = np.einsum("ki,ki->k", path_dir, rx_n)          # u . r, then its size
    cos_i = np.sqrt(sum((rx_n[:, i] - sin_i * path_dir[:, i])**2 for i in range(3)))
    sin_i = np.clip(np.abs(sin_i), 0.0, 1.0)
    return ReceiveTerms(rx_n, sin_i, cos_i, *_fresnel(cos_i, medium.relative_permittivity))


def combine_terms(geometry: LinkGeometry, tx: TransmitTerms, rx: ReceiveTerms) -> LinkTerms:
    """The per-evaluation kernel: the matching terms and gains of the links
    whose positions gave geometry and whose axes gave tx and rx."""
    cos_a = np.clip(np.einsum("kli,ki->kl", tx.field_dir, rx.axes), -1.0, 1.0)
    cos2 = cos_a ** 2
    radicand = (1.0 - (rx.gamma_par**2)[:, None] * cos2
                - (rx.gamma_perp**2)[:, None] * (1.0 - cos2))
    if np.any(radicand < -_RADICAND_TOL):
        raise NumericalError(f"matching-efficiency radicand fell below 0: min {np.min(radicand)}")
    match = np.sqrt(np.maximum(radicand, 0.0))

    gains = geometry.prefactor[:, None] * tx.pattern * match * geometry.phase
    np.copyto(gains, 0.0, where=tx.degenerate)
    return LinkTerms(geometry, tx, rx, cos_a, match, gains)


def link_terms(tx_positions, tx_orientations, rx_positions, rx_orientations,
               medium: MediumParams) -> LinkTerms:
    """Vectorized channel kernel: the K x L complex gains and the terms they
    are built from.

    tx_positions and tx_orientations: (L, 3); rx_positions and
    rx_orientations: (K, 3). A single (1, 3) position on either side
    broadcasts against that side's N axes, giving the same gains as the
    position repeated N times. Orientations must be unit vectors. Degenerate
    transmit-axis/propagation alignments yield exactly zero gains; at grazing
    incidence (cos_incidence == 0) the user's row is exactly zero. The
    composition of link_geometry, transmit_terms, receive_terms and
    combine_terms, the pieces optimize calls separately.
    """
    tx_n = np.atleast_2d(np.asarray(tx_orientations, dtype=float))
    rx_n = np.atleast_2d(np.asarray(rx_orientations, dtype=float))
    geometry = link_geometry(tx_positions, rx_positions, medium)
    return combine_terms(geometry, transmit_terms(geometry.path_dir, tx_n),
                         receive_terms(geometry.path_dir, rx_n, medium))


def gain_matrix(tx_positions, tx_orientations, rx_positions, rx_orientations,
                medium: MediumParams) -> np.ndarray:
    """(K, L) complex gains: the gains of link_terms. A (1, 3) position on
    either side broadcasts against that side's N axes."""
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
    tx_p = np.array([p.position for p in tx_poses])
    tx_n = np.array([p.orientation for p in tx_poses])
    rx_p = np.array([p.position for p in rx_poses])
    rx_n = np.array([p.orientation for p in rx_poses])
    return ChannelMatrix(entries=gain_matrix(tx_p, tx_n, rx_p, rx_n, medium))
