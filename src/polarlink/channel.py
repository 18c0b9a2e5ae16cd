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

The kernel keeps its 3-vectors component-major: the pieces read their (N, 3)
axes as the transposed (3, N) planes, so every elementwise operation runs
along the K, L or N axis. Kept as (..., 3) rows, numpy ran its loops over an
inner axis of length 3, where the loop overhead costs more than the
arithmetic: on one 16,384-orientation Monte Carlo block (2-core Xeon host,
one thread) transmit_terms took 580-690 us as rows against 290-350 us as
planes. No 3-vector per link is kept: combine_terms takes the matching cosine
from two dot products, r . n and the receive side's u . r. The two
contractions whose rounding would follow their operands' memory layout, u . n
and r . n, are matrix products of C-contiguous (3, N) planes, so the gains are
the same bit for bit whether the axes arrive as (N, 3) rows or as the view of
(3, N) planes that geometry.angles_to_unit returns.
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
# Links from which combine_terms writes pattern * m straight into the complex
# gains: 16,384 doubles are 128 KiB, glibc's default mmap threshold.
_IN_PLACE_GAINS = 1 << 14


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
    """The half-wave dipole pattern cos((pi/2) cos t) / sin t from c = cos t
    and s = sin t, evaluated as sin((pi/2) s^2 / (1 + |c|)) / s.

    The same function: cos((pi/2) c) = sin((pi/2) (1 - |c|)), and 1 - |c| =
    s^2 / (1 + |c|). Near the axis 1 - |c| cancels to the last bit of c, while
    s^2 / (1 + |c|) keeps every digit of s, so the pattern is exact there (the
    cosine form loses all digits at sin t = 1e-8). The sine's argument x is in
    [0, pi/2], and it is 2t / (1 + t^2) of t = tan(x/2) in [0, 1], numpy's
    vectorized tan instead of its scalar sin loop (see geometry._sin_cos).
    The sine alone is taken here, in place: through _sin_cos, which also
    builds the cosine, a 16,384-entry pattern took 370 us instead of 130 us.
    """
    x = sin_e * sin_e
    x /= 1.0 + np.abs(cos_e)
    x *= 0.25 * np.pi
    t = np.tan(x)
    den = t * t
    den += 1.0
    den *= sin_e
    t += t
    t /= den
    return t


def radiation_factor(theta_e) -> np.ndarray:
    """Half-wave dipole pattern cos((pi/2) cos t) / sin t, zero at the axis.

    Continuously extended to 0 at t = 0 and t = pi; bounded by 1, peaking
    broadside at t = pi/2. Accepts scalars or arrays. Exact near the axis:
    it is evaluated from sin t as _dipole_pattern is, never from 1 - |cos t|.
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
    unit direction u to each user, and scale (K, L) the spherical-spreading
    constant of each user times the translation phase exp(j k u_k . p_l), the
    factor every gain of the link carries whatever the axes."""

    path_dir: np.ndarray
    scale: np.ndarray


class TransmitTerms(NamedTuple):
    """The terms of the unit transmit axes n, axes (L, 3), toward the path
    directions u, per link (K, L): cos_emission = u . n, sin_emission =
    |n - (u . n) u|, degenerate (n along u), safe_sin_emission (sin_emission,
    but 1 where degenerate: the divisor of the matching cosine, the pattern
    and both optimizer gradients) and the dipole pattern. The field direction
    (n - (u . n) u) / sin_emission is not kept: combine_terms needs only its
    projection on r. Where degenerate, the pattern means nothing."""

    axes: np.ndarray
    cos_emission: np.ndarray
    sin_emission: np.ndarray
    safe_sin_emission: np.ndarray
    degenerate: np.ndarray
    pattern: np.ndarray


class ReceiveTerms(NamedTuple):
    """The terms of the unit receive axes r, axes (K, 3), per user (K,):
    path_cos = u . r (signed; its size is the incidence angle's sine),
    cos_incidence = |r - (u . r) u|, the signed Fresnel coefficients gamma_par
    and gamma_perp at that incidence, and the two factors of the squared
    matching efficiency they give, m^2 = kept - spread cos^2 a: kept =
    1 - gamma_perp^2 and spread = gamma_par^2 - gamma_perp^2."""

    axes: np.ndarray
    path_cos: np.ndarray
    cos_incidence: np.ndarray
    gamma_par: np.ndarray
    gamma_perp: np.ndarray
    kept: np.ndarray
    spread: np.ndarray


class LinkTerms(NamedTuple):
    """The channel kernel's terms for K users and L transmit antennas: the
    pieces it combined and, per link (K, L), cos_matching = f . r clipped to
    [-1, 1], the cosine of the matching angle a between r and the field
    direction f = (n - cos_e u) / sin_e, matching = sqrt(1 - G_par^2 cos^2 a
    - G_perp^2 sin^2 a), the amplitude kept after reflection loss and
    polarization mismatch, and the gains. Where tx.degenerate, the gain is
    exactly 0 and the matching terms are meaningless.
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
    alone, and the transmit position enters only the phase: paths and distances
    are taken from the origin, which assumes (unchecked) transmit offsets small
    beside them. Positions too far out for a finite distance, spreading
    constant or phase raise GeometryError."""
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
        scale = prefactor[:, None] * phase
    # A distance that overflowed to inf leaves the prefactor nan; |phase| is 1.
    if not np.isfinite(scale).all():
        raise GeometryError("positions too far out for a finite link distance or phase")
    return LinkGeometry(rx_p / rx_dist[:, None], scale)


def transmit_terms(path_dir: np.ndarray, tx_n: np.ndarray) -> TransmitTerms:
    """Emission angle and dipole pattern of the unit transmit axes tx_n (L, 3)
    toward the users along path_dir (K, 3). sin_emission is the length of
    n - cos_e u, its three (K, L) planes' squares summed in order:
    np.linalg.norm's value without its length-3 reduction, exact near the
    axis, where sqrt(1 - cos_e^2) is off by about eps / sin_e^2 relative."""
    n = np.ascontiguousarray(tx_n.T)                             # (3, L) planes
    cos_e = path_dir @ n                                         # (K, L)
    # C-ordered planes, whatever path_dir's layout.
    off_path = np.multiply(cos_e, path_dir.T[:, :, None], order="C")
    np.subtract(n[:, None, :], off_path, out=off_path)
    sin_e = np.sqrt(np.add.reduce(np.multiply(off_path, off_path, out=off_path), axis=0))
    del off_path                                                 # before the pattern's temporaries
    degenerate = sin_e < _DEGENERATE_TOL
    safe_sin_e = np.where(degenerate, 1.0, sin_e)
    return TransmitTerms(tx_n, cos_e, sin_e, safe_sin_e, degenerate,
                         _dipole_pattern(cos_e, safe_sin_e))


def receive_terms(path_dir: np.ndarray, rx_n: np.ndarray,
                  medium: MediumParams) -> ReceiveTerms:
    """Incidence angle and Fresnel coefficients of the unit receive axes rx_n
    (K, 3) along path_dir (K, 3), both read as their (3, K) component planes."""
    r, u = rx_n.T, path_dir.T
    # cos_i is the length of r's part off the path, which keeps every digit
    # near grazing, where sqrt(1 - (u . r)^2) keeps half.
    planes = u * r
    path_cos = np.add.reduce(planes, axis=0)                     # u . r
    off_path = np.subtract(r, np.multiply(path_cos, u, out=planes), out=planes)
    cos_i = np.sqrt(np.add.reduce(np.multiply(off_path, off_path, out=off_path), axis=0))
    g_par, g_perp = _fresnel(cos_i, medium.relative_permittivity)
    perp2 = g_perp * g_perp
    return ReceiveTerms(rx_n, path_cos, cos_i, g_par, g_perp, 1.0 - perp2, g_par * g_par - perp2)


def combine_terms(geometry: LinkGeometry, tx: TransmitTerms, rx: ReceiveTerms) -> LinkTerms:
    """The per-evaluation kernel: the matching terms and gains of the links
    whose positions gave geometry and whose axes gave tx and rx. Only what
    pairs the two sides is computed here: cos_a = (r . n - cos_e (u . r)) /
    sin_e, from the axes' r . n and the receive side's u . r, m = sqrt(kept -
    spread cos^2 a) from its Fresnel factors, and the gains scale * (pattern *
    m).

    From _IN_PLACE_GAINS links on (the Monte Carlo's and the maps' blocks),
    pattern * m is written straight into the complex gains, which are then
    scaled in place, so no real product is held beside them: a block's
    peak drops by 8 bytes per orientation. Below that, the real product is
    cheap and the two-call form about 1 us faster at K = L = 8. Both give
    the same gains bit for bit: the real product enters the complex multiply
    as pm + 0j either way."""
    cos_a = np.ascontiguousarray(rx.axes.T).T @ np.ascontiguousarray(tx.axes.T)
    cos_a -= tx.cos_emission * rx.path_cos[:, None]
    cos_a /= tx.safe_sin_emission
    np.minimum(np.maximum(cos_a, -1.0, out=cos_a), 1.0, out=cos_a)
    radicand = rx.kept[:, None] - rx.spread[:, None] * (cos_a * cos_a)
    if (radicand < -_RADICAND_TOL).any():
        raise NumericalError(f"matching-efficiency radicand fell below 0: min {np.min(radicand)}")
    match = np.sqrt(np.maximum(radicand, 0.0, out=radicand), out=radicand)

    if match.size < _IN_PLACE_GAINS:
        gains = geometry.scale * (tx.pattern * match)
    else:
        gains = np.empty(np.broadcast(geometry.scale, match).shape, complex)
        np.multiply(tx.pattern, match, out=gains)
        gains *= geometry.scale
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
