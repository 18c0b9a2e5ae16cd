"""Vector geometry of dipole antennas.

Positions and directions live in a shared Cartesian frame; orientations are
unit vectors along the dipole axis. This module provides the poses and the
conversions between orientations and their polar/azimuthal angles; the
angles the link gain depends on are terms of channel.link_terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError

_TWO_PI = 2.0 * np.pi
_PARALLEL_TOL = 1e-12


def _as_vec3(v) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise GeometryError(f"expected a 3-vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise GeometryError(f"vector has non-finite components: {arr}")
    return arr


def unit(v) -> np.ndarray:
    """Normalize a 3-vector, rejecting (near-)zero input."""
    arr = _as_vec3(v)
    norm = np.linalg.norm(arr)
    if norm < _PARALLEL_TOL:
        raise GeometryError("cannot normalize a zero vector")
    return arr / norm


@dataclass(frozen=True)
class AntennaPose:
    """Center position (meters) and unit orientation of one dipole."""

    position: np.ndarray
    orientation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", _as_vec3(self.position))
        object.__setattr__(self, "orientation", unit(self.orientation))


def unit_to_angles(vectors) -> np.ndarray:
    """Canonical (polar, azimuthal) rows (..., 2) of direction vectors (..., 3).

    Polar is arctan2(hypot(x, y), z) in [0, pi] and azimuth arctan2(y, x)
    reduced to [0, 2*pi); arctan2 is scale-invariant, so the vectors need not
    be unit. Near the poles it keeps every digit that arccos(z) would lose.
    """
    v = np.asarray(vectors, dtype=float)
    polar = np.arctan2(np.hypot(v[..., 0], v[..., 1]), v[..., 2])
    azimuthal = np.mod(np.arctan2(v[..., 1], v[..., 0]), _TWO_PI)
    # np.mod can round a tiny negative input up to the modulus itself.
    azimuthal = np.where(azimuthal >= _TWO_PI, 0.0, azimuthal)
    return np.stack([polar, azimuthal], axis=-1)


def angles_to_unit(polar, azimuthal) -> np.ndarray:
    """Array-friendly orientation construction; accepts any real angles.

    Returns an array of shape broadcast(polar, azimuthal).shape + (3,), each
    component written once into it (a 0-d pair gives shape (3,)).
    """
    polar = np.asarray(polar, dtype=float)
    azimuthal = np.asarray(azimuthal, dtype=float)
    out = np.empty(np.broadcast_shapes(polar.shape, azimuthal.shape) + (3,))
    st = np.sin(polar)
    np.multiply(st, np.cos(azimuthal), out=out[..., 0])
    np.multiply(st, np.sin(azimuthal), out=out[..., 1])
    out[..., 2] = np.cos(polar)
    return out
