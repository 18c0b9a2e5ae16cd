"""Alternating gradient ascent over antenna orientations.

Maximizes the equivalent total SINR of the zero-forcing + water-filling link
by cycling through two variable blocks (receive orientations, transmit
orientations). Orientations are parameterized by their polar/azimuthal angles
so ascent steps stay unconstrained.

Transmit positions are fixed inputs: the channel is built from them as given
and no block moves them. Under the plane-wave model a translation changes only
the phase of an antenna's channel entries, so with positions held fixed
configuration 2 (translation only) reproduces configuration 1, which is what
acceptance criterion 3 encodes. With K >= 2 users the phase exp(j k u_k . p_l)
differs per user, so a live translation would change the channel; that
extension is not modelled. check_feasible validates the given placement
against the movement box and the minimum separation; separation_projection
stays available to callers that move antennas themselves.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Union

import numpy as np

from .channel import ChannelMatrix, gain_matrix
from .errors import ConfigurationError, InfeasibleLayoutError, ProjectionError
from .geometry import AntennaPose, angles_to_unit
from .medium import MediumParams
from .mimo import BeamformingSolution, solve_beamforming

_TWO_PI = 2.0 * np.pi
_FEASIBILITY_TOL = 1e-9
_PROJECTION_SWEEP_CAP = 1000

BLOCK_RX_ANGLES = "rx_angles"
BLOCK_TX_ANGLES = "tx_angles"
BLOCK_ORDER = (BLOCK_RX_ANGLES, BLOCK_TX_ANGLES)


@dataclass(frozen=True)
class Constraints:
    """Axis-aligned movement box plus the minimum pairwise antenna separation."""

    box_min: np.ndarray
    box_max: np.ndarray
    min_separation: float

    def __post_init__(self):
        object.__setattr__(self, "box_min", np.asarray(self.box_min, dtype=float))
        object.__setattr__(self, "box_max", np.asarray(self.box_max, dtype=float))
        if self.box_min.shape != (3,) or self.box_max.shape != (3,):
            raise ConfigurationError("box bounds must be 3-vectors")
        if np.any(self.box_max <= self.box_min):
            raise ConfigurationError("movement box is empty")
        if not self.min_separation > 0:
            raise ConfigurationError("minimum separation must be positive")


@dataclass
class LayoutVariables:
    """Optimization variables: angles per antenna plus the active-block flags.

    tx_angles is (L, 2) of (polar, azimuthal); rx_angles is (K, 2);
    tx_positions is (L, 3) in meters, used as given and never moved by the
    optimizer (see the module docstring). Either angle array may carry a
    leading batch axis, (B, L, 2) or (B, K, 2): a stack of B layouts that
    objective evaluates in one call.
    """

    tx_angles: np.ndarray
    tx_positions: np.ndarray
    rx_angles: np.ndarray
    optimize_tx_orientation: bool = True
    optimize_rx_orientation: bool = True

    def __post_init__(self):
        self.tx_angles = np.array(self.tx_angles, dtype=float)
        self.tx_positions = np.array(self.tx_positions, dtype=float)
        self.rx_angles = np.array(self.rx_angles, dtype=float)

    def copy(self) -> "LayoutVariables":
        return LayoutVariables(
            tx_angles=self.tx_angles.copy(),
            tx_positions=self.tx_positions.copy(),
            rx_angles=self.rx_angles.copy(),
            optimize_tx_orientation=self.optimize_tx_orientation,
            optimize_rx_orientation=self.optimize_rx_orientation,
        )

    def tx_orientations(self) -> np.ndarray:
        return angles_to_unit(self.tx_angles[..., 0], self.tx_angles[..., 1])

    def rx_orientations(self) -> np.ndarray:
        return angles_to_unit(self.rx_angles[..., 0], self.rx_angles[..., 1])

    def canonicalize_angles(self) -> None:
        """Wrap both angle arrays back to polar in [0, pi], azimuth in [0, 2*pi)."""
        for arr in (self.tx_angles, self.rx_angles):
            arr[:] = wrap_angles(arr)


def wrap_angles(angles: np.ndarray) -> np.ndarray:
    """Map arbitrary (polar, azimuthal) pairs to the canonical ranges.

    A polar angle outside [0, pi] is folded back with a half-turn of azimuth,
    preserving the orientation vector exactly.
    """
    polar = np.mod(angles[..., 0], _TWO_PI)
    # np.mod can round a tiny negative input up to the modulus itself.
    polar = np.where(polar >= _TWO_PI, 0.0, polar)
    azimuthal = angles[..., 1].copy()
    over = polar > np.pi
    polar = np.where(over, _TWO_PI - polar, polar)
    azimuthal = np.where(over, azimuthal + np.pi, azimuthal)
    azimuthal = np.mod(azimuthal, _TWO_PI)
    azimuthal = np.where(azimuthal >= _TWO_PI, 0.0, azimuthal)
    return np.stack([polar, azimuthal], axis=-1)


@dataclass(frozen=True)
class OptimizerConfig:
    max_outer_iterations: int = 100
    inner_steps: int = 3
    fd_step_angle: float = 1e-5
    initial_step_angle: float = 0.1
    armijo_c: float = 1e-4
    shrink_factor: float = 0.5
    max_backtracks: int = 30
    convergence_tol: float = 1e-4

    def __post_init__(self):
        if self.max_outer_iterations <= 0 or self.inner_steps <= 0:
            raise ConfigurationError("iteration counts must be positive")
        for name in ("fd_step_angle", "initial_step_angle", "armijo_c", "shrink_factor"):
            if not getattr(self, name) > 0:
                raise ConfigurationError(f"{name} must be positive")
        if not 0.0 < self.convergence_tol < 1.0:
            raise ConfigurationError("convergence tolerance must lie in (0, 1)")


@dataclass
class ConvergenceTrace:
    """Objective history across accepted outer iterations (non-decreasing)."""

    total_sinr: List[float] = field(default_factory=list)
    block_improvements: List[dict] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def total_sinr_db(self) -> List[float]:
        return [10.0 * math.log10(v) if v > 0 else -math.inf for v in self.total_sinr]

    @property
    def iterations(self) -> int:
        return max(len(self.total_sinr) - 1, 0)


@dataclass(frozen=True)
class OptimizeResult:
    layout: LayoutVariables
    beamforming: BeamformingSolution
    trace: ConvergenceTrace


def objective(layout: LayoutVariables, users: Sequence[AntennaPose],
              medium: MediumParams, total_power: float) -> Union[float, np.ndarray]:
    """Equivalent total SINR of the layout under zero forcing + water filling.

    The channel is built from the layout's positions and orientations as given.
    A single layout gives a float and raises SingularChannelError when its
    channel fails the condition check. A stacked layout (an angle array with a
    leading batch axis of B rows) gives B values in one channel build and one
    beamforming call; the unbatched side is built once for all rows, each row
    equals the value of its layout alone bit for bit, and a row whose channel
    is singular reads -inf instead of raising.
    """
    rx_positions = np.array([u.position for u in users])
    gains = gain_matrix(layout.tx_positions, layout.tx_orientations(),
                        rx_positions, layout.rx_orientations(), medium)
    solution = solve_beamforming(ChannelMatrix(entries=gains), total_power, medium.noise_power)
    return solution.metrics.total_sinr


def _block_vector(layout: LayoutVariables, block: str) -> np.ndarray:
    if block == BLOCK_TX_ANGLES:
        return layout.tx_angles.ravel().copy()
    if block == BLOCK_RX_ANGLES:
        return layout.rx_angles.ravel().copy()
    raise ConfigurationError(f"unknown block {block!r}")


def _with_block_vector(layout: LayoutVariables, block: str, vec: np.ndarray) -> LayoutVariables:
    """layout with the block set from vec, (n,) or a stack of B vectors, (B, n)."""
    out = layout.copy()
    if block == BLOCK_TX_ANGLES:
        out.tx_angles = vec.reshape(vec.shape[:-1] + out.tx_angles.shape)
    elif block == BLOCK_RX_ANGLES:
        out.rx_angles = vec.reshape(vec.shape[:-1] + out.rx_angles.shape)
    else:
        raise ConfigurationError(f"unknown block {block!r}")
    return out


def finite_difference_gradient(layout: LayoutVariables, block: str,
                               func: Callable[[LayoutVariables], np.ndarray],
                               fd_step: float) -> np.ndarray:
    """Central-difference gradient of func over one variable block of n coordinates.

    func is called once, on a stacked layout whose block holds the 2n probes
    (rows 2i and 2i + 1 bump coordinate i up and down), and returns one value
    per row. A probe that reads -inf makes its coordinate non-finite.
    Angle coordinates may momentarily leave their canonical ranges during the
    probe; the orientation parameterization is periodic, so no wrapping is
    needed for the evaluation itself.
    """
    base = _block_vector(layout, block)
    coordinate = np.arange(base.size)
    probes = np.repeat(base[None, :], 2 * base.size, axis=0)
    probes[2 * coordinate, coordinate] = base + fd_step
    probes[2 * coordinate + 1, coordinate] = base - fd_step
    values = np.asarray(func(_with_block_vector(layout, block, probes)), dtype=float)
    with np.errstate(invalid="ignore"):
        return (values[0::2] - values[1::2]) / (2.0 * fd_step)


def _pair_halfspace_violations(positions: np.ndarray, previous: np.ndarray,
                               constraints: Constraints) -> float:
    """Worst violation (meters) of the linearized separation half-spaces."""
    worst = 0.0
    count = positions.shape[0]
    for ell in range(count):
        for i in range(count):
            if i == ell:
                continue
            direction = previous[ell] - positions[i]
            norm = np.linalg.norm(direction)
            if norm == 0.0:
                worst = max(worst, constraints.min_separation)
                continue
            unit_dir = direction / norm
            boundary = positions[i] + constraints.min_separation * unit_dir
            worst = max(worst, float(-np.dot(unit_dir, positions[ell] - boundary)))
    return worst


def separation_projection(positions, previous, constraints: Constraints) -> np.ndarray:
    """Project candidate positions onto the box and the linearized separation set.

    For each ordered pair the separation sphere around antenna i is replaced by
    the supporting half-space at the boundary point seen from the previous
    iterate; cyclic projection sweeps all half-spaces and the box until every
    constraint holds within 1e-9 m.
    """
    pos = np.array(positions, dtype=float)
    prev = np.asarray(previous, dtype=float)
    count = pos.shape[0]
    for _ in range(_PROJECTION_SWEEP_CAP):
        pos = np.clip(pos, constraints.box_min, constraints.box_max)
        for ell in range(count):
            for i in range(count):
                if i == ell:
                    continue
                direction = prev[ell] - pos[i]
                norm = np.linalg.norm(direction)
                if norm == 0.0:
                    raise ProjectionError(
                        "previous iterate coincides with another antenna; half-space undefined")
                unit_dir = direction / norm
                boundary = pos[i] + constraints.min_separation * unit_dir
                violation = np.dot(unit_dir, pos[ell] - boundary)
                if violation < 0.0:
                    pos[ell] = pos[ell] - violation * unit_dir
        inside = np.all(pos >= constraints.box_min - _FEASIBILITY_TOL) and \
            np.all(pos <= constraints.box_max + _FEASIBILITY_TOL)
        if inside and _pair_halfspace_violations(pos, prev, constraints) <= _FEASIBILITY_TOL:
            return np.clip(pos, constraints.box_min, constraints.box_max)
    raise ProjectionError(
        f"no feasible point found after {_PROJECTION_SWEEP_CAP} projection sweeps")


def check_feasible(positions: np.ndarray, constraints: Constraints) -> bool:
    """True when all positions sit in the box with pairwise separation respected."""
    pos = np.asarray(positions, dtype=float)
    if np.any(pos < constraints.box_min - _FEASIBILITY_TOL) or \
            np.any(pos > constraints.box_max + _FEASIBILITY_TOL):
        return False
    count = pos.shape[0]
    for ell in range(count):
        for i in range(ell + 1, count):
            if np.linalg.norm(pos[ell] - pos[i]) < constraints.min_separation - _FEASIBILITY_TOL:
                return False
    return True


def default_initial_layout(antenna_count: int, user_count: int,
                           constraints: Constraints, medium: MediumParams) -> LayoutVariables:
    """Vertical orientations and a half-wavelength grid centered in the box."""
    spacing = medium.wavelength / 2.0
    center = 0.5 * (constraints.box_min + constraints.box_max)
    offsets = (np.arange(antenna_count) - 0.5 * (antenna_count - 1)) * spacing
    positions = np.tile(center, (antenna_count, 1))
    positions[:, 0] += offsets
    return LayoutVariables(
        tx_angles=np.zeros((antenna_count, 2)),
        tx_positions=positions,
        rx_angles=np.zeros((user_count, 2)),
    )


def optimize(initial_layout: LayoutVariables, users: Sequence[AntennaPose],
             medium: MediumParams, total_power: float, constraints: Constraints,
             config: OptimizerConfig) -> OptimizeResult:
    """Alternating gradient ascent on the total-SINR objective.

    Blocks run in BLOCK_ORDER, skipping those whose optimize_* flag is off; an
    outer sweep with no active block still records one iteration. Each
    gradient is one stacked objective call over all its probes; the
    backtracking line search then tries one step at a time, each a stack of
    one row, so a singular trial reads -inf and is rejected. Each accepted
    step passes an Armijo test, so the recorded trace is non-decreasing.
    Stops when one full outer sweep improves the objective by less than the
    relative convergence tolerance. The starting layout's channel must be
    regular: a singular one raises SingularChannelError.
    """
    layout = initial_layout.copy()
    layout.canonicalize_angles()
    if not check_feasible(layout.tx_positions, constraints):
        raise InfeasibleLayoutError("initial transmit positions violate the constraints")

    def stacked_objective(candidate: LayoutVariables) -> np.ndarray:
        return objective(candidate, users, medium, total_power)

    start_time = time.perf_counter()
    current = objective(layout, users, medium, total_power)
    trace = ConvergenceTrace(total_sinr=[current])

    active = {
        BLOCK_RX_ANGLES: layout.optimize_rx_orientation,
        BLOCK_TX_ANGLES: layout.optimize_tx_orientation,
    }

    for _ in range(config.max_outer_iterations):
        sweep_start = current
        improvements = {}
        for block in BLOCK_ORDER:
            if not active[block]:
                continue
            block_start = current
            for _ in range(config.inner_steps):
                grad = finite_difference_gradient(layout, block, stacked_objective,
                                                  config.fd_step_angle)
                grad_sq = float(grad @ grad)
                if not np.isfinite(grad_sq) or grad_sq == 0.0:
                    break
                base = _block_vector(layout, block)
                step = config.initial_step_angle / math.sqrt(grad_sq)
                accepted = False
                for _ in range(config.max_backtracks):
                    trial = base + step * grad
                    # A stack of one row, so a singular channel reads -inf.
                    value = float(stacked_objective(
                        _with_block_vector(layout, block, trial[None, :]))[0])
                    if value >= current + config.armijo_c * step * grad_sq:
                        layout = _with_block_vector(layout, block, trial)
                        layout.canonicalize_angles()
                        current = value
                        accepted = True
                        break
                    step *= config.shrink_factor
                if not accepted:
                    break
            improvements[block] = current - block_start
        trace.total_sinr.append(current)
        trace.block_improvements.append(improvements)
        if current - sweep_start <= config.convergence_tol * max(abs(sweep_start), 1e-300):
            break

    trace.wall_time = time.perf_counter() - start_time
    rx_positions = np.array([u.position for u in users])
    gains = gain_matrix(layout.tx_positions, layout.tx_orientations(),
                        rx_positions, layout.rx_orientations(), medium)
    beamforming = solve_beamforming(ChannelMatrix(entries=gains), total_power,
                                    medium.noise_power)
    return OptimizeResult(layout=layout, beamforming=beamforming, trace=trace)


def quantize_angles(layout: LayoutVariables, resolution_deg: float) -> LayoutVariables:
    """Snap every polar/azimuthal angle to the nearest multiple of the resolution.

    Resolution 0 means no quantization; ties round half away from zero.
    """
    if resolution_deg == 0:
        return layout.copy()
    if not 0.0 < resolution_deg <= 180.0:
        raise ConfigurationError(f"resolution {resolution_deg} deg outside (0, 180]")
    step = math.radians(resolution_deg)

    def snap(arr: np.ndarray) -> np.ndarray:
        return np.sign(arr) * np.floor(np.abs(arr) / step + 0.5) * step

    out = layout.copy()
    out.tx_angles = snap(out.tx_angles)
    out.rx_angles = snap(out.rx_angles)
    out.canonicalize_angles()
    return out
