"""Alternating gradient ascent over antenna orientations.

Maximizes the equivalent total SINR of the zero-forcing + water-filling link
by cycling through two variable blocks (receive orientations, transmit
orientations). Orientations are parameterized by their polar/azimuthal angles
so ascent steps stay unconstrained. Each block's gradient is exact: the
objective has a closed form in the channel, and _exact_gradient chains its
derivative through the terms of one channel.link_terms call and the angle
chart. The backtracking line search evaluates objective itself.

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

from .channel import ChannelMatrix, gain_matrix, link_terms
from .errors import ConfigurationError, InfeasibleLayoutError, ProjectionError
from .geometry import AntennaPose, angles_to_unit
from .medium import MediumParams
from .mimo import BeamformingSolution, _water_level, _zf_svd, solve_beamforming

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
    initial_step_angle: float = 0.1
    armijo_c: float = 1e-4
    shrink_factor: float = 0.5
    max_backtracks: int = 30
    convergence_tol: float = 1e-4

    def __post_init__(self):
        if self.max_outer_iterations <= 0 or self.inner_steps <= 0:
            raise ConfigurationError("iteration counts must be positive")
        for name in ("initial_step_angle", "armijo_c", "shrink_factor"):
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

    The reference the tests check _exact_gradient against; optimize does not
    call it (the benchmark's traced run still wraps it by name). func is
    called once, on a stacked layout whose block holds the 2n probes
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


def _axes_and_tangents(angles: np.ndarray):
    """Unit axes (n, 3) of (polar, azimuthal) rows (n, 2) and their derivatives
    along the polar and the azimuthal angle, from one sin and cos of each.

    The axes equal angles_to_unit's bit for bit.
    """
    sin_p, cos_p = np.sin(angles[:, 0]), np.cos(angles[:, 0])
    sin_a, cos_a = np.sin(angles[:, 1]), np.cos(angles[:, 1])
    axes = np.stack([sin_p * cos_a, sin_p * sin_a, cos_p], axis=-1)
    d_polar = np.stack([cos_p * cos_a, cos_p * sin_a, -sin_p], axis=-1)
    d_azimuthal = np.stack([-sin_p * sin_a, sin_p * cos_a, np.zeros_like(sin_p)], axis=-1)
    return axes, d_polar, d_azimuthal


def _exact_gradient(layout: LayoutVariables, block: str, rx_positions: np.ndarray,
                    medium: MediumParams, total_power: float) -> np.ndarray:
    """Exact gradient of objective over one orientation block, ordered as _block_vector.

    Under zero forcing plus water filling, 1 + sinr_k = level / t_k for a
    funded user and 1 otherwise, with t_k = sigma^2 [(H H^H)^-1]_kk, so
    J = exp(mean log(1 + sinr)) - 1 has a closed form. Its differential is
    dJ = sum_k c_k d[G^-1]_kk with G = H H^H and
    c_k = (J + 1) sigma^2 (1/level - 1/t_k) / K, zero for unfunded users (the
    level's own change cancels). In H that is dJ = 2 Re sum conj(Gamma_kl) dH_kl
    with Gamma = -G^-1 diag(c) G^-1 H (Wirtinger calculus; Hjorungnes,
    Complex-Valued Matrix Derivatives, 2011), where G^-1 = U S^-2 U^H comes
    from zero forcing's SVD H = U S V^H.

    Each gain is h_kl = A_kl rad(cos_e) m(cos_a, cos_i) with A_kl fixed by
    the positions, so dH_kl = h_kl d log(rad m). A transmit axis n_l moves
    cos_e and cos_a; a receive axis r_k moves cos_a and, through the Fresnel
    coefficients, cos_i = sqrt(1 - sin_i^2). Where the gain is exactly 0
    (a degenerate entry, or m = 0 at grazing incidence) the objective has a
    cone point and the entry contributes 0; so does the Fresnel term at
    grazing incidence, cos_i = 0, where it has no direction. Raises
    SingularChannelError if the layout's channel fails the condition check.
    """
    tx_axes, tx_d_polar, tx_d_azimuthal = _axes_and_tangents(layout.tx_angles)
    rx_axes, rx_d_polar, rx_d_azimuthal = _axes_and_tangents(layout.rx_angles)
    terms = link_terms(layout.tx_positions, tx_axes, rx_positions, rx_axes, medium)
    gains = terms.gains
    users = gains.shape[0]

    U, S, Vh, _ = _zf_svd(gains)
    noise = medium.noise_power
    inv_snr = noise * np.sum(np.abs(U)**2 / S**2, axis=-1)
    excess, level = _water_level(inv_snr, total_power)
    sinr = np.maximum(level - excess, 0.0) / inv_snr
    # 1/level - 1/t_k = -sinr_k / level for funded users, with the unshifted level.
    dj_dq = -np.exp(np.mean(np.log1p(sinr))) * noise * sinr / (users * (level + inv_snr.min()))
    inner = (U.conj().T * dj_dq) @ U / (S[:, None]**2 * S[None, :])
    gamma = -(U @ inner @ Vh)
    # dJ = sum_kl weight_kl d log(rad_kl m_kl), a zero gain weighing 0.
    weight = 2.0 * np.real(np.conj(gamma) * gains)

    rx_hat = rx_positions / np.linalg.norm(rx_positions, axis=1)[:, None]
    cos_e, cos_m, matching = terms.cos_emission, terms.cos_matching, terms.matching
    g_par, g_perp = terms.gamma_par[:, None], terms.gamma_perp[:, None]
    stripped = tx_axes[None, :, :] - cos_e[..., None] * rx_hat[:, None, :]
    stripped_norm = np.where(terms.degenerate, 1.0, np.linalg.norm(stripped, axis=-1))
    field_dir = stripped / stripped_norm[..., None]
    # m^2 = 1 - g_perp^2 - (g_par^2 - g_perp^2) cos_a^2, so weight * d log m is
    # weight / m^2 times d(m^2) / 2.
    per_m2 = np.divide(weight, matching**2, out=np.zeros_like(weight), where=matching > 0)
    d_cos_m = -(g_par**2 - g_perp**2) * cos_m * per_m2

    if block == BLOCK_TX_ANGLES:
        # log rad = log cos(pi c / 2) - log(1 - c^2) / 2, with 1 - c^2 = |stripped|^2.
        d_cos_e = np.where(terms.degenerate, 0.0, weight * (
            -0.5 * np.pi * np.tan(0.5 * np.pi * cos_e) + cos_e / stripped_norm**2))
        # d cos_a / d n = (P r - cos_a f) / |stripped|, P the projector off the path.
        projected_rx = rx_axes - np.sum(rx_hat * rx_axes, axis=-1)[:, None] * rx_hat
        along = d_cos_m / stripped_norm
        grad_axes = (d_cos_e.T @ rx_hat + along.T @ projected_rx
                     - np.einsum("kl,kli->li", along * cos_m, field_dir))
        d_polar, d_azimuthal = tx_d_polar, tx_d_azimuthal
    elif block == BLOCK_RX_ANGLES:
        cos_i = np.sqrt((1.0 - terms.sin_incidence) * (1.0 + terms.sin_incidence))
        eps = medium.relative_permittivity
        root = np.sqrt(eps - 1.0 + cos_i**2)
        d_par = (-2.0 * eps * (eps - 1.0) / (root * (root + eps * cos_i)**2))[:, None]
        d_perp = (-2.0 * (eps - 1.0) / (root * (root + cos_i)**2))[:, None]
        d_cos_i = np.sum(-(g_par * d_par * cos_m**2 + g_perp * d_perp * (1.0 - cos_m**2))
                         * per_m2, axis=-1)
        # d cos_i / d r = -(u . r) u / cos_i, without a direction at cos_i = 0.
        along_path = np.divide(-np.sum(rx_hat * rx_axes, axis=-1) * d_cos_i, cos_i,
                               out=np.zeros_like(cos_i), where=cos_i > 0)
        grad_axes = (np.einsum("kl,kli->ki", d_cos_m, field_dir)
                     + along_path[:, None] * rx_hat)
        d_polar, d_azimuthal = rx_d_polar, rx_d_azimuthal
    else:
        raise ConfigurationError(f"unknown block {block!r}")
    return np.stack([np.sum(grad_axes * d_polar, axis=-1),
                     np.sum(grad_axes * d_azimuthal, axis=-1)], axis=-1).ravel()


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


def optimize(initial_layout: LayoutVariables, users: Sequence[AntennaPose],
             medium: MediumParams, total_power: float, constraints: Constraints,
             config: OptimizerConfig) -> OptimizeResult:
    """Alternating gradient ascent on the total-SINR objective.

    Blocks run in BLOCK_ORDER, skipping those whose optimize_* flag is off; an
    outer sweep with no active block still records one iteration. Each
    gradient is exact (_exact_gradient: one channel build through link_terms
    and one SVD, no objective call); the backtracking line search then tries
    one step at a time, each an objective call on a stack of one row, so a
    singular trial reads -inf and is rejected. Each accepted
    step passes an Armijo test, so the recorded trace is non-decreasing.
    Stops when one full outer sweep improves the objective by less than the
    relative convergence tolerance. The starting layout's channel must be
    regular: a singular one raises SingularChannelError.
    """
    layout = initial_layout.copy()
    layout.canonicalize_angles()
    if not check_feasible(layout.tx_positions, constraints):
        raise InfeasibleLayoutError("initial transmit positions violate the constraints")

    rx_positions = np.array([u.position for u in users])
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
                grad = _exact_gradient(layout, block, rx_positions, medium, total_power)
                grad_sq = float(grad @ grad)
                if not np.isfinite(grad_sq) or grad_sq == 0.0:
                    break
                base = _block_vector(layout, block)
                step = config.initial_step_angle / math.sqrt(grad_sq)
                accepted = False
                for _ in range(config.max_backtracks):
                    trial = base + step * grad
                    # A stack of one row, so a singular channel reads -inf.
                    value = float(objective(_with_block_vector(layout, block, trial[None, :]),
                                            users, medium, total_power)[0])
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
