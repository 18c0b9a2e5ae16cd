"""Alternating gradient ascent over antenna orientations.

Maximizes the equivalent total SINR of the zero-forcing + water-filling link
by cycling through two variable blocks (receive orientations, transmit
orientations). An orientation is a unit axis on the sphere: each ascent step
moves a block's axes in their tangent planes and maps the moved vectors back
to canonical (polar, azimuthal) angles with one arctan2 (a retraction; Absil,
Mahony & Sepulchre, Optimization Algorithms on Matrix Manifolds, 2008, ch. 4),
so the angles serve only for storage, quantization and display, and the
poles are ordinary points. Under ideal zero forcing the objective has a
closed form in the channel's SVD, so one point is evaluated once: _evaluate
builds the channel with one channel.combine_terms call, takes one SVD and
water-fills, and _gradient takes the exact derivative of that value in the
axes through the same terms and SVD without building anything again. The
positions never move, so their factors (channel.link_geometry) are built once
per run; a step moves one block, so a line-search trial converts and builds
the side terms (channel.transmit_terms or receive_terms) of the moved block
only and takes the other block's, axes included, from the terms of the point
it steps from. Each backtracking line-search trial is one _evaluate; the
accepted trial is the point the next gradient starts from. A trial whose channel fails the
condition check is a rejected step. The final record comes from the full
beamforming solution, whose metrics keep the general interference
expression.

Transmit positions are fixed inputs: the channel is built from them as given
and no block moves them. Under the plane-wave model a translation changes only
the phase of an antenna's channel entries, so with positions held fixed
configuration 2 (translation only) reproduces configuration 1, which is what
acceptance criterion 3 encodes. With K >= 2 users the phase exp(j k u_k . p_l)
differs per user, so a live translation would change the channel; that
extension is not modelled. check_feasible validates the given placement
against the movement box and the minimum separation. separation_projection
is not part of the ascent or the package's exports; it stays only because
the benchmark's traced run (perfbench) names it.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field
from typing import Callable, List, Sequence

import numpy as np

from .channel import (ChannelMatrix, LinkGeometry, LinkTerms, combine_terms, gain_matrix,
                      link_geometry, receive_terms, transmit_terms)
from .errors import (ConfigurationError, InfeasibleLayoutError, NumericalError,
                     ProjectionError, SingularChannelError)
from .geometry import AntennaPose, angles_to_unit, unit_to_angles
from .medium import MediumParams
from .mimo import BeamformingSolution, _water_level, _zf_svd, solve_beamforming

_FEASIBILITY_TOL = 1e-9
_PROJECTION_SWEEP_CAP = 1000
# The line search's constants (see optimize).
_INNER_STEPS = 3
_INITIAL_STEP_ANGLE = 0.1
_ARMIJO_C = 1e-4
_SHRINK_FACTOR = 0.5
_ARMIJO_FLOOR = 1e-12

# A block's name is the LayoutVariables attribute that holds its angles.
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

    tx_angles is (L, 2) of (polar, azimuthal) and rx_angles (K, 2): the
    stored form of the unit axes the optimizer steps. tx_positions is (L, 3)
    in meters, used as given and never moved by the optimizer (see the module
    docstring).
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
        return dataclasses.replace(self)        # __post_init__ copies each array

    def tx_orientations(self) -> np.ndarray:
        return angles_to_unit(self.tx_angles[:, 0], self.tx_angles[:, 1])

    def rx_orientations(self) -> np.ndarray:
        return angles_to_unit(self.rx_angles[:, 0], self.rx_angles[:, 1])


@dataclass(frozen=True)
class OptimizerConfig:
    """When optimize stops: after max_outer_iterations sweeps, or after one that
    raises the objective by less than convergence_tol (relative). The line
    search has no settings: fixed constants and a rounding floor (see optimize)."""

    max_outer_iterations: int = 100
    convergence_tol: float = 1e-4

    def __post_init__(self):
        if self.max_outer_iterations <= 0:
            raise ConfigurationError("max_outer_iterations must be positive")
        if not 0.0 < self.convergence_tol < 1.0:
            raise ConfigurationError("convergence tolerance must lie in (0, 1)")


@dataclass
class ConvergenceTrace:
    """Objective history across accepted outer iterations (non-decreasing),
    and the work behind it: objective evaluations (the start and every
    line-search trial), block gradients, and trials rejected because their
    channel was singular."""

    total_sinr: List[float] = field(default_factory=list)
    wall_time: float = 0.0
    evaluations: int = 0
    gradients: int = 0
    singular_trials: int = 0

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


def _solve(layout: LayoutVariables, rx_positions: np.ndarray, medium: MediumParams,
           total_power: float) -> BeamformingSolution:
    """Zero forcing + water filling on the layout's channel, built as given."""
    gains = gain_matrix(layout.tx_positions, layout.tx_orientations(),
                        rx_positions, layout.rx_orientations(), medium)
    return solve_beamforming(ChannelMatrix(entries=gains), total_power, medium.noise_power)


def objective(layout: LayoutVariables, users: Sequence[AntennaPose],
              medium: MediumParams, total_power: float) -> float:
    """Equivalent total SINR of the layout under zero forcing + water filling.

    The closed form of ideal zero forcing that optimize ascends and records
    in its trace (see _evaluate): the interference is taken as exactly
    nulled. The channel is built from the layout's positions and orientations
    as given. Raises SingularChannelError when it fails the condition check.
    """
    geometry = link_geometry(layout.tx_positions, [u.position for u in users], medium)
    return _evaluate(layout, geometry, medium, total_power).value


def finite_difference_gradient(layout: LayoutVariables, block: str,
                               func: Callable[[LayoutVariables], float],
                               fd_step: float) -> np.ndarray:
    """Central-difference gradient of func over one variable block of n coordinates.

    block is a BLOCK_ORDER name; any other raises ConfigurationError. The
    reference the tests check _gradient against; optimize does not
    call it (the benchmark's traced run still wraps it by name). func is
    called 2n times, on one layout per probe, each bumping one coordinate up
    or down; an error func raises on a probe, such as SingularChannelError,
    propagates. Angle coordinates may momentarily leave their canonical
    ranges during the probe; the orientation parameterization is periodic, so
    no wrapping is needed for the evaluation itself.
    """
    if block not in BLOCK_ORDER:
        raise ConfigurationError(f"unknown block {block!r}")
    base = getattr(layout, block)
    grad = np.empty(base.size)
    for i in range(base.size):
        up, down = base.copy(), base.copy()
        up.flat[i] += fd_step
        down.flat[i] -= fd_step
        grad[i] = (func(dataclasses.replace(layout, **{block: up}))
                   - func(dataclasses.replace(layout, **{block: down}))) / (2.0 * fd_step)
    return grad


def _axes(angles: np.ndarray) -> np.ndarray:
    """Unit axes (n, 3) of (polar, azimuthal) rows (n, 2), equal to
    angles_to_unit's bit for bit.

    A separate copy so that angles_to_unit converts only the orientations of
    full channel builds (gain_matrix): the benchmark's traced run checks that
    it is called exactly twice per gain_matrix call, while optimize converts
    every evaluated point and quantize_angles every snapped layout.
    """
    sin_p = np.sin(angles[:, 0])
    return np.stack([sin_p * np.cos(angles[:, 1]), sin_p * np.sin(angles[:, 1]),
                     np.cos(angles[:, 0])], axis=-1)


@dataclass(frozen=True)
class _Point:
    """One evaluated layout: the objective value and the factors its gradient
    reads (the kernel's terms, the SVD and the water-filling state)."""

    layout: LayoutVariables
    value: float
    growth: float
    terms: LinkTerms
    svd: tuple
    level: float               # the water level, unshifted
    sinr: np.ndarray


def _evaluate(layout: LayoutVariables, geometry: LinkGeometry, medium: MediumParams,
              total_power: float, current: _Point | None = None,
              moved: str | None = None) -> _Point:
    """The objective at layout, with what _gradient needs to differentiate it.

    geometry holds the factors of layout's transmit positions and the users'
    (channel.link_geometry). Given current, an evaluated point whose layout
    differs from layout in the moved block only, the other block's side terms
    (axes included) are current's: only the moved block's angles are converted
    and its side built, so every axis is _axes of its stored angles either way.

    Under zero forcing plus water filling, 1 + sinr_k = level / t_k for a
    funded user and 1 otherwise, with t_k = sigma^2 [(H H^H)^-1]_kk, so
    J = exp(mean log(1 + sinr)) - 1 has a closed form in the SVD H = U S V^H:
    t_k = sigma^2 sum_j |U_kj|^2 / S_j^2. One combine_terms call builds the
    channel and one _zf_svd call decides its singularity: raises
    SingularChannelError when it fails the condition check, and NumericalError
    when J is not finite (a power budget that overflows the SINRs).
    """
    if not total_power > 0:
        raise ConfigurationError(f"total power must be positive, got {total_power}")
    tx = (transmit_terms(geometry.path_dir, _axes(layout.tx_angles))
          if current is None or moved == BLOCK_TX_ANGLES else current.terms.tx)
    rx = (receive_terms(geometry.path_dir, _axes(layout.rx_angles), medium)
          if current is None or moved == BLOCK_RX_ANGLES else current.terms.rx)
    terms = combine_terms(geometry, tx, rx)
    U, S, Vh = _zf_svd(terms.gains)
    inv_snr = medium.noise_power * np.sum(np.abs(U)**2 / S**2, axis=-1)
    excess, level = _water_level(inv_snr, total_power)
    with np.errstate(over="ignore"):   # an overflowing budget raises below
        sinr = np.maximum(level - excess, 0.0) / inv_snr
        growth = float(np.exp(np.mean(np.log1p(sinr))))
    if not math.isfinite(growth):
        raise NumericalError(f"objective is not finite: {growth - 1.0}")
    return _Point(layout=layout, value=growth - 1.0, growth=growth, terms=terms,
                  svd=(U, S, Vh), level=level + inv_snr.min(), sinr=sinr)


def _gradient(point: _Point, block: str, medium: MediumParams) -> np.ndarray:
    """Exact gradient of the objective over one block's unit axes at an
    evaluated point: (n, 3), each row in its axis' tangent plane. Builds no
    channel and takes no SVD: it reuses point's, and reads every geometric
    term from point.terms.

    The differential of J is dJ = sum_k c_k d[G^-1]_kk with G = H H^H and
    c_k = (J + 1) sigma^2 (1/level - 1/t_k) / K, zero for unfunded users (the
    level's own change cancels). In H that is dJ = 2 Re sum conj(Gamma_kl) dH_kl
    with Gamma = -G^-1 diag(c) G^-1 H (Wirtinger calculus; Hjorungnes,
    Complex-Valued Matrix Derivatives, 2011), where G^-1 = U S^-2 U^H comes
    from the point's SVD.

    Each gain is h_kl = A_kl rad(cos_e) m(cos_a, cos_i) with A_kl fixed by
    the positions, so dH_kl = h_kl d log(rad m). A transmit axis n_l moves
    cos_e and cos_a; a receive axis r_k moves cos_a and, through the Fresnel
    coefficients, cos_i. A degenerate entry (gain exactly 0) is a cone point
    of the objective and contributes 0. Every evaluated point has m > 0 and
    cos_i > 0: at grazing incidence (cos_i = 0) the user's row is exactly 0,
    which _evaluate rejects as singular. The Euclidean gradient in each axis
    a is projected onto its tangent plane, g - (g . a) a: the gradient on the
    sphere, with no angle chart and so no pole where a direction is lost.
    """
    terms = point.terms
    gains = terms.gains
    users = gains.shape[0]
    U, S, Vh = point.svd
    # 1/level - 1/t_k = -sinr_k / level for funded users.
    dj_dq = -point.growth * medium.noise_power * point.sinr / (users * point.level)
    inner = (U.conj().T * dj_dq) @ U / (S[:, None]**2 * S[None, :])
    gamma = -(U @ inner @ Vh)
    # dJ = sum_kl weight_kl d log(rad_kl m_kl), a zero gain weighing 0.
    weight = 2.0 * np.real(np.conj(gamma) * gains)

    tx, rx = terms.tx, terms.rx
    path, field_dir = terms.geometry.path_dir, tx.field_dir
    cos_e, cos_m = tx.cos_emission, terms.cos_matching
    sin_e = np.where(tx.degenerate, 1.0, tx.sin_emission)
    g_par, g_perp = rx.gamma_par[:, None], rx.gamma_perp[:, None]
    # m^2 = 1 - g_perp^2 - (g_par^2 - g_perp^2) cos_a^2, so weight * d log m is
    # weight / m^2 times d(m^2) / 2.
    per_m2 = weight / terms.matching**2
    d_cos_m = -(g_par**2 - g_perp**2) * cos_m * per_m2

    if block == BLOCK_TX_ANGLES:
        # log rad = log cos(pi c / 2) - log(1 - c^2) / 2, with 1 - c^2 = sin_e^2.
        d_cos_e = weight * (-0.5 * np.pi * np.tan(0.5 * np.pi * cos_e) + cos_e / sin_e**2)
        # d cos_a / d n = (P r - cos_a f) / sin_e, P the projector off the path.
        projected_rx = rx.axes - np.sum(path * rx.axes, axis=-1)[:, None] * path
        along = d_cos_m / sin_e
        grad_axes = (d_cos_e.T @ path + along.T @ projected_rx
                     - np.einsum("kl,kli->li", along * cos_m, field_dir))
        axes = tx.axes
    elif block == BLOCK_RX_ANGLES:
        cos_i = rx.cos_incidence
        eps = medium.relative_permittivity
        root = np.sqrt(eps - 1.0 + cos_i**2)
        d_par = (-2.0 * eps * (eps - 1.0) / (root * (root + eps * cos_i)**2))[:, None]
        d_perp = (-2.0 * (eps - 1.0) / (root * (root + cos_i)**2))[:, None]
        d_cos_i = np.sum(-(g_par * d_par * cos_m**2 + g_perp * d_perp * (1.0 - cos_m**2))
                         * per_m2, axis=-1)
        # d cos_i / d r = -(u . r) u / cos_i.
        axes = rx.axes
        along_path = -np.sum(path * axes, axis=-1) * d_cos_i / cos_i
        grad_axes = np.einsum("kl,kli->ki", d_cos_m, field_dir) + along_path[:, None] * path
    else:
        raise ConfigurationError(f"unknown block {block!r}")
    return grad_axes - np.sum(grad_axes * axes, axis=-1)[:, None] * axes


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
    outer sweep with no active block still records one iteration. The
    position factors are built once (link_geometry) and the start is
    evaluated once (_evaluate). Each gradient is exact and comes from the
    current evaluated point (_gradient: no channel build, no SVD); the
    backtracking line search then tries one step at a time along it, each
    trial's moved axes converted to canonical angles (unit_to_angles) and
    evaluated once with the unmoved block's side taken from the current
    point, and the accepted trial's evaluation becomes the current point. A
    trial whose channel raises SingularChannelError is rejected like one
    that fails the Armijo test, and the step shrinks; any other error
    propagates. Each accepted step passes the Armijo test, so the recorded
    trace, which holds the values objective returns, is non-decreasing; the
    trace also counts evaluations, gradients and singular trials. Stops when
    one full outer sweep improves the objective by less than the relative
    convergence tolerance. The starting layout's channel must be regular: a
    singular one raises SingularChannelError. Angles are never rewritten
    except by a step, so a block that takes none keeps its input angles. The returned beamforming solution is the
    full zero-forcing + water-filling solve of the final layout, so its
    metrics report any residual leakage; its total SINR matches the trace's
    last value up to that leakage.

    Each active block takes up to _INNER_STEPS (3) steps per sweep. A search's
    first trial moves the block's axes by a tangent step whose norm over the
    whole block is _INITIAL_STEP_ANGLE (0.1; one axis moved that far turns by
    arctan 0.1 rad), the Armijo test asks for a rise of _ARMIJO_C (1e-4) *
    step * |g|^2, and each rejected trial scales the step by _SHRINK_FACTOR
    (0.5). The search fails once that margin is at most _ARMIJO_FLOOR (1e-12)
    of |J|: there it is within a few thousand ulps of J, so J's rounding, not
    the step, would decide the test. The floor bounds every search, singular
    trials included.

    A receive axis at exact grazing incidence (along its user's path,
    cos_incidence == 0) makes that user's row exactly 0, so the channel is
    singular: a start there raises SingularChannelError and a trial there is
    a rejected step. A random drop lands there with probability 0.
    """
    layout = initial_layout.copy()
    if not check_feasible(layout.tx_positions, constraints):
        raise InfeasibleLayoutError("initial transmit positions violate the constraints")

    rx_positions = np.array([u.position for u in users])
    start_time = time.perf_counter()
    geometry = link_geometry(layout.tx_positions, rx_positions, medium)
    point = _evaluate(layout, geometry, medium, total_power)
    trace = ConvergenceTrace(total_sinr=[point.value], evaluations=1)

    active = {
        BLOCK_RX_ANGLES: layout.optimize_rx_orientation,
        BLOCK_TX_ANGLES: layout.optimize_tx_orientation,
    }

    for _ in range(config.max_outer_iterations):
        sweep_start = point.value
        for block in BLOCK_ORDER:
            if not active[block]:
                continue
            for _ in range(_INNER_STEPS):
                grad = _gradient(point, block, medium)
                trace.gradients += 1
                grad_sq = float(np.sum(grad * grad))
                if not np.isfinite(grad_sq) or grad_sq == 0.0:
                    break
                base = (point.terms.tx if block == BLOCK_TX_ANGLES else point.terms.rx).axes
                step = _INITIAL_STEP_ANGLE / math.sqrt(grad_sq)
                accepted = False
                while _ARMIJO_C * step * grad_sq > _ARMIJO_FLOOR * abs(point.value):
                    trial = dataclasses.replace(
                        point.layout, **{block: unit_to_angles(base + step * grad)})
                    trace.evaluations += 1
                    try:
                        trial_point = _evaluate(trial, geometry, medium, total_power,
                                                point, block)
                        accepted = (trial_point.value
                                    >= point.value + _ARMIJO_C * step * grad_sq)
                    except SingularChannelError:  # rejected like a failed Armijo test
                        trace.singular_trials += 1
                    if accepted:
                        point = trial_point
                        break
                    step *= _SHRINK_FACTOR
                if not accepted:
                    break
        trace.total_sinr.append(point.value)
        if point.value - sweep_start <= config.convergence_tol * max(abs(sweep_start), 1e-300):
            break

    trace.wall_time = time.perf_counter() - start_time
    return OptimizeResult(layout=point.layout,
                          beamforming=_solve(point.layout, rx_positions, medium, total_power),
                          trace=trace)


def quantize_angles(layout: LayoutVariables, resolution_deg: float) -> LayoutVariables:
    """Snap every polar/azimuthal angle to the nearest multiple of the resolution.

    Resolution 0 means no quantization; ties round half away from zero. The
    snapped angles are returned in canonical form (unit_to_angles of their
    axes): a polar angle snapped past pi folds back with a half-turn of
    azimuth, and an azimuth snapped to 2 pi becomes 0.
    """
    if resolution_deg == 0:
        return layout.copy()
    if not 0.0 < resolution_deg <= 180.0:
        raise ConfigurationError(f"resolution {resolution_deg} deg outside (0, 180]")
    step = math.radians(resolution_deg)

    def snap(arr: np.ndarray) -> np.ndarray:
        return np.sign(arr) * np.floor(np.abs(arr) / step + 0.5) * step

    out = layout.copy()
    out.tx_angles = unit_to_angles(_axes(snap(out.tx_angles)))
    out.rx_angles = unit_to_angles(_axes(snap(out.rx_angles)))
    return out
