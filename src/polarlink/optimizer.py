"""Alternating gradient ascent over antenna orientations.

Maximizes the equivalent total SINR of the zero-forcing + water-filling link
by cycling through the variable blocks that optimize's `blocks` names
(receive orientations, transmit orientations, or both). An orientation is a
unit axis on the sphere, and the ascent runs on the axes themselves: a step
moves a block's axes a along their tangent gradient g and normalizes,
normalize(a + step g), the projective retraction (Absil, Mahony & Sepulchre,
Optimization Algorithms on Matrix Manifolds, 2008, section 4.1), so the poles
are ordinary points. The stored (polar, azimuthal) angles of LayoutVariables
serve only for the input, the result, quantization and display: optimize
turns the start's angles into axes once per block and a moved block's final
axes into canonical angles once, and no trial converts anything. The trace
holds J at the ascent's axes; objective, at their stored angles, gives the
same values to rounding (about 1e-13 relative).

Under ideal zero forcing the objective has a closed form in the channel's
SVD, which mimo holds (mimo._ideal_zf), so one point is evaluated once:
_evaluate builds the channel with one channel.combine_terms call, takes one
SVD and applies that closed form, and _gradient takes the exact derivative
of that value in the axes through the same terms and SVD without building
anything again. Each factor is built only when its inputs change:
- once per optimize or objective call: the power check and the
  floating-point state that lets an overflowing budget reach _evaluate's
  check;
- once per run: the position factors (channel.link_geometry), the path
  directions and the spreading-times-phase scale of every gain;
- once per change of a block's axes: that block's side terms
  (channel.transmit_terms or receive_terms), including the Fresnel factors
  of the matching efficiency and the guarded emission sine the transmit
  gradient divides by. A step moves one block, so a trial builds the moved
  block's side only and takes the other block's, axes included, from the
  point it steps from (_trial).
Each backtracking line-search trial is one _evaluate; the accepted trial is
the point the next gradient starts from. A trial whose channel fails the
condition check is a rejected step. The final record comes from the full
beamforming solution (solve_layout), whose metrics keep the general
interference expression.

The per-point path (_evaluate, _gradient, the trial loop and the channel and
mimo functions they call) calls ufuncs and their methods (np.add.reduce,
np.add.accumulate, in-place np.minimum) rather than numpy's Python wrappers
(np.sum, np.mean, np.clip, np.stack, np.cumsum): at K = L = 8 a wrapper costs
more than its arithmetic. On a 2-core Xeon host with one BLAS thread, at
K = L = 8 and best of repeated timings, a line-search trial takes 76 to 79 us
and a gradient 36 to 41 us; when each trial converted its axes to angles and
back and rebuilt every factor, they took 101 to 103 and 42 to 45 us, and an
acceptance-campaign drop ran about 1.2x slower.

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
import numbers
import time
from dataclasses import dataclass, field
from typing import Callable, List, Sequence

import numpy as np

from .channel import (ChannelMatrix, LinkGeometry, LinkTerms, ReceiveTerms, TransmitTerms,
                      combine_terms, gain_matrix, link_geometry, receive_terms, transmit_terms)
from .errors import (ConfigurationError, InfeasibleLayoutError, NumericalError,
                     ProjectionError, SingularChannelError)
from .geometry import AntennaPose, _unit_axes, angles_to_unit, unit_to_angles
from .medium import MediumParams
from .mimo import BeamformingSolution, _ideal_zf, _zf_svd, solve_beamforming

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
    """Axis-aligned movement box plus the minimum pairwise antenna separation.

    The separation and the square of the box's diagonal must be finite, so
    every distance within the box squares to a finite float."""

    box_min: np.ndarray
    box_max: np.ndarray
    min_separation: float

    def __post_init__(self):
        object.__setattr__(self, "box_min", np.asarray(self.box_min, dtype=float))
        object.__setattr__(self, "box_max", np.asarray(self.box_max, dtype=float))
        if self.box_min.shape != (3,) or self.box_max.shape != (3,):
            raise ConfigurationError("box bounds must be 3-vectors")
        with np.errstate(over="ignore", invalid="ignore"):   # raises below
            extent = self.box_max - self.box_min
            diagonal_sq = np.add.reduce(extent * extent)
        if not np.isfinite(diagonal_sq):    # also when a bound is nan or infinite
            raise ConfigurationError(f"movement box {self.box_min} to {self.box_max} has "
                                     f"a diagonal too long to square as a float")
        if np.any(extent <= 0):
            raise ConfigurationError("movement box is empty")
        if not 0 < self.min_separation < np.inf:
            raise ConfigurationError("minimum separation must be positive and finite")


@dataclass
class LayoutVariables:
    """Optimization variables: antenna angles and transmit positions.

    tx_angles is (L, 2) of (polar, azimuthal) and rx_angles (K, 2): the
    stored form of the unit axes the optimizer steps (those optimize's
    `blocks` names). tx_positions is (L, 3) in meters, used as given and
    never moved by the optimizer (see the module docstring).
    """

    tx_angles: np.ndarray
    tx_positions: np.ndarray
    rx_angles: np.ndarray

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
    """When optimize stops: after max_outer_iterations sweeps (a positive
    integer, check_integer), or after one that raises the objective by less
    than convergence_tol (relative). The line search has no settings: fixed
    constants and a rounding floor (see optimize)."""

    max_outer_iterations: int = 100
    convergence_tol: float = 1e-4

    def __post_init__(self):
        check_integer(self.max_outer_iterations, "max_outer_iterations")
        if not 0.0 < self.convergence_tol < 1.0:
            raise ConfigurationError("convergence tolerance must lie in (0, 1)")


def to_db(value: float) -> float:
    """value in dB, or -inf for a value that is not positive (nan included)."""
    return 10.0 * math.log10(value) if value > 0 else -math.inf


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
        return [to_db(v) for v in self.total_sinr]

    @property
    def iterations(self) -> int:
        return max(len(self.total_sinr) - 1, 0)


@dataclass(frozen=True)
class OptimizeResult:
    layout: LayoutVariables
    beamforming: BeamformingSolution
    trace: ConvergenceTrace


def solve_layout(layout: LayoutVariables, users: Sequence[AntennaPose], medium: MediumParams,
                 total_power: float) -> BeamformingSolution:
    """Zero forcing + water filling on the layout's channel, built as given:
    the full solve, whose metrics keep the general interference expression."""
    gains = gain_matrix(layout.tx_positions, layout.tx_orientations(),
                        np.array([u.position for u in users]), layout.rx_orientations(), medium)
    return solve_beamforming(ChannelMatrix(entries=gains), total_power, medium.noise_power)


def objective(layout: LayoutVariables, users: Sequence[AntennaPose],
              medium: MediumParams, total_power: float) -> float:
    """Equivalent total SINR of the layout under zero forcing + water filling.

    The closed form of ideal zero forcing (mimo._ideal_zf) that optimize
    ascends and records in its trace, here at the layout's stored angles: the
    interference is taken as exactly nulled. The channel is built from the
    layout's positions and orientations as given. Raises SingularChannelError
    when it fails the condition check.
    """
    geometry = link_geometry(layout.tx_positions, [u.position for u in users], medium)
    with np.errstate(over="ignore"):   # an overflowing budget raises in _evaluate
        return _layout_point(layout, geometry, medium, total_power).value


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
    angles_to_unit's bit for bit: both are geometry._unit_axes. The rows are
    copied out of its planes, C-contiguous like every (n, 3) array the ascent
    makes (gradients, retracted trial axes), so its arithmetic on them never
    mixes two memory layouts, which costs numpy more at n = 8.

    Not angles_to_unit itself, so that angles_to_unit converts only the
    orientations of full channel builds (gain_matrix): the benchmark's traced
    run checks that it is called exactly twice per gain_matrix call, while
    optimize and objective convert their layout's two blocks and
    quantize_angles every snapped layout.
    """
    return np.ascontiguousarray(_unit_axes(angles[:, 0], angles[:, 1]).T)


@dataclass(slots=True)
class _Point:
    """One evaluated point of the ascent: the objective value and the factors
    its gradient reads (the kernel's terms, axes included, the SVD and the
    water-filling state)."""

    value: float
    growth: float
    terms: LinkTerms
    svd: tuple
    level: float               # the water level, unshifted
    sinr: np.ndarray


def _evaluate(geometry: LinkGeometry, tx: TransmitTerms, rx: ReceiveTerms,
              medium: MediumParams, total_power: float) -> _Point:
    """The objective at the axes of tx and rx, with what _gradient needs to
    differentiate it.

    geometry holds the factors of the transmit positions and the users'
    (channel.link_geometry); tx and rx are the side terms of the two blocks'
    axes, each built once per change of its axes and reused by every point
    that shares them. The caller has checked that total_power is positive and
    ignores floating-point overflow (optimize and objective do both once per
    call): an overflowing budget raises here.

    One combine_terms call builds the channel, one _zf_svd call decides its
    singularity (raising SingularChannelError) and mimo._ideal_zf gives J in
    closed form. Raises NumericalError when J is not finite (a power budget
    that overflows the SINRs) or is 0 (users so far out that the SINRs
    vanish beside 1), where _gradient would divide 0 by the underflowed S^3.
    """
    terms = combine_terms(geometry, tx, rx)
    U, S, Vh = _zf_svd(terms.gains)
    growth, level, sinr = _ideal_zf(U, S, total_power, medium.noise_power)
    if not math.isfinite(growth):
        raise NumericalError(f"objective is not finite: {growth - 1.0}")
    if growth == 1.0:
        raise NumericalError("objective underflows to 0")
    return _Point(growth - 1.0, growth, terms, (U, S, Vh), level, sinr)


def _layout_point(layout: LayoutVariables, geometry: LinkGeometry, medium: MediumParams,
                  total_power: float) -> _Point:
    """_evaluate at layout's stored angles, both sides built from their _axes,
    after the power check that optimize and objective make once per call."""
    if not total_power > 0:
        raise ConfigurationError(f"total power must be positive, got {total_power}")
    path = geometry.path_dir
    return _evaluate(geometry, transmit_terms(path, _axes(layout.tx_angles)),
                     receive_terms(path, _axes(layout.rx_angles), medium), medium, total_power)


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
    U, S, Vh = point.svd
    # 1/level - 1/t_k = -sinr_k / level for funded users; the scalar folds
    # that sign, Gamma's and the 2 of 2 Re into one.
    scale = 2.0 * point.growth * medium.noise_power / (gains.shape[0] * point.level)
    inner = (U.conj().T * (scale * point.sinr)) @ U / (S[:, None]**2 * S[None, :])
    # dJ = sum_kl weight_kl d log(rad_kl m_kl), a zero gain weighing 0.
    weight = (np.conj(U @ inner @ Vh) * gains).real

    tx, rx = terms.tx, terms.rx
    # field_dir is (3, K, L) planes; its contractions ask for C-ordered rows,
    # which einsum would otherwise lay out after the planes (see _axes).
    path, field_dir = terms.geometry.path_dir, tx.field_dir
    cos_e, cos_m = tx.cos_emission, terms.cos_matching
    sin_e = tx.safe_sin_emission
    # m^2 = kept - spread cos_a^2, so weight * d log m is weight / m^2 times
    # d(m^2) / 2.
    per_m2 = weight / terms.matching**2
    d_cos_m = -rx.spread[:, None] * cos_m * per_m2

    if block == BLOCK_TX_ANGLES:
        # log rad = log cos(pi c / 2) - log(1 - c^2) / 2, with 1 - c^2 = sin_e^2.
        d_cos_e = weight * (-0.5 * np.pi * np.tan(0.5 * np.pi * cos_e) + cos_e / sin_e**2)
        # d cos_a / d n = (P r - cos_a f) / sin_e, P the projector off the path.
        projected_rx = rx.axes - np.add.reduce(path * rx.axes, axis=-1)[:, None] * path
        along = d_cos_m / sin_e
        grad_axes = (d_cos_e.T @ path + along.T @ projected_rx
                     - np.einsum("kl,ikl->li", along * cos_m, field_dir, order="C"))
        axes = tx.axes
    elif block == BLOCK_RX_ANGLES:
        cos_i = rx.cos_incidence
        eps = medium.relative_permittivity
        root = np.sqrt(eps - 1.0 + cos_i**2)
        d_par = (-2.0 * eps * (eps - 1.0) / (root * (root + eps * cos_i)**2))[:, None]
        d_perp = (-2.0 * (eps - 1.0) / (root * (root + cos_i)**2))[:, None]
        g_par, g_perp = rx.gamma_par[:, None], rx.gamma_perp[:, None]
        d_cos_i = np.add.reduce(
            -(g_par * d_par * cos_m**2 + g_perp * d_perp * (1.0 - cos_m**2)) * per_m2,
            axis=-1)
        # d cos_i / d r = -(u . r) u / cos_i.
        axes = rx.axes
        along_path = -np.add.reduce(path * axes, axis=-1) * d_cos_i / cos_i
        grad_axes = (np.einsum("kl,ikl->ki", d_cos_m, field_dir, order="C")
                     + along_path[:, None] * path)
    else:
        raise ConfigurationError(f"unknown block {block!r}")
    return grad_axes - np.add.reduce(grad_axes * axes, axis=-1)[:, None] * axes


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
    if (pos < constraints.box_min - _FEASIBILITY_TOL).any() or \
            (pos > constraints.box_max + _FEASIBILITY_TOL).any():
        return False
    gaps = pos[:, None, :] - pos[None, :, :]
    distances = np.sqrt(np.add.reduce(gaps * gaps, axis=-1))
    distances.flat[::pos.shape[0] + 1] = np.inf      # an antenna is no pair with itself
    return not (distances < constraints.min_separation - _FEASIBILITY_TOL).any()


def _ascent_step(point: _Point, block: str, geometry: LinkGeometry, medium: MediumParams,
                 total_power: float, trace: ConvergenceTrace) -> _Point | None:
    """One gradient of block at point and the backtracking search along it
    (see optimize): the accepted trial's point, or None when the gradient
    vanishes or no trial passes before the floor. Counts the gradient, the
    trials and the singular ones in trace.

    A trial is the projective retraction normalize(a + step g) of the block's
    axes a, evaluated straight from those axes (_trial).
    """
    grad = _gradient(point, block, medium)
    trace.gradients += 1
    grad_sq = float(np.add.reduce(grad * grad, axis=None))
    if not math.isfinite(grad_sq) or grad_sq == 0.0:
        return None
    base = (point.terms.tx if block == BLOCK_TX_ANGLES else point.terms.rx).axes
    step = _INITIAL_STEP_ANGLE / math.sqrt(grad_sq)
    while _ARMIJO_C * step * grad_sq > _ARMIJO_FLOOR * abs(point.value):
        axes = base + step * grad
        axes /= np.sqrt(np.add.reduce(axes * axes, axis=-1))[:, None]
        trace.evaluations += 1
        try:
            trial = _trial(point, block, axes, geometry, medium, total_power)
            if trial.value >= point.value + _ARMIJO_C * step * grad_sq:
                return trial
        except SingularChannelError:  # rejected like a failed Armijo test
            trace.singular_trials += 1
        step *= _SHRINK_FACTOR
    return None


def _trial(point: _Point, block: str, axes: np.ndarray, geometry: LinkGeometry,
           medium: MediumParams, total_power: float) -> _Point:
    """_evaluate at point with block's axes replaced by the unit axes given:
    builds that block's side terms only and takes the other block's from
    point, whose terms hold their axes."""
    tx, rx, path = point.terms.tx, point.terms.rx, geometry.path_dir
    if block == BLOCK_TX_ANGLES:
        return _evaluate(geometry, transmit_terms(path, axes), rx, medium, total_power)
    return _evaluate(geometry, tx, receive_terms(path, axes, medium), medium, total_power)


def optimize(initial_layout: LayoutVariables, users: Sequence[AntennaPose],
             medium: MediumParams, total_power: float, constraints: Constraints,
             config: OptimizerConfig, blocks: Sequence[str] = BLOCK_ORDER) -> OptimizeResult:
    """Alternating gradient ascent on the total-SINR objective.

    blocks names the blocks that move; they run in BLOCK_ORDER whatever
    their given order, and a name outside BLOCK_ORDER raises
    ConfigurationError before anything is evaluated. With no block, an outer
    sweep still records one iteration. The initial layout is never modified.
    The power is checked and the position factors are built once
    (link_geometry), and the start's angles become axes (_axes) and are
    evaluated once. Each gradient is exact and comes from the current
    evaluated point (_gradient: no channel build, no SVD); the backtracking
    line search then tries one step at a time along it, each trial the
    retraction normalize(a + step g) of the block's axes a, evaluated once
    from those axes with the unmoved block's side taken from the current
    point (_trial), and the accepted trial's evaluation becomes the current
    point. A trial whose channel raises SingularChannelError is rejected
    like one that fails the Armijo test, and the step shrinks; any other
    error propagates. Each accepted step passes the Armijo test, so the
    recorded trace, J at the ascent's axes, is non-decreasing; the trace also
    counts evaluations, gradients and singular trials. Stops when one full
    outer sweep improves the objective by less than the relative convergence
    tolerance. The starting layout's channel must be regular: a singular one
    raises SingularChannelError. A block that took a step has its final axes
    stored as canonical angles (unit_to_angles, once); a block that took none
    keeps its input angles bit for bit. The returned beamforming solution is
    the full zero-forcing + water-filling solve of the returned layout, so its
    metrics report any residual leakage; its total SINR matches the trace's
    last value up to that leakage and the rounding of the stored angles.

    Each moving block takes up to _INNER_STEPS (3) steps per sweep. A search's
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
    for block in blocks:
        if block not in BLOCK_ORDER:
            raise ConfigurationError(f"unknown block {block!r}")
    moving = [block for block in BLOCK_ORDER if block in blocks]
    if not check_feasible(initial_layout.tx_positions, constraints):
        raise InfeasibleLayoutError("initial transmit positions violate the constraints")

    start_time = time.perf_counter()
    geometry = link_geometry(initial_layout.tx_positions, [u.position for u in users], medium)
    with np.errstate(over="ignore"):   # an overflowing budget raises in _evaluate
        start = point = _layout_point(initial_layout, geometry, medium, total_power)
        trace = ConvergenceTrace(total_sinr=[point.value], evaluations=1)
        for _ in range(config.max_outer_iterations):
            sweep_start = point.value
            for block in moving:
                for _ in range(_INNER_STEPS):
                    stepped = _ascent_step(point, block, geometry, medium, total_power, trace)
                    if stepped is None:
                        break
                    point = stepped
            trace.total_sinr.append(point.value)
            if point.value - sweep_start <= config.convergence_tol * max(abs(sweep_start), 1e-300):
                break

    trace.wall_time = time.perf_counter() - start_time
    tx, rx = point.terms.tx, point.terms.rx
    layout = LayoutVariables(
        tx_angles=initial_layout.tx_angles if tx is start.terms.tx else unit_to_angles(tx.axes),
        tx_positions=initial_layout.tx_positions,
        rx_angles=initial_layout.rx_angles if rx is start.terms.rx else unit_to_angles(rx.axes))
    return OptimizeResult(layout=layout,
                          beamforming=solve_layout(layout, users, medium, total_power),
                          trace=trace)


def check_integer(value, name: str, minimum: int = 1) -> None:
    """Raise ConfigurationError unless value is an integer, not a bool, of at
    least minimum: the one rule for every count (minimum 1) and every seed
    (minimum 0) that the library takes."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        bound = "positive" if minimum else "non-negative"
        raise ConfigurationError(f"{name} must be a {bound} integer, got {value!r}")


def check_resolution(resolution_deg: float) -> None:
    """Raise ConfigurationError unless resolution_deg is a quantization
    resolution: 0 (none) or in (0, 180] degrees."""
    if resolution_deg != 0 and not 0.0 < resolution_deg <= 180.0:
        raise ConfigurationError(f"resolution {resolution_deg} deg outside (0, 180]")


def quantize_angles(layout: LayoutVariables, resolution_deg: float) -> LayoutVariables:
    """Snap every polar/azimuthal angle to the nearest multiple of the resolution.

    Resolution 0 means no quantization; ties round half away from zero; any
    other value outside (0, 180] raises (check_resolution). The snapped angles
    are returned in canonical form (unit_to_angles of their axes): a polar
    angle snapped past pi folds back with a half-turn of azimuth, and an
    azimuth snapped to 2 pi becomes 0.
    """
    check_resolution(resolution_deg)
    if resolution_deg == 0:
        return layout.copy()
    step = math.radians(resolution_deg)

    def snap(arr: np.ndarray) -> np.ndarray:
        return np.sign(arr) * np.floor(np.abs(arr) / step + 0.5) * step

    out = layout.copy()
    out.tx_angles = unit_to_angles(_axes(snap(out.tx_angles)))
    out.rx_angles = unit_to_angles(_axes(snap(out.rx_angles)))
    return out
