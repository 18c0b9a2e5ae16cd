"""Desk-scale experiment harness: scenarios, movement configurations, sweeps.

Reproduces the headline experiments: the rotatable-link Monte Carlo
half-energy fractions, the five antenna-movement configurations compared over
random user drops, and sweeps over user count, transmit power and rotation
granularity. All randomness flows from explicit seeds through counter-derived
generators, so every record is reproducible.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .channel import ChannelMatrix, gain_matrix
from .errors import ConfigurationError, PolarlinkError, UnsupportedConfigurationError
from .geometry import AntennaPose, angles_to_unit, unit_to_angles
from .medium import ANTENNA_FACTOR, MediumParams
from .mimo import LinkMetrics, solve_beamforming
from .optimizer import (Constraints, ConvergenceTrace, LayoutVariables, OptimizeResult,
                        OptimizerConfig, optimize, quantize_angles)

# (transmit orientation, receive orientation) blocks per configuration.
# Transmit positions are never moved (see the optimizer module docstring), so
# configuration 2 (translation) optimizes nothing, like 1, and configuration 3
# (translation + rotation) optimizes the transmit orientations only.
CONFIGURATION_FLAGS = {
    1: (False, False),   # nothing optimized
    2: (False, False),   # transmit positions
    3: (True, False),    # transmit positions + orientations
    4: (False, True),    # receive orientations
    5: (True, True),     # everything
}

_REFERENCE_TX = np.array([0.0, 0.0, 0.0])
_REFERENCE_RX = np.array([75.0, -40.0, 50.0])
_VERTICAL = np.array([0.0, 0.0, 1.0])
_USER_DRAW_ROUNDS = 100_000
_TX_PLACEMENT_ATTEMPTS = 10_000
_MONTE_CARLO_BATCH = 1_000_000


@dataclass(frozen=True)
class Scenario:
    """One experiment instance: medium, movement region, users, and budget."""

    medium: MediumParams
    constraints: Constraints
    user_poses: Sequence[AntennaPose]
    antenna_count: int
    total_power: float
    seed: int

    def __post_init__(self):
        if len(self.user_poses) > self.antenna_count:
            raise UnsupportedConfigurationError(
                f"{len(self.user_poses)} users exceed {self.antenna_count} antennas")
        if not self.total_power > 0:
            raise ConfigurationError("total power must be positive")

    @property
    def user_count(self) -> int:
        return len(self.user_poses)

    def fingerprint(self) -> str:
        payload = {
            "wavelength": self.medium.wavelength,
            "relative_permittivity": self.medium.relative_permittivity,
            "noise_power": self.medium.noise_power,
            "antenna_factor": ANTENNA_FACTOR,
            "box_min": self.constraints.box_min.tolist(),
            "box_max": self.constraints.box_max.tolist(),
            "min_separation": self.constraints.min_separation,
            "users": [[u.position.tolist(), u.orientation.tolist()] for u in self.user_poses],
            "antenna_count": self.antenna_count,
            "total_power": self.total_power,
            "seed": self.seed,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class RunRecord:
    """Outcome of one optimization run, reproducible from (scenario, config, seed)."""

    scenario_hash: str
    configuration: int
    user_count: int
    antenna_count: int
    total_power: float
    sinr: List[float]
    rates: List[float]
    gamma_total: float
    gamma_total_db: float
    average_rate: float
    iterations: int
    trace_db: List[float]
    seed: int
    grid_value: Optional[float] = None
    failure: Optional[str] = None


def _rng(*key) -> np.random.Generator:
    return np.random.default_rng(list(key))


def random_unit_vectors(count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform directions on the unit sphere."""
    vecs = rng.standard_normal((count, 3))
    norms = np.linalg.norm(vecs, axis=1)
    while np.any(norms < 1e-12):
        bad = norms < 1e-12
        vecs[bad] = rng.standard_normal((int(np.sum(bad)), 3))
        norms = np.linalg.norm(vecs, axis=1)
    return vecs / norms[:, None]


def generate_users(user_count: int, cube_half_side: float,
                   rng: np.random.Generator) -> List[AntennaPose]:
    """Users uniform in the coverage cube with sphere-uniform orientations.

    Positions closer than 1 m to the origin are redrawn, for at most 100,000
    rounds, so the far-field gain stays finite; a cube with no point that far
    out, or users still that close, raises UnsupportedConfigurationError.
    """
    if user_count < 1:
        raise ConfigurationError("need at least one user")
    if not math.sqrt(3.0) * cube_half_side > 1.0:
        raise UnsupportedConfigurationError(
            f"coverage half side {cube_half_side} m leaves no point 1 m from the origin")
    positions = np.empty((user_count, 3))
    too_close = np.ones(user_count, dtype=bool)
    for _ in range(_USER_DRAW_ROUNDS):
        positions[too_close] = rng.uniform(
            -cube_half_side, cube_half_side, size=(int(np.sum(too_close)), 3))
        too_close = np.linalg.norm(positions, axis=1) < 1.0
        if not np.any(too_close):
            break
    else:
        raise UnsupportedConfigurationError(f"coverage half side {cube_half_side} m: users "
                                            f"still within 1 m after {_USER_DRAW_ROUNDS} draws")
    orientations = random_unit_vectors(user_count, rng)
    return [AntennaPose(position=p, orientation=n) for p, n in zip(positions, orientations)]


def random_tx_positions(count: int, constraints: Constraints,
                        rng: np.random.Generator) -> np.ndarray:
    """Dart-throwing placement inside the box with the minimum separation kept."""
    placed: List[np.ndarray] = []
    for _ in range(_TX_PLACEMENT_ATTEMPTS):
        candidate = rng.uniform(constraints.box_min, constraints.box_max)
        if all(np.linalg.norm(candidate - q) >= constraints.min_separation for q in placed):
            placed.append(candidate)
            if len(placed) == count:
                return np.array(placed)
    raise UnsupportedConfigurationError(
        f"could not place {count} antennas with separation {constraints.min_separation}")


def random_initial_layout(scenario: Scenario, rng: np.random.Generator) -> LayoutVariables:
    """Scenario-seeded random layout: the starting point of every configuration.

    Non-optimized quantities stay at these values; optimized blocks ascend
    from them, which makes the config-ordering comparison initialization-fair.
    """
    positions = random_tx_positions(scenario.antenna_count, scenario.constraints, rng)
    tx_angles = unit_to_angles(random_unit_vectors(scenario.antenna_count, rng))
    rx_angles = unit_to_angles([u.orientation for u in scenario.user_poses])
    return LayoutVariables(tx_angles=tx_angles, tx_positions=positions, rx_angles=rx_angles)


def make_scenario(user_count: int, seed: int, medium: Optional[MediumParams] = None,
                  antenna_count: int = 8, total_power: float = 0.5,
                  cube_half_side: float = 100.0,
                  region_half_side: Optional[float] = None) -> Scenario:
    """Standard scenario: users in the coverage cube, movement box of +/-100 wavelengths."""
    medium = medium or MediumParams()
    if region_half_side is None:
        region_half_side = 100.0 * medium.wavelength
    constraints = Constraints(
        box_min=-region_half_side * np.ones(3),
        box_max=region_half_side * np.ones(3),
        min_separation=medium.wavelength / 2.0,
    )
    users = generate_users(user_count, cube_half_side, _rng(seed, 0))
    return Scenario(medium=medium, constraints=constraints, user_poses=users,
                    antenna_count=antenna_count, total_power=total_power, seed=seed)


def _half_energy_magnitudes(kind: str, polar, azimuthal, medium: MediumParams) -> np.ndarray:
    """|h| for the fixed reference link with one antenna swept over orientations."""
    directions = angles_to_unit(np.asarray(polar, float), np.asarray(azimuthal, float))
    flat = directions.reshape(-1, 3)
    if kind == "tx_random":
        gains = gain_matrix(_REFERENCE_TX[None, :], flat, _REFERENCE_RX[None, :],
                            _VERTICAL[None, :], medium)[0]
    elif kind == "rx_random":
        gains = gain_matrix(_REFERENCE_TX[None, :], _VERTICAL[None, :],
                            _REFERENCE_RX[None, :], flat, medium)[:, 0]
    else:
        raise ConfigurationError(f"unknown scenario kind {kind!r}")
    return np.abs(gains).reshape(np.shape(polar))


def reference_link_peak(kind: str, medium: Optional[MediumParams] = None,
                        grid_step_deg: float = 0.25) -> float:
    """Peak |h| of the reference link over a dense orientation grid. The grid
    is computed once per process per (kind, medium, grid_step_deg)."""
    return _grid_peak(kind, medium or MediumParams(), grid_step_deg)


@functools.cache
def _grid_peak(kind: str, medium: MediumParams, grid_step_deg: float) -> float:
    polar = np.deg2rad(np.arange(0.0, 180.0 + grid_step_deg / 2, grid_step_deg))
    azimuthal = np.deg2rad(np.arange(0.0, 360.0, grid_step_deg))
    pp, aa = np.meshgrid(polar, azimuthal, indexing="ij")
    return float(_half_energy_magnitudes(kind, pp, aa, medium).max())


def monte_carlo_half_energy(scenario_kind: str, samples: int, seed: int,
                            medium: Optional[MediumParams] = None,
                            grid_step_deg: float = 0.25) -> float:
    """Fraction of random orientations delivering at least half the peak energy.

    The fixed link places the transmitter at the origin and the receiver at
    (75, -40, 50) with the non-random antenna vertical. Angles are sampled
    uniformly in (polar, azimuthal), one million at a time. The peak's grid
    (reference_link_peak) is computed once per process per (kind, medium,
    grid_step_deg).
    """
    if samples < 1:
        raise ConfigurationError("need at least one Monte Carlo sample")
    medium = medium or MediumParams()
    peak = reference_link_peak(scenario_kind, medium, grid_step_deg)
    threshold = 0.5 * peak**2

    rng = _rng(seed, 1)
    hits = 0
    remaining = samples
    while remaining > 0:
        n = min(_MONTE_CARLO_BATCH, remaining)
        polar = rng.uniform(0.0, np.pi, n)
        azimuthal = rng.uniform(0.0, 2.0 * np.pi, n)
        mags = _half_energy_magnitudes(scenario_kind, polar, azimuthal, medium)
        hits += int(np.sum(mags**2 >= threshold))
        remaining -= n
    return hits / samples


def evaluate_layout(layout: LayoutVariables, scenario: Scenario):
    """Channel build + zero forcing + water filling for a fixed layout."""
    rx_positions = np.array([u.position for u in scenario.user_poses])
    gains = gain_matrix(layout.tx_positions, layout.tx_orientations(),
                        rx_positions, layout.rx_orientations(), scenario.medium)
    return solve_beamforming(ChannelMatrix(entries=gains), scenario.total_power,
                             scenario.medium.noise_power)


def run_configuration(scenario: Scenario, config_id: int,
                      optimizer_config: Optional[OptimizerConfig] = None,
                      initial_layout: Optional[LayoutVariables] = None) -> RunRecord:
    """Apply one movement configuration to a scenario and record the outcome."""
    if config_id not in CONFIGURATION_FLAGS:
        raise ConfigurationError(f"configuration id must be 1..5, got {config_id}")
    optimizer_config = optimizer_config or OptimizerConfig()
    layout = initial_layout.copy() if initial_layout is not None \
        else random_initial_layout(scenario, _rng(scenario.seed, 2))
    layout.optimize_tx_orientation, layout.optimize_rx_orientation = \
        CONFIGURATION_FLAGS[config_id]

    try:
        result = optimize(layout, scenario.user_poses, scenario.medium,
                          scenario.total_power, scenario.constraints, optimizer_config)
    except (PolarlinkError, np.linalg.LinAlgError) as exc:  # anything else is a bug: raise
        return RunRecord(
            scenario_hash=scenario.fingerprint(), configuration=config_id,
            user_count=scenario.user_count, antenna_count=scenario.antenna_count,
            total_power=scenario.total_power, sinr=[], rates=[],
            gamma_total=math.nan, gamma_total_db=math.nan, average_rate=math.nan,
            iterations=0, trace_db=[], seed=scenario.seed,
            failure=f"{type(exc).__name__}: {exc}")
    return record_from_result(scenario, config_id, result)


def _record(scenario: Scenario, config_id: int, metrics: LinkMetrics,
            trace: ConvergenceTrace, grid_value: Optional[float] = None) -> RunRecord:
    gamma = metrics.total_sinr
    return RunRecord(
        scenario_hash=scenario.fingerprint(),
        configuration=config_id,
        user_count=scenario.user_count,
        antenna_count=scenario.antenna_count,
        total_power=scenario.total_power,
        sinr=[float(v) for v in metrics.sinr],
        rates=[float(v) for v in metrics.rates],
        gamma_total=float(gamma),
        gamma_total_db=10.0 * math.log10(gamma) if gamma > 0 else -math.inf,
        average_rate=metrics.average_rate,
        iterations=trace.iterations,
        trace_db=list(trace.total_sinr_db),
        seed=scenario.seed,
        grid_value=grid_value,
    )


def record_from_result(scenario: Scenario, config_id: int,
                       result: OptimizeResult) -> RunRecord:
    return _record(scenario, config_id, result.beamforming.metrics, result.trace)


SWEEP_KINDS = ("users", "power", "granularity")


def _sweep_cell(grid_index: int, repetition: int, *, kind: str, grid: Sequence[float],
                seed: int, scenario_at: Callable[..., Scenario],
                optimizer_config: OptimizerConfig, total_power: float, user_count: int,
                config_ids: Sequence[int]) -> List[RunRecord]:
    """All records for one (grid point, repetition) cell, in a fixed order."""
    if kind == "granularity":  # one full-precision optimization, quantized per resolution
        scenario = scenario_at(user_count, seed=int(_mix(seed, 0, repetition)),
                               total_power=total_power)
        layout = random_initial_layout(scenario, _rng(scenario.seed, 2))  # all blocks active
        result = optimize(layout, scenario.user_poses, scenario.medium,
                          scenario.total_power, scenario.constraints, optimizer_config)
        return [quantized_record(scenario, result, float(resolution)) for resolution in grid]

    if kind == "power":
        k_users, power = user_count, float(grid[grid_index])
        grid_value = power
    else:  # users: the grid value is the user count
        k_users, power = int(grid[grid_index]), total_power
        grid_value = float(k_users)
    scenario = scenario_at(k_users, seed=int(_mix(seed, grid_index, repetition)),
                           total_power=power)
    layout = random_initial_layout(scenario, _rng(scenario.seed, 2))
    records = []
    for cid in config_ids:
        rec = run_configuration(scenario, cid, optimizer_config, layout)
        rec.grid_value = grid_value
        records.append(rec)
    return records


def sweep(kind: str, grid: Sequence[float], repetitions: int, seed: int,
          medium: Optional[MediumParams] = None,
          optimizer_config: Optional[OptimizerConfig] = None,
          antenna_count: int = 8, total_power: float = 0.5,
          user_count: int = 8,
          configurations: Optional[Sequence[int]] = None,
          workers: int = 1, cube_half_side: float = 100.0,
          region_half_side: Optional[float] = None) -> List[RunRecord]:
    """Run one experiment family over a parameter grid.

    users:       grid = user counts; each repetition runs the requested
                 configurations (default all five) on a fresh user drop.
    power:       grid = total powers; configurations default to (1, 5).
    granularity: grid = quantization resolutions in degrees; a single full-
                 precision optimization per repetition is quantized at each
                 resolution and re-evaluated.

    Cells own counter-derived random streams and results are aggregated in a
    fixed index order, so the output is independent of the worker count.
    """
    if kind not in SWEEP_KINDS:
        raise ConfigurationError(f"unknown sweep kind {kind!r}")
    if len(grid) == 0:
        raise ConfigurationError("sweep grid must be nonempty")
    if configurations:
        config_ids: Sequence[int] = tuple(configurations)
    elif kind == "users":
        config_ids = (1, 2, 3, 4, 5)
    else:
        config_ids = (1, 5)

    scenario_at = functools.partial(make_scenario, medium=medium or MediumParams(),
                                    antenna_count=antenna_count,
                                    cube_half_side=cube_half_side,
                                    region_half_side=region_half_side)
    cell = functools.partial(_sweep_cell, kind=kind, grid=tuple(grid), seed=seed,
                             scenario_at=scenario_at,
                             optimizer_config=optimizer_config or OptimizerConfig(),
                             total_power=total_power, user_count=user_count,
                             config_ids=config_ids)
    points = 1 if kind == "granularity" else len(grid)
    grid_indices = [gi for gi in range(points) for _ in range(repetitions)]
    repetition_ids = [rep for _ in range(points) for rep in range(repetitions)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cell_lists = list(pool.map(cell, grid_indices, repetition_ids))
    else:
        cell_lists = list(map(cell, grid_indices, repetition_ids))
    return [rec for records in cell_lists for rec in records]


def quantized_record(scenario: Scenario, result: OptimizeResult,
                     resolution_deg: float) -> RunRecord:
    """Quantize an optimized layout's angles and re-evaluate the link metrics."""
    quantized = quantize_angles(result.layout, resolution_deg)
    solution = evaluate_layout(quantized, scenario)
    return _record(scenario, 5, solution.metrics, result.trace, grid_value=resolution_deg)


def _mix(seed: int, grid_index: int, repetition: int) -> int:
    """Deterministic per-cell seed derivation."""
    blob = f"{seed}:{grid_index}:{repetition}".encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:6], "big")
