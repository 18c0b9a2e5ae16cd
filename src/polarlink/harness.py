"""Desk-scale experiment harness: scenarios, movement configurations, sweeps.

Reproduces the headline experiments: the rotatable-link gain maps and Monte
Carlo half-energy fractions, the five antenna-movement configurations compared
over random user drops, and sweeps over user count, transmit power and
rotation granularity. All randomness flows from explicit seeds through counter-derived
generators, so every record is reproducible.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import numbers
import os
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence

import numpy as np

from .channel import gain_matrix
from .errors import ConfigurationError, PolarlinkError, UnsupportedConfigurationError
from .geometry import AntennaPose, angles_to_unit, unit_to_angles
from .medium import ANTENNA_FACTOR, MediumParams
# solve_beamforming is bound here but not called (optimizer.solve_layout does):
# the benchmark's traced run (perfbench) checks that harness binds it.
from .mimo import LinkMetrics, solve_beamforming
from .optimizer import (BLOCK_ORDER, BLOCK_RX_ANGLES, BLOCK_TX_ANGLES, Constraints,
                        ConvergenceTrace, LayoutVariables, OptimizeResult, OptimizerConfig,
                        optimize, quantize_angles, solve_layout)

# The optimizer blocks each configuration moves (optimize's `blocks`).
# Transmit positions are never moved (see the optimizer module docstring), so
# configuration 2 (translation) optimizes nothing, like 1, and configuration 3
# (translation + rotation) optimizes the transmit orientations only.
CONFIGURATION_BLOCKS = {
    1: (),                  # nothing optimized
    2: (),                  # transmit positions
    3: (BLOCK_TX_ANGLES,),  # transmit positions + orientations
    4: (BLOCK_RX_ANGLES,),  # receive orientations
    5: BLOCK_ORDER,         # everything
}

_REFERENCE_TX = np.array([0.0, 0.0, 0.0])
_REFERENCE_RX = np.array([75.0, -40.0, 50.0])
_VERTICAL = np.array([0.0, 0.0, 1.0])
_USER_DRAW_ROUNDS = 100_000
_TX_PLACEMENT_ATTEMPTS = 10_000
_MONTE_CARLO_BATCH = 1_000_000
_KERNEL_BLOCK = 1 << 14             # orientations per kernel call: block-sized temporaries
_MAP_STEP_DEG = 1.0                 # the gain map's grid step (reference_link_map)


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
        """16 hex digits of SHA-256 over the scenario's canonical JSON; hashed
        once per instance (_fingerprint), and a pickled copy carries it."""
        return self._fingerprint

    @functools.cached_property
    def _fingerprint(self) -> str:
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


@dataclass(kw_only=True)
class RunRecord:
    """Outcome of one optimization run, reproducible from (scenario, config, seed); the
    outcome fields, sinr to trace_db, default to a failed run's: empty, nan or 0."""

    scenario_hash: str
    configuration: int
    user_count: int
    antenna_count: int
    total_power: float
    sinr: List[float] = field(default_factory=list)
    rates: List[float] = field(default_factory=list)
    gamma_total: float = math.nan
    gamma_total_db: float = math.nan
    average_rate: float = math.nan
    iterations: int = 0
    trace_db: List[float] = field(default_factory=list)
    seed: int
    grid_value: Optional[float] = None
    failure: Optional[str] = None


def _rng(*key) -> np.random.Generator:
    """The generator of a (seed, stream) key; a negative seed is an error."""
    if min(key) < 0:
        raise ConfigurationError(f"seed must be non-negative, got {key[0]}")
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
    out, users still that close, or a distance too large for a float raises
    UnsupportedConfigurationError.
    """
    if user_count < 1:
        raise ConfigurationError("need at least one user")
    if not math.sqrt(3.0) * cube_half_side > 1.0:
        raise UnsupportedConfigurationError(
            f"coverage half side {cube_half_side} m leaves no point 1 m from the origin")
    overflow = f"coverage half side {cube_half_side} m: a user distance overflows a float"
    if not math.isfinite(2.0 * cube_half_side):     # the draws' range itself overflows
        raise UnsupportedConfigurationError(overflow)
    positions = np.empty((user_count, 3))
    too_close = np.ones(user_count, dtype=bool)
    for _ in range(_USER_DRAW_ROUNDS):
        positions[too_close] = rng.uniform(
            -cube_half_side, cube_half_side, size=(int(np.sum(too_close)), 3))
        with np.errstate(over="ignore"):          # an overflow raises below
            distances = np.linalg.norm(positions, axis=1)
        if not np.all(np.isfinite(distances)):
            raise UnsupportedConfigurationError(overflow)
        too_close = distances < 1.0
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


def _usable_cpu_count() -> int:
    """CPUs this process may run on: the block threads' and sweep processes' count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _ordered_map(task: Callable, arguments: Sequence[tuple], workers: int,
                 processes: bool = False) -> list:
    """[task(*a) for a in arguments], in order.

    It runs inline when min(workers, len(arguments)) <= 1, and otherwise on
    that many threads made for this call or, with `processes`, on the
    process's pool of that many worker processes (_process_pool): forked at
    the first such call, reused by every later one and ended with the
    interpreter, even a killed one. They run the code as imported at that
    fork: a later patch reaches the tasks only when they run inline. The first
    exception in task order propagates after every task of the call has ended.
    A worker that dies during the call raises BrokenProcessPool and drops the
    pool; one that died before the call only drops it.
    """
    workers = min(workers, len(arguments))
    if workers <= 1:
        return [task(*a) for a in arguments]
    import concurrent.futures
    # concurrent.futures imports each pool's module on first use: threads load no multiprocessing.
    if not processes:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(task, *zip(*arguments)))
    from concurrent.futures.process import BrokenProcessPool
    pool, futures = _process_pool(workers), []
    try:
        for a in arguments:
            futures.append(pool.submit(task, *a))
        concurrent.futures.wait(futures)
        for f in futures:          # a dead worker fails the call, whatever else raised
            if isinstance(f.exception(), BrokenProcessPool):
                raise f.exception()
    except BrokenProcessPool:      # a worker died: drop the pool
        _retire_process_pool()
        if futures:
            raise
        # It broke before this call (a worker killed while idle): none of ours ran.
        return _ordered_map(task, arguments, workers, processes=True)
    finally:                       # an interrupted wait (Ctrl-C) leaves no task queued
        for f in futures:
            f.cancel()
    return [f.result() for f in futures]


# The sweeps' worker processes: (pid that made them, count, pool, its exit finalizer).
_POOL: Optional[tuple] = None


def _process_pool(workers: int):
    """The process pool of `workers` processes that this process made at its
    first multi-worker call, or a new one if that count differs or the pool
    belongs to the process this one was forked from (its workers are not our
    children).

    concurrent.futures' interpreter-exit hook ends the pool. A multiprocessing
    child joins its children before that hook runs, so a finalizer ranked
    above its queues' (exitpriority 10) ends the pool there first.
    """
    global _POOL
    if _POOL is not None and _POOL[:2] != (os.getpid(), workers):
        _retire_process_pool()
    if _POOL is None:
        import concurrent.futures
        from multiprocessing.util import Finalize
        pool = concurrent.futures.ProcessPoolExecutor(workers, initializer=_end_with_parent)
        _POOL = (os.getpid(), workers, pool, Finalize(None, pool.shutdown, exitpriority=20))
    return _POOL[2]


def _end_with_parent() -> None:
    """Pool worker initializer: a thread that ends the worker once the process
    that forked it has died without joining it (killed, say), where the worker
    would otherwise wait on its task queue forever."""
    import multiprocessing.connection
    import threading

    def watch(sentinel):
        multiprocessing.connection.wait([sentinel])
        os._exit(1)

    threading.Thread(target=watch, args=(multiprocessing.parent_process().sentinel,),
                     daemon=True).start()


def _retire_process_pool() -> None:
    """Forget the cached pool, joining it first if this process made it (its
    finalizer does nothing in a forked child): its threads end before the
    next pool forks."""
    global _POOL
    finalize = _POOL[3]
    _POOL = None
    finalize()


def _map_blocks(task: Callable[[int, int], object], size: int,
                block: int = _KERNEL_BLOCK) -> list:
    """[task(start, stop) for each block of at most `block` of range(size)].

    The blocks run through _ordered_map on one thread per usable CPU; numpy
    releases the GIL inside a block's kernel, so they run in parallel.
    """
    bounds = [(start, min(start + block, size)) for start in range(0, size, block)]
    return _ordered_map(task, bounds, _usable_cpu_count())


def _block_magnitudes(kind: str, polar, azimuthal, medium: MediumParams) -> np.ndarray:
    """|h| of one block of orientations, flattened: one angles_to_unit and one
    gain_matrix call. A kernel entry depends on its own orientation alone, so
    any split into blocks gives the whole-array values."""
    axes = angles_to_unit(polar, azimuthal).reshape(-1, 3)
    if kind == "tx_random":
        gains = gain_matrix(_REFERENCE_TX[None, :], axes, _REFERENCE_RX[None, :],
                            _VERTICAL[None, :], medium)[0]
    else:
        gains = gain_matrix(_REFERENCE_TX[None, :], _VERTICAL[None, :],
                            _REFERENCE_RX[None, :], axes, medium)[:, 0]
    return np.abs(gains)


def _grid_blocks(kind: str, medium: MediumParams, grid_step_deg: float,
                 keep: Callable[[np.ndarray], object]):
    """(polar, azimuthal, [keep(|h| of each block)]) over the orientation grid
    of polar 0..180 and azimuth 0..<360 degrees in steps of grid_step_deg.

    The grid goes through the kernel a block of whole polar rows at a time
    (at most _KERNEL_BLOCK orientations, unless one row is longer) on the
    block thread pool, and keep sees each block's |h| flattened, polar-major.
    """
    if kind not in ("tx_random", "rx_random"):
        raise ConfigurationError(f"unknown scenario kind {kind!r}")
    polar = np.deg2rad(np.arange(0.0, 180.0 + grid_step_deg / 2, grid_step_deg))
    azimuthal = np.deg2rad(np.arange(0.0, 360.0, grid_step_deg))

    def block(start: int, stop: int):
        # (rows, 1) polar angles broadcast against the azimuths: a row's
        # sines and cosines are taken once, not once per grid point.
        return keep(_block_magnitudes(kind, polar[start:stop, None], azimuthal, medium))

    rows = max(1, _KERNEL_BLOCK // azimuthal.size)
    return polar, azimuthal, _map_blocks(block, polar.size, rows)


def reference_link_map(kind: str, medium: Optional[MediumParams] = None):
    """(polar, azimuthal, |h| (P, A)): the reference link's gain over the
    _MAP_STEP_DEG orientation grid, angles in radians (see _grid_blocks)."""
    polar, azimuthal, blocks = _grid_blocks(kind, medium or MediumParams(), _MAP_STEP_DEG,
                                            lambda mags: mags)
    return polar, azimuthal, np.concatenate(blocks).reshape(polar.size, azimuthal.size)


def reference_link_peak(kind: str, medium: Optional[MediumParams] = None,
                        grid_step_deg: float = 0.25) -> float:
    """Peak |h| of the reference link over a dense orientation grid.

    Each block of the grid (_grid_blocks) keeps only its maximum, so nothing
    grid-sized is built. It is computed once per process per (kind, medium,
    grid_step_deg).
    """
    return _grid_peak(kind, medium or MediumParams(), grid_step_deg)


@functools.cache
def _grid_peak(kind: str, medium: MediumParams, grid_step_deg: float) -> float:
    return float(np.max(_grid_blocks(kind, medium, grid_step_deg, np.max)[2]))


def _generator_at(state: dict, offset: int) -> np.random.Generator:
    """A generator started from a PCG64 `state` advanced by `offset` draws."""
    bit_generator = np.random.PCG64(0)     # any seed: the state replaces it
    bit_generator.state = state
    return np.random.Generator(bit_generator.advance(offset))


def monte_carlo_half_energy(scenario_kind: str, samples: int, seed: int,
                            medium: Optional[MediumParams] = None,
                            grid_step_deg: float = 0.25) -> float:
    """Fraction of random orientations delivering at least half the peak energy.

    The fixed link places the transmitter at the origin and the receiver at
    (75, -40, 50) with the non-random antenna vertical. Angles are sampled
    uniformly in (polar, azimuthal) from _rng(seed, 1), one million at a time:
    all polar angles of a batch, then its azimuths. The batch's blocks of
    _KERNEL_BLOCK samples run on the block thread pool, and each draws its own
    angles from a copy of the generator advanced to its place in the batch (a
    uniform double takes exactly one 64-bit draw, so the values are those of
    the whole-batch draws) and returns its hit count; nothing full-sized is
    kept. The peak's grid (reference_link_peak) is computed once per process
    per (kind, medium, grid_step_deg).
    """
    if samples < 1:
        raise ConfigurationError("need at least one Monte Carlo sample")
    state = _rng(seed, 1).bit_generator.state
    medium = medium or MediumParams()
    peak = reference_link_peak(scenario_kind, medium, grid_step_deg)
    threshold = 0.5 * peak**2

    hits = 0
    for first in range(0, samples, _MONTE_CARLO_BATCH):
        n = min(_MONTE_CARLO_BATCH, samples - first)
        drawn = 2 * first                      # each earlier batch drew 2 per sample

        def block_hits(start: int, stop: int) -> int:
            polar = _generator_at(state, drawn + start).uniform(0.0, np.pi, stop - start)
            azimuthal = _generator_at(state, drawn + n + start).uniform(
                0.0, 2.0 * np.pi, stop - start)
            mags = _block_magnitudes(scenario_kind, polar, azimuthal, medium)
            return int(np.count_nonzero(np.square(mags, out=mags) >= threshold))

        hits += sum(_map_blocks(block_hits, n))
    return hits / samples


def run_configuration(scenario: Scenario, config_id: int,
                      optimizer_config: Optional[OptimizerConfig] = None,
                      initial_layout: Optional[LayoutVariables] = None) -> RunRecord:
    """Apply one movement configuration to a scenario and record the outcome:
    optimize moves the blocks CONFIGURATION_BLOCKS[config_id] from
    initial_layout (default: the scenario-seeded random layout)."""
    if config_id not in CONFIGURATION_BLOCKS:
        raise ConfigurationError(f"configuration id must be 1..5, got {config_id}")
    optimizer_config = optimizer_config or OptimizerConfig()
    layout = initial_layout if initial_layout is not None \
        else random_initial_layout(scenario, _rng(scenario.seed, 2))
    result, failure = _attempt(scenario, layout, optimizer_config, CONFIGURATION_BLOCKS[config_id])
    if failure:
        return _record(scenario, config_id, failure=failure)
    return record_from_result(scenario, config_id, result)


def _attempt(scenario: Scenario, layout: LayoutVariables, optimizer_config: OptimizerConfig,
             blocks: Sequence[str]):
    """(optimize's result, None) moving blocks of scenario from layout, or (None, the
    error's type and message) if a package error ends it: every record's failure rule."""
    try:
        return optimize(layout, scenario.user_poses, scenario.medium, scenario.total_power,
                        scenario.constraints, optimizer_config, blocks), None
    except PolarlinkError as exc:  # anything else is a bug: raise
        return None, f"{type(exc).__name__}: {exc}"


def _record(scenario: Scenario, config_id: int, **fields) -> RunRecord:
    """The record of a run of configuration config_id on scenario: the
    scenario's fields, then `fields` (a failure row: `failure`, any grid_value)."""
    return RunRecord(scenario_hash=scenario.fingerprint(), configuration=config_id,
                     user_count=scenario.user_count, antenna_count=scenario.antenna_count,
                     total_power=scenario.total_power, seed=scenario.seed, **fields)


def _outcome(metrics: LinkMetrics, trace: ConvergenceTrace) -> dict:
    """The outcome fields of a run that ended at metrics after trace."""
    gamma = metrics.total_sinr
    return dict(sinr=[float(v) for v in metrics.sinr],
                rates=[float(v) for v in metrics.rates],
                gamma_total=float(gamma),
                gamma_total_db=10.0 * math.log10(gamma) if gamma > 0 else -math.inf,
                average_rate=metrics.average_rate,
                iterations=trace.iterations,
                trace_db=list(trace.total_sinr_db))


def record_from_result(scenario: Scenario, config_id: int,
                       result: OptimizeResult) -> RunRecord:
    return _record(scenario, config_id, **_outcome(result.beamforming.metrics, result.trace))


SWEEP_KINDS = ("users", "power", "granularity")


def _sweep_cell(scenario: Scenario, grid_value: Optional[float], *, kind: str,
                grid: Sequence[float], optimizer_config: OptimizerConfig,
                config_ids: Sequence[int]) -> List[RunRecord]:
    """All records for one (grid point, repetition) cell, in a fixed order."""
    layout = random_initial_layout(scenario, _rng(scenario.seed, 2))
    if kind == "granularity":  # one optimization of all blocks, quantized per resolution
        result, failure = _attempt(scenario, layout, optimizer_config, BLOCK_ORDER)
        if failure:
            return [_record(scenario, 5, grid_value=float(r), failure=failure) for r in grid]
        return [quantized_record(scenario, result, float(r)) for r in grid]
    return [replace(run_configuration(scenario, cid, optimizer_config, layout),
                    grid_value=grid_value) for cid in config_ids]


def sweep(kind: str, grid: Sequence[float], repetitions: int, seed: int, *,
          optimizer_config: Optional[OptimizerConfig] = None, user_count: int = 8,
          configurations: Optional[Sequence[int]] = None, workers: int = 1,
          **scenario) -> List[RunRecord]:
    """Run one experiment family over a parameter grid.

    users:       grid = user counts; each repetition runs the requested
                 configurations (default all five) on a fresh user drop.
    power:       grid = total powers; configurations default to (1, 5).
    granularity: grid = quantization resolutions in degrees; a single full-
                 precision optimization per repetition is quantized at each
                 resolution and re-evaluated.

    Each (grid point, repetition) cell draws its scenario here, make_scenario
    with its own counter-derived seed and the keyword settings in `scenario`
    (a power grid point replaces total_power; an unknown setting raises
    TypeError before any cell runs). The cells run through _ordered_map on at
    most `workers` processes, never more than there are cells. Those workers
    are forked at the process's first multi-worker sweep and reused by later
    ones; they run the code as imported at that fork, so patch harness
    internals only with workers=1, and they end with the interpreter, even a
    killed one. Records come back in cell order, so the output is independent
    of the worker count.
    """
    if kind not in SWEEP_KINDS:
        raise ConfigurationError(f"unknown sweep kind {kind!r}")
    if len(grid) == 0:
        raise ConfigurationError("sweep grid must be nonempty")
    if repetitions < 1:
        raise ConfigurationError(f"repetitions must be at least 1, got {repetitions}")
    if seed < 0:    # _mix would turn it into valid cell seeds
        raise ConfigurationError(f"seed must be non-negative, got {seed}")
    if configurations is None:
        configurations = (1, 2, 3, 4, 5) if kind == "users" else (1, 5)
    if len(configurations) == 0:
        raise ConfigurationError("configurations must be nonempty")
    for users in grid if kind == "users" else [user_count]:
        if isinstance(users, bool) or not isinstance(users, numbers.Integral) or users < 1:
            raise ConfigurationError(f"user count must be a positive integer, got {users!r}")

    cells = []
    for gi in range(1 if kind == "granularity" else len(grid)):
        users = int(grid[gi]) if kind == "users" else user_count
        grid_value = None if kind == "granularity" else float(grid[gi])  # granularity: per record
        if kind == "power":
            scenario["total_power"] = grid_value
        cells += [(make_scenario(users, _mix(seed, gi, rep), **scenario), grid_value)
                  for rep in range(repetitions)]
    cell = functools.partial(_sweep_cell, kind=kind, grid=tuple(grid),
                             optimizer_config=optimizer_config or OptimizerConfig(),
                             config_ids=tuple(configurations))
    return [rec for records in _ordered_map(cell, cells, workers, processes=True)
            for rec in records]


def quantized_record(scenario: Scenario, result: OptimizeResult,
                     resolution_deg: float) -> RunRecord:
    """Quantize an optimized layout's angles and re-evaluate the link metrics."""
    quantized = quantize_angles(result.layout, resolution_deg)
    solution = solve_layout(quantized, scenario.user_poses, scenario.medium,
                            scenario.total_power)
    return _record(scenario, 5, grid_value=resolution_deg,
                   **_outcome(solution.metrics, result.trace))


def _mix(seed: int, grid_index: int, repetition: int) -> int:
    """Deterministic per-cell seed derivation."""
    blob = f"{seed}:{grid_index}:{repetition}".encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:6], "big")
