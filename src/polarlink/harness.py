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
import os
from dataclasses import dataclass, field, fields, replace
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
                        check_integer, check_resolution, optimize, quantize_angles,
                        solve_layout, to_db)

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
# Orientations per kernel call, 3 x 8,192. A process running a run of blocks
# holds one block's temporaries at a time, at their peak about 92 bytes per
# orientation for transmit axes and 112 for receive axes, under 3 MB at this
# size; fewer, larger blocks make fewer numpy calls, and each process running
# one holds more.
_KERNEL_BLOCK = 3 << 13
_MAP_STEP_DEG = 1.0                 # the gain map's grid step (reference_link_map)
_PEAK_STEP_DEG = 0.25               # the peak's grid step (reference_link_peak)


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
        check_integer(self.antenna_count, "antenna count")
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
    """Outcome of one optimization run, reproducible from (scenario, config, seed).

    The fields are the sweep CSV's columns in order (CSV_COLUMNS), then the
    per-user lists the CSV does not carry. The outcome fields default to a
    failed run's values: empty, nan or 0.
    """

    grid_value: Optional[float] = None
    configuration: int
    users: int
    antennas: int
    power_w: float
    gamma_total: float = math.nan
    gamma_total_db: float = math.nan
    average_rate: float = math.nan
    iterations: int = 0
    scenario_hash: str
    seed: int
    failure: Optional[str] = None
    trace_db: List[float] = field(default_factory=list)
    sinr: List[float] = field(default_factory=list)
    rates: List[float] = field(default_factory=list)


# The sweep CSV's header: RunRecord's fields without the per-user lists.
CSV_COLUMNS = tuple(f.name for f in fields(RunRecord) if f.name not in ("sinr", "rates"))


def _rng(*key) -> np.random.Generator:
    """The generator of a (seed, stream) key; a seed that is not a
    non-negative integer is an error (check_integer)."""
    check_integer(key[0], "seed", 0)
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
    check_integer(user_count, "user count")
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


def make_scenario(user_count: int, seed: int, medium: MediumParams = MediumParams(),
                  antenna_count: int = 8, total_power: float = 0.5,
                  cube_half_side: float = 100.0,
                  region_half_side: Optional[float] = None) -> Scenario:
    """Standard scenario: users in the coverage cube, movement box of +/-100 wavelengths."""
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
    """CPUs this process may run on: the process pool's size (_process_pool)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _ordered_map(task: Callable, arguments: Sequence[tuple], *,
                 caller_first: bool = False) -> list:
    """[task(*a) for a in arguments], in order.

    It runs inline when there is one task or one usable CPU. Otherwise the
    tasks go to the process pool (_process_pool), except that with
    caller_first the caller runs the first task itself while the pool runs
    the rest. Its workers run the code as imported at the pool's fork: a
    later patch reaches only the tasks that the caller runs. The first
    exception in task order propagates after every task of the call has
    ended. A worker that dies during the call raises BrokenProcessPool and
    drops the pool; one that died before the call only drops it.
    """
    if len(arguments) <= 1 or _usable_cpu_count() <= 1:
        return [task(*a) for a in arguments]
    import concurrent.futures
    from concurrent.futures.process import BrokenProcessPool
    pool, futures = _process_pool(), []
    try:
        for a in arguments[1:] if caller_first else arguments:
            futures.append(pool.submit(task, *a))
        if caller_first:           # the caller's share, while the pool runs the rest
            mine = concurrent.futures.Future()
            try:
                mine.set_result(task(*arguments[0]))
            except Exception as exc:   # raised in task order, once the pool's tasks end
                mine.set_exception(exc)
            futures.insert(0, mine)
        concurrent.futures.wait(futures)
        for f in futures:          # a dead worker fails the call, whatever else raised
            if isinstance(f.exception(), BrokenProcessPool):
                raise f.exception()
    except BrokenProcessPool:      # a worker died: drop the pool
        _retire_process_pool()
        if futures:
            raise
        # It broke before this call (a worker killed while idle): none of ours ran.
        return _ordered_map(task, arguments, caller_first=caller_first)
    finally:                       # an interrupted wait (Ctrl-C) leaves no task queued
        for f in futures:
            f.cancel()
    return [f.result() for f in futures]


# The sweeps' and block runs' worker processes: (pid that made them, usable CPU
# count then, pool, its exit finalizer).
_POOL: Optional[tuple] = None


def _process_pool():
    """This process's pool of one worker per usable CPU, the only place that
    sizes a pool. It is forked at the first pooled call and reused by every
    later one; a new one replaces it if the usable CPU count has changed or
    it belongs to the process this one was forked from (its workers are not
    our children).

    concurrent.futures' interpreter-exit hook ends the pool. A multiprocessing
    child joins its children before that hook runs, so a finalizer ranked
    above its queues' (exitpriority 10) ends the pool there first. Its
    workers end with the interpreter, even a killed one (_end_with_parent).
    """
    global _POOL
    key = (os.getpid(), _usable_cpu_count())
    if _POOL is not None and _POOL[:2] != key:
        _retire_process_pool()
    if _POOL is None:
        import concurrent.futures
        from multiprocessing.util import Finalize
        pool = concurrent.futures.ProcessPoolExecutor(key[1], initializer=_end_with_parent)
        _POOL = (*key, pool, Finalize(None, pool.shutdown, exitpriority=20))
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


def _map_blocks(task: Callable, args: tuple, size: int, block: int = _KERNEL_BLOCK) -> list:
    """[task(*args, start, stop) for each block of at most `block` of range(size)].

    The blocks are split into min(usable CPUs, blocks) contiguous runs, in
    block order. The caller runs the first run and the process pool the
    others (_ordered_map), one task per run, not per block, and each run's
    blocks go in order; one run runs inline. A pooled task is pickled, so
    task is a module-level function and args are picklable.
    """
    bounds = [(start, min(start + block, size)) for start in range(0, size, block)]
    count = min(_usable_cpu_count(), len(bounds))
    runs = [(task, args, bounds[len(bounds) * r // count:len(bounds) * (r + 1) // count])
            for r in range(count)]
    return [result for run in _ordered_map(_run_blocks, runs, caller_first=True)
            for result in run]


def _run_blocks(task: Callable, args: tuple, run: Sequence[tuple]) -> list:
    """[task(*args, start, stop) for each (start, stop) of run]: one run of _map_blocks."""
    return [task(*args, start, stop) for start, stop in run]


def _block_magnitudes(kind: str, axes: np.ndarray, medium: MediumParams) -> np.ndarray:
    """|h| of one block of unit axes (N, 3): one gain_matrix call. A kernel
    entry depends on its own orientation alone, so any split into blocks gives
    the whole-array values. The caller converts the block's angles with one
    angles_to_unit call and drops them first, so they are not held through
    the kernel."""
    if kind == "tx_random":
        gains = gain_matrix(_REFERENCE_TX[None, :], axes, _REFERENCE_RX[None, :],
                            _VERTICAL[None, :], medium)[0]
    else:
        gains = gain_matrix(_REFERENCE_TX[None, :], _VERTICAL[None, :],
                            _REFERENCE_RX[None, :], axes, medium)[:, 0]
    return np.abs(gains)


def _grid_blocks(kind: str, medium: MediumParams, grid_step_deg: float, peak: bool):
    """(polar, azimuthal, [each block's |h|, or with `peak` its maximum]) over
    the orientation grid of polar 0..180 and azimuth 0..<360 degrees in steps
    of grid_step_deg.

    The grid goes through the kernel a block of whole polar rows at a time
    (at most _KERNEL_BLOCK orientations, unless one row is longer) in block
    runs (_map_blocks), and a block's |h| is flattened, polar-major.
    """
    if kind not in ("tx_random", "rx_random"):
        raise ConfigurationError(f"unknown scenario kind {kind!r}")
    polar = np.deg2rad(np.arange(0.0, 180.0 + grid_step_deg / 2, grid_step_deg))
    azimuthal = np.deg2rad(np.arange(0.0, 360.0, grid_step_deg))
    rows = max(1, _KERNEL_BLOCK // azimuthal.size)
    return polar, azimuthal, _map_blocks(_grid_block, (kind, medium, polar, azimuthal, peak),
                                         polar.size, rows)


def _grid_block(kind: str, medium: MediumParams, polar: np.ndarray, azimuthal: np.ndarray,
                peak: bool, start: int, stop: int):
    """|h| of the grid's polar rows start..stop, flattened, or with `peak` its maximum."""
    # (rows, 1) polar angles broadcast against the azimuths: a row's
    # sines and cosines are taken once, not once per grid point.
    axes = angles_to_unit(polar[start:stop, None], azimuthal).reshape(-1, 3)
    mags = _block_magnitudes(kind, axes, medium)
    return np.max(mags) if peak else mags


def reference_link_map(kind: str, medium: MediumParams = MediumParams()):
    """(polar, azimuthal, |h| (P, A)): the reference link's gain over the
    _MAP_STEP_DEG orientation grid, angles in radians (see _grid_blocks)."""
    polar, azimuthal, blocks = _grid_blocks(kind, medium, _MAP_STEP_DEG, peak=False)
    return polar, azimuthal, np.concatenate(blocks).reshape(polar.size, azimuthal.size)


def reference_link_peak(kind: str, medium: MediumParams = MediumParams(),
                        grid_step_deg: float = _PEAK_STEP_DEG) -> float:
    """Peak |h| of the reference link over a dense orientation grid.

    Each block of the grid (_grid_blocks) keeps only its maximum, so nothing
    grid-sized is built. It is computed once per process per (kind, medium,
    grid_step_deg). A step that is not a number in (0, 180] raises
    ConfigurationError before any grid is built.
    """
    if not 0.0 < grid_step_deg <= 180.0:       # nan and inf fail too
        raise ConfigurationError(f"grid step must be in (0, 180] degrees, got {grid_step_deg}")
    return _grid_peak(kind, medium, grid_step_deg)


@functools.cache
def _grid_peak(kind: str, medium: MediumParams, grid_step_deg: float) -> float:
    return float(np.max(_grid_blocks(kind, medium, grid_step_deg, peak=True)[2]))


def monte_carlo_half_energy(scenario_kind: str, samples: int, seed: int,
                            medium: MediumParams = MediumParams(),
                            grid_step_deg: float = _PEAK_STEP_DEG) -> float:
    """Fraction of random orientations delivering at least half the peak energy.

    The fixed link places the transmitter at the origin and the receiver at
    (75, -40, 50) with the non-random antenna vertical. Angles are sampled
    uniformly in (polar, azimuthal) from one stream per call, _rng(seed, 1):
    all polar angles of the call, then all its azimuths, so sample i's are
    draws i and samples + i, and a run is no prefix of a longer one. The
    call's blocks of _KERNEL_BLOCK samples (_block_hits) go in contiguous
    runs, the first in the caller and the others on the process pool
    (_map_blocks). Each block builds one generator, _rng(seed, 1), and reads
    it at two offsets: its polar angles' place and, samples draws further on,
    its azimuths' (PCG64 advances in one O(1) jump, and a uniform double takes
    exactly one 64-bit draw). It draws rng.random(n) scaled in place by pi or
    2 pi, which is Generator.uniform(0, b)'s 0.0 + b * u bit for bit, converts
    the angles to axes and drops them before the kernel. A block returns its
    hit count; nothing full-sized is kept. samples is a positive integer and seed a
    non-negative one (check_integer). The peak's grid (reference_link_peak,
    whose grid_step_deg check runs before any draw) is computed once per
    process per (kind, medium, grid_step_deg).
    """
    check_integer(samples, "samples")
    samples = int(samples)                     # PCG64.advance takes no numpy integer
    _rng(seed, 1)                              # a bad seed fails before the grid
    # |h| >= peak / sqrt 2: half the peak's power, compared as amplitudes.
    threshold = reference_link_peak(scenario_kind, medium, grid_step_deg) * math.sqrt(0.5)
    hits = _map_blocks(_block_hits, (scenario_kind, seed, samples, threshold, medium), samples)
    return sum(hits) / samples


def _block_hits(kind: str, seed: int, samples: int, threshold: float, medium: MediumParams,
                start: int, stop: int) -> int:
    """How many of a `samples`-sample call's samples start..stop have an |h|
    of at least threshold (see monte_carlo_half_energy)."""
    rng = _rng(seed, 1)
    rng.bit_generator.advance(start)
    polar = rng.random(stop - start)
    polar *= np.pi
    rng.bit_generator.advance(samples - (stop - start))
    azimuthal = rng.random(stop - start)
    azimuthal *= 2.0 * np.pi
    axes = angles_to_unit(polar, azimuthal)
    del polar, azimuthal
    mags = _block_magnitudes(kind, axes, medium)
    return int(np.count_nonzero(mags >= threshold))


def run_configuration(scenario: Scenario, config_id: int,
                      optimizer_config: OptimizerConfig = OptimizerConfig(),
                      initial_layout: Optional[LayoutVariables] = None) -> RunRecord:
    """Apply one movement configuration to a scenario and record the outcome:
    optimize moves the blocks CONFIGURATION_BLOCKS[config_id] from
    initial_layout (default: the scenario-seeded random layout)."""
    _check_configuration(config_id)
    layout = initial_layout if initial_layout is not None \
        else random_initial_layout(scenario, _rng(scenario.seed, 2))
    result, failure = _attempt(scenario, layout, optimizer_config, CONFIGURATION_BLOCKS[config_id])
    if failure:
        return _record(scenario, config_id, failure=failure)
    return record_from_result(scenario, config_id, result)


def _check_configuration(config_id: int) -> None:
    check_integer(config_id, "configuration id")   # True and 5.0 hash as 1 and 5
    if config_id not in CONFIGURATION_BLOCKS:
        raise ConfigurationError(f"configuration id must be 1..5, got {config_id}")


def _attempt(scenario: Scenario, layout: LayoutVariables, optimizer_config: OptimizerConfig,
             blocks: Sequence[str]):
    """(optimize's result, None) moving blocks of scenario from layout, or (None, the
    error's type and message) if a package error ends it: every record's failure rule."""
    try:
        return optimize(layout, scenario.user_poses, scenario.medium, scenario.total_power,
                        scenario.constraints, optimizer_config, blocks), None
    except PolarlinkError as exc:  # anything else is a bug: raise
        return None, f"{type(exc).__name__}: {exc}"


def _record(scenario: Scenario, config_id: int, metrics: Optional[LinkMetrics] = None,
            trace: Optional[ConvergenceTrace] = None, **fields) -> RunRecord:
    """The record of a run of configuration config_id on scenario: the
    scenario's fields, the outcome of a run that ended at metrics after trace
    (without metrics, a failure row's defaults), then `fields` (`failure`, any
    grid_value). Every record is built here."""
    if metrics is not None:
        fields.update(gamma_total=float(metrics.total_sinr),
                      gamma_total_db=to_db(metrics.total_sinr),
                      average_rate=metrics.average_rate, iterations=trace.iterations,
                      trace_db=trace.total_sinr_db, sinr=[float(v) for v in metrics.sinr],
                      rates=[float(v) for v in metrics.rates])
    return RunRecord(configuration=config_id, users=scenario.user_count,
                     antennas=scenario.antenna_count, power_w=scenario.total_power,
                     scenario_hash=scenario.fingerprint(), seed=scenario.seed, **fields)


def record_from_result(scenario: Scenario, config_id: int,
                       result: OptimizeResult) -> RunRecord:
    return _record(scenario, config_id, result.beamforming.metrics, result.trace)


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
          optimizer_config: OptimizerConfig = OptimizerConfig(), user_count: int = 8,
          configurations: Optional[Sequence[int]] = None, workers: int = 1,
          **scenario) -> List[RunRecord]:
    """Run one experiment family over a parameter grid.

    users:       grid = user counts; each repetition runs the requested
                 configurations (default all five) on a fresh user drop.
    power:       grid = total powers; configurations default to (1, 5).
    granularity: grid = quantization resolutions in degrees; a single full-
                 precision optimization per repetition is quantized at each
                 resolution and re-evaluated. It runs configuration 5
                 whatever `configurations` holds.

    repetitions, workers and the user counts (the users grid's, or
    user_count) are positive integers and seed a non-negative one
    (check_integer). Any of them that is not, a configuration id that is not
    an integer in CONFIGURATION_BLOCKS or a resolution that quantize_angles
    refuses (check_resolution) raises ConfigurationError before any cell runs.

    Each (grid point, repetition) cell draws its scenario here, make_scenario
    with its own counter-derived seed and the keyword settings in `scenario`
    (a power grid point replaces total_power; an unknown setting raises
    TypeError before any cell runs). With workers=1 the cells run inline;
    with more they run on the process's one pool (_ordered_map), whose size
    is the usable CPU count, whatever `workers` is. Its workers run the code
    as imported at its fork, so patch harness internals only with workers=1.
    Records come back in cell order, so the output is independent of the
    worker count.
    """
    if kind not in SWEEP_KINDS:
        raise ConfigurationError(f"unknown sweep kind {kind!r}")
    if len(grid) == 0:
        raise ConfigurationError("sweep grid must be nonempty")
    check_integer(repetitions, "repetitions")
    check_integer(workers, "workers")
    check_integer(seed, "seed", 0)  # _mix would turn any other into valid cell seeds
    if configurations is None:
        configurations = (1, 2, 3, 4, 5) if kind == "users" else (1, 5)
    if len(configurations) == 0:
        raise ConfigurationError("configurations must be nonempty")
    for config_id in configurations:
        _check_configuration(config_id)
    for resolution in grid if kind == "granularity" else []:
        check_resolution(resolution)
    for users in grid if kind == "users" else [user_count]:
        check_integer(users, "user count")

    cells = []
    for gi in range(1 if kind == "granularity" else len(grid)):
        users = int(grid[gi]) if kind == "users" else user_count
        grid_value = None if kind == "granularity" else float(grid[gi])  # granularity: per record
        if kind == "power":
            scenario["total_power"] = grid_value
        cells += [(make_scenario(users, _mix(seed, gi, rep), **scenario), grid_value)
                  for rep in range(repetitions)]
    cell = functools.partial(_sweep_cell, kind=kind, grid=tuple(grid),
                             optimizer_config=optimizer_config,
                             config_ids=tuple(configurations))
    cell_records = [cell(*c) for c in cells] if workers == 1 else _ordered_map(cell, cells)
    return [rec for records in cell_records for rec in records]


def quantized_record(scenario: Scenario, result: OptimizeResult,
                     resolution_deg: float) -> RunRecord:
    """Quantize an optimized layout's angles and re-evaluate the link metrics."""
    quantized = quantize_angles(result.layout, resolution_deg)
    solution = solve_layout(quantized, scenario.user_poses, scenario.medium,
                            scenario.total_power)
    return _record(scenario, 5, solution.metrics, result.trace, grid_value=resolution_deg)


def _mix(seed: int, grid_index: int, repetition: int) -> int:
    """Deterministic per-cell seed derivation."""
    blob = f"{seed}:{grid_index}:{repetition}".encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:6], "big")
