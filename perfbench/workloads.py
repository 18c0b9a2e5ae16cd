"""The three benchmark workloads and the checks on their outputs.

Every workload is a closed loop in one process: the next task starts when the
previous one has returned. Inputs come from the workload seed alone, and
polarlink only ever sees the generated inputs. Functions are looked up on
their module at call time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from polarlink import harness, optimizer
from polarlink.errors import PolarlinkError
from polarlink.medium import MediumParams

# The acceptance campaigns' optimizer settings.
CAMPAIGN_CONFIG = optimizer.OptimizerConfig(max_outer_iterations=25, convergence_tol=1e-3)
CAMPAIGN_USERS = 8
CAMPAIGN_CONFIGS = (1, 2, 3)          # through run_configuration; 5 through optimize()
QUANTIZE_DEG = (30.0, 80.0)
SWEEP_GRID = (1, 2, 4)
SWEEP_CONFIGS = (1, 3)
SWEEP_REPETITIONS = 2                 # per sweep() call: 6 cells
SWEEP_WORKERS = 2
MC_SAMPLES = 1_000_000
MC_BOUNDS = {"tx_random": (0.675, 0.02), "rx_random": (0.990, 0.005)}


# Each calibration kernel's time on the reference host (2-core Xeon VM,
# numpy 2.4.6, scipy-openblas 0.3.31 on 1 thread) at a typical speed.
CALIBRATION_NOMINAL_S = {"small": 0.017, "large": 0.03}


def calibrate(kind: str, repeats: int = 1) -> float:
    """Mean time of a fixed piece of the kind of work polarlink does,
    without polarlink, over `repeats` back-to-back runs.

    "small": dense linear algebra and trigonometry on 8x8 arrays in a Python
    loop, the shape of the optimizer's objective. "large": trigonometry on a
    1M-element array, the shape of the Monte Carlo. The host's speed moves
    by up to 2.5x within seconds and moves a kernel and the polarlink work
    of the same shape together; polarlink's own speed does not move it.
    """
    t0 = time.perf_counter()
    for _ in range(repeats):
        if kind == "small":
            a = _CAL_SMALL
            for i in range(1000):
                np.linalg.solve(a @ a.T + np.eye(8) * (i + 1.0), np.cos(a[:, i % 8])).sum()
        else:
            big = _CAL_LARGE
            np.sum(np.sqrt(np.abs(np.sin(big) * np.cos(big))))
    return (time.perf_counter() - t0) / repeats


_CAL_SMALL = np.random.default_rng(0).standard_normal((8, 8))
_CAL_LARGE = np.linspace(0.0, 10.0, 1_000_000)
# Calibration runs for this share of the time it follows: a fixed duty
# cycle samples the host's speed evenly over the pass.
CALIBRATION_SHARE = 0.15


def _calibration_server(conn, kind: str) -> None:
    repeats = conn.recv()
    while repeats:
        conn.send(calibrate(kind, repeats))
        repeats = conn.recv()
    conn.close()


class Meter:
    """Times the segments of a pass and scales each to the reference speed.

    After each segment it runs `calibrate(kind)` for about CALIBRATION_SHARE
    of the segment's time, in `parallel` processes at once when the pass
    keeps that many cores busy. A segment's normalised time is its wall time
    times the kernel's nominal time over the mean of the calibrations just
    before and just after it: the time it would have taken on the reference
    host at a typical speed. Calibration time is left out of both. Use it as
    a context manager, which stops the calibration processes.
    """

    def __init__(self, kind: str, parallel: int = 1) -> None:
        self.kind, self.nominal = kind, CALIBRATION_NOMINAL_S[kind]
        self.servers = []
        ctx = multiprocessing.get_context("fork")
        for _ in range(parallel if parallel > 1 else 0):
            ours, theirs = ctx.Pipe()
            proc = ctx.Process(target=_calibration_server, args=(theirs, kind), daemon=True)
            proc.start()
            theirs.close()
            self.servers.append((proc, ours))
        self._calibrate(1)                # warm numpy's first-call paths
        self.calibrations = [self._calibrate(4)]
        self.wall: List[float] = []
        self.norm: List[float] = []
        self.t0 = time.perf_counter()

    def _calibrate(self, repeats: int) -> float:
        if not self.servers:
            return calibrate(self.kind, repeats)
        for _, conn in self.servers:
            conn.send(repeats)
        return statistics.fmean(conn.recv() for _, conn in self.servers)

    def close(self) -> None:
        for proc, conn in self.servers:
            try:
                conn.send(0)
            except OSError:
                pass
            conn.close()
            proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
                proc.join()
        self.servers = []

    def __enter__(self) -> "Meter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def lap(self) -> None:
        seg = time.perf_counter() - self.t0
        repeats = max(2, math.ceil(CALIBRATION_SHARE * seg / self.nominal))
        self.calibrations.append(self._calibrate(repeats))
        speed = 0.5 * (self.calibrations[-2] + self.calibrations[-1])
        self.wall.append(seg)
        self.norm.append(seg * self.nominal / speed)
        self.t0 = time.perf_counter()


@dataclass
class Outcome:
    """What one pass over a workload's inputs did and how long it took."""

    wall_s: float = 0.0                   # sum of task_s: calibration left out
    norm_s: float = 0.0                   # the same at the reference speed
    task_s: List[float] = field(default_factory=list)
    calibration_s: List[float] = field(default_factory=list)
    calibration_nominal_s: float = 0.0
    items: int = 0                    # optimizer outer iterations or Monte Carlo samples
    attempted: int = 0                # optimize runs or Monte Carlo calls
    failed: int = 0
    gamma_db: List[float] = field(default_factory=list)
    rows: List[str] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)


def seed_list(seed: int, count: int) -> List[int]:
    """`count` seeds for polarlink calls, drawn from the workload seed."""
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, count)]


def _check_record(out: Outcome, rec, where: str) -> None:
    out.rows.append(repr(dataclasses.asdict(rec)))
    if rec.failure is not None:
        out.failed += 1
        out.problems.append(f"{where}: failure row {rec.failure}")
        return
    if not math.isfinite(rec.gamma_total_db) or not all(map(math.isfinite, rec.sinr)):
        out.problems.append(f"{where}: non-finite gamma {rec.gamma_total_db}")
    trace = rec.trace_db
    if not all(map(math.isfinite, trace)) or any(b < a for a, b in zip(trace, trace[1:])):
        out.problems.append(f"{where}: trace not finite and non-decreasing")


# --- campaign_k8 -------------------------------------------------------------

def campaign_inputs(seed: int, drops: int):
    """One K=L=8 scenario per drop plus the layout all its configurations share."""
    out = []
    for s in seed_list(seed, drops):
        scenario = harness.make_scenario(CAMPAIGN_USERS, s)
        layout = harness.random_initial_layout(scenario, np.random.default_rng([s, 2]))
        out.append((scenario, layout))
    return out


def _end_task(out: Outcome, meter: Meter, mark: int) -> None:
    """Count the meter's segments from index `mark` on as one task."""
    wall = sum(meter.wall[mark:])
    out.task_s.append(wall)
    out.wall_s += wall
    out.norm_s += sum(meter.norm[mark:])


def run_campaign(inputs, tracer=None) -> Outcome:
    out, meter = Outcome(), Meter("small")
    for i, (scenario, layout) in enumerate(inputs):
        if tracer is not None:
            tracer.run_id = i
        mark = len(meter.wall)
        for cid in CAMPAIGN_CONFIGS:
            out.attempted += 1
            rec = harness.run_configuration(scenario, cid, CAMPAIGN_CONFIG, layout)
            _check_record(out, rec, f"drop {i} config {cid}")
            out.items += rec.iterations
            meter.lap()
        full = layout.copy()
        full.optimize_tx_orientation = True
        full.optimize_tx_position = True
        full.optimize_rx_orientation = True
        out.attempted += 1
        try:
            result = optimizer.optimize(full, scenario.user_poses, scenario.medium,
                                        scenario.total_power, scenario.constraints,
                                        CAMPAIGN_CONFIG)
            rec = harness.record_from_result(scenario, 5, result)
            _check_record(out, rec, f"drop {i} config 5")
            out.items += rec.iterations
            out.gamma_db.append(rec.gamma_total_db)
            for res in QUANTIZE_DEG:
                _check_record(out, harness.quantized_record(scenario, result, res),
                              f"drop {i} quantized {res:g} deg")
        except PolarlinkError as exc:
            out.failed += 1
            out.problems.append(f"drop {i} config 5 raised {type(exc).__name__}: {exc}")
        meter.lap()
        _end_task(out, meter, mark)
    out.calibration_s, out.calibration_nominal_s = meter.calibrations, meter.nominal
    return out


# --- sweep_small_k -----------------------------------------------------------

def run_sweep(inputs, tracer=None, workers: int = SWEEP_WORKERS) -> Outcome:
    out = Outcome()
    expected = len(SWEEP_GRID) * SWEEP_REPETITIONS * len(SWEEP_CONFIGS)
    with Meter("small", workers) as meter:
        for i, sweep_seed in enumerate(inputs):
            if tracer is not None:
                tracer.run_id = i
            mark = len(meter.wall)
            records = harness.sweep("users", grid=SWEEP_GRID, repetitions=SWEEP_REPETITIONS,
                                    seed=sweep_seed, optimizer_config=CAMPAIGN_CONFIG,
                                    configurations=SWEEP_CONFIGS, workers=workers)
            meter.lap()
            for rec in records:
                out.attempted += 1
                _check_record(out, rec,
                              f"sweep {i} K={rec.grid_value:g} config {rec.configuration}")
                out.items += rec.iterations
                if rec.configuration == 3 and rec.failure is None:
                    out.gamma_db.append(rec.gamma_total_db)
            _end_task(out, meter, mark)
            if len(records) != expected:
                out.problems.append(f"sweep {i}: {len(records)} records, expected {expected}")
    out.calibration_s, out.calibration_nominal_s = meter.calibrations, meter.nominal
    return out


# --- montecarlo --------------------------------------------------------------

def run_montecarlo(inputs, tracer=None) -> Outcome:
    out, meter = Outcome(), Meter("large")
    for i, mc_seed in enumerate(inputs):
        if tracer is not None:
            tracer.run_id = i
        mark = len(meter.wall)
        for kind, (target, tol) in MC_BOUNDS.items():
            out.attempted += 1
            try:
                fraction = harness.monte_carlo_half_energy(kind, MC_SAMPLES, mc_seed)
            except PolarlinkError as exc:
                out.failed += 1
                out.problems.append(f"pair {i} {kind} raised {type(exc).__name__}: {exc}")
                continue
            finally:
                meter.lap()
            out.rows.append(f"{kind} {mc_seed} {fraction!r}")
            if not abs(fraction - target) <= tol:
                out.problems.append(
                    f"pair {i} {kind}: fraction {fraction:.4f} outside {target} +/- {tol}")
            out.items += MC_SAMPLES
        _end_task(out, meter, mark)
    out.calibration_s, out.calibration_nominal_s = meter.calibrations, meter.nominal
    return out


def reference_peak_snr_db(total_power: float = 0.5) -> List[float]:
    """SNR in dB of the reference link at the best orientation on each grid.

    This is the peak the half-energy threshold is taken against, at the
    standard scenario's 0.5 W budget.
    """
    noise = MediumParams().noise_power
    return [10.0 * math.log10(total_power * harness.reference_link_peak(kind) ** 2 / noise)
            for kind in MC_BOUNDS]


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable
    run: Callable
    task: str              # what one task is, for the printed report
    item: str              # what items_per_s counts
    gamma: str             # what gamma_db_mean averages
    nominal_task_s: float  # one task on a 2-core Xeon, sets the task count
    trace_passes: float    # work of a traced run, in untraced passes
    uses_optimizer: bool


WORKLOADS = {
    "campaign_k8": Workload(
        "campaign_k8", campaign_inputs, run_campaign,
        task="drop (configurations 1, 2, 3, 5 and two quantized records)",
        item="optimizer outer iterations (all configurations)",
        gamma="configuration 5, mean over drops",
        nominal_task_s=2.6, trace_passes=2.3, uses_optimizer=True),
    "sweep_small_k": Workload(
        "sweep_small_k", seed_list, run_sweep,
        task=f"sweep() call ({len(SWEEP_GRID) * SWEEP_REPETITIONS} cells, "
             f"{SWEEP_WORKERS} workers)",
        item="optimizer outer iterations (all cells and configurations)",
        gamma="configuration 3, mean over cells",
        nominal_task_s=2.2, trace_passes=5.2, uses_optimizer=True),
    "montecarlo": Workload(
        "montecarlo", seed_list, run_montecarlo,
        task="pair of Monte Carlo calls (tx_random, rx_random)",
        item="Monte Carlo samples",
        gamma="reference-link peak SNR, mean of the two grids",
        nominal_task_s=1.5, trace_passes=2.0, uses_optimizer=False),
}


def task_count(workload: Workload, seconds: float, traced: bool) -> int:
    """Fixed number of tasks for a run of about `seconds`.

    The count depends only on the arguments, never on measured speed, so a
    run's work (and its outputs) repeat exactly for a given seed.
    """
    passes = workload.trace_passes if traced else 1.0
    return max(1, round(seconds / (passes * workload.nominal_task_s)))


def first_difference(a: List[str], b: List[str]) -> Optional[str]:
    if len(a) != len(b):
        return f"{len(a)} rows against {len(b)}"
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return f"row {i}: {x[:120]} != {y[:120]}"
    return None
