"""polarlink benchmark: one workload per invocation.

    python3 perfbench/run.py --workload campaign_k8 --seed 1 --seconds 30 --trace 0

Run from the repository root; polarlink is imported from `src/`. With
`--trace 0` the run installs no wrapper and reports the end-to-end metrics.
With `--trace 1` it runs the same work untraced and then traced, and reports
per-layer metrics from the traced pass plus the tracing overhead. Either way
the outputs are checked, and the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 when every
check passed, 1 when one failed and 2 when polarlink cannot be imported.
See perfbench/METRICS.md for what each metric means.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pinned before numpy loads, here and in every child process: the numbers
# should measure polarlink, not how BLAS threads share a loaded 2-core host.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 6                       # fresh interpreters before and again after the run
ROOT = Path(__file__).resolve().parent.parent


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    libs = {line.split()[-1] for line in _read("/proc/self/maps").splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def environment(seed: int, loadavg: str) -> dict:
    import numpy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = [line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
           if line.startswith("model name")]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu[0] if cpu else platform.processor(),
        "loadavg_start": loadavg,
        "seed": seed,
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def setup_probe(args) -> tuple:
    """Import plus input generation timed in a fresh interpreter, with the
    calibration kernel's time measured right after it.

    Import time is all start-up cost, so a sample needs its own interpreter.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    setup, calibration = done.stdout.strip().splitlines()[-1].split()
    return float(setup), float(calibration)


def calibrated(workloads, setup: float) -> tuple:
    """`setup` with the "small" calibration kernel's time right after it."""
    workloads.calibrate("small")           # the first call pays numpy's warm-up
    return setup, workloads.calibrate("small")


def _emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)


def end_to_end(args, wl, workloads, import_s: float) -> tuple:
    n = workloads.task_count(wl, args.seconds, traced=False)
    t0 = time.perf_counter()
    inputs = wl.make_inputs(args.seed, n)
    setup = [calibrated(workloads, import_s + time.perf_counter() - t0)]
    setup += [setup_probe(args) for _ in range(SETUP_PROBES)]
    out = wl.run(inputs)
    # The host's speed comes in phases of seconds; probing again after the
    # run spreads the samples over more than one.
    setup += [setup_probe(args) for _ in range(SETUP_PROBES)]

    nominal = workloads.CALIBRATION_NOMINAL_S["small"]
    gamma = workloads.reference_peak_snr_db() if wl.name == "montecarlo" else out.gamma_db
    metrics = {
        "setup_s": (statistics.median(s * nominal / c for s, c in setup), "s"),
        "items_per_s": (out.items / out.norm_s, "1/s"),
        "gamma_db_mean": (statistics.fmean(gamma), "dB"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} set-ups (import + inputs), each at the reference "
                   f"host speed; unscaled median {statistics.median(s for s, _ in setup):.4f} s",
        "items_per_s": f"{wl.item} per second at the reference host speed; "
                       f"{len(out.calibration_s)} calibrations, median "
                       f"{statistics.median(out.calibration_s):.5f} s against "
                       f"{out.calibration_nominal_s} s nominal",
        "gamma_db_mean": wl.gamma,
        "peak_rss_mb": "max of this process and its children",
    }
    # Per-task figures follow which inputs the seed drew as much as the
    # code, so they are printed for reading but kept out of the gated set.
    tasks = len(out.task_s)
    report = [("wall_s", out.wall_s, "s", f"{tasks} tasks, closed loop; not gated"),
              ("items_per_wall_s", out.items / out.wall_s, "1/s",
               f"{out.items} {wl.item} over wall_s; not gated"),
              ("tasks_per_s", tasks / out.wall_s, "1/s", f"one task = {wl.task}; not gated"),
              ("task_s_p50", statistics.median(out.task_s), "s", f"{tasks} samples; not gated")]
    if tasks >= 100:
        report.append(("task_s_p90", statistics.quantiles(out.task_s, n=10)[-1], "s",
                       f"{tasks} samples; not gated"))
    for name, (value, unit) in metrics.items():
        report.append((name, value, unit, notes[name]))
    for name, value, unit, note in report:
        print(f"{name:<14} {value:>14.6f} {unit:<4} {note}")
    if tasks < 100:
        print(f"task_s_p90     not reported: {tasks} samples, needs 100 for 10 beyond p90")
    return metrics, out.attempted, out.failed, out.problems


def per_layer(args, wl, workloads) -> tuple:
    import layers
    from spans import Tracer

    n = workloads.task_count(wl, args.seconds, traced=True)
    inputs = wl.make_inputs(args.seed, n)
    base = wl.run(inputs)
    reference, passes = base, [base]
    sweep_kw = {}
    busy_share = 0.0
    if wl.name == "sweep_small_k":
        # Pool workers record no spans, so the traced pass runs serially and
        # must reproduce the pool's records exactly.
        sweep_kw = {"workers": 1}
        reference = wl.run(inputs, workers=1)
        passes.append(reference)
        busy_share = reference.norm_s / (workloads.SWEEP_WORKERS * base.norm_s)

    tracer = Tracer()
    with tracer.patched(layers.bindings(tracer)):
        traced = wl.run(wl.make_inputs(args.seed, n), tracer, **sweep_kw)
    passes.append(traced)

    problems = [p for out in passes for p in out.problems]
    diff = workloads.first_difference(traced.rows, base.rows)
    if diff:
        problems.append(f"traced records differ from untraced ones: {diff}")
    metrics = layers.layer_metrics(tracer)
    problems += [f"tracer self-check: {p}"
                 for p in layers.self_check(metrics, wl.uses_optimizer)]
    metrics["harness.sweep.pool_busy_share"] = (busy_share, "ratio")
    # Both at the reference host speed, so the host's swings mostly cancel.
    metrics["trace.overhead_s"] = (traced.norm_s - reference.norm_s, "s")
    source = "serial traced run (workers=1)" if sweep_kw else "traced run"
    print(f"per-layer numbers from the {source}: {n} tasks, traced wall "
          f"{traced.wall_s:.3f} s, untraced {reference.wall_s:.3f} s")
    print(f"{'layer':<40} {'calls':>9} {'self_s':>10} {'self%':>6} {'us/call':>11}")
    for layer in layers.LAYERS:
        calls = metrics[layer + ".calls"][0]
        if calls:
            own = metrics[layer + ".self_s"][0]
            print(f"{layer:<40} {calls:>9} {own:>10.4f} {100 * own / traced.wall_s:>6.1f} "
                  f"{metrics[layer + '.us_per_call'][0]:>11.2f}")
    for name, (value, unit) in metrics.items():
        if name.split(".")[-1] not in ("calls", "self_s", "us_per_call"):
            print(f"{name:<52} {value:.6g} {unit}")
    attempted = sum(out.attempted for out in passes)
    failed = sum(out.failed for out in passes)
    return metrics, attempted, failed, problems


def main(argv=None) -> int:
    loadavg = _read("/proc/loadavg").strip()
    parser = argparse.ArgumentParser(description="polarlink benchmark, one workload")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"

    src = ROOT / "src"
    if not (src / "polarlink" / "__init__.py").is_file():
        print(f"perfbench: polarlink sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import polarlink: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]

    if args.setup_probe:
        t0 = time.perf_counter()
        wl.make_inputs(args.seed, workloads.task_count(wl, args.seconds, traced=False))
        print(*calibrated(workloads, import_s + time.perf_counter() - t0))
        return 0

    print(f"perfbench workload={wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(environment(args.seed, loadavg)))
    if args.trace:
        metrics, attempted, failed, problems = per_layer(args, wl, workloads)
    else:
        metrics, attempted, failed, problems = end_to_end(args, wl, workloads, import_s)
    for problem in problems:
        print(f"CHECK FAILED {problem}")
    print(f"checks: {'all passed' if not problems else f'{len(problems)} failed'}; "
          f"ops attempted {attempted}, failed {failed}")
    _emit(not problems, attempted, failed, metrics)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
