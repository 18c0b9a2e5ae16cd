"""Which polarlink functions the traced run wraps, and what it reports for them.

polarlink modules import each other's functions by name, so one function can
be reachable through several module globals (`gain_matrix` lives in channel,
optimizer and harness). Every such binding in every loaded polarlink module
gets the same wrapper; otherwise calls made through the missed binding would
go unrecorded.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Tuple

import numpy as np

from spans import Tracer

# "<module>.<function>": the function's home module in polarlink and its name.
LAYERS = (
    "channel.gain_matrix",
    "mimo.solve_beamforming",
    "mimo.zf_precoder",
    "mimo.water_filling",
    "mimo.link_metrics",
    "optimizer.objective",
    "optimizer.finite_difference_gradient",
    "optimizer.separation_projection",
    "optimizer.optimize",
    "optimizer.quantize_angles",
    "geometry.angles_to_unit",
    "harness.run_configuration",
    "harness.quantized_record",
    "harness.reference_link_peak",
    "harness.monte_carlo_half_energy",
    "harness.make_scenario",
    "harness.random_initial_layout",
    "harness.sweep",
)

def _count_gain_matrix(tracer: Tracer, args: tuple, result) -> None:
    tracer.counters["channel.gain_matrix.entries"] += result.size
    tracer.counters["channel.gain_matrix.bytes"] += result.nbytes + sum(
        np.asarray(a).nbytes for a in args[:4])


def _count_zero_gradient(tracer: Tracer, args: tuple, result) -> None:
    if not np.any(result):
        tracer.counters["optimizer.finite_difference_gradient.zero"] += 1


def _count_iterations(tracer: Tracer, args: tuple, result) -> None:
    tracer.counters["optimizer.optimize.iterations"] += result.trace.iterations


HOOKS = {
    "channel.gain_matrix": _count_gain_matrix,
    "optimizer.finite_difference_gradient": _count_zero_gradient,
    "optimizer.optimize": _count_iterations,
}


def _polarlink_modules() -> List[object]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "polarlink" or name.startswith("polarlink."))]


def bindings(tracer: Tracer) -> List[Tuple[object, str, object]]:
    """(module, attribute, wrapper) for every binding of every layer function."""
    out = []
    modules = _polarlink_modules()
    for layer in LAYERS:
        home, attr = layer.split(".")
        original = getattr(sys.modules["polarlink." + home], attr)
        wrapper = tracer.wrap(layer, original, HOOKS.get(layer))
        for module in modules:
            for name, value in vars(module).items():
                if value is original:
                    out.append((module, name, wrapper))
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric; a layer that was never called reports zeros."""
    summary = tracer.summary()
    c = tracer.counters
    out: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        row = summary.get(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        out[layer + ".calls"] = (row["calls"], "count")
        out[layer + ".self_s"] = (row["self_s"], "s")
        out[layer + ".us_per_call"] = (1e6 * _ratio(row["total_s"], row["calls"]), "us")
    gm_time = summary.get("channel.gain_matrix", {"total_s": 0.0})["total_s"]
    out["channel.gain_matrix.entries_per_s"] = (
        _ratio(c["channel.gain_matrix.entries"], gm_time), "1/s")
    out["channel.gain_matrix.bytes_computed"] = (c["channel.gain_matrix.bytes"], "B")
    out["mimo.zf_precoder.raised"] = (c["mimo.zf_precoder.raised"], "count")
    runs = out["optimizer.optimize.calls"][0]
    evals = out["optimizer.objective.calls"][0]
    out["optimizer.objective.calls_per_run"] = (_ratio(evals, runs), "count")
    out["optimizer.objective.fd_share"] = (_ratio(
        tracer.calls_under("optimizer.objective", "optimizer.finite_difference_gradient"),
        evals), "ratio")
    out["optimizer.finite_difference_gradient.zero_share"] = (_ratio(
        c["optimizer.finite_difference_gradient.zero"],
        out["optimizer.finite_difference_gradient.calls"][0]), "ratio")
    out["optimizer.optimize.iterations_per_run"] = (
        _ratio(c["optimizer.optimize.iterations"], runs), "count")
    return out


def self_check(metrics: Dict[str, Tuple[float, str]], uses_optimizer: bool) -> List[str]:
    """Count identities in layer_metrics() that hold only when every binding was wrapped.

    Returns a list of failed checks, empty when all hold.
    """
    def calls(layer: str) -> int:
        return metrics[layer + ".calls"][0]

    gm = calls("channel.gain_matrix")
    solve = calls("mimo.solve_beamforming")
    zf = calls("mimo.zf_precoder")
    raised = int(metrics["mimo.zf_precoder.raised"][0])
    if uses_optimizer:
        # Every objective evaluation, final evaluation in optimize() and
        # quantized re-evaluation builds one channel and solves it once;
        # each channel build makes two orientation arrays.
        expect = [
            ("gain_matrix.calls == solve_beamforming.calls", gm, solve),
            ("zf_precoder.calls == solve_beamforming.calls", zf, solve),
            ("water_filling.calls == zf_precoder.calls - raised",
             calls("mimo.water_filling"), zf - raised),
            ("link_metrics.calls == water_filling.calls",
             calls("mimo.link_metrics"), calls("mimo.water_filling")),
            ("objective + optimize + quantized_record calls == gain_matrix.calls",
             calls("optimizer.objective") + calls("optimizer.optimize")
             + calls("harness.quantized_record"), gm),
            ("angles_to_unit.calls == 2 * gain_matrix.calls",
             calls("geometry.angles_to_unit"), 2 * gm),
            ("gain_matrix.calls > 0", gm > 0, True),
        ]
    else:
        mimo_calls = sum(calls(l) for l in LAYERS if l.startswith("mimo."))
        optimizer_calls = sum(calls(l) for l in LAYERS if l.startswith("optimizer."))
        # One orientation grid or sample batch per channel build.
        expect = [
            ("mimo.*.calls == 0", mimo_calls, 0),
            ("optimizer.*.calls == 0", optimizer_calls, 0),
            ("angles_to_unit.calls == gain_matrix.calls",
             calls("geometry.angles_to_unit"), gm),
            ("reference_link_peak.calls == monte_carlo_half_energy.calls",
             calls("harness.reference_link_peak"),
             calls("harness.monte_carlo_half_energy")),
            ("gain_matrix.calls > 0", gm > 0, True),
        ]
    return [f"{name}: {got} != {want}" for name, got, want in expect if got != want]
