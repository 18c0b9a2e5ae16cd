"""The tracer reaches every polarlink binding of the wrapped layers.

    python3 -m pytest perfbench/test_layers.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import layers  # noqa: E402
from polarlink import harness, mimo, optimizer  # noqa: E402
from spans import Tracer  # noqa: E402

SHORT = optimizer.OptimizerConfig(max_outer_iterations=2, convergence_tol=1e-3)


def _traced(work):
    tracer = Tracer()
    originals = (optimizer.gain_matrix, harness.optimize, mimo.zf_precoder)
    with tracer.patched(layers.bindings(tracer)):
        assert harness.gain_matrix is optimizer.gain_matrix is not originals[0]
        work()
    assert (optimizer.gain_matrix, harness.optimize, mimo.zf_precoder) == originals
    return tracer


def test_every_named_binding_is_wrapped():
    covered = {f"{m.__name__.split('.')[-1]}.{name}" for m, name, _ in layers.bindings(Tracer())}
    assert covered >= {
        "optimizer.gain_matrix", "harness.gain_matrix",
        "optimizer.solve_beamforming", "harness.solve_beamforming",
        "harness.optimize", "harness.quantize_angles", "optimizer.angles_to_unit",
        "mimo.zf_precoder", "mimo.water_filling", "mimo.link_metrics",
        "optimizer.objective", "optimizer.finite_difference_gradient",
        "optimizer.separation_projection",
    }


def test_campaign_counts_agree():
    def work():
        scenario = harness.make_scenario(3, 11)
        layout = harness.random_initial_layout(scenario, np.random.default_rng([11, 2]))
        for cid in (1, 2, 5):
            harness.run_configuration(scenario, cid, SHORT, layout)
        result = optimizer.optimize(layout, scenario.user_poses, scenario.medium,
                                    scenario.total_power, scenario.constraints, SHORT)
        harness.quantized_record(scenario, result, 30.0)

    metrics = layers.layer_metrics(_traced(work))
    assert layers.self_check(metrics, uses_optimizer=True) == []
    assert metrics["optimizer.optimize.calls"][0] == 4
    assert metrics["harness.run_configuration.calls"][0] == 3
    assert metrics["optimizer.objective.calls"][0] > 100
    assert 0.5 < metrics["optimizer.objective.fd_share"][0] < 1.0
    assert metrics["optimizer.finite_difference_gradient.zero_share"][0] > 0.0


def test_montecarlo_never_reaches_mimo():
    metrics = layers.layer_metrics(_traced(lambda: harness.monte_carlo_half_energy(
        "tx_random", 1000, 3, grid_step_deg=5.0)))
    assert layers.self_check(metrics, uses_optimizer=False) == []
    assert metrics["channel.gain_matrix.calls"][0] == 2
    assert metrics["mimo.solve_beamforming.calls"][0] == 0


def test_self_check_catches_a_missed_binding():
    tracer = Tracer()
    missed = [b for b in layers.bindings(tracer)
              if not (b[0] is optimizer and b[1] == "gain_matrix")]
    scenario = harness.make_scenario(2, 5)
    layout = harness.random_initial_layout(scenario, np.random.default_rng([5, 2]))
    with tracer.patched(missed):
        harness.run_configuration(scenario, 3, SHORT, layout)
    problems = layers.self_check(layers.layer_metrics(tracer), uses_optimizer=True)
    assert any("gain_matrix" in p for p in problems)
