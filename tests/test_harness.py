import dataclasses
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from polarlink import (MediumParams, OptimizerConfig, Scenario,
                       make_scenario, monte_carlo_half_energy,
                       run_configuration, sweep)
from polarlink import harness, optimizer
from polarlink.channel import gain_matrix
from polarlink.errors import ConfigurationError, NumericalError, UnsupportedConfigurationError
from polarlink.geometry import angles_to_unit
from polarlink.harness import (generate_users, quantized_record,
                               random_initial_layout, random_tx_positions,
                               reference_link_peak, _mix, _rng)
from polarlink.optimizer import check_feasible, optimize

FAST = OptimizerConfig(max_outer_iterations=8, convergence_tol=1e-3)


def test_make_scenario_defaults():
    sc = make_scenario(4, seed=0)
    assert sc.user_count == 4
    assert sc.antenna_count == 8
    assert sc.total_power == 0.5
    half = 100.0 * sc.medium.wavelength
    assert np.allclose(sc.constraints.box_max, half)
    assert sc.constraints.min_separation == pytest.approx(sc.medium.wavelength / 2.0)


def test_scenario_rejects_overloaded_system():
    sc = make_scenario(2, seed=0)
    with pytest.raises(UnsupportedConfigurationError):
        Scenario(medium=sc.medium, constraints=sc.constraints,
                 user_poses=sc.user_poses, antenna_count=1,
                 total_power=0.5, seed=0)
    with pytest.raises(ConfigurationError):
        Scenario(medium=sc.medium, constraints=sc.constraints,
                 user_poses=sc.user_poses, antenna_count=8,
                 total_power=0.0, seed=0)


def test_scenario_fingerprint_stability():
    a = make_scenario(3, seed=7)
    b = make_scenario(3, seed=7)
    c = make_scenario(3, seed=8)
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()
    assert len(a.fingerprint()) == 16


def test_generate_users_minimum_distance_and_determinism():
    users = generate_users(50, 100.0, _rng(123))
    for u in users:
        assert np.linalg.norm(u.position) >= 1.0
        assert np.abs(u.position).max() <= 100.0
        assert np.linalg.norm(u.orientation) == pytest.approx(1.0, abs=1e-12)
    again = generate_users(50, 100.0, _rng(123))
    assert all(np.array_equal(u.position, v.position) for u, v in zip(users, again))


def test_random_tx_positions_respect_separation():
    sc = make_scenario(2, seed=0)
    pos = random_tx_positions(8, sc.constraints, _rng(0))
    assert pos.shape == (8, 3)
    assert check_feasible(pos, sc.constraints)


def test_random_tx_positions_infeasible_raises():
    sc = make_scenario(2, seed=0)
    tight = dataclasses.replace(sc.constraints, min_separation=10.0)
    with pytest.raises(ConfigurationError):
        random_tx_positions(8, tight, _rng(0))


def test_random_initial_layout_is_feasible():
    sc = make_scenario(4, seed=5)
    layout = random_initial_layout(sc, _rng(sc.seed, 2))
    assert layout.tx_angles.shape == (8, 2)
    assert layout.rx_angles.shape == (4, 2)
    assert check_feasible(layout.tx_positions, sc.constraints)


def test_run_configuration_deterministic_repeat():
    sc = make_scenario(3, seed=11)
    a = run_configuration(sc, 3, FAST)
    b = run_configuration(sc, 3, FAST)
    assert a == b
    assert a.failure is None
    assert a.gamma_total > 0
    assert a.configuration == 3


def test_run_configuration_rejects_bad_id():
    sc = make_scenario(2, seed=0)
    with pytest.raises(ConfigurationError):
        run_configuration(sc, 6, FAST)


def test_configuration_ordering_with_shared_start():
    # Nested feasible sets under identical initialization: 5 >= 3 >= 1.
    sc = make_scenario(4, seed=21)
    layout = random_initial_layout(sc, _rng(sc.seed, 2))
    g = {cid: run_configuration(sc, cid, FAST, layout).gamma_total
         for cid in (1, 3, 5)}
    assert g[5] >= g[3] >= g[1]


def test_configuration_two_matches_one():
    # Positions are never moved, so translation alone optimizes nothing.
    sc = make_scenario(4, seed=33)
    layout = random_initial_layout(sc, _rng(sc.seed, 2))
    r1 = run_configuration(sc, 1, FAST, layout)
    r2 = run_configuration(sc, 2, FAST, layout)
    assert r2.gamma_total == r1.gamma_total
    assert r2.trace_db == r1.trace_db
    assert r2.iterations == r1.iterations == 1


def test_run_records_failure_instead_of_raising():
    sc = make_scenario(2, seed=0)
    layout = random_initial_layout(sc, _rng(sc.seed, 2))
    layout.tx_positions[1] = layout.tx_positions[0]  # infeasible start
    rec = run_configuration(sc, 5, FAST, layout)
    assert rec.failure is not None
    assert math.isnan(rec.gamma_total)


def test_run_raises_programming_errors(monkeypatch):
    # Only package errors become failure rows; a bug must surface, also from
    # a line-search trial, where only a singular channel is a rejected step.
    def broken(*args, **kwargs):
        raise TypeError("injected")

    sc = make_scenario(2, seed=0)
    real_evaluate = optimizer._evaluate
    calls = []

    def broken_trial(*args):
        calls.append(args)
        if len(calls) % 2 == 0:         # odd calls score each run's start
            raise TypeError("injected")
        return real_evaluate(*args)

    monkeypatch.setattr(optimizer, "_evaluate", broken_trial)
    with pytest.raises(TypeError, match="injected"):
        optimize(random_initial_layout(sc, _rng(sc.seed, 2)), sc.user_poses, sc.medium,
                 sc.total_power, sc.constraints, FAST)
    with pytest.raises(TypeError, match="injected"):
        run_configuration(sc, 5, FAST)
    assert len(calls) == 4

    monkeypatch.setattr(harness, "optimize", broken)
    with pytest.raises(TypeError, match="injected"):
        run_configuration(sc, 5, FAST)


def test_users_sweep_shape_and_grid_values():
    records = sweep("users", [1, 2], repetitions=2, seed=3,
                    optimizer_config=FAST, configurations=(1, 3))
    assert len(records) == 2 * 2 * 2
    assert sorted({r.grid_value for r in records}) == [1.0, 2.0]
    assert {r.configuration for r in records} == {1, 3}
    assert all(r.failure is None for r in records)


def test_sweep_deterministic_and_worker_invariant():
    kwargs = dict(grid=[2], repetitions=2, seed=9, optimizer_config=FAST,
                  configurations=(1, 5))
    serial = sweep("users", **kwargs)
    again = sweep("users", **kwargs)
    parallel = sweep("users", workers=2, **kwargs)
    assert serial == again
    assert serial == parallel


def test_power_sweep_uses_grid_for_budget():
    records = sweep("power", [0.25, 0.5], repetitions=1, seed=4,
                    optimizer_config=FAST, user_count=2, configurations=(1,))
    assert [r.total_power for r in records] == [0.25, 0.5]
    assert [r.grid_value for r in records] == [0.25, 0.5]


def test_granularity_sweep_one_optimization_per_repetition():
    records = sweep("granularity", [10.0, 80.0], repetitions=1, seed=6,
                    optimizer_config=FAST, user_count=2)
    assert len(records) == 2
    fine, coarse = records
    assert fine.grid_value == 10.0 and coarse.grid_value == 80.0
    # Both rows come from the same optimization run, whose trace ends at the
    # unquantized objective.
    assert fine.trace_db == coarse.trace_db
    assert fine.gamma_total_db <= fine.trace_db[-1] + 1e-9
    assert coarse.gamma_total_db <= fine.gamma_total_db + 1e-9


def test_sweep_input_validation():
    with pytest.raises(ConfigurationError):
        sweep("bogus", [1], repetitions=1, seed=0)
    with pytest.raises(ConfigurationError):
        sweep("users", [], repetitions=1, seed=0)


def test_quantized_record_zero_resolution_matches_full():
    sc = make_scenario(2, seed=14)
    layout = random_initial_layout(sc, _rng(sc.seed, 2))
    layout.optimize_rx_orientation = True
    result = optimize(layout, sc.user_poses, sc.medium, sc.total_power,
                      sc.constraints, FAST)
    rec = quantized_record(sc, result, 0.0)
    assert rec.gamma_total == pytest.approx(
        result.beamforming.metrics.total_sinr, rel=1e-12)


def test_mix_is_deterministic_and_spread():
    assert _mix(1, 2, 3) == _mix(1, 2, 3)
    values = {_mix(s, g, r) for s in range(3) for g in range(3) for r in range(3)}
    assert len(values) == 27


def test_reference_link_peaks():
    medium = MediumParams()
    # The orientation sweep includes the vertical baseline, so each peak is
    # at least the fixed vertical-vertical gain.
    tx_peak = reference_link_peak("tx_random", medium, grid_step_deg=1.0)
    rx_peak = reference_link_peak("rx_random", medium, grid_step_deg=1.0)
    assert tx_peak >= 0.4872
    assert rx_peak >= 0.4872


def test_reference_link_peak_builds_its_grid_once(monkeypatch):
    builds = []

    def counted(*args):
        builds.append(1)
        return gain_matrix(*args)

    monkeypatch.setattr(harness, "gain_matrix", counted)
    medium = MediumParams(wavelength=0.02)         # a key no other test asks for
    first = reference_link_peak("tx_random", medium, grid_step_deg=6.0)
    assert len(builds) == 1
    assert reference_link_peak("tx_random", medium, grid_step_deg=6.0) == first
    assert len(builds) == 1
    assert first == harness._grid_peak.__wrapped__("tx_random", medium, 6.0)


def test_reference_link_peak_depends_on_the_medium():
    default = reference_link_peak("tx_random", MediumParams(), grid_step_deg=2.0)
    other = reference_link_peak("tx_random", MediumParams(relative_permittivity=3.0),
                                 grid_step_deg=2.0)
    assert other != default


def test_monte_carlo_rx_fraction_matches_tiled_receivers():
    # rx_random broadcasts one receiver position against every sampled axis;
    # the same draws with the position repeated per sample count the same hits.
    samples, seed = 20_000, 4
    rng = _rng(seed, 1)
    polar = rng.uniform(0.0, np.pi, samples)
    azimuthal = rng.uniform(0.0, 2.0 * np.pi, samples)
    axes = angles_to_unit(polar, azimuthal)
    gains = gain_matrix(harness._REFERENCE_TX[None, :], harness._VERTICAL[None, :],
                        np.tile(harness._REFERENCE_RX, (samples, 1)), axes,
                        MediumParams())[:, 0]
    threshold = 0.5 * reference_link_peak("rx_random") ** 2
    expected = int(np.sum(np.abs(gains) ** 2 >= threshold)) / samples
    assert monte_carlo_half_energy("rx_random", samples, seed) == expected


def _whole_array_magnitudes(kind, polar, azimuthal):
    """|h| of every orientation from one gain_matrix call."""
    axes = angles_to_unit(polar, azimuthal).reshape(-1, 3)
    tx, rx = harness._REFERENCE_TX[None, :], harness._REFERENCE_RX[None, :]
    fixed = harness._VERTICAL[None, :]
    if kind == "tx_random":
        gains = gain_matrix(tx, axes, rx, fixed, MediumParams())[0]
    else:
        gains = gain_matrix(tx, fixed, rx, axes, MediumParams())[:, 0]
    return np.abs(gains).reshape(np.shape(polar))


@pytest.mark.parametrize("kind", ["tx_random", "rx_random"])
def test_blocked_magnitudes_equal_one_whole_array_call(monkeypatch, kind):
    # The gain map and the Monte Carlo go through the kernel in blocks of at
    # most _KERNEL_BLOCK orientations; the map's values must be those of one
    # gain_matrix call over its whole grid, bit for bit (the Monte Carlo's,
    # test_streamed_draws_equal_whole_batch_draws).
    block = harness._KERNEL_BLOCK
    reference_link_peak(kind)                        # warm the peak's grid first
    sizes = []

    def counted(tx_p, tx_n, rx_p, rx_n, medium):
        sizes.append(max(len(tx_n), len(rx_n)))
        return gain_matrix(tx_p, tx_n, rx_p, rx_n, medium)

    monkeypatch.setattr(harness, "gain_matrix", counted)
    polar, azimuthal, mags = harness.reference_link_map(kind)
    assert polar.tobytes() == np.deg2rad(np.arange(0.0, 180.5, 1.0)).tobytes()
    assert azimuthal.tobytes() == np.deg2rad(np.arange(0.0, 360.0, 1.0)).tobytes()
    want = _whole_array_magnitudes(kind, *np.meshgrid(polar, azimuthal, indexing="ij"))
    assert mags.shape == want.shape == (181, 360)
    assert mags.tobytes() == want.tobytes()
    assert len(sizes) > 1 and sum(sizes) == mags.size and max(sizes) <= block

    sizes.clear()
    monte_carlo_half_energy(kind, 2 * block + 17, seed=8)
    assert sorted(sizes) == [17, block, block]


def _with_workers(monkeypatch, workers):
    """Size the block thread pool as if the process could use `workers` CPUs."""
    monkeypatch.setattr(harness, "_usable_cpu_count", lambda: workers)


@pytest.mark.parametrize("kind", ["tx_random", "rx_random"])
def test_pool_size_does_not_change_any_value(monkeypatch, kind):
    # More threads than most hosts' cores, switching as often as possible,
    # must give the one-thread values bit for bit.
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 4):
            _with_workers(monkeypatch, workers)
            results.append((
                harness.reference_link_map(kind)[2].tobytes(),
                harness._grid_peak.__wrapped__(kind, MediumParams(), 0.5).hex(),
                monte_carlo_half_energy(kind, 5 * harness._KERNEL_BLOCK + 3, seed=6)))
    finally:
        sys.setswitchinterval(interval)
    assert results[0] == results[1]


@pytest.mark.parametrize("kind", ["tx_random", "rx_random"])
def test_streamed_draws_equal_whole_batch_draws(monkeypatch, kind):
    # Each block draws its own angles from an advanced copy of the generator;
    # the values must be those of all polar angles of a batch, then all its
    # azimuths, batch after batch.
    batch = 2 * harness._KERNEL_BLOCK + 5
    samples, seed = 2 * batch + 1001, 3
    monkeypatch.setattr(harness, "_MONTE_CARLO_BATCH", batch)
    _with_workers(monkeypatch, 4)
    threshold = 0.5 * reference_link_peak(kind) ** 2
    rng = _rng(seed, 1)
    hits = 0
    for first in range(0, samples, batch):
        n = min(batch, samples - first)
        polar = rng.uniform(0.0, np.pi, n)
        azimuthal = rng.uniform(0.0, 2.0 * np.pi, n)
        hits += int(np.sum(_whole_array_magnitudes(kind, polar, azimuthal) ** 2 >= threshold))
    assert monte_carlo_half_energy(kind, samples, seed) == hits / samples


def _traced_peak(kind, samples):
    tracemalloc.start()
    try:
        monte_carlo_half_energy(kind, samples, 1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["tx_random", "rx_random"])
def test_monte_carlo_memory_does_not_scale_with_the_kernel_terms(monkeypatch, kind):
    # Every block draws, evaluates and counts its own samples through
    # block-sized kernel temporaries, so nothing is full-sized (a million
    # doubles are 8 MB). With one thread the peak is one block's, whatever
    # the sample count; with more, at most a few MB per thread (how many
    # threads hold their peak at once is up to the scheduler).
    _with_workers(monkeypatch, 1)
    monte_carlo_half_energy(kind, 1000, 1)           # build the grid first
    assert _traced_peak(kind, 2_000_000) <= _traced_peak(kind, 200_000) + 500_000
    workers = 4
    _with_workers(monkeypatch, workers)
    assert _traced_peak(kind, 2_000_000) <= workers * 3_000_000


def test_block_error_propagates_after_every_thread_ends(monkeypatch):
    error = NumericalError("non-finite gain")

    def failing(tx_p, tx_n, rx_p, rx_n, medium):
        if len(tx_n) == 17:                          # the last block of the batch
            raise error
        return gain_matrix(tx_p, tx_n, rx_p, rx_n, medium)

    reference_link_peak("tx_random")                 # warm the grid first
    _with_workers(monkeypatch, 4)
    monkeypatch.setattr(harness, "gain_matrix", failing)
    threads = threading.active_count()
    with pytest.raises(NumericalError) as raised:
        monte_carlo_half_energy("tx_random", 3 * harness._KERNEL_BLOCK + 17, seed=1)
    assert raised.value is error
    assert threading.active_count() == threads


def test_monte_carlo_small_sample_determinism():
    a = monte_carlo_half_energy("tx_random", 20_000, seed=1)
    b = monte_carlo_half_energy("tx_random", 20_000, seed=1)
    assert a == b and type(a) is float
    assert 0.5 < a < 0.85


def test_monte_carlo_rx_fraction_is_higher():
    tx = monte_carlo_half_energy("tx_random", 20_000, seed=2)
    rx = monte_carlo_half_energy("rx_random", 20_000, seed=2)
    assert rx > tx
    assert rx > 0.95


def test_monte_carlo_validation():
    with pytest.raises(ConfigurationError):
        monte_carlo_half_energy("tx_random", 0, seed=1)
    with pytest.raises(ConfigurationError):
        monte_carlo_half_energy("bogus", 10, seed=1)
