import concurrent.futures
import dataclasses
import functools
import math
import multiprocessing
import os
import pickle
import signal
import time
import tracemalloc
import warnings
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

import numpy as np
import pytest

from polarlink import (ChannelMatrix, MediumParams, OptimizerConfig, Scenario,
                       make_scenario, monte_carlo_half_energy,
                       run_configuration, sweep)
from polarlink import harness, mimo, optimizer
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


def test_scenario_fingerprint_is_hashed_once_and_travels_with_a_pickle():
    # The hash is cached on the frozen instance: it equals a fresh
    # computation and its value at earlier releases, and a pickled scenario,
    # as a sweep hands its cells to worker processes, carries it along.
    sc = make_scenario(2, 1)
    first = sc.fingerprint()
    assert first == type(sc)._fingerprint.func(sc) == "225ad4f66c76d57c"
    assert sc.fingerprint() is first
    restored = pickle.loads(pickle.dumps(sc))
    assert restored.__dict__["_fingerprint"] == first
    assert restored.fingerprint() == first
    assert dataclasses.replace(sc, seed=2).fingerprint() != first


def test_generate_users_minimum_distance_and_determinism():
    users = generate_users(50, 100.0, _rng(123))
    for u in users:
        assert np.linalg.norm(u.position) >= 1.0
        assert np.abs(u.position).max() <= 100.0
        assert np.linalg.norm(u.orientation) == pytest.approx(1.0, abs=1e-12)
    again = generate_users(50, 100.0, _rng(123))
    assert all(np.array_equal(u.position, v.position) for u, v in zip(users, again))


def test_make_scenario_overflowing_coverage_cube_raises():
    # The distances' squares overflow, or the range of the draws itself: an
    # infeasible scenario, with no numpy warning.
    for half_side in (1e300, 1e308, math.inf):
        with pytest.raises(UnsupportedConfigurationError, match="overflows a float"):
            make_scenario(2, 1, cube_half_side=half_side)


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


def test_exact_distance_phases_cost_over_1_db_at_the_default_box():
    """The plane-wave phase exp(j k u_k . p_l) does not hold over the default
    movement box: the aperture spans about 3.5 m, whose Fraunhofer distance
    2 D^2 / lambda (about 2.4 km) lies beyond every user. Over 20 seeded
    start layouts (K = 8, configuration 1) the exact-distance phases give a
    mean J more than 1 dB below the plane-wave one (28.14 against 29.54 dB)."""
    plane_db, exact_db = [], []
    for seed in range(20):
        sc = make_scenario(8, seed)
        layout = random_initial_layout(sc, _rng(seed, 2))
        users = np.array([u.position for u in sc.user_poses])
        gains = gain_matrix(layout.tx_positions, layout.tx_orientations(), users,
                            layout.rx_orientations(), sc.medium)
        distance = np.linalg.norm(users, axis=1)
        exact = np.linalg.norm(users[:, None, :] - layout.tx_positions[None, :, :], axis=2)
        excess = exact - distance[:, None] + (users / distance[:, None]) @ layout.tx_positions.T
        wavenumber = 2.0 * np.pi / sc.medium.wavelength
        for entries, out in ((gains, plane_db),
                             (gains * np.exp(-1j * wavenumber * excess), exact_db)):
            solution = mimo.solve_beamforming(ChannelMatrix(entries=entries), sc.total_power,
                                              sc.medium.noise_power)
            out.append(optimizer.to_db(solution.metrics.total_sinr))
    assert np.mean(exact_db) < np.mean(plane_db) - 1.0


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
    # A bool or a float equal to an id is no id: True in CONFIGURATION_BLOCKS holds.
    for config_id in (True, 1.0, 5.0):
        with pytest.raises(ConfigurationError, match="configuration id must be a positive"):
            run_configuration(sc, config_id, FAST)


def test_configuration_ordering_with_shared_start():
    # Nested feasible sets under identical initialization: 5 >= 3 >= 1.
    sc = make_scenario(4, seed=21)
    layout = random_initial_layout(sc, _rng(sc.seed, 2))
    g = {cid: run_configuration(sc, cid, FAST, layout).gamma_total
         for cid in (1, 3, 5)}
    assert g[5] >= g[3] >= g[1]


def test_run_configuration_moves_its_blocks_and_keeps_the_start(monkeypatch):
    sc = make_scenario(2, seed=5)
    layout = random_initial_layout(sc, _rng(sc.seed, 2))
    start = layout.copy()
    moved, real_optimize = [], harness.optimize

    def recording_optimize(*args):
        moved.append(args[-1])
        return real_optimize(*args)
    monkeypatch.setattr(harness, "optimize", recording_optimize)
    for cid in (1, 2, 3, 4, 5):
        assert run_configuration(sc, cid, FAST, layout).failure is None
    assert moved == [(), (), (optimizer.BLOCK_TX_ANGLES,), (optimizer.BLOCK_RX_ANGLES,),
                     optimizer.BLOCK_ORDER]
    for name in ("tx_angles", "tx_positions", "rx_angles"):
        assert np.array_equal(getattr(layout, name), getattr(start, name))


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
    assert rec.failure.startswith("InfeasibleLayoutError: ")
    # A failure row keeps the scenario's fields and holds no outcome.
    assert (rec.scenario_hash, rec.configuration, rec.users, rec.seed) == (
        sc.fingerprint(), 5, 2, sc.seed)
    assert (rec.sinr, rec.rates, rec.iterations, rec.trace_db) == ([], [], 0, [])
    assert all(map(math.isnan, (rec.gamma_total, rec.gamma_total_db, rec.average_rate)))


def test_run_records_an_underflowing_objective_as_a_failure():
    # Users 1e150 m out leave every SINR below rounding beside 1, so the
    # objective is exactly 0: a NumericalError, and no gradient is taken of it.
    sc = make_scenario(8, 1, cube_half_side=1e150)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for config_id in (1, 5):
            rec = run_configuration(sc, config_id, FAST)
            assert rec.failure == "NumericalError: objective underflows to 0"
            assert (rec.sinr, rec.iterations, rec.trace_db) == ([], 0, [])


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


def test_linalg_errors_become_numerical_error_rows(monkeypatch):
    # A failed SVD is a package error: NumericalError, and so a failure row.
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    sc = make_scenario(2, seed=0)
    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    with pytest.raises(NumericalError, match="SVD did not converge"):
        mimo._zf_svd(np.eye(2))
    rec = run_configuration(sc, 5, FAST)
    assert rec.failure.startswith("NumericalError: ")
    assert math.isnan(rec.gamma_total)


def test_users_sweep_shape_and_grid_values():
    records = sweep("users", [1, 2], repetitions=2, seed=3,
                    optimizer_config=FAST, configurations=(1, 3))
    assert len(records) == 2 * 2 * 2
    assert sorted({r.grid_value for r in records}) == [1.0, 2.0]
    assert {r.configuration for r in records} == {1, 3}
    assert all(r.failure is None for r in records)


@pytest.mark.parametrize("kind, grid", [
    ("users", [2]),
    ("power", [0.25, 1.0]),
    ("granularity", [30, 80]),
], ids=["users", "power", "granularity"])
def test_sweep_deterministic_and_worker_invariant(kind, grid):
    kwargs = dict(grid=grid, repetitions=2, seed=9, optimizer_config=FAST,
                  configurations=(1, 5), user_count=2)
    serial = sweep(kind, **kwargs)
    again = sweep(kind, **kwargs)
    parallel = sweep(kind, workers=2, **kwargs)
    assert all(r.failure is None for r in serial)    # no nan, which == would not match
    assert serial == again
    assert serial == parallel


# Two cells, one configuration: the smallest sweep that uses two workers.
SMALL_SWEEP = dict(grid=[1, 2], repetitions=1, seed=3, optimizer_config=FAST,
                   configurations=(1,))


def test_sweep_pool_never_outnumbers_the_usable_cpus(monkeypatch):
    # A stand-in pool that starts no process records its size and runs each
    # cell inline: an 8-cell sweep on 3 usable CPUs gets a pool of 3, whatever
    # `workers` is, and the next pooled sweep reuses that pool. On one usable
    # CPU it gets none, and a changed count gets a pool of the new size.
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers, initializer):
            sizes.append(max_workers)

        def submit(self, task, *args):
            future = concurrent.futures.Future()
            future.set_result(task(*args))
            return future

        def shutdown(self, wait=True):
            pass

    kwargs = dict(SMALL_SWEEP, repetitions=4)
    monkeypatch.setattr(harness, "_POOL", None)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    _with_workers(monkeypatch, 1)
    inline = sweep("users", workers=10_000, **kwargs)
    assert sizes == [] and len(inline) == 8
    _with_workers(monkeypatch, 3)
    assert sweep("users", workers=10_000, **kwargs) == inline
    assert sizes == [3]
    assert sweep("users", workers=2, **kwargs) == inline
    assert sweep("users", **kwargs) == inline
    assert sizes == [3]
    _with_workers(monkeypatch, 2)
    assert sweep("users", workers=2, **kwargs) == inline
    assert sizes == [3, 2]


def test_consecutive_sweeps_share_one_pool(monkeypatch):
    _with_workers(monkeypatch, 2)              # a pool, also on a 1-CPU host
    kwargs = dict(grid=[1, 2], repetitions=1, seed=5, optimizer_config=FAST,
                  configurations=(1, 3))
    serial = sweep("users", **kwargs)
    assert sweep("users", workers=2, **kwargs) == serial
    pool, pids = harness._POOL[2], {p.pid for p in multiprocessing.active_children()}
    assert sweep("users", workers=2, **kwargs) == serial
    assert harness._POOL[2] is pool
    assert {p.pid for p in multiprocessing.active_children()} == pids
    assert len(pids) == harness._usable_cpu_count()


def test_sweeps_and_monte_carlo_calls_share_one_pool(monkeypatch):
    # A process that alternates small sweeps with Monte Carlo calls forks one
    # pool, of one worker per usable CPU, and reuses it at every switch; the
    # peak's grid (built afresh here) runs on it too. Every value is the
    # inline run's.
    def rounds():
        monkeypatch.setattr(harness, "_grid_peak",
                            functools.cache(harness._grid_peak.__wrapped__))
        return [(sweep("users", workers=4, **SMALL_SWEEP),
                 monte_carlo_half_energy("tx_random", 200_000, seed))
                for seed in (1, 2, 3)]

    _with_workers(monkeypatch, 1)
    inline = rounds()
    built = []

    class CountedPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    if harness._POOL is not None:
        harness._retire_process_pool()
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    _with_workers(monkeypatch, 4)
    assert rounds() == inline
    assert len(built) == 1
    assert harness._POOL[1] == 4


def _leave_a_file_or_raise(directory, index):
    """Raise at once for index 0; otherwise wait, then leave a file named index."""
    if index == 0:
        raise LookupError("cell 0")
    time.sleep(0.2)
    (directory / str(index)).write_text("")
    return index


def _exit_at_once(index):
    os._exit(1)


def test_pooled_error_propagates_after_every_task_of_the_call(tmp_path, monkeypatch):
    _with_workers(monkeypatch, 2)
    arguments = [(tmp_path, i) for i in range(4)]
    with pytest.raises(LookupError, match="cell 0"):
        harness._ordered_map(_leave_a_file_or_raise, arguments)
    assert sorted(f.name for f in tmp_path.iterdir()) == ["1", "2", "3"]
    pool = harness._POOL[2]
    arguments = [(tmp_path, 4), (tmp_path, 5)]
    assert harness._ordered_map(_leave_a_file_or_raise, arguments) == [4, 5]
    assert harness._POOL[2] is pool


def test_an_interrupted_call_leaves_no_task_queued(tmp_path, monkeypatch):
    # Ctrl-C in the wait cancels the call's tasks that have not started, so
    # the interpreter does not run them all on its way out.
    def interrupted(futures):
        raise KeyboardInterrupt

    _with_workers(monkeypatch, 2)
    arguments = [(tmp_path, i) for i in range(1, 9)]
    with monkeypatch.context() as patch:
        patch.setattr(concurrent.futures, "wait", interrupted)
        with pytest.raises(KeyboardInterrupt):
            harness._ordered_map(_leave_a_file_or_raise, arguments)
    time.sleep(1.0)                                  # all 8 would be done by now
    assert len(list(tmp_path.iterdir())) < len(arguments)
    assert harness._ordered_map(_leave_a_file_or_raise, arguments[:2]) == [1, 2]


def test_a_dead_worker_fails_its_call_and_the_next_sweep_gets_a_new_pool(monkeypatch):
    # On one usable CPU the task would run inline and end this process.
    _with_workers(monkeypatch, 2)
    with pytest.raises(BrokenProcessPool):
        harness._ordered_map(_exit_at_once, [(0,), (1,)])
    assert harness._POOL is None
    assert sweep("users", workers=2, **SMALL_SWEEP) == sweep("users", **SMALL_SWEEP)


def test_a_worker_that_died_idle_fails_no_sweep(monkeypatch):
    _with_workers(monkeypatch, 2)              # a pool, also on a 1-CPU host
    records = sweep("users", workers=2, **SMALL_SWEEP)
    pool = harness._POOL[2]
    os.kill(multiprocessing.active_children()[0].pid, signal.SIGKILL)
    deadline = time.monotonic() + 10
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)                 # the pool is broken once it has ended both
    assert multiprocessing.active_children() == []
    assert sweep("users", workers=2, **SMALL_SWEEP) == records
    assert harness._POOL[2] is not pool


def _fork_child(target):
    """Start target(conn) in a fork-context child: (the child, our end of its pipe)."""
    ctx = multiprocessing.get_context("fork")
    ours, theirs = ctx.Pipe(duplex=False)
    child = ctx.Process(target=target, args=(theirs,))
    with warnings.catch_warnings():
        # Python 3.12 warns on any fork() while threads (the pool's) are alive.
        warnings.filterwarnings("ignore", "This process .* is multi-threaded",
                                DeprecationWarning)
        child.start()
    theirs.close()
    return child, ours


def _send_sweep(conn):
    conn.send(sweep("users", workers=2, **SMALL_SWEEP))
    conn.close()


def test_a_forked_child_sweeps_on_a_pool_of_its_own():
    # The child inherits the parent's cached pool, whose workers are not its
    # children: it must fork its own and still exit when it returns.
    records = sweep("users", workers=2, **SMALL_SWEEP)
    assert harness._POOL is not None
    child, ours = _fork_child(_send_sweep)
    try:
        assert ours.poll(30)
        assert ours.recv() == records
        child.join(30)
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join()


def _sweep_then_wait(conn):
    sweep("users", workers=2, **SMALL_SWEEP)
    conn.send([p.pid for p in multiprocessing.active_children()])
    time.sleep(60)


def test_pool_workers_end_with_a_killed_parent(monkeypatch):
    # The child's workers inherit its end of the pipe, so ours reads EOF only
    # once the child and both its workers have ended. The child inherits the
    # patch: two usable CPUs, so a pool of two on any host.
    _with_workers(monkeypatch, 2)
    child, ours = _fork_child(_sweep_then_wait)
    assert ours.poll(30)
    workers = ours.recv()
    assert len(workers) == 2
    child.kill()
    child.join(30)
    ended = ours.poll(10)
    if not ended:                                    # leave no orphan behind
        for pid in workers:
            os.kill(pid, signal.SIGKILL)
    assert ended
    with pytest.raises(EOFError):
        ours.recv()


def test_power_sweep_uses_grid_for_budget():
    records = sweep("power", [0.25, 0.5], repetitions=1, seed=4,
                    optimizer_config=FAST, user_count=2, configurations=(1,))
    assert [r.power_w for r in records] == [0.25, 0.5]
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


def test_granularity_sweep_failing_optimization_gives_failure_rows():
    # An optimization that ends in a package error leaves one failure row per
    # resolution, the record run_configuration gives for that scenario.
    config = OptimizerConfig(max_outer_iterations=3, convergence_tol=1e-3)
    records = sweep("granularity", [30.0, 80.0], repetitions=2, seed=6,
                    optimizer_config=config, user_count=2, total_power=1e308)
    expected = []
    for rep in range(2):
        failed = run_configuration(make_scenario(2, _mix(6, 0, rep), total_power=1e308),
                                   5, config)
        assert failed.failure == "NumericalError: objective is not finite: inf"
        expected += [dataclasses.replace(failed, grid_value=res) for res in (30.0, 80.0)]
    assert records == expected


def test_sweep_forwards_the_scenario_settings(monkeypatch):
    settings = dict(medium=MediumParams(wavelength=0.02, relative_permittivity=3.0),
                    antenna_count=4, cube_half_side=20.0, region_half_side=0.5)
    config = OptimizerConfig(max_outer_iterations=2, convergence_tol=1e-3)
    for kind, grid in (("users", [1, 2]), ("power", [0.25, 1.0]),
                       ("granularity", [30.0, 80.0])):
        records = sweep(kind, grid, repetitions=2, seed=5, optimizer_config=config,
                        user_count=2, configurations=(1,), **settings)
        if kind == "granularity":     # one cell per repetition, a record per resolution
            cells = [(2, 0, rep, {}) for rep in range(2) for _ in grid]
        else:
            cells = [(int(value) if kind == "users" else 2, gi, rep,
                      {"total_power": value} if kind == "power" else {})
                     for gi, value in enumerate(grid) for rep in range(2)]
        assert [r.scenario_hash for r in records] == [
            make_scenario(users, _mix(5, gi, rep), **settings, **power).fingerprint()
            for users, gi, rep, power in cells]
        assert all(r.antennas == 4 and r.failure is None for r in records)
    # make_scenario refuses an unknown setting when the first cell is drawn.
    monkeypatch.setattr(harness, "_ordered_map", lambda *args, **kwargs: pytest.fail())
    with pytest.raises(TypeError, match="colour"):
        sweep("users", [1], repetitions=1, seed=0, colour="red")


def test_sweep_input_validation():
    with pytest.raises(ConfigurationError):
        sweep("bogus", [1], repetitions=1, seed=0)
    with pytest.raises(ConfigurationError):
        sweep("users", [], repetitions=1, seed=0)
    with pytest.raises(ConfigurationError, match="configurations must be nonempty"):
        sweep("users", [1], repetitions=1, seed=0, configurations=[])
    for configurations in ([True], [1.0], [1, 5.0]):
        with pytest.raises(ConfigurationError, match="configuration id must be a positive"):
            sweep("users", [1], repetitions=1, seed=0, configurations=configurations)
    # Repetitions are a positive integer and the seed a non-negative one.
    for repetitions in (0, 1.5, True):
        with pytest.raises(ConfigurationError, match="repetitions must be a positive integer"):
            sweep("users", [1], repetitions=repetitions, seed=1)
    for seed in (1.5, True):
        with pytest.raises(ConfigurationError, match="seed must be a non-negative integer"):
            sweep("users", [1], repetitions=1, seed=seed)
    # workers is a count: a positive integer.
    for workers in (0, -3, 2.5, True, 1.0):
        with pytest.raises(ConfigurationError, match="workers must be a positive integer"):
            sweep("users", [1], repetitions=1, seed=0, workers=workers)
    # A user count, as a users grid entry or as user_count, is a positive integer.
    for grid in ([1.5], [0], [True], [2, -1]):
        with pytest.raises(ConfigurationError, match="user count must be a positive integer"):
            sweep("users", grid, repetitions=1, seed=0)
    with pytest.raises(ConfigurationError, match="user count must be a positive integer"):
        sweep("power", [0.5], repetitions=1, seed=0, user_count=2.7)
    records = sweep("users", np.array([1]), repetitions=1, seed=0, optimizer_config=FAST,
                    configurations=(1,))
    assert [(r.users, r.grid_value) for r in records] == [(1, 1.0)]


@pytest.mark.parametrize("kind, grid, configurations", [
    ("users", [1], (5, 7)),
    ("granularity", [30, 200], None),
    ("granularity", [-10], None),
])
def test_sweep_rejects_what_can_only_fail_before_its_first_cell(monkeypatch, kind, grid,
                                                                configurations):
    # A configuration id or resolution that every cell would refuse is
    # refused up front, not after the cells' optimizations.
    def no_work(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(harness, "optimize", no_work)
    with pytest.raises(ConfigurationError):
        sweep(kind, grid, repetitions=1, seed=0, user_count=1, configurations=configurations)


@pytest.mark.parametrize("call", [
    lambda: make_scenario(2, -1),
    lambda: monte_carlo_half_energy("tx_random", 10, -1),
    lambda: sweep("users", [1], repetitions=1, seed=-1),   # not mixed into valid cell seeds
], ids=["make_scenario", "monte_carlo_half_energy", "sweep"])
def test_negative_seed_raises_configuration_error(monkeypatch, call):
    # The seed fails before any kernel work: with an empty peak cache the
    # Monte Carlo's grid would run the kernel first.
    def no_work(*args, **kwargs):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(harness, "gain_matrix", no_work)
    monkeypatch.setattr(harness, "_grid_peak", functools.cache(harness._grid_peak.__wrapped__))
    with pytest.raises(ConfigurationError, match="seed must be a non-negative integer"):
        call()


@pytest.mark.parametrize("settings, match", [
    (dict(seed=1.5), "seed must be a non-negative integer"),
    (dict(seed=True), "seed must be a non-negative integer"),
    (dict(user_count=2.0), "user count must be a positive integer"),
    (dict(antenna_count=2.5), "antenna count must be a positive integer"),
    (dict(antenna_count=True), "antenna count must be a positive integer"),
], ids=["float-seed", "bool-seed", "float-users", "float-antennas", "bool-antennas"])
def test_make_scenario_refuses_a_count_or_seed_that_is_not_an_integer(settings, match):
    # Counts and seeds follow the library's one integer rule (check_integer).
    # An antenna count of 2.5 once passed, and placing it then ran 10,000
    # placement attempts before failing as an infeasible scenario.
    with pytest.raises(ConfigurationError, match=match):
        make_scenario(**{"user_count": 2, "seed": 1, **settings})


def test_each_monte_carlo_block_builds_one_generator(monkeypatch):
    # One up-front seed check, then one generator per block: two full blocks
    # and a 17-sample one. On one usable CPU every block runs in this
    # process, where the patch reaches it.
    _with_workers(monkeypatch, 1)
    calls = []

    def counted(*key):
        calls.append(key)
        return _rng(*key)

    monkeypatch.setattr(harness, "_rng", counted)
    monte_carlo_half_energy("tx_random", 2 * harness._KERNEL_BLOCK + 17, 1, grid_step_deg=5.0)
    assert calls == [(1, 1)] * 4


def test_quantized_record_zero_resolution_matches_full():
    sc = make_scenario(2, seed=14)
    layout = random_initial_layout(sc, _rng(sc.seed, 2))
    result = optimize(layout, sc.user_poses, sc.medium, sc.total_power,
                      sc.constraints, FAST)
    rec = quantized_record(sc, result, 0.0)
    assert rec.gamma_total == pytest.approx(
        result.beamforming.metrics.total_sinr, rel=1e-12)


def test_quantized_record_builds_and_solves_one_channel(monkeypatch):
    # One gain_matrix and one solve_beamforming call, whose channel build
    # converts two orientation arrays: the counts behind the traced
    # benchmark's identities objective + optimize + quantized_record ==
    # gain_matrix and angles_to_unit == 2 x gain_matrix.
    sc = make_scenario(2, seed=14)
    result = optimize(random_initial_layout(sc, _rng(sc.seed, 2)), sc.user_poses,
                      sc.medium, sc.total_power, sc.constraints, FAST)
    counts = {}
    for module, name in [(optimizer, "gain_matrix"), (optimizer, "solve_beamforming"),
                         (optimizer, "angles_to_unit"), (harness, "gain_matrix"),
                         (harness, "angles_to_unit"), (harness, "solve_beamforming"),
                         (mimo, "solve_beamforming")]:
        def counted(*args, _name=name, _original=getattr(module, name)):
            counts[_name] = counts.get(_name, 0) + 1
            return _original(*args)
        monkeypatch.setattr(module, name, counted)
    quantized_record(sc, result, 30.0)
    assert counts == {"gain_matrix": 1, "solve_beamforming": 1, "angles_to_unit": 2}


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


def test_monte_carlo_fractions_and_peaks_are_pinned():
    # repr-exact fractions and peaks at a fixed 32,785 samples (a full
    # 24,576-sample block and one of 8,209): a kernel change that moves gains
    # by rounding only keeps them, and so does any block size.
    samples = 32_785
    assert {(kind, seed): repr(monte_carlo_half_energy(kind, samples, seed))
            for kind in ("tx_random", "rx_random") for seed in (1, 2)} == {
        ("tx_random", 1): "0.6753698337654415", ("tx_random", 2): "0.6729906969650755",
        ("rx_random", 1): "0.9894463931676072", ("rx_random", 2): "0.9906969650754919"}
    assert repr(reference_link_peak("tx_random")) == "0.6005390198945794"
    assert repr(reference_link_peak("rx_random")) == "0.4872398608950899"


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
    # test_streamed_draws_equal_whole_call_draws). On one usable CPU every
    # block runs in this process, where the patch reaches it.
    _with_workers(monkeypatch, 1)
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
    """Split block calls as if the process could use `workers` CPUs: one runs
    every block inline, more run the first run here and the rest on a pool of
    `workers` processes."""
    monkeypatch.setattr(harness, "_usable_cpu_count", lambda: workers)


@pytest.mark.parametrize("kind", ["tx_random", "rx_random"])
def test_pool_size_does_not_change_any_value(monkeypatch, kind):
    # Pools of 2 and 4 processes, more than most hosts' cores, must give the
    # inline values bit for bit. Each call of B blocks splits them into
    # min(workers, B) runs of consecutive blocks, in block order; the caller
    # runs the first and posts each other run to the pool as one task.
    results, calls, posted = [], [], []
    ordered_map = harness._ordered_map
    submit = ProcessPoolExecutor.submit

    def recorded(task, arguments, *, caller_first=False):
        calls.append([run for _, _, run in arguments])
        return ordered_map(task, arguments, caller_first=caller_first)

    def counted(pool, *args, **kwargs):
        posted.append(1)
        return submit(pool, *args, **kwargs)

    monkeypatch.setattr(harness, "_ordered_map", recorded)
    monkeypatch.setattr(ProcessPoolExecutor, "submit", counted)
    for workers in (1, 2, 4):
        _with_workers(monkeypatch, workers)
        calls.clear()
        posted.clear()
        results.append((
            harness.reference_link_map(kind)[2].tobytes(),
            harness._grid_peak.__wrapped__(kind, MediumParams(), 0.5).hex(),
            monte_carlo_half_energy(kind, 5 * harness._KERNEL_BLOCK + 3, seed=6)))
        for runs in calls:                       # the map, the peak, the Monte Carlo
            blocks = [bounds for run in runs for bounds in run]
            assert all(runs) and len(runs) == min(workers, len(blocks))
            assert [start for start, _ in blocks] == [0] + [stop for _, stop in blocks[:-1]]
        assert len(calls[2]) == min(workers, 6)
        assert len(posted) == sum(len(runs) - 1 for runs in calls)
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("kind", ["tx_random", "rx_random"])
def test_streamed_draws_equal_whole_call_draws(monkeypatch, kind):
    # Each block draws its own angles from one generator read at two offsets;
    # the fraction must be that of all polar angles of the call, then all its
    # azimuths, each drawn whole and evaluated in one kernel call.
    samples, seed = 3 * harness._KERNEL_BLOCK + 1001, 3
    _with_workers(monkeypatch, 4)
    threshold = 0.5 * reference_link_peak(kind) ** 2
    rng = _rng(seed, 1)
    polar = rng.uniform(0.0, np.pi, samples)
    azimuthal = rng.uniform(0.0, 2.0 * np.pi, samples)
    hits = int(np.sum(_whole_array_magnitudes(kind, polar, azimuthal) ** 2 >= threshold))
    assert monte_carlo_half_energy(kind, samples, seed) == hits / samples


def test_a_call_past_a_million_samples_draws_one_stream(monkeypatch):
    # Sample i's angles are the stream's draws i and samples + i at any
    # sample count: all polar angles of the call, then all its azimuths, for
    # any worker count. Each block's angles are captured on their way to the
    # kernel and put back in place by their first polar angle. The patch
    # reaches the blocks this process runs: all of them on one usable CPU,
    # the first run of 4 (10 of 41 blocks) on four, where the pool runs the
    # rest and the fraction must not change.
    samples, seed = 1_000_017, 2
    rng = _rng(seed, 1)
    want_polar = rng.uniform(0.0, np.pi, samples)
    want_azimuthal = rng.uniform(0.0, 2.0 * np.pi, samples)
    starts = {want_polar[start]: start for start in range(0, samples, harness._KERNEL_BLOCK)}
    reference_link_peak("tx_random")                 # warm the grid first
    fractions = []
    for workers, captured_samples in ((1, samples), (4, 10 * harness._KERNEL_BLOCK)):
        _with_workers(monkeypatch, workers)
        seen = []

        def captured(polar, azimuthal):
            seen.append((polar.copy(), azimuthal.copy()))
            return angles_to_unit(polar, azimuthal)

        monkeypatch.setattr(harness, "angles_to_unit", captured)
        fractions.append(monte_carlo_half_energy("tx_random", samples, seed))
        seen.sort(key=lambda angles: starts.get(angles[0][0], samples))
        polar = np.concatenate([p for p, _ in seen])
        assert polar.size == captured_samples
        assert polar.tobytes() == want_polar[:captured_samples].tobytes()
        assert (np.concatenate([a for _, a in seen]).tobytes()
                == want_azimuthal[:captured_samples].tobytes())
    assert fractions[0] == fractions[1]


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
    # doubles are 8 MB). Inline the peak is one block's, whatever the sample
    # count, and so is this process's with a pool of 4 running the other
    # runs (their memory is their own).
    _with_workers(monkeypatch, 1)
    monte_carlo_half_energy(kind, 1000, 1)           # build the grid first
    one_block = _traced_peak(kind, 200_000)
    assert _traced_peak(kind, 2_000_000) <= one_block + 500_000
    _with_workers(monkeypatch, 4)
    monte_carlo_half_energy(kind, 4 * harness._KERNEL_BLOCK, 1)   # fork the pool first
    assert _traced_peak(kind, 2_000_000) <= one_block + 500_000


def _block_or_raise(directory, failing, start, stop):
    """A _map_blocks task: raise at once for block `failing`; otherwise wait,
    then leave a file named start."""
    if start == failing:
        raise NumericalError(f"non-finite gain in block {start}")
    time.sleep(0.2)
    (directory / str(start)).write_text("")
    return start


def test_block_error_propagates_after_every_run_ends(monkeypatch, tmp_path):
    # Four one-block runs: this process runs block 0 and the pool blocks
    # 1-3. A package error raised in either reaches the caller with its type
    # and message (from the pool a pickled copy, so equal, not the same
    # object) once every run has ended, and the next call still works.
    _with_workers(monkeypatch, 4)
    for failing in (1, 0):
        files = tmp_path / str(failing)
        files.mkdir()
        with pytest.raises(NumericalError) as raised:
            harness._map_blocks(_block_or_raise, (files, failing), 4, block=1)
        assert type(raised.value) is NumericalError
        assert raised.value.args == (f"non-finite gain in block {failing}",)
        assert sorted(int(f.name) for f in files.iterdir()) == [
            b for b in range(4) if b != failing]
    pool, files = harness._POOL[2], tmp_path / "none"
    files.mkdir()
    assert harness._map_blocks(_block_or_raise, (files, -1), 4, block=1) == [0, 1, 2, 3]
    assert harness._POOL[2] is pool


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


@pytest.mark.parametrize("step", [0.0, -1.0, math.nan, math.inf, 180.5, 400.0])
def test_grid_step_outside_0_to_180_degrees_is_refused(monkeypatch, step):
    # Refused before any grid or draw: 0 and -1 would divide by zero, nan
    # fails np.arange, and a step past 180 makes a one-point "peak".
    monkeypatch.setattr(harness, "gain_matrix", None)      # any grid would fail
    with pytest.raises(ConfigurationError, match="grid step"):
        reference_link_peak("tx_random", grid_step_deg=step)
    with pytest.raises(ConfigurationError, match="grid step"):
        monte_carlo_half_energy("tx_random", 10, seed=1, grid_step_deg=step)


def test_monte_carlo_validation():
    # The sample count is a positive integer and the seed a non-negative one.
    for samples in (0, 2.5, True, math.nan, np.float64(10.0)):
        with pytest.raises(ConfigurationError, match="samples must be a positive integer"):
            monte_carlo_half_energy("tx_random", samples, seed=1)
    for seed in (1.5, True):
        with pytest.raises(ConfigurationError, match="seed must be a non-negative integer"):
            monte_carlo_half_energy("tx_random", 10, seed=seed)
    assert monte_carlo_half_energy("tx_random", np.int64(10), seed=np.uint8(1)) == \
        monte_carlo_half_energy("tx_random", 10, seed=1)
    with pytest.raises(ConfigurationError):
        monte_carlo_half_energy("bogus", 10, seed=1)
