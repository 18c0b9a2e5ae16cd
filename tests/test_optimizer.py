import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polarlink import (AntennaPose, Constraints, LayoutVariables, MediumParams,
                       OptimizerConfig, cartesian_to_spherical, harness, objective, optimize,
                       quantize_angles, separation_projection)
from polarlink import optimizer as optimizer_module
from polarlink.channel import ChannelMatrix, gain_matrix, link_terms
from polarlink.errors import (ConfigurationError, InfeasibleLayoutError,
                              ProjectionError, SingularChannelError)
from polarlink.geometry import angles_to_unit
from polarlink.mimo import solve_beamforming
from polarlink.optimizer import (BLOCK_ORDER, _exact_gradient, check_feasible,
                                 finite_difference_gradient, wrap_angles)

MEDIUM = MediumParams()
USER_A = AntennaPose(position=[75.0, -40.0, 50.0], orientation=[0.0, 0.0, 1.0])
USER_B = AntennaPose(position=[-30.0, 55.0, -20.0], orientation=[1.0, 0.0, 0.0])
USER_ZENITH = AntennaPose(position=[0.0, 0.0, 100.0], orientation=[0.0, 0.0, 1.0])
USER_LEVEL = AntennaPose(position=[60.0, 80.0, 0.0], orientation=[0.0, 0.0, 1.0])


def _constraints(half_side=1.0):
    return Constraints(box_min=-half_side * np.ones(3),
                       box_max=half_side * np.ones(3),
                       min_separation=MEDIUM.wavelength / 2.0)


def _layout(antennas=2, users=2, seed=0):
    rng = np.random.default_rng(seed)
    positions = np.zeros((antennas, 3))
    positions[:, 0] = np.arange(antennas) * 0.05
    return LayoutVariables(
        tx_angles=rng.uniform(0.2, 2.9, (antennas, 2)),
        tx_positions=positions,
        rx_angles=rng.uniform(0.2, 2.9, (users, 2)),
    )


@settings(max_examples=150, deadline=None)
@given(polar=st.floats(-12.0, 12.0), azimuthal=st.floats(-12.0, 12.0))
def test_wrap_angles_preserves_orientation(polar, azimuthal):
    wrapped = wrap_angles(np.array([[polar, azimuthal]]))[0]
    assert 0.0 <= wrapped[0] <= math.pi
    assert 0.0 <= wrapped[1] < 2.0 * math.pi
    before = angles_to_unit(polar, azimuthal)
    after = angles_to_unit(wrapped[0], wrapped[1])
    assert np.allclose(before, after, atol=1e-9)


def test_layout_copy_is_deep():
    layout = _layout()
    clone = layout.copy()
    clone.tx_angles[0, 0] += 1.0
    clone.tx_positions[0, 0] += 1.0
    assert layout.tx_angles[0, 0] != clone.tx_angles[0, 0]
    assert layout.tx_positions[0, 0] != clone.tx_positions[0, 0]


def test_objective_matches_staged_recomputation():
    layout = _layout(seed=42)
    value = objective(layout, [USER_A, USER_B], MEDIUM, 0.5)
    gains = gain_matrix(layout.tx_positions, layout.tx_orientations(),
                        np.array([USER_A.position, USER_B.position]),
                        layout.rx_orientations(), MEDIUM)
    staged = solve_beamforming(ChannelMatrix(entries=gains), 0.5,
                               MEDIUM.noise_power).metrics.total_sinr
    assert value == pytest.approx(staged, rel=1e-12)


# finite_difference_gradient is the reference the exact gradient is tested
# against; optimize does not call it.

def test_finite_difference_gradient_on_quadratic():
    layout = _layout()
    center = layout.tx_angles.ravel().copy()

    def quad(stack):
        x = stack.tx_angles.reshape(len(stack.tx_angles), -1) - center
        weights = np.arange(1.0, center.size + 1.0)
        return -np.sum(weights * x * x, axis=1) + 3.0 * x[:, 0]

    grad = finite_difference_gradient(layout, "tx_angles", quad, 1e-5)
    expected = np.zeros(center.size)
    expected[0] = 3.0
    assert np.allclose(grad, expected, atol=1e-6)


def test_finite_difference_gradient_constant_objective():
    layout = _layout()
    grad = finite_difference_gradient(
        layout, "rx_angles", lambda stack: np.full(len(stack.rx_angles), 1.23), 1e-5)
    assert np.all(grad == 0.0)


def test_finite_difference_gradient_unknown_block():
    with pytest.raises(ConfigurationError):
        finite_difference_gradient(_layout(), "nonsense",
                                   lambda stack: np.zeros(len(stack.tx_angles)), 1e-5)


def test_finite_difference_gradient_builds_one_channel(monkeypatch):
    # All 32 probes of an 8-antenna block go through one channel build.
    calls = []

    def counting_gain_matrix(*args):
        calls.append(args)
        return gain_matrix(*args)

    monkeypatch.setattr(optimizer_module, "gain_matrix", counting_gain_matrix)
    layout = _layout(antennas=8, users=2, seed=3)
    grad = finite_difference_gradient(
        layout, "tx_angles", lambda stack: objective(stack, [USER_A, USER_B], MEDIUM, 0.5),
        1e-5)
    assert len(calls) == 1
    assert grad.shape == (16,) and np.all(np.isfinite(grad))


def _users(rng, count):
    return [AntennaPose(position=p, orientation=n) for p, n in
            zip(rng.uniform(-100.0, 100.0, (count, 3)) + [0.0, 0.0, 150.0],
                rng.standard_normal((count, 3)))]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), antennas=st.sampled_from([1, 2, 4, 8]),
       user_share=st.integers(0, 3), batch=st.integers(1, 6),
       block=st.sampled_from(["tx_angles", "rx_angles"]))
def test_stacked_objective_equals_single_layouts(seed, antennas, user_share, batch, block):
    # K <= L in {1, 2, 4, 8}; the stack varies one block, as a gradient does.
    users = max(antennas >> user_share, 1)
    rng = np.random.default_rng(seed)
    layout = _layout(antennas, users, seed)
    people = _users(rng, users)
    rows = rng.uniform(-4.0, 8.0, (batch,) + getattr(layout, block).shape)
    stack = layout.copy()
    setattr(stack, block, rows)
    values = objective(stack, people, MEDIUM, 0.5)
    assert values.shape == (batch,)
    for b in range(batch):
        single = layout.copy()
        setattr(single, block, rows[b])
        try:
            expected = objective(single, people, MEDIUM, 0.5)
        except SingularChannelError:
            expected = -math.inf
        assert values[b] == expected


def test_stacked_objective_singular_row_reads_minus_inf():
    # Pointing every transmit axis at user A zeroes A's channel row.
    layout = _layout(antennas=4, users=2, seed=7)
    towards_a = cartesian_to_spherical(USER_A.position)
    singular = np.tile([towards_a.polar, towards_a.azimuthal], (4, 1))
    rows = np.stack([layout.tx_angles, singular, layout.tx_angles + 0.3])
    stack = layout.copy()
    stack.tx_angles = rows
    users = [USER_A, USER_B]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = objective(stack, users, MEDIUM, 0.5)
    assert values[1] == -math.inf
    for b in (0, 2):
        single = layout.copy()
        single.tx_angles = rows[b]
        assert values[b] == objective(single, users, MEDIUM, 0.5)
    lone = layout.copy()
    lone.tx_angles = singular
    with pytest.raises(SingularChannelError):
        objective(lone, users, MEDIUM, 0.5)


def _rx_positions(users):
    return np.array([u.position for u in users])


def _reference_gradient(layout, block, users, total_power=0.5):
    """finite_difference_gradient at step 1e-4 with its own h^2 error removed.

    Central differences at step h carry an error c h^2; the run at 2h
    estimates it (Richardson extrapolation). Near a degenerate entry or a
    stationary point that error alone reaches 2.7e-5 relative at h = 1e-4,
    and it falls 100x per decade of h, so it is the reference's, not the
    exact gradient's.
    """
    def func(stack):
        return objective(stack, users, MEDIUM, total_power)

    fine = finite_difference_gradient(layout, block, func, 1e-4)
    coarse = finite_difference_gradient(layout, block, func, 2e-4)
    return fine + (fine - coarse) / 3.0


def _assert_close_to_reference(layout, block, users, total_power=0.5):
    exact = _exact_gradient(layout, block, _rx_positions(users), MEDIUM, total_power)
    reference = _reference_gradient(layout, block, users, total_power)
    assert np.linalg.norm(exact - reference) <= 1e-5 * np.linalg.norm(reference)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), antennas=st.sampled_from([1, 2, 4, 8]),
       user_share=st.integers(0, 3), block=st.sampled_from(list(BLOCK_ORDER)))
def test_exact_gradient_matches_central_differences(seed, antennas, user_share, block):
    users = max(antennas >> user_share, 1)
    layout = _layout(antennas, users, seed)
    people = _users(np.random.default_rng(seed), users)
    try:
        objective(layout, people, MEDIUM, 0.5)
    except SingularChannelError:
        assume(False)
    _assert_close_to_reference(layout, block, people)


def _assert_finite_gradient_and_ascent(layout, users, total_power=0.5):
    for block in BLOCK_ORDER:
        grad = _exact_gradient(layout, block, _rx_positions(users), MEDIUM, total_power)
        assert np.all(np.isfinite(grad))
    result = optimize(layout, users, MEDIUM, total_power, _constraints(),
                      OptimizerConfig(max_outer_iterations=20))
    trace = result.trace.total_sinr
    assert all(b >= a for a, b in zip(trace, trace[1:]))
    assert trace[-1] > trace[0]
    return result


def _terms(layout, users):
    return link_terms(layout.tx_positions, layout.tx_orientations(), _rx_positions(users),
                      layout.rx_orientations(), MEDIUM)


def test_exact_gradient_degenerate_entry():
    # Transmit axis 0 points at user A: that entry is exactly 0, a cone point.
    layout = _layout(antennas=4, users=2, seed=1)
    towards_a = cartesian_to_spherical(USER_A.position)
    layout.tx_angles[0] = [towards_a.polar, towards_a.azimuthal]
    terms = _terms(layout, [USER_A, USER_B])
    assert terms.degenerate[0, 0] and terms.gains[0, 0] == 0.0
    _assert_finite_gradient_and_ascent(layout, [USER_A, USER_B])


def test_exact_gradient_grazing_incidence():
    # The receive axis lies along the path: sin_incidence is 1, cos_i is 0 and
    # the Fresnel term has no direction; the row's gains are a rounding residue.
    layout = _layout(antennas=4, users=2, seed=1)
    layout.rx_angles[0] = [0.0, 0.0]
    assert _terms(layout, [USER_ZENITH, USER_B]).sin_incidence[0] == 1.0
    _assert_finite_gradient_and_ascent(layout, [USER_ZENITH, USER_B])


def test_exact_gradient_broadside_kink():
    # |rx_hat . r| has a kink at 0, but cos_i = sqrt(1 - sin_i^2) is smooth there.
    layout = _layout(antennas=4, users=2, seed=1)
    layout.rx_angles[0] = [0.0, 0.0]
    assert _terms(layout, [USER_LEVEL, USER_B]).sin_incidence[0] == 0.0
    for block in BLOCK_ORDER:
        _assert_close_to_reference(layout, block, [USER_LEVEL, USER_B])
    _assert_finite_gradient_and_ascent(layout, [USER_LEVEL, USER_B])


def test_exact_gradient_across_a_funded_set_change():
    # A 50 mW budget leaves user 0 unfunded at the start; the ascent funds it.
    power = 0.05
    scenario = harness.make_scenario(4, 2, antenna_count=4, total_power=power)
    layout = harness.random_initial_layout(scenario, np.random.default_rng([2, 2]))
    users = scenario.user_poses
    start = harness.evaluate_layout(layout, scenario).allocation.powers > 0
    for block in BLOCK_ORDER:
        _assert_close_to_reference(layout, block, users, power)
    result = _assert_finite_gradient_and_ascent(layout, users, power)
    assert not np.array_equal(start, result.beamforming.allocation.powers > 0)


def test_optimize_layer_call_counts(monkeypatch):
    # A traced benchmark run checks these identities (perfbench/layers.py
    # self_check): the gradient builds no channel through gain_matrix and
    # calls no objective, so every channel build is one objective call or the
    # final evaluation, and each build makes two orientation arrays.
    counts = {}

    def counting(name):
        original = getattr(optimizer_module, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(optimizer_module, name, wrapper)

    for name in ("gain_matrix", "solve_beamforming", "objective", "angles_to_unit",
                 "finite_difference_gradient"):
        counting(name)
    scenario = harness.make_scenario(4, 3, antenna_count=4)
    layout = harness.random_initial_layout(scenario, np.random.default_rng([3, 2]))
    layout.optimize_tx_orientation, layout.optimize_rx_orientation = \
        harness.CONFIGURATION_FLAGS[5]
    optimize(layout, scenario.user_poses, scenario.medium, scenario.total_power,
             scenario.constraints, OptimizerConfig())
    assert counts["objective"] > 1
    assert counts["gain_matrix"] == counts["solve_beamforming"] == counts["objective"] + 1
    assert counts["angles_to_unit"] == 2 * counts["gain_matrix"]
    assert "finite_difference_gradient" not in counts


def test_separation_projection_feasible_unchanged():
    cons = _constraints()
    positions = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]])
    out = separation_projection(positions, positions, cons)
    assert np.allclose(out, positions)


def test_separation_projection_quarter_wavelength_pair():
    # Previous iterate lambda/2 apart along x; candidate moved to lambda/4.
    # The half-space pushes the moved antenna back to exactly lambda/2.
    cons = _constraints()
    lam = MEDIUM.wavelength
    previous = np.array([[0.0, 0.0, 0.0], [lam / 2.0, 0.0, 0.0]])
    candidate = np.array([[0.0, 0.0, 0.0], [lam / 4.0, 0.0, 0.0]])
    out = separation_projection(candidate, previous, cons)
    assert np.linalg.norm(out[1] - out[0]) == pytest.approx(lam / 2.0, abs=1e-12)


def test_separation_projection_box_clamp():
    cons = _constraints()
    positions = np.array([[2.0, 0.0, 0.0], [-0.5, 0.0, 0.0]])
    out = separation_projection(positions, positions, cons)
    assert out[0, 0] == pytest.approx(1.0)


def test_separation_projection_coincident_previous_raises():
    cons = _constraints()
    previous = np.zeros((2, 3))
    with pytest.raises(ProjectionError):
        separation_projection(previous, previous, cons)


def test_check_feasible():
    cons = _constraints()
    good = np.array([[0.0, 0.0, 0.0], [0.01, 0.0, 0.0]])
    close = np.array([[0.0, 0.0, 0.0], [0.001, 0.0, 0.0]])
    outside = np.array([[5.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert check_feasible(good, cons)
    assert not check_feasible(close, cons)
    assert not check_feasible(outside, cons)


def test_optimize_all_blocks_disabled_returns_initial():
    layout = _layout()
    layout.optimize_tx_orientation = False
    layout.optimize_rx_orientation = False
    initial = objective(layout, [USER_A, USER_B], MEDIUM, 0.5)
    result = optimize(layout, [USER_A, USER_B], MEDIUM, 0.5, _constraints(),
                      OptimizerConfig(max_outer_iterations=5))
    assert result.beamforming.metrics.total_sinr == pytest.approx(initial, rel=1e-12)
    assert np.allclose(result.layout.tx_angles, wrap_angles(layout.tx_angles))


def test_optimize_infeasible_start_raises():
    layout = _layout()
    layout.tx_positions[1] = layout.tx_positions[0]
    with pytest.raises(InfeasibleLayoutError):
        optimize(layout, [USER_A, USER_B], MEDIUM, 0.5, _constraints(),
                 OptimizerConfig(max_outer_iterations=2))


def test_optimize_trace_monotone_and_improving():
    layout = _layout(seed=5)
    result = optimize(layout, [USER_A, USER_B], MEDIUM, 0.5, _constraints(),
                      OptimizerConfig(max_outer_iterations=15, convergence_tol=1e-3))
    trace = result.trace.total_sinr
    assert all(b >= a for a, b in zip(trace, trace[1:]))
    assert trace[-1] > trace[0]
    assert result.trace.iterations == len(trace) - 1
    assert result.layout.tx_positions.tobytes() == layout.tx_positions.tobytes()


def test_optimize_single_link_is_coplanar_at_convergence():
    layout = LayoutVariables(tx_angles=np.array([[0.6, 1.0]]),
                             tx_positions=np.zeros((1, 3)),
                             rx_angles=np.array([[0.7, 2.0]]))
    result = optimize(layout, [USER_A], MEDIUM, 0.5, _constraints(),
                      OptimizerConfig())
    terms = link_terms(np.zeros((1, 3)), result.layout.tx_orientations(),
                       USER_A.position[None, :], result.layout.rx_orientations(), MEDIUM)
    alpha = math.acos(terms.cos_matching[0, 0])
    theta_i = math.asin(terms.sin_incidence[0])
    residual = min(abs(alpha - theta_i), abs(math.pi - alpha - theta_i))
    assert residual < 1e-3


def test_quantize_angles_identity_at_zero():
    layout = _layout()
    out = quantize_angles(layout, 0.0)
    assert np.array_equal(out.tx_angles, layout.tx_angles)
    assert np.array_equal(out.rx_angles, layout.rx_angles)


def test_quantize_angles_nearest_multiple():
    layout = _layout()
    layout.tx_angles = np.array([[math.radians(44.0), math.radians(299.0)],
                                 [math.radians(45.0), math.radians(0.0)]])
    out = quantize_angles(layout, 30.0)
    assert out.tx_angles[0, 0] == pytest.approx(math.radians(30.0), abs=1e-12)
    assert out.tx_angles[0, 1] == pytest.approx(math.radians(300.0), abs=1e-12)
    # ties round half away from zero: 45 -> 60
    assert out.tx_angles[1, 0] == pytest.approx(math.radians(60.0), abs=1e-12)


def test_quantize_angles_level_count():
    rng = np.random.default_rng(0)
    layout = _layout()
    layout.rx_angles = np.column_stack([rng.uniform(0, math.pi, 500),
                                        rng.uniform(0, 2 * math.pi, 500)])
    out = quantize_angles(layout, 30.0)
    azimuth_levels = np.unique(np.round(np.degrees(out.rx_angles[:, 1]), 6))
    assert len(azimuth_levels) <= 12          # 360 / 30
    assert all(abs(v % 30.0) < 1e-6 for v in azimuth_levels)


def test_quantize_angles_rejects_bad_resolution():
    with pytest.raises(ConfigurationError):
        quantize_angles(_layout(), 200.0)
    with pytest.raises(ConfigurationError):
        quantize_angles(_layout(), -5.0)


def test_optimizer_config_validation():
    with pytest.raises(ConfigurationError):
        OptimizerConfig(max_outer_iterations=0)
    with pytest.raises(ConfigurationError):
        OptimizerConfig(convergence_tol=2.0)
