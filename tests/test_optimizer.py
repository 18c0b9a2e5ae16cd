import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polarlink import (AntennaPose, Constraints, LayoutVariables, MediumParams,
                       OptimizerConfig, harness, objective, optimize, quantize_angles)
from polarlink import channel as channel_module
from polarlink import mimo as mimo_module
from polarlink import optimizer as optimizer_module
from polarlink.channel import (ChannelMatrix, gain_matrix, link_geometry, link_terms,
                               reflection_coefficients)
from polarlink.errors import (ConfigurationError, InfeasibleLayoutError,
                              ProjectionError, SingularChannelError)
from polarlink.geometry import angles_to_unit, unit_to_angles
from polarlink.medium import ANTENNA_FACTOR, SPEED_OF_LIGHT, VACUUM_PERMEABILITY
from polarlink.mimo import solve_beamforming
from polarlink.optimizer import (BLOCK_ORDER, BLOCK_RX_ANGLES, BLOCK_TX_ANGLES, _gradient,
                                 _layout_point, _trial, check_feasible,
                                 finite_difference_gradient, separation_projection, solve_layout)

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


@pytest.mark.parametrize("power", [0.0, -0.5])
def test_objective_rejects_nonpositive_power(power):
    with pytest.raises(ConfigurationError):
        objective(_layout(), [USER_A, USER_B], MEDIUM, power)


def test_axes_match_angles_to_unit_bit_for_bit():
    # The optimizer converts its angles with _axes; a stored layout's axes
    # (tx_orientations, quantize_angles) come from angles_to_unit.
    rng = np.random.default_rng(5)
    random = np.column_stack([rng.uniform(-4.0, 4.0, 1000), rng.uniform(-7.0, 7.0, 1000)])
    special = np.array([[0.0, 0.0], [0.0, 2.0 * np.pi], [np.pi, 0.0], [np.pi, 2.0 * np.pi],
                        [np.pi / 2, 2.0 * np.pi], [-0.0, -0.0], [2.0 * np.pi, np.pi]])
    for angles in (random, special, special[:1]):
        expected = angles_to_unit(angles[:, 0], angles[:, 1])
        got = optimizer_module._axes(angles)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


# finite_difference_gradient is the reference the exact gradient is tested
# against; optimize does not call it.

def test_finite_difference_gradient_on_quadratic():
    layout = _layout()
    center = layout.tx_angles.ravel().copy()

    def quad(probe):
        x = probe.tx_angles.ravel() - center
        weights = np.arange(1.0, center.size + 1.0)
        return -np.sum(weights * x * x) + 3.0 * x[0]

    grad = finite_difference_gradient(layout, "tx_angles", quad, 1e-5)
    expected = np.zeros(center.size)
    expected[0] = 3.0
    assert np.allclose(grad, expected, atol=1e-6)


def test_finite_difference_gradient_constant_objective():
    layout = _layout()
    grad = finite_difference_gradient(
        layout, "rx_angles", lambda probe: 1.23, 1e-5)
    assert np.all(grad == 0.0)


def test_finite_difference_gradient_unknown_block():
    # tx_positions is a LayoutVariables attribute but not a block.
    for block in ("nonsense", "tx_positions"):
        with pytest.raises(ConfigurationError):
            finite_difference_gradient(_layout(), block, lambda probe: 0.0, 1e-5)


def _users(rng, count):
    return [AntennaPose(position=p, orientation=n) for p, n in
            zip(rng.uniform(-100.0, 100.0, (count, 3)) + [0.0, 0.0, 150.0],
                rng.standard_normal((count, 3)))]


def _rx_positions(users):
    return np.array([u.position for u in users])


def _geometry(layout, users):
    return link_geometry(layout.tx_positions, _rx_positions(users), MEDIUM)


def _point(layout, users, total_power=0.5):
    """_evaluate at layout, both blocks' sides built from its angles."""
    return _layout_point(layout, _geometry(layout, users), MEDIUM, total_power)


def _reference_gradient(layout, block, users, total_power=0.5, coarse_step=1e-3, levels=11):
    """finite_difference_gradient with its own error removed, at a step the
    point itself picks.

    Central differences at step h carry an error c h^2; the run at 2h
    estimates it (Richardson extrapolation), leaving an error of order h^4.
    No one step suits every point: near a degenerate entry or a grazing axis
    that h^4 term is 1e-5 relative at h = 1e-4, while where the objective is
    1e5 times its gradient, rounding reaches 1e-5 relative at h = 1e-5. So
    the steps halve from coarse_step over levels runs, and of the
    extrapolations at successive steps the coarser of the pair that agree
    best is the reference: there truncation and rounding are both below
    their difference.
    """
    def func(probe):
        return objective(probe, users, MEDIUM, total_power)

    runs = [finite_difference_gradient(layout, block, func, coarse_step / 2.0**k)
            for k in range(levels)]
    extrapolated = [fine + (fine - coarse) / 3.0 for coarse, fine in zip(runs, runs[1:])]
    gaps = [np.linalg.norm(a - b) for a, b in zip(extrapolated, extrapolated[1:])]
    return extrapolated[int(np.argmin(gaps))]


def _chart_gradient(grad, angles):
    """A tangent gradient grad (n, 3) in the (polar, azimuthal) chart of its
    axes' angles (n, 2), ordered as finite_difference_gradient: its components
    along the axes' derivatives in each angle."""
    sin_p, cos_p = np.sin(angles[:, 0]), np.cos(angles[:, 0])
    sin_a, cos_a = np.sin(angles[:, 1]), np.cos(angles[:, 1])
    d_polar = np.stack([cos_p * cos_a, cos_p * sin_a, -sin_p], axis=-1)
    d_azimuthal = np.stack([-sin_p * sin_a, sin_p * cos_a, np.zeros_like(sin_p)], axis=-1)
    return np.stack([np.sum(grad * d_polar, axis=-1),
                     np.sum(grad * d_azimuthal, axis=-1)], axis=-1).ravel()


def _exact_gradient(layout, block, users, total_power=0.5):
    """_gradient at layout, checked to lie in each axis' tangent plane, then
    taken into the angle chart the reference differentiates in."""
    point = _point(layout, users, total_power)
    grad = _gradient(point, block, MEDIUM)
    if block == BLOCK_TX_ANGLES:
        axes, angles = point.terms.tx.axes, layout.tx_angles
    else:
        axes, angles = point.terms.rx.axes, layout.rx_angles
    assert grad.shape == axes.shape
    assert np.all(np.abs(np.sum(grad * axes, axis=-1)) <= 1e-12 * np.linalg.norm(grad))
    return _chart_gradient(grad, angles)


def _assert_close_to_reference(layout, block, users, total_power=0.5, coarse_step=1e-3):
    exact = _exact_gradient(layout, block, users, total_power)
    reference = _reference_gradient(layout, block, users, total_power, coarse_step)
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
        grad = _exact_gradient(layout, block, users, total_power)
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
    layout.tx_angles[0] = unit_to_angles(USER_A.position)
    terms = _terms(layout, [USER_A, USER_B])
    assert terms.tx.degenerate[0, 0] and terms.gains[0, 0] == 0.0
    _assert_finite_gradient_and_ascent(layout, [USER_A, USER_B])


def test_exact_gradient_grazing_incidence():
    # The receive axis lies along the path: cos_i is 0, both Fresnel
    # coefficients are 1 and the user's row is exactly 0, a singular channel.
    users = [USER_ZENITH, USER_B]
    layout = _layout(antennas=4, users=2, seed=1)
    layout.rx_angles[0] = [0.0, 0.0]
    terms = _terms(layout, users)
    assert terms.rx.cos_incidence[0] == 0.0
    assert np.all(terms.gains[0] == 0.0)
    with pytest.raises(SingularChannelError):
        objective(layout, users, MEDIUM, 0.5)
    scenario = harness.Scenario(medium=MEDIUM, constraints=_constraints(), user_poses=users,
                                antenna_count=4, total_power=0.5, seed=1)
    record = harness.run_configuration(scenario, 5, OptimizerConfig(max_outer_iterations=20),
                                       layout)
    assert record.failure.startswith("SingularChannelError")
    # 1e-3 rad off grazing the row is regular and the gradient exact; so
    # close to the cone point the reference's steps start below 1e-3, whose
    # probe would land on it.
    layout.rx_angles[0] = [1e-3, 0.0]
    assert 0.0 < _terms(layout, users).rx.cos_incidence[0] < 2e-3
    for block in BLOCK_ORDER:
        _assert_close_to_reference(layout, block, users, coarse_step=1e-4)
    _assert_finite_gradient_and_ascent(layout, users)


def test_exact_gradient_broadside_kink():
    # |rx_hat . r| has a kink at 0, but cos_i = sqrt(1 - sin_i^2) is smooth there.
    layout = _layout(antennas=4, users=2, seed=1)
    layout.rx_angles[0] = [0.0, 0.0]
    assert _terms(layout, [USER_LEVEL, USER_B]).rx.sin_incidence[0] == 0.0
    for block in BLOCK_ORDER:
        _assert_close_to_reference(layout, block, [USER_LEVEL, USER_B])
    _assert_finite_gradient_and_ascent(layout, [USER_LEVEL, USER_B])


def test_exact_gradient_across_a_funded_set_change():
    # A 50 mW budget leaves user 0 unfunded at the start; the ascent funds it.
    power = 0.05
    scenario = harness.make_scenario(4, 2, antenna_count=4, total_power=power)
    layout = harness.random_initial_layout(scenario, np.random.default_rng([2, 2]))
    users = scenario.user_poses
    start = solve_layout(layout, users, scenario.medium, power).allocation.powers > 0
    for block in BLOCK_ORDER:
        _assert_close_to_reference(layout, block, users, power)
    result = _assert_finite_gradient_and_ascent(layout, users, power)
    assert not np.array_equal(start, result.beamforming.allocation.powers > 0)


def _field_plane_gradient(point, block, medium):
    """_gradient's chain rules through the kernel's field planes f = (n -
    cos_e u) / sin_e, contracted with two einsums: d cos_a / d n = (P r -
    cos_a f) / sin_e, P the projector off the path, and d cos_a / d r = f.
    The reference the path-direction form is checked against."""
    terms = point.terms
    gains, inverse = terms.gains, point.inverse_gram
    scale = 2.0 * point.growth * medium.noise_power / (gains.shape[0] * point.level)
    weight = (np.conj(inverse @ ((scale * point.sinr)[:, None] * (inverse @ gains)))
              * gains).real
    tx, rx = terms.tx, terms.rx
    path, field_dir = terms.geometry.path_dir, tx.field_dir
    cos_e, cos_m, sin_e = tx.cos_emission, terms.cos_matching, tx.safe_sin_emission
    per_m2 = weight / terms.matching**2
    d_cos_m = -rx.spread[:, None] * cos_m * per_m2
    if block == BLOCK_TX_ANGLES:
        d_cos_e = weight * (-0.5 * np.pi * np.tan(0.5 * np.pi * cos_e) + cos_e / sin_e**2)
        projected_rx = rx.axes - np.sum(path * rx.axes, axis=-1)[:, None] * path
        along = d_cos_m / sin_e
        grad_axes = (d_cos_e.T @ path + along.T @ projected_rx
                     - np.einsum("kl,ikl->li", along * cos_m, field_dir))
        axes = tx.axes
    else:
        cos_i, eps = rx.cos_incidence, medium.relative_permittivity
        root = np.sqrt(eps - 1.0 + cos_i**2)
        d_par = (-2.0 * eps * (eps - 1.0) / (root * (root + eps * cos_i)**2))[:, None]
        d_perp = (-2.0 * (eps - 1.0) / (root * (root + cos_i)**2))[:, None]
        g_par, g_perp = rx.gamma_par[:, None], rx.gamma_perp[:, None]
        d_cos_i = np.sum(-(g_par * d_par * cos_m**2 + g_perp * d_perp * (1.0 - cos_m**2))
                         * per_m2, axis=-1)
        axes = rx.axes
        along_path = -np.sum(path * axes, axis=-1) * d_cos_i / cos_i
        grad_axes = np.einsum("kl,ikl->ki", d_cos_m, field_dir) + along_path[:, None] * path
    return grad_axes - np.sum(grad_axes * axes, axis=-1)[:, None] * axes


def _drop_point(users, seed):
    scenario = harness.make_scenario(users, seed)
    layout = harness.random_initial_layout(scenario, np.random.default_rng([seed, 2]))
    return _point(layout, scenario.user_poses, scenario.total_power)


@pytest.mark.parametrize("users", [1, 2, 4, 8])
@pytest.mark.parametrize("block", BLOCK_ORDER)
def test_gradient_matches_the_field_plane_form(users, block):
    # The path-direction chain rules regroup the field-plane ones, and the
    # transmit one drops a term along each axis that the projection removes:
    # the gradients agree to rounding.
    for seed in range(1001, 1011):
        point = _drop_point(users, seed)
        grad = _gradient(point, block, MEDIUM)
        reference = _field_plane_gradient(point, block, MEDIUM)
        assert np.linalg.norm(grad - reference) <= 1e-12 * np.linalg.norm(reference)


@pytest.mark.parametrize("block", BLOCK_ORDER)
def test_gradient_reads_no_field_planes(block):
    point = _drop_point(4, 1003)
    planes = point.terms.tx._replace(field_dir=np.full_like(point.terms.tx.field_dir, np.nan))
    blind = dataclasses.replace(point, terms=point.terms._replace(tx=planes))
    assert np.array_equal(_gradient(blind, block, MEDIUM), _gradient(point, block, MEDIUM))


def _count_calls(monkeypatch, module, names, counts, fail_on_call=None):
    """Count calls of module.<name> in counts; call number fail_on_call raises
    SingularChannelError instead."""
    for name in names:
        original = getattr(module, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            if counts[_name] == fail_on_call:
                raise SingularChannelError("forced")
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)


def _campaign_layout():
    scenario = harness.make_scenario(4, 3, antenna_count=4)
    layout = harness.random_initial_layout(scenario, np.random.default_rng([3, 2]))
    return scenario, layout


_CHANNEL_PIECES = ("link_geometry", "transmit_terms", "receive_terms", "combine_terms")


def _count_evaluation_layers(monkeypatch, counts, fail_on_call=None):
    """Count every channel build (combine_terms, the per-evaluation kernel),
    every build of the position factors (link_geometry) and of one block's
    side terms, every G^-1 the ascent takes (the optimizer's _inverse_gram,
    whose call number fail_on_call raises SingularChannelError) and every SVD
    (_zf_svd, through _inverse_gram's fallback or zf_precoder), through the
    optimizer's own bindings and through gain_matrix and zf_precoder."""
    _count_calls(monkeypatch, channel_module, _CHANNEL_PIECES, counts)
    _count_calls(monkeypatch, optimizer_module, _CHANNEL_PIECES, counts)
    _count_calls(monkeypatch, optimizer_module, ("_inverse_gram",), counts, fail_on_call)
    _count_calls(monkeypatch, mimo_module, ("_zf_svd",), counts)
    _count_calls(monkeypatch, optimizer_module,
                 ("gain_matrix", "solve_beamforming", "objective", "angles_to_unit",
                  "finite_difference_gradient", "_gradient"), counts)
    _count_calls(monkeypatch, mimo_module, ("zf_precoder", "water_filling"), counts)


def test_optimize_layer_call_counts(monkeypatch):
    # Each point is evaluated once: the start and every line-search trial are
    # one _evaluate, which builds one channel and takes one G^-1, and the
    # gradient reuses them. On this regular channel no G^-1 falls back to the
    # SVD. The positions' factors are built once per run, and a trial builds
    # the side terms of the block it moved only. The final record is the one
    # full beamforming solve (gain_matrix, zf_precoder, water_filling), which
    # builds everything once more, takes the run's only SVD, and whose two
    # orientation arrays are the only angles_to_unit calls.
    counts, evaluated = {}, []
    _count_evaluation_layers(monkeypatch, counts)
    real_evaluate = optimizer_module._evaluate

    def counting_evaluate(*args):
        evaluated.append(args[0])
        return real_evaluate(*args)
    monkeypatch.setattr(optimizer_module, "_evaluate", counting_evaluate)
    scenario, layout = _campaign_layout()
    trace = optimize(layout, scenario.user_poses, scenario.medium, scenario.total_power,
                     scenario.constraints, OptimizerConfig()).trace
    assert trace.evaluations == len(evaluated) > 1
    assert counts["_inverse_gram"] == trace.evaluations
    assert counts["combine_terms"] == trace.evaluations + 1
    assert counts["_zf_svd"] == counts["zf_precoder"] == 1
    assert counts["link_geometry"] == 1 + 1
    # Both sides at the start and in gain_matrix, one per trial.
    assert counts["transmit_terms"] + counts["receive_terms"] == \
        2 + (trace.evaluations - 1) + 2
    assert counts["transmit_terms"] > 2 and counts["receive_terms"] > 2
    assert counts["_gradient"] == trace.gradients > 0
    assert trace.singular_trials == 0
    assert counts["gain_matrix"] == counts["solve_beamforming"] == 1
    assert counts["zf_precoder"] == counts["water_filling"] == 1
    assert counts["angles_to_unit"] == 2 * counts["gain_matrix"]
    assert "objective" not in counts
    assert "finite_difference_gradient" not in counts


def _singular_after_start(monkeypatch):
    """Make every G^-1 the ascent takes after the first (the start's) raise
    SingularChannelError; returns the list of channels passed to it."""
    real_inverse_gram, calls = optimizer_module._inverse_gram, []

    def singular_after_start(gains):
        calls.append(gains)
        if len(calls) > 1:
            raise SingularChannelError("forced")
        return real_inverse_gram(gains)
    monkeypatch.setattr(optimizer_module, "_inverse_gram", singular_after_start)
    return calls


@pytest.mark.parametrize("blocks, singular", [((), False), ((BLOCK_TX_ANGLES,), False),
                                              ((BLOCK_RX_ANGLES,), False), (BLOCK_ORDER, False),
                                              (BLOCK_ORDER, True)])
def test_angles_are_converted_at_the_ends_of_the_ascent_only(monkeypatch, blocks, singular):
    # The ascent runs on unit axes: the start's angles become axes once per
    # block (_axes), and only a block that took a step has its final axes
    # turned back into angles (unit_to_angles), once; no trial converts
    # anything. With every trial singular no block steps.
    counts = {}
    _count_calls(monkeypatch, optimizer_module, ("_axes", "unit_to_angles", "_evaluate"),
                 counts)
    if singular:
        _singular_after_start(monkeypatch)
    scenario, layout = _campaign_layout()
    result = optimize(layout, scenario.user_poses, scenario.medium, scenario.total_power,
                      scenario.constraints, OptimizerConfig(), blocks)
    assert counts["_evaluate"] == result.trace.evaluations
    assert result.trace.evaluations > 1 or not blocks
    assert counts["_axes"] == 2
    stepped = [] if singular else list(blocks)
    assert counts.get("unit_to_angles", 0) == len(stepped)
    for name in BLOCK_ORDER:
        assert np.array_equal(getattr(result.layout, name), getattr(layout, name)) \
            == (name not in stepped)


def _array_leaves(terms, prefix=""):
    """(dotted name, array) for every array in a nested tuple of terms."""
    for name, value in zip(terms._fields, terms):
        if isinstance(value, tuple):
            yield from _array_leaves(value, f"{prefix}{name}.")
        else:
            yield prefix + name, value


@pytest.mark.parametrize("edge", ["transmit axis along the path", "receive axis at a pole"])
@pytest.mark.parametrize("block", BLOCK_ORDER)
def test_a_trial_reusing_the_unmoved_side_is_a_fresh_build(block, edge):
    # A trial builds the moved block's side from its axes and takes the other
    # from the point it steps from; its terms must equal a full link_terms
    # build on the trial's axes, array for array and bit for bit. Both the
    # start and the moved axes hold the edge, so it is both rebuilt and reused.
    users = [USER_A, USER_B]
    start, moved = _layout(antennas=4, users=2, seed=1), _layout(antennas=4, users=2, seed=2)
    for layout in (start, moved):
        if edge == "transmit axis along the path":
            layout.tx_angles[0] = unit_to_angles(USER_A.position)
        else:
            layout.rx_angles[0] = [0.0, 0.0]
    trial = dataclasses.replace(start, **{block: getattr(moved, block)})
    axes = angles_to_unit(getattr(moved, block)[:, 0], getattr(moved, block)[:, 1])
    point = _trial(_point(start, users), block, axes, _geometry(trial, users), MEDIUM, 0.5)
    fresh = link_terms(trial.tx_positions, trial.tx_orientations(), _rx_positions(users),
                       trial.rx_orientations(), MEDIUM)
    assert fresh.tx.degenerate[0, 0] == (edge == "transmit axis along the path")
    got, want = list(_array_leaves(point.terms)), list(_array_leaves(fresh))
    assert [name for name, _ in got] == [name for name, _ in want] and len(want) == 19
    for (name, got_leaf), (_, want_leaf) in zip(got, want):
        assert np.array_equal(got_leaf, want_leaf), name
    assert point.value == _point(trial, users).value


def _tan_of_rotation(a, b):
    """Per row, tan of the angle between two (n, 3) arrays of axes."""
    return np.linalg.norm(np.cross(a, b), axis=-1) / np.sum(a * b, axis=-1)


def _record_trial_axes(monkeypatch, trials):
    """Append a copy of every line-search trial's axes to trials."""
    real_trial = optimizer_module._trial

    def recording_trial(point, block, axes, *args):
        trials.append(axes.copy())
        return real_trial(point, block, axes, *args)
    monkeypatch.setattr(optimizer_module, "_trial", recording_trial)


def test_optimize_rejects_a_singular_trial(monkeypatch):
    # The second G^-1 is the first line-search trial's: the first scores the
    # start, and the gradient takes none. Forced singular, that trial is a
    # rejected step: the next trial takes half of it, the ascent goes on, and
    # the trace counts one singular trial. A trial moves each axis a by
    # step * g with g orthogonal to a, so tan of its rotation is step * |g|
    # and halves with the step.
    counts, trials = {}, []
    _count_evaluation_layers(monkeypatch, counts, fail_on_call=2)
    _record_trial_axes(monkeypatch, trials)
    scenario, layout = _campaign_layout()
    result = optimize(layout, scenario.user_poses, scenario.medium, scenario.total_power,
                      scenario.constraints, OptimizerConfig())
    start = angles_to_unit(layout.rx_angles[:, 0], layout.rx_angles[:, 1])
    first_step = _tan_of_rotation(start, trials[0])
    second_step = _tan_of_rotation(start, trials[1])
    assert np.all(first_step > 0.0)
    assert np.allclose(second_step, 0.5 * first_step, rtol=1e-9, atol=0.0)
    trace = result.trace
    assert all(b >= a for a, b in zip(trace.total_sinr, trace.total_sinr[1:]))
    assert trace.total_sinr[-1] > trace.total_sinr[0]
    assert trace.singular_trials == 1
    assert trace.evaluations == 1 + len(trials)
    assert counts["_inverse_gram"] == trace.evaluations
    assert counts["combine_terms"] == trace.evaluations + 1
    assert counts["_zf_svd"] == 1
    assert counts["link_geometry"] == 1 + 1
    assert counts["gain_matrix"] == counts["solve_beamforming"] == 1
    assert counts["zf_precoder"] == counts["water_filling"] == 1


def test_an_axis_at_a_pole_steps_along_its_full_tangent_gradient(monkeypatch):
    # Receive axis 0 starts at the pole (polar 0, stored azimuth 0). In the
    # angle chart its azimuth derivative vanishes there, so a chart step could
    # only move it along the azimuth-0 meridian (the xz-plane). On the sphere
    # the first trial, the receive block's, follows the whole tangent gradient.
    users = [USER_A, USER_B]
    layout = _layout(antennas=4, users=2, seed=1)
    layout.rx_angles[0] = [0.0, 0.0]
    point = _point(layout, users)
    grad = _gradient(point, "rx_angles", MEDIUM)
    assert abs(grad[0, 1]) > 0.1 * np.linalg.norm(grad[0])
    trials = []
    _record_trial_axes(monkeypatch, trials)
    optimize(layout, users, MEDIUM, 0.5, _constraints(), OptimizerConfig(max_outer_iterations=1))
    expected = point.terms.rx.axes + 0.1 / np.linalg.norm(grad) * grad
    expected /= np.linalg.norm(expected, axis=-1, keepdims=True)
    assert np.allclose(trials[0], expected, rtol=0.0, atol=1e-12)
    assert abs(trials[0][0, 1]) > 1e-3


def test_line_search_ends_at_its_floor_when_every_trial_is_singular(monkeypatch):
    # No trial count caps the line search; each trial halves the step, so the
    # search still ends, at the rounding floor, when every trial is singular.
    calls = _singular_after_start(monkeypatch)
    scenario, layout = _campaign_layout()
    trace = optimize(layout, scenario.user_poses, scenario.medium, scenario.total_power,
                     scenario.constraints, OptimizerConfig()).trace
    assert trace.evaluations == len(calls) > 1
    assert trace.singular_trials == trace.evaluations - 1
    assert trace.gradients == 2          # one failed search per block ends the sweep
    assert trace.iterations == 1
    assert np.all(np.isfinite(trace.total_sinr))
    assert trace.total_sinr[-1] == trace.total_sinr[0]


def _with_rounding_noise(real_evaluate, ulps):
    """_evaluate with the value moved by ulps units in the last place, up or
    down by one bit of the value itself (the same point always moves alike)."""
    def noisy(*args):
        point = real_evaluate(*args)
        sign = 1.0 if int(np.float64(point.value).view(np.int64)) >> 4 & 1 else -1.0
        return dataclasses.replace(point,
                                   value=point.value + sign * ulps * math.ulp(point.value))
    return noisy


@pytest.mark.parametrize("users, seed", [(2, 1006), (2, 1013), (4, 1013)])
def test_records_do_not_depend_on_the_objective_rounding(monkeypatch, users, seed):
    # The line search stops before its Armijo margin falls to J's rounding, so
    # no accept/reject decision, and no record, turns on the last bits of J.
    # Drops that moved by up to 4.5e-3 dB under this noise when trials ran on
    # past that floor.
    scenario = harness.make_scenario(users, seed)
    layout = harness.random_initial_layout(scenario, np.random.default_rng([seed, 2]))

    def trace():
        return optimize(layout, scenario.user_poses, scenario.medium, scenario.total_power,
                        scenario.constraints, OptimizerConfig()).trace
    clean = trace()
    monkeypatch.setattr(optimizer_module, "_evaluate",
                        _with_rounding_noise(optimizer_module._evaluate, 8))
    noisy = trace()
    assert noisy.iterations == clean.iterations
    assert np.allclose(noisy.total_sinr_db, clean.total_sinr_db, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_trace_reads_the_objective(seed):
    # The trace records the values objective returns, at canonical angles, to
    # rounding; the final record's general-interference total SINR differs by
    # leakage only.
    scenario = harness.make_scenario(8, seed)
    layout = harness.random_initial_layout(scenario, np.random.default_rng([seed, 2]))
    result = optimize(layout, scenario.user_poses, scenario.medium, scenario.total_power,
                      scenario.constraints, OptimizerConfig())
    final = objective(result.layout, scenario.user_poses, scenario.medium,
                      scenario.total_power)
    # The trace holds J at the ascent's axes and objective J at the stored
    # angles of those axes, which round the axes by a few ulps.
    assert result.trace.total_sinr[-1] == pytest.approx(final, rel=1e-11, abs=0.0)
    assert final == pytest.approx(result.beamforming.metrics.total_sinr, rel=1e-9)
    for angles in (result.layout.tx_angles, result.layout.rx_angles):
        assert np.all((angles[:, 0] >= 0.0) & (angles[:, 0] <= math.pi))
        assert np.all((angles[:, 1] >= 0.0) & (angles[:, 1] < 2.0 * math.pi))


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


def _loop_feasible(positions, constraints):
    """check_feasible's verdict pair by pair, one np.linalg.norm per pair."""
    pos = np.asarray(positions, dtype=float)
    if np.any(pos < constraints.box_min - 1e-9) or np.any(pos > constraints.box_max + 1e-9):
        return False
    for ell in range(len(pos)):
        for i in range(ell + 1, len(pos)):
            if np.linalg.norm(pos[ell] - pos[i]) < constraints.min_separation - 1e-9:
                return False
    return True


@pytest.mark.parametrize("offset", [-1e-12, 1e-12])
@pytest.mark.parametrize("antennas", [2, 3, 8])
def test_check_feasible_matches_the_pairwise_loop(offset, antennas):
    # One broadcast over the pairwise differences gives the loop's verdicts,
    # also for a pair 1e-12 m either side of the tolerance edge.
    cons = _constraints()
    edge = cons.min_separation - 1e-9 + offset
    rng = np.random.default_rng(antennas)
    for trial in range(50):
        positions = np.zeros((antennas, 3))
        positions[:, 0] = np.arange(antennas) * 0.1 - 0.4
        positions += rng.uniform(-0.01, 0.01, positions.shape)
        i, j = rng.choice(antennas, 2, replace=False)
        direction = rng.standard_normal(3)
        positions[j] = positions[i] + edge * direction / np.linalg.norm(direction)
        expected = _loop_feasible(positions, cons)
        assert check_feasible(positions, cons) == expected
        if antennas == 2:       # the one pair is the edge pair
            assert expected == (offset > 0)
    positions = rng.uniform(-0.2, 0.2, (antennas, 3))
    assert check_feasible(positions, cons) == _loop_feasible(positions, cons)


def test_optimize_all_blocks_disabled_returns_initial():
    layout = _layout()
    initial = objective(layout, [USER_A, USER_B], MEDIUM, 0.5)
    result = optimize(layout, [USER_A, USER_B], MEDIUM, 0.5, _constraints(),
                      OptimizerConfig(max_outer_iterations=5), blocks=())
    assert result.beamforming.metrics.total_sinr == pytest.approx(initial, rel=1e-12)
    assert np.array_equal(result.layout.tx_angles, layout.tx_angles)


def test_layout_holds_only_the_variables():
    assert [f.name for f in dataclasses.fields(LayoutVariables)] == \
        ["tx_angles", "tx_positions", "rx_angles"]


@pytest.mark.parametrize("blocks", [("tx_positions",),
                                    (BLOCK_RX_ANGLES, "tx_orientation"),
                                    BLOCK_RX_ANGLES])   # a bare name is not a sequence of names
def test_optimize_rejects_an_unknown_block_before_any_evaluation(monkeypatch, blocks):
    evaluated = []
    monkeypatch.setattr(optimizer_module, "_evaluate", lambda *args: evaluated.append(args))
    with pytest.raises(ConfigurationError, match="unknown block"):
        optimize(_layout(), [USER_A, USER_B], MEDIUM, 0.5, _constraints(),
                 OptimizerConfig(max_outer_iterations=2), blocks)
    assert evaluated == []


def test_optimize_runs_the_given_blocks_in_block_order():
    def run(blocks):
        return optimize(_layout(seed=3), [USER_A, USER_B], MEDIUM, 0.5, _constraints(),
                        OptimizerConfig(max_outer_iterations=5), blocks)
    given, default = run((BLOCK_TX_ANGLES, BLOCK_RX_ANGLES)), run(BLOCK_ORDER)
    assert dataclasses.replace(given.trace, wall_time=0.0) == \
        dataclasses.replace(default.trace, wall_time=0.0)
    for name in BLOCK_ORDER:
        assert np.array_equal(getattr(given.layout, name), getattr(default.layout, name))


@pytest.mark.parametrize("block", BLOCK_ORDER)
def test_optimize_moves_only_the_given_block(block):
    layout = _layout(seed=3)
    result = optimize(layout, [USER_A, USER_B], MEDIUM, 0.5, _constraints(),
                      OptimizerConfig(max_outer_iterations=5), (block,))
    assert result.trace.total_sinr[-1] > result.trace.total_sinr[0]
    for name in BLOCK_ORDER:
        assert np.array_equal(getattr(result.layout, name), getattr(layout, name)) \
            == (name != block)


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
    theta_i = math.asin(terms.rx.sin_incidence[0])
    residual = min(abs(alpha - theta_i), abs(math.pi - alpha - theta_i))
    assert residual < 1e-3


def _matching_power(c, medium):
    """f(c) = 1 - G_perp^2 + (G_perp^2 - G_par^2) c^2: the squared matching
    efficiency m^2 at incidence cosine c where the matching angle is the
    incidence angle, its best for that incidence."""
    g_par, g_perp = reflection_coefficients(np.arccos(c), medium)
    return 1.0 - g_perp**2 + (g_perp**2 - g_par**2) * c**2


def _unit_matching_value(scenario):
    """P L C^2 / sigma^2 for the one user (K = 1): the objective if every
    antenna's pattern and matching efficiency were 1."""
    medium, position = scenario.medium, scenario.user_poses[0].position
    amplitude = (2.0 * SPEED_OF_LIGHT * VACUUM_PERMEABILITY
                 / (ANTENNA_FACTOR * 4.0 * math.pi * np.linalg.norm(position)))
    return scenario.total_power * scenario.antenna_count * amplitude**2 / medium.noise_power


def _transmit_oracle(scenario, rx_axis):
    """Configuration 3's optimum for one user (K = 1) and its value J3*.

    For one user zero forcing plus water filling is maximum-ratio
    transmission, J = P C^2 sum_l rad_l^2 m_l^2 / sigma^2, which separates per
    antenna. Each term peaks where the transmit axis is the receive axis r
    projected off the path u and normalised: the pattern is 1 there and the
    matching angle is the incidence angle, so m^2 = f(c) with c = |r - (u . r)
    u|, and J3* = P L C^2 f(c) / sigma^2. Every term is computed here, apart
    from the channel kernel.
    """
    position = scenario.user_poses[0].position
    u = position / np.linalg.norm(position)
    projected = rx_axis - (u @ rx_axis) * u
    value = _unit_matching_value(scenario) * _matching_power(
        np.linalg.norm(projected), scenario.medium)
    return np.tile(unit_to_angles(projected), (scenario.antenna_count, 1)), value


def _joint_oracle(scenario, rx_axis):
    """Configuration 5's optimum for one user (K = 1) and its value J5*.

    J3* = P L C^2 f(c) / sigma^2 bounds J at the receive axis's incidence
    cosine c, so over both blocks J5* = P L C^2 max_c f(c) / sigma^2. It is
    reached by every transmit axis at a unit e normal to the path u (here the
    given receive axis projected off u) and the receive axis r = c* e +
    sqrt(1 - c*^2) u, where f peaks at c*: the pattern is 1 and the matching
    angle is the incidence angle. c* is found on two grids, the second 2e-5
    wide around the first's best, so it is within 1e-8 of the peak.
    """
    position = scenario.user_poses[0].position
    u = position / np.linalg.norm(position)
    e = rx_axis - (u @ rx_axis) * u
    e /= np.linalg.norm(e)
    coarse = np.linspace(0.0, 1.0, 100_001)
    fine = coarse[np.argmax(_matching_power(coarse, scenario.medium))] \
        + np.linspace(-1e-5, 1e-5, 2001)
    c_star = fine[np.argmax(_matching_power(fine, scenario.medium))]
    r = c_star * e + math.sqrt(1.0 - c_star**2) * u
    value = _unit_matching_value(scenario) * _matching_power(c_star, scenario.medium)
    return (np.tile(unit_to_angles(e), (scenario.antenna_count, 1)),
            unit_to_angles(r)[None, :], c_star, value)


def _single_user_start(seed, config_id):
    scenario = harness.make_scenario(1, seed)
    layout = harness.random_initial_layout(scenario, np.random.default_rng([seed, 2]))
    return scenario, layout, harness.CONFIGURATION_BLOCKS[config_id]


def _campaign_trace(scenario, layout, blocks):
    result = optimize(layout, scenario.user_poses, scenario.medium, scenario.total_power,
                      scenario.constraints,
                      OptimizerConfig(max_outer_iterations=25, convergence_tol=1e-3), blocks)
    return result.trace.total_sinr


@pytest.mark.parametrize("seed", range(6))
def test_single_user_transmit_optimum_bounds_configuration_3(seed):
    # The oracle layout evaluates to J3*, and no configuration-3 ascent at
    # the campaign's settings records a value above it.
    scenario, layout, blocks = _single_user_start(seed, 3)
    oracle_angles, best = _transmit_oracle(scenario, layout.rx_orientations()[0])
    oracle = layout.copy()
    oracle.tx_angles = oracle_angles
    value = objective(oracle, scenario.user_poses, scenario.medium, scenario.total_power)
    assert value == pytest.approx(best, rel=1e-12, abs=0.0)
    trace = _campaign_trace(scenario, layout, blocks)
    assert max(trace) <= best * (1.0 + 1e-12)
    assert trace[-1] > trace[0]


@pytest.mark.parametrize("seed", range(6))
def test_single_user_joint_optimum_bounds_configuration_5(seed):
    # The oracle layout evaluates to J5*, and no configuration-5 ascent at
    # the campaign's settings records a value above it.
    scenario, layout, blocks = _single_user_start(seed, 5)
    tx_angles, rx_angles, c_star, best = _joint_oracle(scenario, layout.rx_orientations()[0])
    assert c_star == pytest.approx(0.8810, abs=1e-4)          # at relative permittivity 2
    oracle = layout.copy()
    oracle.tx_angles, oracle.rx_angles = tx_angles, rx_angles
    value = objective(oracle, scenario.user_poses, scenario.medium, scenario.total_power)
    assert value == pytest.approx(best, rel=1e-12, abs=0.0)
    trace = _campaign_trace(scenario, layout, blocks)
    assert max(trace) <= best * (1.0 + 1e-12)
    assert trace[-1] > trace[0]


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


@pytest.mark.parametrize("half_side", [math.nan, math.inf, 1e308, 4e153])
def test_constraints_reject_a_box_whose_diagonal_does_not_square(half_side):
    with pytest.raises(ConfigurationError, match="too long to square"):
        _constraints(half_side)


def test_constraints_take_the_largest_box_that_squares():
    # 3 (2 * 3.8e153)^2 is finite: the feasibility check runs without overflow.
    constraints = _constraints(3.8e153)
    corners = np.array([constraints.box_min, constraints.box_max])
    assert check_feasible(corners, constraints)


@pytest.mark.parametrize("field, value", [("wavelength", math.inf), ("wavelength", math.nan),
                                          ("wavelength", 1e-320),
                                          ("relative_permittivity", math.inf),
                                          ("noise_power", math.inf)])
def test_medium_takes_finite_values_only(field, value):
    with pytest.raises(ConfigurationError, match="finite"):
        MediumParams(**{field: value})


def test_optimizer_config_validation():
    # max_outer_iterations is a positive integer: range() takes no other.
    for iterations in (0, -1, 2.5, math.nan, True):
        with pytest.raises(ConfigurationError, match="max_outer_iterations must be a positive"):
            OptimizerConfig(max_outer_iterations=iterations)
    assert OptimizerConfig(max_outer_iterations=np.int64(3)).max_outer_iterations == 3
    with pytest.raises(ConfigurationError):
        OptimizerConfig(convergence_tol=2.0)
