import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarlink import AntennaPose, link_terms
from polarlink.errors import GeometryError
from polarlink.geometry import _unit_axes, angles_to_unit, unit, unit_to_angles
from polarlink.medium import MediumParams

# Fixed reference link used throughout: tx at the origin, user at
# (75, -40, 50) m, both antennas vertical unless stated otherwise. The link
# angles are terms of the channel kernel, channel.link_terms.
RX = np.array([75.0, -40.0, 50.0])
RX_NORM = math.sqrt(75.0**2 + 40.0**2 + 50.0**2)   # sqrt(9725)
VERTICAL = np.array([0.0, 0.0, 1.0])
MEDIUM = MediumParams()


def _terms(tx_dir=VERTICAL, rx_pos=RX, rx_dir=VERTICAL):
    """link_terms of one link from a transmitter at the origin."""
    tx = AntennaPose(position=np.zeros(3), orientation=tx_dir)
    rx = AntennaPose(position=rx_pos, orientation=rx_dir)
    return link_terms(tx.position[None, :], tx.orientation[None, :],
                      rx.position[None, :], rx.orientation[None, :], MEDIUM)


def test_unit_rejects_zero_vector():
    with pytest.raises(GeometryError):
        unit(np.zeros(3))


def test_unit_normalizes():
    v = unit([3.0, 0.0, 4.0])
    assert np.allclose(v, [0.6, 0.0, 0.8])


def test_spherical_to_cartesian_axes():
    north = angles_to_unit(0.0, 0.3)
    assert np.allclose(north, [0.0, 0.0, 1.0])
    x_axis = angles_to_unit(math.pi / 2, 0.0)
    assert np.allclose(x_axis, [1.0, 0.0, 0.0], atol=1e-15)


@settings(max_examples=100, deadline=None)
@given(polar=st.floats(-10.0, 10.0), azimuthal=st.floats(-10.0, 10.0))
def test_angles_to_unit_accepts_any_real_angles(polar, azimuthal):
    v = angles_to_unit(polar, azimuthal)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_angles_to_unit_broadcasts():
    polar = np.array([0.0, math.pi / 2])
    azim = np.array([0.0, math.pi / 2])
    out = angles_to_unit(polar, azim)
    assert out.shape == (2, 3)
    assert np.allclose(out[0], [0.0, 0.0, 1.0])
    assert np.allclose(out[1], [0.0, 1.0, 0.0], atol=1e-15)


@pytest.mark.parametrize("polar, azimuthal", [
    (0.7, 2.1),
    (np.linspace(0.0, math.pi, 7), np.linspace(0.0, 6.0, 7)),
    (np.linspace(0.0, math.pi, 5)[:, None], np.linspace(0.0, 6.0, 9)),
])
def test_angles_to_unit_is_a_view_of_its_component_planes(polar, azimuthal):
    # broadcast + (3,) rows over the three planes _unit_axes writes: each
    # component is its plane bit for bit, and a (rows, A, 3) result flattens
    # to (rows * A, 3) rows without a copy.
    polar, azimuthal = np.asarray(polar, dtype=float), np.asarray(azimuthal, dtype=float)
    out = angles_to_unit(polar, azimuthal)
    planes = _unit_axes(polar, azimuthal)
    assert out.shape == np.broadcast_shapes(polar.shape, azimuthal.shape) + (3,)
    assert planes.shape == (3,) + out.shape[:-1] and planes.flags.c_contiguous
    for i in range(3):
        assert np.asarray(out[..., i]).tobytes() == planes[i].tobytes()
    assert np.shares_memory(out.reshape(-1, 3), out)


def _half_tangent_sin_cos(x):
    """sin x and cos x as 2t / (1 + t^2) and (1 - t^2) / (1 + t^2), t = tan(x/2)."""
    t = np.tan(np.asarray(x, dtype=float) / 2.0)
    return 2.0 * t / (1.0 + t**2), (1.0 - t**2) / (1.0 + t**2)


def _stacked_angles_to_unit(polar, azimuthal):
    """The half-angle tangent formula, stacked with np.stack."""
    sin_p, cos_p = _half_tangent_sin_cos(polar)
    sin_a, cos_a = _half_tangent_sin_cos(azimuthal)
    return np.stack([sin_p * cos_a, sin_p * sin_a, cos_p * np.ones_like(cos_a)], axis=-1)


def _sin_cos_angles_to_unit(polar, azimuthal):
    """The unit axes from np.sin and np.cos."""
    st = np.sin(polar)
    return np.stack([st * np.cos(azimuthal), st * np.sin(azimuthal),
                     np.cos(polar) * np.ones_like(azimuthal)], axis=-1)


def test_angles_to_unit_matches_the_stacked_formula_bit_for_bit():
    rng = np.random.default_rng(3)
    polar = rng.uniform(-4.0, 4.0, 1000)
    azimuthal = rng.uniform(-7.0, 7.0, 1000)
    grid_polar, grid_azimuthal = np.meshgrid(polar[:37], azimuthal[:41], indexing="ij")
    for args in ((polar, azimuthal), (0.7, azimuthal), (polar, 0.7),
                 (grid_polar, grid_azimuthal), (polar[:37, None], azimuthal[None, :41]),
                 (polar[0], azimuthal[0]), (0.0, 0.3)):
        expected = _stacked_angles_to_unit(*args)
        got = angles_to_unit(*args)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


def test_angles_to_unit_is_within_two_ulp_of_sin_and_cos():
    rng = np.random.default_rng(4)
    polar = rng.uniform(-1e3, 1e3, 100_000)
    azimuthal = rng.uniform(-1e3, 1e3, 100_000)
    got = angles_to_unit(polar, azimuthal)
    assert np.max(np.abs(got - _sin_cos_angles_to_unit(polar, azimuthal))) <= 4.5e-16
    assert np.max(np.abs(np.linalg.norm(got, axis=-1) - 1.0)) <= 4.5e-16


def test_angles_to_unit_is_exact_at_the_pole():
    azimuthal = np.array([0.0, 0.3, -2.0, math.pi, 1e3])
    for pole in (0.0, -0.0):
        assert np.array_equal(angles_to_unit(pole, azimuthal),
                              np.tile([0.0, 0.0, 1.0], (azimuthal.size, 1)))


def test_angles_to_unit_raises_no_warning_at_huge_and_special_angles():
    angles = np.array([1e300, -1e300, math.pi, -math.pi, 2.0 * math.pi, -0.0,
                       np.nextafter(math.pi, 0.0), np.nextafter(math.pi, 4.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        v = angles_to_unit(angles[:, None], angles[None, :])
    assert np.all(np.abs(np.linalg.norm(v, axis=-1) - 1.0) <= 4.5e-16)
    # A signed zero comes out as np.sin and np.cos give it.
    assert np.array_equal(np.signbit(v[5]), np.signbit(_sin_cos_angles_to_unit(-0.0, angles)))


def _assert_canonical(angles):
    assert np.all((angles[..., 0] >= 0.0) & (angles[..., 0] <= math.pi))
    assert np.all((angles[..., 1] >= 0.0) & (angles[..., 1] < 2.0 * math.pi))


@settings(max_examples=150, deadline=None)
@given(polar=st.floats(-12.0, 12.0), azimuthal=st.floats(-12.0, 12.0),
       scale=st.floats(1e-3, 1e3))
def test_unit_to_angles_round_trip(polar, azimuthal, scale):
    v = angles_to_unit(polar, azimuthal)
    back = unit_to_angles(scale * v)
    _assert_canonical(back)
    assert np.allclose(angles_to_unit(back[0], back[1]), v, rtol=0.0, atol=1e-15)


_EDGES = (0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 1e-17, -1e-17, 1e150, -1e150)


@settings(max_examples=300, deadline=None)
@given(vector=st.lists(st.floats(-1e150, 1e150) | st.sampled_from(_EDGES),
                       min_size=3, max_size=3))
def test_unit_to_angles_is_canonical(vector):
    # Poles, negative zeros, azimuths a hair under 2 pi (y = -1e-300 or
    # -1e-17 against x = 1) and vectors of any length.
    _assert_canonical(unit_to_angles(vector))


@pytest.mark.parametrize("vector, expected", [
    ([0.0, 0.0, 2.0], (0.0, 0.0)),
    ([0.0, 0.0, -0.5], (math.pi, 0.0)),
    ([-0.0, -0.0, 1.0], (0.0, math.pi)),
    ([1.0, -1e-300, 0.0], (math.pi / 2, 0.0)),
    ([1.0, -1e-17, 0.0], (math.pi / 2, 0.0)),
    ([0.0, -3.0, 0.0], (math.pi / 2, 1.5 * math.pi)),
])
def test_unit_to_angles_edges(vector, expected):
    assert tuple(unit_to_angles(vector)) == expected


def _stacked_unit_to_angles(vectors):
    """The np.stack construction unit_to_angles replaced."""
    v = np.asarray(vectors, dtype=float)
    polar = np.arctan2(np.hypot(v[..., 0], v[..., 1]), v[..., 2])
    azimuthal = np.mod(np.arctan2(v[..., 1], v[..., 0]), 2.0 * np.pi)
    azimuthal = np.where(azimuthal >= 2.0 * np.pi, 0.0, azimuthal)
    return np.stack([polar, azimuthal], axis=-1)


def test_unit_to_angles_matches_the_stacked_formula_bit_for_bit():
    rng = np.random.default_rng(4)
    edges = np.array(np.meshgrid(_EDGES, _EDGES, _EDGES, indexing="ij")).reshape(3, -1).T
    for vectors in (rng.standard_normal((1000, 3)), rng.standard_normal((4, 5, 3)),
                    edges, edges[17], [1.0, -1e-300, 0.0]):
        expected = _stacked_unit_to_angles(vectors)
        got = unit_to_angles(vectors)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


def test_unit_to_angles_keeps_every_digit_near_a_pole():
    # arccos(z) of the same axes returns 0, 0 and pi: z rounds to +-1.
    for polar in (1e-16, 1e-9, math.pi - 1e-9):
        back = unit_to_angles(angles_to_unit(polar, 0.3))
        assert back[0] == pytest.approx(polar, rel=1e-15)
        assert back[1] == pytest.approx(0.3, rel=1e-15)


def test_unit_to_angles_rows():
    vectors = np.random.default_rng(0).standard_normal((4, 5, 3))
    out = unit_to_angles(vectors)
    assert out.shape == (4, 5, 2)
    assert np.allclose(angles_to_unit(out[..., 0], out[..., 1]),
                       vectors / np.linalg.norm(vectors, axis=-1, keepdims=True), atol=1e-15)


def test_emission_angle_reference_link():
    # Oracle: vertical dipole at the origin, observation (75, -40, 50):
    # cos(theta_e) = 50 / sqrt(9725).
    assert _terms().tx.cos_emission[0, 0] == pytest.approx(50.0 / RX_NORM, abs=1e-15)


def test_emission_angle_coincident_point_raises():
    # Far-field angles are measured from the origin; a receiver there has no
    # incoming direction.
    with pytest.raises(GeometryError):
        _terms(rx_pos=np.zeros(3))


def test_incident_angle_reference_link():
    # Oracle: sin(theta_i) = |p . n| / |p| = 50 / sqrt(9725) = 0.50697...
    theta_i = math.asin(_terms().rx.sin_incidence[0])
    assert theta_i == pytest.approx(math.asin(50.0 / RX_NORM), abs=1e-12)
    assert theta_i == pytest.approx(0.5317240672, abs=1e-9)


def test_incident_angle_sign_invariance():
    up = _terms(rx_dir=[0.0, 0.0, 1.0])
    down = _terms(rx_dir=[0.0, 0.0, -1.0])
    assert up.rx.sin_incidence[0] == down.rx.sin_incidence[0]
    assert math.asin(down.rx.sin_incidence[0]) == pytest.approx(0.5317240672, abs=1e-9)


def test_incident_angle_broadside_is_zero():
    assert _terms(rx_pos=[10.0, 0.0, 0.0]).rx.sin_incidence[0] == 0.0


def test_polarization_direction_perpendicular_to_propagation():
    # The incident field is transverse, so a receive axis along the path
    # sees none of it.
    assert _terms(rx_dir=RX).cos_matching[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_polarization_direction_degenerate():
    terms = _terms(tx_dir=RX)
    assert terms.tx.degenerate[0, 0]
    assert terms.gains[0, 0] == 0.0


def test_matching_angle_equals_incident_angle_when_coplanar():
    # Vertical tx, vertical rx, any receiver position: the field direction,
    # the receive axis, and the path share a plane, so alpha = theta_i.
    terms = _terms()
    alpha = math.acos(terms.cos_matching[0, 0])
    assert alpha == pytest.approx(math.asin(terms.rx.sin_incidence[0]), abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_matching_angle_range(seed):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-50, 50, 3)
    if np.linalg.norm(pos) < 1.0:
        pos = np.array([10.0, 3.0, -4.0])
    n_t = rng.standard_normal(3)
    n_r = rng.standard_normal(3)
    if np.linalg.norm(n_t) < 1e-6 or np.linalg.norm(n_r) < 1e-6:
        return
    terms = _terms(tx_dir=n_t, rx_pos=pos, rx_dir=n_r)
    if terms.tx.degenerate[0, 0]:
        return
    assert 0.0 <= math.acos(terms.cos_matching[0, 0]) <= math.pi
