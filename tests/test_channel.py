import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarlink import (AntennaPose, ChannelMatrix, channel_matrix, element_gain,
                       link_terms, radiation_factor, reflection_coefficients)
from polarlink.channel import gain_matrix, link_geometry, transmit_terms
from polarlink.errors import UnsupportedConfigurationError
from polarlink.medium import ANTENNA_FACTOR, SPEED_OF_LIGHT, VACUUM_PERMEABILITY, MediumParams

RX = np.array([75.0, -40.0, 50.0])
RX_NORM = math.sqrt(9725.0)
VERTICAL = np.array([0.0, 0.0, 1.0])


@pytest.fixture(scope="module")
def medium():
    return MediumParams()


def _oracle_gain_magnitude(tx_dir, rx_pos, rx_dir, medium):
    """Scalar re-derivation of |h| with plain trig, no shared code path."""
    r = np.linalg.norm(rx_pos)
    u = rx_pos / r
    cos_e = float(np.dot(u, tx_dir))
    theta_e = math.acos(max(-1.0, min(1.0, cos_e)))
    if math.sin(theta_e) < 1e-9:
        return 0.0
    rad = math.cos(0.5 * math.pi * math.cos(theta_e)) / math.sin(theta_e)
    field = tx_dir - cos_e * u
    field = field / np.linalg.norm(field)
    sin_i = abs(float(np.dot(u, rx_dir)))
    theta_i = math.asin(min(1.0, sin_i))
    ct = math.cos(theta_i)
    eps = medium.relative_permittivity
    root = math.sqrt(eps - 1.0 + ct * ct)
    g_par = (root - eps * ct) / (root + eps * ct)
    g_perp = (root - ct) / (root + ct)
    cos_a = float(np.dot(field, rx_dir))
    match = math.sqrt(1.0 - g_par**2 * cos_a**2 - g_perp**2 * (1.0 - cos_a**2))
    const = 2.0 * SPEED_OF_LIGHT * VACUUM_PERMEABILITY \
        / (ANTENNA_FACTOR * 4.0 * math.pi * r)
    return const * abs(rad) * match


def test_radiation_factor_peak_and_zeros():
    assert radiation_factor(math.pi / 2) == pytest.approx(1.0, abs=1e-15)
    assert radiation_factor(0.0) == 0.0
    assert radiation_factor(math.pi) == 0.0


def test_radiation_factor_known_value():
    # F(pi/4) = cos((pi/2) cos(pi/4)) / sin(pi/4)
    expected = math.cos(0.5 * math.pi * math.cos(math.pi / 4)) / math.sin(math.pi / 4)
    assert radiation_factor(math.pi / 4) == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(0.6279332233, abs=1e-9)


def test_radiation_factor_symmetry_and_bounds():
    theta = np.linspace(1e-6, math.pi - 1e-6, 2001)
    vals = radiation_factor(theta)
    assert np.all(vals >= 0.0)
    assert np.all(vals <= 1.0 + 1e-12)
    assert np.allclose(vals, radiation_factor(math.pi - theta), atol=1e-12)


def test_radiation_factor_monotone_up_to_broadside():
    theta = np.linspace(0.0, math.pi / 2, 10_000)
    vals = radiation_factor(theta)
    assert np.all(np.diff(vals) >= -1e-15)


def test_reflection_at_normal_incidence(medium):
    # Oracle for eps_r = 2: G_par(0) = (sqrt(2)-2)/(sqrt(2)+2),
    # G_perp(0) = (sqrt(2)-1)/(sqrt(2)+1).
    g_par, g_perp = reflection_coefficients(0.0, medium)
    s2 = math.sqrt(2.0)
    assert g_par == pytest.approx((s2 - 2.0) / (s2 + 2.0), abs=1e-12)
    assert g_perp == pytest.approx((s2 - 1.0) / (s2 + 1.0), abs=1e-12)


def test_reflection_at_grazing(medium):
    g_par, g_perp = reflection_coefficients(math.pi / 2, medium)
    assert g_par == pytest.approx(1.0, abs=1e-12)
    assert g_perp == pytest.approx(1.0, abs=1e-12)


def test_brewster_zero(medium):
    theta_b = math.acos(1.0 / math.sqrt(medium.relative_permittivity + 1.0))
    g_par, _ = reflection_coefficients(theta_b, medium)
    assert abs(g_par) < 1e-12


def test_reflection_magnitudes_bounded(medium):
    theta = np.linspace(0.0, math.pi / 2, 5000)
    g_par, g_perp = reflection_coefficients(theta, medium)
    assert np.all(np.abs(g_par) <= 1.0 + 1e-12)
    assert np.all(np.abs(g_perp) <= 1.0 + 1e-12)


def _links_to(rx_dirs, medium):
    """link_terms of a vertical transmitter at the origin to users at RX, one
    per receive axis."""
    rx_dirs = np.atleast_2d(rx_dirs)
    return link_terms(np.zeros((1, 3)), VERTICAL[None, :],
                      np.tile(RX, (rx_dirs.shape[0], 1)), rx_dirs, medium)


def test_matching_efficiency_bounds_and_normal_incidence(medium):
    # At normal incidence (receive axis across the path) the efficiency does
    # not depend on how the axis is rotated about the path, since
    # |G_par| = |G_perp|.
    path = RX / RX_NORM
    e1 = np.cross(path, VERTICAL)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(path, e1)
    phi = np.linspace(0.0, math.pi, 7)
    terms = _links_to(np.cos(phi)[:, None] * e1 + np.sin(phi)[:, None] * e2, medium)
    assert np.all(terms.rx.sin_incidence < 1e-15)
    vals = terms.matching[:, 0]
    assert np.ptp(vals) < 1e-12
    g = (math.sqrt(2.0) - 1.0) / (math.sqrt(2.0) + 1.0)
    assert vals[0] == pytest.approx(math.sqrt(1.0 - g * g), abs=1e-12)


def test_matching_efficiency_zero_at_grazing(medium):
    # Receive axis along the path: grazing incidence, both coefficients 1.
    terms = _links_to(RX / RX_NORM, medium)
    assert terms.rx.sin_incidence[0] == pytest.approx(1.0, abs=1e-15)
    assert terms.rx.gamma_par[0] == 1.0 and terms.rx.gamma_perp[0] == 1.0
    assert terms.matching[0, 0] == 0.0


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_matching_efficiency_in_unit_interval(seed):
    rx_dirs = np.random.default_rng(seed).standard_normal((8, 3))
    rx_dirs /= np.linalg.norm(rx_dirs, axis=1, keepdims=True)
    m = _links_to(rx_dirs, MediumParams()).matching
    assert np.all((m >= 0.0) & (m <= 1.0))


def test_element_gain_reference_link_magnitude(medium):
    tx = AntennaPose(position=np.zeros(3), orientation=VERTICAL)
    rx = AntennaPose(position=RX, orientation=VERTICAL)
    h = element_gain(tx, rx, medium)
    assert abs(h) == pytest.approx(
        _oracle_gain_magnitude(VERTICAL, RX, VERTICAL, medium), rel=1e-12)
    assert abs(h) == pytest.approx(0.4872030289, abs=1e-9)


def test_element_gain_phase_structure(medium):
    # tx at the origin: phase is the spherical-spreading term plus pi/2 from
    # the leading 2j; the translation term vanishes.
    tx = AntennaPose(position=np.zeros(3), orientation=VERTICAL)
    rx = AntennaPose(position=RX, orientation=VERTICAL)
    h = element_gain(tx, rx, medium)
    expected_phase = (math.pi / 2 - medium.wavenumber * RX_NORM) % (2.0 * math.pi)
    assert math.atan2(h.imag, h.real) % (2.0 * math.pi) == pytest.approx(
        expected_phase, abs=1e-9)


def test_element_gain_degenerate_orientation_is_zero(medium):
    tx = AntennaPose(position=np.zeros(3), orientation=RX / RX_NORM)
    rx = AntennaPose(position=RX, orientation=VERTICAL)
    assert element_gain(tx, rx, medium) == 0.0


def test_translation_changes_phase_only(medium):
    # Moving the transmit antenna anywhere in the box leaves |h| untouched
    # and advances the phase by k * (u . shift).
    tx0 = AntennaPose(position=np.zeros(3), orientation=VERTICAL)
    rx = AntennaPose(position=RX, orientation=VERTICAL)
    h0 = element_gain(tx0, rx, medium)
    rng = np.random.default_rng(7)
    for _ in range(20):
        shift = rng.uniform(-1.0, 1.0, 3)
        h1 = element_gain(AntennaPose(position=shift, orientation=VERTICAL), rx, medium)
        assert abs(h1) == pytest.approx(abs(h0), rel=1e-15)
        expected = medium.wavenumber * float(np.dot(RX, shift)) / RX_NORM
        delta = np.angle(h1 / h0)
        assert math.cos(delta - expected) == pytest.approx(1.0, abs=1e-9)


def test_gain_matrix_matches_element_gain(medium):
    rng = np.random.default_rng(3)
    tx_p = rng.uniform(-1, 1, (4, 3))
    tx_n = rng.standard_normal((4, 3))
    tx_n /= np.linalg.norm(tx_n, axis=1, keepdims=True)
    rx_p = rng.uniform(-80, 80, (3, 3))
    rx_p += np.sign(rx_p) * 5.0
    rx_n = rng.standard_normal((3, 3))
    rx_n /= np.linalg.norm(rx_n, axis=1, keepdims=True)
    gains = gain_matrix(tx_p, tx_n, rx_p, rx_n, medium)
    assert gains.shape == (3, 4)
    for k in range(3):
        for ell in range(4):
            single = element_gain(
                AntennaPose(position=tx_p[ell], orientation=tx_n[ell]),
                AntennaPose(position=rx_p[k], orientation=rx_n[k]), medium)
            assert gains[k, ell] == pytest.approx(single, rel=1e-12)


def test_one_receiver_position_broadcasts_against_its_axes(medium):
    # One receiver position (1, 3) against N receive axes builds the same
    # gains, bit for bit, as the position repeated N times; a transmit axis
    # along the path gives exactly zero gains either way.
    rng = np.random.default_rng(7)
    rx_n = rng.standard_normal((200, 3))
    rx_n /= np.linalg.norm(rx_n, axis=1, keepdims=True)
    tx_p = np.array([[0.0, 0.0, 0.0], [0.01, 0.0, 0.0]])
    tx_n = np.stack([VERTICAL, RX / RX_NORM])
    one = gain_matrix(tx_p, tx_n, RX[None, :], rx_n, medium)
    tiled = gain_matrix(tx_p, tx_n, np.tile(RX, (len(rx_n), 1)), rx_n, medium)
    assert one.shape == tiled.shape == (200, 2)
    assert np.array_equal(one, tiled)
    assert np.all(one[:, 0] != 0.0)
    assert np.all(one[:, 1] == 0.0)


@pytest.mark.parametrize("users, antennas", [(1, 1), (1, 8), (8, 1), (8, 8),
                                             (1, 1 << 14), (1 << 14, 1)])
def test_sin_emission_is_the_norm_of_the_field_direction(medium, users, antennas):
    # The explicit sum of squared components rounds as np.linalg.norm does.
    rng = np.random.default_rng(users + 31 * antennas)
    rx_pos = rng.uniform(-100.0, 100.0, (users, 3))
    tx_n = rng.standard_normal((antennas, 3))
    tx_n /= np.linalg.norm(tx_n, axis=1, keepdims=True)
    path_dir = link_geometry(np.zeros((1, 3)), rx_pos, medium).path_dir
    cos_e = path_dir @ tx_n.T
    unnormalized = tx_n[None, :, :] - cos_e[:, :, None] * path_dir[:, None, :]
    expected = np.linalg.norm(unnormalized, axis=-1)
    assert transmit_terms(path_dir, tx_n).sin_emission.tobytes() == expected.tobytes()


def test_gain_matrix_antipodal_symmetry(medium):
    # |h| is invariant under flipping either dipole axis.
    rng = np.random.default_rng(11)
    tx_n = rng.standard_normal((2, 3))
    tx_n /= np.linalg.norm(tx_n, axis=1, keepdims=True)
    rx_n = rng.standard_normal((1, 3))
    rx_n /= np.linalg.norm(rx_n, axis=1, keepdims=True)
    base = np.abs(gain_matrix(np.zeros((2, 3)), tx_n, RX[None, :], rx_n, medium))
    flip_t = np.abs(gain_matrix(np.zeros((2, 3)), -tx_n, RX[None, :], rx_n, medium))
    flip_r = np.abs(gain_matrix(np.zeros((2, 3)), tx_n, RX[None, :], -rx_n, medium))
    assert np.allclose(base, flip_t, rtol=1e-14)
    assert np.allclose(base, flip_r, rtol=1e-14)


def test_channel_matrix_shape_and_user_limit(medium):
    tx = [AntennaPose(position=np.zeros(3) + [0.01 * i, 0, 0], orientation=VERTICAL)
          for i in range(2)]
    rx = [AntennaPose(position=RX, orientation=VERTICAL),
          AntennaPose(position=[-30.0, 60.0, 10.0], orientation=[1.0, 0.0, 0.0]),
          AntennaPose(position=[5.0, 5.0, 90.0], orientation=[0.0, 1.0, 0.0])]
    with pytest.raises(UnsupportedConfigurationError):
        channel_matrix(tx, rx, medium)
    H = channel_matrix(tx, rx[:2], medium)
    assert H.entries.shape == (2, 2)
    assert H.user_count == 2 and H.antenna_count == 2


def test_channel_matrix_rejects_more_users_than_antennas():
    with pytest.raises(UnsupportedConfigurationError):
        ChannelMatrix(entries=np.ones((3, 2), dtype=complex))


def test_channel_matrix_rejects_stacks():
    with pytest.raises(UnsupportedConfigurationError):
        ChannelMatrix(entries=np.ones((2, 2, 3), dtype=complex))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_gain_magnitude_matches_scalar_oracle(seed):
    medium = MediumParams()
    rng = np.random.default_rng(seed)
    rx_pos = rng.uniform(-100, 100, 3)
    if np.linalg.norm(rx_pos) < 2.0:
        rx_pos = np.array([20.0, -30.0, 40.0])
    tx_dir = rng.standard_normal(3)
    rx_dir = rng.standard_normal(3)
    if np.linalg.norm(tx_dir) < 1e-6 or np.linalg.norm(rx_dir) < 1e-6:
        return
    tx_dir /= np.linalg.norm(tx_dir)
    rx_dir /= np.linalg.norm(rx_dir)
    h = gain_matrix(np.zeros((1, 3)), tx_dir[None, :], rx_pos[None, :],
                    rx_dir[None, :], medium)[0, 0]
    assert abs(h) == pytest.approx(
        _oracle_gain_magnitude(tx_dir, rx_pos, rx_dir, medium), rel=1e-9, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_link_terms_recompose_gain(seed, force_degenerate):
    # |h| = C / r * |F(theta_e)| * matching on every link, with the terms
    # bounded and degenerate links carrying exactly zero gain.
    medium = MediumParams()
    rng = np.random.default_rng(seed)
    tx_p = rng.uniform(-1.0, 1.0, (4, 3))
    tx_n = rng.standard_normal((4, 3))
    rx_p = rng.uniform(-100.0, 100.0, (3, 3))
    rx_p[np.linalg.norm(rx_p, axis=1) < 2.0] = [20.0, -30.0, 40.0]
    rx_n = rng.standard_normal((3, 3))
    if force_degenerate:
        tx_n[1] = rx_p[2]                     # axis along the path to user 2
    tx_n /= np.linalg.norm(tx_n, axis=1, keepdims=True)
    rx_n /= np.linalg.norm(rx_n, axis=1, keepdims=True)
    terms = link_terms(tx_p, tx_n, rx_p, rx_n, medium)

    assert np.all((terms.matching >= 0.0) & (terms.matching <= 1.0))
    assert np.all(np.abs(terms.cos_matching) <= 1.0)
    assert np.all(terms.gains[terms.tx.degenerate] == 0.0)
    if force_degenerate:
        assert terms.tx.degenerate[2, 1]
    const = 2.0 * SPEED_OF_LIGHT * VACUUM_PERMEABILITY \
        / (ANTENNA_FACTOR * 4.0 * np.pi * np.linalg.norm(rx_p, axis=1))
    rad = radiation_factor(np.arccos(np.clip(terms.tx.cos_emission, -1.0, 1.0)))
    expected = np.where(terms.tx.degenerate, 0.0,
                        const[:, None] * np.abs(rad) * terms.matching)
    assert np.allclose(np.abs(terms.gains), expected, rtol=1e-12, atol=0.0)

    # The cosine-form terms agree with the angle-form public functions.
    g_par, g_perp = reflection_coefficients(np.arcsin(terms.rx.sin_incidence), medium)
    assert np.allclose(terms.rx.gamma_par, g_par, rtol=0.0, atol=1e-12)
    assert np.allclose(terms.rx.gamma_perp, g_perp, rtol=0.0, atol=1e-12)
    assert np.allclose(terms.tx.sin_emission**2 + terms.tx.cos_emission**2, 1.0,
                       rtol=0.0, atol=1e-15)
    assert np.allclose(terms.rx.cos_incidence**2 + terms.rx.sin_incidence**2, 1.0,
                       rtol=0.0, atol=1e-15)
    regular = ~terms.tx.degenerate
    assert np.allclose(np.linalg.norm(terms.tx.field_dir, axis=-1)[regular], 1.0,
                       rtol=0.0, atol=1e-15)
    # The field n - (n . u) u is orthogonal to the path up to rounding.
    across = (np.einsum("kli,ki->kl", terms.tx.field_dir, terms.geometry.path_dir)
              * terms.tx.sin_emission)
    assert np.allclose(across[regular], 0.0, rtol=0.0, atol=1e-15)
