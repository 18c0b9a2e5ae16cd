import bisect
import math
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarlink import (ChannelMatrix, MediumParams, link_metrics, solve_beamforming,
                       water_filling, zf_precoder)
from polarlink import mimo as mimo_module
from polarlink import optimizer as optimizer_module
from polarlink.errors import ConfigurationError, NumericalError, SingularChannelError
from polarlink.mimo import (CONDITION_LIMIT, _GRAM_BOUND, _growth, _ideal_zf, _inverse_gram,
                            _zf_svd)


def _random_channel(seed, users=4, antennas=6):
    rng = np.random.default_rng(seed)
    entries = rng.standard_normal((users, antennas)) \
        + 1j * rng.standard_normal((users, antennas))
    return ChannelMatrix(entries=entries)


def test_zf_diagonal_hand_case():
    # H = diag(1, 2): W' = diag(1, 1/2), unit columns give diag gains (1, 2).
    H = ChannelMatrix(entries=np.diag([1.0, 2.0]).astype(complex))
    pre = zf_precoder(H)
    assert np.allclose(pre.columns, np.eye(2))
    assert np.allclose(pre.diag_gains, [1.0, 2.0])


def test_zf_columns_unit_norm():
    pre = zf_precoder(_random_channel(0))
    assert np.allclose(np.linalg.norm(pre.columns, axis=0), 1.0, atol=1e-12)


def test_zf_nulls_interference():
    H = _random_channel(1)
    pre = zf_precoder(H)
    effective = H.entries @ pre.columns
    diag = np.abs(np.diag(effective))
    off = np.abs(effective - np.diag(np.diag(effective)))
    assert np.all(off <= 1e-12 * diag.min())
    assert np.allclose(diag, pre.diag_gains, rtol=1e-12)


def _conditioned_channel(cond, seed, size=8):
    """size x size channel U diag(s) V^H with s log-spaced from 1 down to 1/cond."""
    rng = np.random.default_rng(seed)

    def unitary():
        q, r = np.linalg.qr(rng.standard_normal((size, size))
                            + 1j * rng.standard_normal((size, size)))
        return q * (np.diag(r) / np.abs(np.diag(r)))
    return (unitary() * np.logspace(0.0, -math.log10(cond), size)) @ unitary()


@pytest.mark.parametrize("cond", [1e8, 1e10])
def test_zf_leakage_stays_at_the_condition_number(cond):
    # Zero forcing from the SVD leaks about eps * cond; inverting H H^H would
    # square the condition number (leakage 0.3 at 1e8, 20 at 1e10).
    for seed in range(10):
        H = ChannelMatrix(entries=_conditioned_channel(cond, seed))
        effective = H.entries @ zf_precoder(H).columns
        diag = np.abs(np.diag(effective))
        off = np.abs(effective - np.diag(np.diag(effective)))
        assert off.max() <= 10.0 * np.finfo(float).eps * cond * diag.min()


@pytest.mark.parametrize("cond", [1e8, 1e10])
def test_zf_gains_match_pseudo_inverse(cond):
    for seed in range(10):
        entries = _conditioned_channel(cond, seed)
        expected = 1.0 / np.linalg.norm(np.linalg.pinv(entries), axis=0)
        gains = zf_precoder(ChannelMatrix(entries=entries)).diag_gains
        assert np.allclose(gains, expected, rtol=1e-9, atol=0.0)


def _svd_inverse_gram_diagonal(entries):
    """diag((H H^H)^-1) from the SVD: sum_j |U_kj|^2 / S_j^2."""
    U, S, _ = _zf_svd(entries)
    return np.add.reduce(np.abs(U)**2 / S**2, axis=-1)


def _evaluate_channel(monkeypatch, entries):
    """optimizer._evaluate on a channel whose gains are entries."""
    monkeypatch.setattr(optimizer_module, "combine_terms",
                        lambda *sides: types.SimpleNamespace(gains=entries))
    return optimizer_module._evaluate(None, None, None, MediumParams(), 0.5)


@pytest.mark.parametrize("seed", range(3))
def test_the_gram_guard_keeps_the_singular_limit(monkeypatch, seed):
    # cond(H) 10% above CONDITION_LIMIT: the trace product, about cond^2,
    # sends _inverse_gram to the SVD, which raises as zero forcing does.
    entries = _conditioned_channel(1.1 * CONDITION_LIMIT, seed)
    with pytest.raises(SingularChannelError):
        _zf_svd(entries)
    with pytest.raises(SingularChannelError):
        _inverse_gram(entries)
    with pytest.raises(SingularChannelError):
        _evaluate_channel(monkeypatch, entries)


@pytest.mark.parametrize("seed", range(3))
def test_an_ill_conditioned_regular_channel_takes_the_svd(seed):
    # cond(H) = 1e5 is regular, but its trace product, at least 1e10, is
    # above _GRAM_BOUND: G^-1 comes from the SVD, its diagonal bit for bit
    # the sum of positive terms, and its off-diagonal from U S^-2 U^H.
    entries = _conditioned_channel(1e5, seed)
    U, S, _ = _zf_svd(entries)
    assert np.add.reduce(S**2) * np.add.reduce(S**-2.0) >= _GRAM_BOUND
    with mock.patch.object(mimo_module, "_zf_svd", wraps=_zf_svd) as svd:
        inverse = _inverse_gram(entries)
    assert svd.call_count == 1
    assert np.array_equal(inverse.diagonal().real, _svd_inverse_gram_diagonal(entries))
    assert np.all(inverse.diagonal().imag == 0.0)
    assert np.allclose(inverse, (U / S**2) @ U.conj().T, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_channel_raises_numerical_error(monkeypatch, bad):
    # A nan or an inf entry makes G^-1 and its trace product nan, so the SVD
    # decides. With nan it fails to converge; with inf it gives nan singular
    # values. _zf_svd raises NumericalError for both, so no nan J reaches the
    # ascent and no nan precoder or SINR reaches a record.
    entries = _conditioned_channel(10.0, 0)
    entries[2, 3] = bad
    H = ChannelMatrix(entries=entries)
    with np.errstate(invalid="ignore"):         # inf * 0 in forming G
        with pytest.raises(NumericalError, match="did not converge" if math.isnan(bad)
                           else "non-finite singular values"):
            _inverse_gram(entries)
        with pytest.raises(NumericalError):
            _evaluate_channel(monkeypatch, entries)
        with pytest.raises(NumericalError):
            zf_precoder(H)
        with pytest.raises(NumericalError):
            solve_beamforming(H, 1.0, 1e-5)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.data())
def test_the_gram_inverse_matches_the_svd_below_the_bound(seed, antennas, data):
    # Drawn channels of cond(H) <= 1e4, scaled over eight decades: K rows of
    # an L x L channel of condition number cond, which bounds theirs. The
    # diagonal of _inverse_gram's G^-1 (t_k / sigma^2) matches the SVD's
    # within 64 eps cond(H)^2 relative (1.4e-14 at cond 1, 1.4e-6 at 1e4;
    # the worst of 20,000 draws was 25 eps at cond(H) < 10 and 0.8 eps
    # cond(H)^2 above). The guard takes G^-1 from G whenever the trace
    # product is clearly below _GRAM_BOUND and from the SVD whenever it is
    # clearly above.
    users = data.draw(st.integers(1, antennas))
    cond = 10.0 ** data.draw(st.floats(0.0, 4.0))
    scale = 10.0 ** data.draw(st.floats(-8.0, 0.0))
    entries = scale * _conditioned_channel(cond, seed, size=antennas)[:users]
    S = np.linalg.svd(entries, compute_uv=False)
    with mock.patch.object(mimo_module, "_zf_svd", wraps=_zf_svd) as svd:
        inverse = _inverse_gram(entries)
    product = np.add.reduce(S**2) * np.add.reduce(S**-2.0)
    if product < 0.99 * _GRAM_BOUND:
        assert svd.call_count == 0
    elif product > 1.01 * _GRAM_BOUND:
        assert svd.call_count == 1
    tolerance = 64.0 * np.finfo(float).eps * (S[0] / S[-1])**2
    assert np.allclose(inverse.diagonal().real, _svd_inverse_gram_diagonal(entries),
                       rtol=tolerance, atol=0.0)


def test_zf_singular_channel_raises():
    entries = np.ones((2, 3), dtype=complex)   # identical rows
    with pytest.raises(SingularChannelError):
        zf_precoder(ChannelMatrix(entries=entries))


def test_water_filling_hand_case():
    # noise 1, inverse SNRs (0.1, 0.3), budget 1: level (1 + 0.4)/2 = 0.7,
    # powers (0.6, 0.4).
    gains = np.sqrt(1.0 / np.array([0.1, 0.3]))
    alloc = water_filling(gains, 1.0, 1.0)
    assert np.allclose(alloc.powers, [0.6, 0.4], atol=1e-9)


def test_water_filling_starves_weak_user():
    gains = np.sqrt(1.0 / np.array([0.01, 100.0]))
    alloc = water_filling(gains, 0.5, 1.0)
    assert alloc.powers[1] == 0.0
    assert alloc.powers[0] == pytest.approx(0.5, abs=1e-9)


def test_water_filling_single_user_gets_everything():
    alloc = water_filling(np.array([0.3]), 0.7, 1e-5)
    assert alloc.powers[0] == pytest.approx(0.7, abs=1e-12)


def test_water_filling_input_validation():
    with pytest.raises(ConfigurationError):
        water_filling(np.array([0.0, 1.0]), 1.0, 1e-5)
    with pytest.raises(ConfigurationError):
        water_filling(np.array([1.0, math.nan]), 1.0, 1e-5)
    with pytest.raises(ConfigurationError):
        water_filling(np.array([1.0]), 0.0, 1e-5)
    with pytest.raises(ConfigurationError):
        water_filling(np.ones((2, 3)), 1.0, 1e-5)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_water_filling_budget_and_level_properties(seed):
    rng = np.random.default_rng(seed)
    count = int(rng.integers(1, 9))
    gains = rng.uniform(1e-6, 1e-2, count)
    total = float(rng.uniform(0.01, 2.0))
    noise = float(rng.uniform(1e-6, 1e-4))
    alloc = water_filling(gains, total, noise)
    assert np.all(alloc.powers >= 0.0)
    assert abs(float(alloc.powers.sum()) - total) <= 1e-12 * total
    inv_snr = noise / gains**2
    funded = alloc.powers > 0
    levels = (alloc.powers + inv_snr)[funded]
    assert np.ptp(levels) <= 1e-12 * levels.mean()
    if np.any(~funded):
        assert inv_snr[~funded].min() >= levels.mean() * (1.0 - 1e-6)


def test_water_filling_spends_budget_over_large_thresholds():
    # Thresholds near 8e3 against a 0.019 W budget: subtracting them from an
    # absolute water level cancels about 6 of the budget's 16 digits.
    total = 0.01853098965730244
    alloc = water_filling(np.full(8, 1e-4), total, 8.241683404283027e-05)
    assert abs(float(alloc.powers.sum()) - total) <= 1e-12 * total


def _scalar_water_level(gains, total, noise):
    """Reference: the one-row bisection in plain Python floats."""
    thresholds = sorted((noise / np.asarray(gains) ** 2).tolist())
    prefix = [0.0]
    for t in thresholds:
        prefix.append(prefix[-1] + t)
    low, high = 0.0, total + prefix[-1]
    level = high
    for _ in range(200):
        level = 0.5 * (low + high)
        active = bisect.bisect_right(thresholds, level)
        used = active * level - prefix[active]
        if abs(used - total) <= 1e-12 * total:
            break
        if used > total:
            high = level
        else:
            low = level
        if high - low <= 1e-16 * high:
            level = 0.5 * (low + high)
            break
    return level


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_water_filling_matches_scalar_bisection(seed):
    # Equal strong gains, equal weak ones (thresholds far above a small
    # budget) and mixed ones with unfunded users: each draw must match the
    # bisection's level.
    rng = np.random.default_rng(seed)
    count = int(rng.integers(1, 9))
    gains = rng.uniform(1e-6, 1e-2, count)
    equal = rng.uniform()
    if equal < 0.2:
        gains[:] = 0.05
    elif equal > 0.8:
        gains[:] = 1e-4
    total = float(rng.uniform(0.01, 2.0))
    noise = float(rng.uniform(1e-6, 1e-4))
    powers = water_filling(gains, total, noise).powers
    level = _scalar_water_level(gains, total, noise)
    expected = np.maximum(level - noise / gains**2, 0.0)
    assert np.max(np.abs(powers - expected)) <= 1e-11 * level


def test_link_metrics_single_user():
    H = ChannelMatrix(entries=np.array([[0.5 + 0.0j, 0.5j]]))
    solution = solve_beamforming(H, 0.5, 1e-5)
    # K=1 reduces to matched filtering: gamma = P |h|^2 / sigma^2.
    expected = 0.5 * (0.5**2 + 0.5**2) / 1e-5
    assert solution.metrics.sinr[0] == pytest.approx(expected, rel=1e-9)
    assert solution.metrics.total_sinr == pytest.approx(expected, rel=1e-9)
    assert solution.metrics.average_rate == pytest.approx(
        0.5 * math.log2(1.0 + expected), rel=1e-12)


def test_total_sinr_is_geometric_mean_transform():
    H = _random_channel(5, users=3, antennas=5)
    solution = solve_beamforming(H, 1.0, 1e-4)
    sinr = solution.metrics.sinr
    expected = float(np.prod(1.0 + sinr) ** (1.0 / 3.0) - 1.0)
    assert solution.metrics.total_sinr == pytest.approx(expected, rel=1e-12)
    assert np.allclose(solution.metrics.rates, 0.5 * np.log2(1.0 + sinr))


def test_zero_forcing_sinr_closed_form():
    # With interference nulled, sinr_k = P_k g_k^2 / sigma^2.
    H = _random_channel(9, users=4, antennas=4)
    noise = 1e-5
    solution = solve_beamforming(H, 0.5, noise)
    g = solution.precoder.diag_gains
    p = solution.allocation.powers
    assert np.allclose(solution.metrics.sinr, p * g**2 / noise, rtol=1e-9)


def test_more_power_never_hurts():
    H = _random_channel(13, users=4, antennas=6)
    low = solve_beamforming(H, 0.25, 1e-5).metrics.total_sinr
    high = solve_beamforming(H, 0.5, 1e-5).metrics.total_sinr
    assert high > low


def test_row_scaling_scales_single_user_sinr():
    # Doubling a lone user's channel row quadruples its SNR.
    H = ChannelMatrix(entries=np.array([[1.0 + 2.0j, 0.5 - 1.0j]]))
    H2 = ChannelMatrix(entries=2.0 * H.entries)
    s1 = solve_beamforming(H, 0.5, 1e-5).metrics.total_sinr
    s2 = solve_beamforming(H2, 0.5, 1e-5).metrics.total_sinr
    assert s2 == pytest.approx(4.0 * s1, rel=1e-9)


def test_link_metrics_detects_residual_interference():
    # A deliberately non-ZF precoder must produce nonzero interference terms.
    H = ChannelMatrix(entries=np.eye(2, dtype=complex))
    pre = zf_precoder(H)
    skew = np.array([[1.0, 0.1], [0.0, 1.0]]) @ pre.columns
    skew /= np.linalg.norm(skew, axis=0)
    from polarlink.mimo import Precoder
    bad = Precoder(columns=skew, diag_gains=np.abs(np.diag(H.entries @ skew)))
    alloc = water_filling(bad.diag_gains, 1.0, 1e-2)
    metrics = link_metrics(H, bad, alloc, 1e-2)
    clean = link_metrics(H, pre, water_filling(pre.diag_gains, 1.0, 1e-2), 1e-2)
    assert metrics.sinr[0] < clean.sinr[0]


@pytest.mark.parametrize("users, antennas, weak_row, power", [
    (4, 6, 1.0, 0.5), (5, 5, 1.0, 0.5),
    # One row 100x weaker and a 1 mW budget: that user stays unfunded.
    (4, 6, 1e-2, 1e-3)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ideal_zero_forcing_closed_form_matches_the_full_solve(seed, users, antennas,
                                                                weak_row, power):
    # The optimizer's closed form from G^-1 against zero forcing, water
    # filling and the general-interference metrics.
    noise = 1e-5
    H = _random_channel(seed, users, antennas)
    H.entries[0] *= weak_row
    solution = solve_beamforming(H, power, noise)
    growth, level, sinr = _ideal_zf(_inverse_gram(H.entries), power, noise)
    funded = solution.allocation.powers > 0
    assert funded[0] == (weak_row == 1.0) and funded[1:].all()
    assert np.all(sinr[~funded] == 0.0)
    assert sinr[funded] == pytest.approx(solution.metrics.sinr[funded], rel=1e-9)
    assert growth - 1.0 == pytest.approx(solution.metrics.total_sinr, rel=1e-9)
    # A funded user's SINR is the level over its threshold, less 1.
    thresholds = noise / solution.precoder.diag_gains**2
    assert sinr[funded] == pytest.approx(level / thresholds[funded] - 1.0, rel=1e-9)
    # link_metrics scores its SINRs with the same geometric-mean rule.
    assert solution.metrics.total_sinr == float(_growth(solution.metrics.sinr) - 1.0)
