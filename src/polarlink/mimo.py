"""Downlink MU-MISO processing: zero forcing, water filling, link metrics.

Every function takes one K x L channel. The zero-forcing precoder comes from
one SVD of the channel, never from the gram matrix G = H H^H, whose inverse
squares the condition number; a channel that fails the condition check
raises SingularChannelError. Water filling has no iteration: the water level
is the closed form over the sorted, prefix-summed thresholds, which are
shifted to their minimum so the powers spend the budget to rounding (within
about 1e-15 of it). The optimizer's objective, ideal zero forcing in closed
form (_ideal_zf), lives here too: it needs only G^-1, which _inverse_gram
takes from G itself wherever trace(G) trace(G^-1) shows G well conditioned
and from the SVD elsewhere; it funds users through water_filling's
_water_level and scores them with link_metrics' _growth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelMatrix
from .errors import ConfigurationError, NumericalError, SingularChannelError

CONDITION_LIMIT = 1e12
_GRAM_BOUND = 1e8           # _inverse_gram's trace-product bound: cond(H) < 1e4


@dataclass(frozen=True)
class Precoder:
    """Unit-norm precoding columns (L, K) plus the post-precoding diagonal gains.

    diag_gains[k] is |H W| on the diagonal for user k, equal to the
    reciprocal norm of the unnormalized zero-forcing column.
    """

    columns: np.ndarray
    diag_gains: np.ndarray


@dataclass(frozen=True)
class PowerAllocation:
    """Per-user transmit powers in watts, (K,), summing to the budget."""

    powers: np.ndarray
    total_power: float


@dataclass(frozen=True)
class LinkMetrics:
    """Per-user SINR and rate (K,) plus the equivalent total SINR and average rate."""

    sinr: np.ndarray
    rates: np.ndarray
    total_sinr: float
    average_rate: float


@dataclass(frozen=True)
class BeamformingSolution:
    precoder: Precoder
    allocation: PowerAllocation
    metrics: LinkMetrics


def _zf_svd(entries: np.ndarray):
    """(U, S, Vh): the thin SVD H = U S Vh behind zero forcing.

    Raises SingularChannelError when the K x L channel is rank deficient or
    its condition number exceeds 1e12, and NumericalError when the SVD fails
    or its singular values are not finite (an infinite entry makes them nan).
    """
    try:
        U, S, Vh = np.linalg.svd(entries, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"channel SVD failed: {exc}") from exc
    if not np.isfinite(S).all():
        raise NumericalError(f"channel SVD gave non-finite singular values: {S}")
    smallest, largest = S[-1], S[0]
    if smallest <= 0.0 or largest / smallest > CONDITION_LIMIT:
        raise SingularChannelError(
            f"channel condition number {largest / max(smallest, 1e-300):.3e} "
            f"exceeds {CONDITION_LIMIT:.0e}")
    return U, S, Vh


def _inverse_gram(entries: np.ndarray) -> np.ndarray:
    """G^-1 for the gram matrix G = H H^H of the K x L channel H.

    trace(G) trace(G^-1) >= cond(G), a positive definite matrix's trace
    being at least its largest eigenvalue, and inverting G loses about
    cond(G) eps of relative accuracy. So np.linalg.inv(G) is returned only
    when that product is positive and below _GRAM_BOUND, where it is
    accurate to about 1e-8 relative. Otherwise (inv raises, or the product
    is nan, inf, not positive or too large) G^-1 = U S^-2 U^H comes from
    _zf_svd, which raises as zero forcing does, with its diagonal summed
    from positive terms, sum_j |U_kj|^2 / S_j^2.
    """
    gram = entries @ entries.conj().T
    try:
        inverse = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        pass
    else:
        if 0.0 < float(gram.trace().real) * float(inverse.trace().real) < _GRAM_BOUND:
            return inverse
    U, S, _ = _zf_svd(entries)
    inverse = (U / S**2) @ U.conj().T
    inverse.flat[::inverse.shape[0] + 1] = np.add.reduce(np.abs(U)**2 / S**2, axis=-1)
    return inverse


def zf_precoder(H: ChannelMatrix) -> Precoder:
    """Zero-forcing precoder W = V S^-1 U^H from the SVD H = U S V^H, columns normalized.

    This is the pseudo-inverse H^H (H H^H)^-1 without forming H H^H, so the
    interference stays nulled up to the channel's own condition number, not
    its square. A channel that is rank deficient or has a condition number
    above 1e12 raises SingularChannelError; it is never silently regularized.
    """
    U, S, Vh = _zf_svd(H.entries)
    unnormalized = (Vh.conj().T / S) @ U.conj().T
    column_norms = np.linalg.norm(unnormalized, axis=0)
    return Precoder(columns=unnormalized / column_norms, diag_gains=1.0 / column_norms)


def _water_level(inv_snr: np.ndarray, total_power: float):
    """(powers, level): the water-filling powers over the thresholds inv_snr
    (K,), which are shifted to their minimum floor first, and the unshifted
    water level (the shifted one plus floor)."""
    floor = np.minimum.reduce(inv_snr)
    excess = inv_snr - floor

    # The counts m whose m-th sorted threshold lies below levels[m-1] form a
    # prefix: m = 1 always does (its threshold is 0), and once t_m >= level_m,
    # level_{m+1} = (m level_m + t_{m+1}) / (m+1) <= t_{m+1}.
    thresholds = excess.copy()
    thresholds.sort()
    levels = (total_power + np.add.accumulate(thresholds)) / np.arange(1, inv_snr.size + 1)
    level = levels[np.count_nonzero(thresholds < levels) - 1]
    return np.maximum(level - excess, 0.0), level + floor


def _growth(sinr: np.ndarray):
    """1 + J, the geometric mean of 1 + sinr: exp(mean log1p(sinr)), J being
    the equivalent total SINR."""
    log_growth = np.log1p(sinr)
    return np.exp(np.add.reduce(log_growth) / log_growth.size)


def _ideal_zf(inverse_gram: np.ndarray, total_power: float, noise_power: float):
    """(1 + J, unshifted water level, SINR (K,)) of ideal zero forcing plus
    water filling on the channel H whose G^-1 = (H H^H)^-1 is inverse_gram
    (_inverse_gram): sinr_k = P_k / t_k with t_k = sigma^2 [G^-1]_kk."""
    inv_snr = noise_power * inverse_gram.diagonal().real
    powers, level = _water_level(inv_snr, total_power)
    sinr = powers / inv_snr
    return float(_growth(sinr)), level, sinr


def water_filling(diag_gains, total_power: float, noise_power: float) -> PowerAllocation:
    """Water-filling power allocation over interference-free per-user channels.

    P_k = max(level - 1/snr_k, 0) with snr_k = g_k^2 / sigma^2 the per-unit-power
    SNR, and the common water level in closed form: with the thresholds 1/snr_k
    sorted, funding the m cheapest users sets the level to (P + their sum) / m,
    and m is the largest count whose m-th threshold lies below that level.
    The thresholds are taken relative to their minimum first, so every funded
    quantity is below the budget and rounds relative to it, not to 1/snr: the
    powers sum to the budget within about 1e-15 of it. diag_gains is (K,).
    """
    gains = np.asarray(diag_gains, dtype=float)
    if gains.ndim != 1:
        raise ConfigurationError(f"post-precoding gains must be a (K,) vector, got {gains.shape}")
    if not (gains > 0).all():   # nan too
        raise ConfigurationError("post-precoding gains must be positive")
    if not total_power > 0:
        raise ConfigurationError(f"total power must be positive, got {total_power}")
    powers, _ = _water_level(noise_power / gains**2, total_power)
    return PowerAllocation(powers=powers, total_power=float(total_power))


def link_metrics(H: ChannelMatrix, W: Precoder, allocation: PowerAllocation,
                 noise_power: float) -> LinkMetrics:
    """SINR, per-user rate, equivalent total SINR, and average rate.

    SINR uses the general interference expression, so residual leakage of any
    precoder shows up rather than being assumed away.
    """
    effective = H.entries @ W.columns                      # (K, K), entry (k, j)
    powers = allocation.powers
    signal = powers * np.abs(effective.diagonal())**2
    cross = powers * np.abs(effective)**2
    interference = np.add.reduce(cross, axis=1) - cross.diagonal()
    sinr = signal / (noise_power + interference)
    rates = 0.5 * np.log2(1.0 + sinr)
    total_sinr = _growth(sinr) - 1.0
    return LinkMetrics(sinr=sinr, rates=rates, total_sinr=float(total_sinr),
                       average_rate=float(0.5 * np.log2(1.0 + total_sinr)))


def solve_beamforming(H: ChannelMatrix, total_power: float, noise_power: float) -> BeamformingSolution:
    """Zero forcing + water filling + metrics for one channel realization."""
    precoder = zf_precoder(H)
    allocation = water_filling(precoder.diag_gains, total_power, noise_power)
    metrics = link_metrics(H, precoder, allocation, noise_power)
    return BeamformingSolution(precoder=precoder, allocation=allocation, metrics=metrics)
