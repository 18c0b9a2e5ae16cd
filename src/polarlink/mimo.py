"""Downlink MU-MISO processing: zero forcing, water filling, link metrics.

Every function takes a single K x L channel or a stack of them, (..., K, L),
and treats each channel of a stack exactly as it would treat that channel
alone: batched SVD and inverse run the same LAPACK routine per matrix, and
sorts and cumulative sums the same order per row, so a stacked result equals
the per-channel results bit for bit. Water filling has no iteration: the
water level is the closed form over the sorted, prefix-summed thresholds,
which are shifted to their minimum so the powers spend the budget to
rounding (within about 1e-15 of it). A single channel that fails the
condition check raises SingularChannelError. In a stack such a channel is
flagged instead (Precoder.singular): its gram matrix is swapped for the
identity before the inverse, so it cannot stop the other channels, and its
total SINR is -inf.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .channel import ChannelMatrix
from .errors import ConfigurationError, SingularChannelError

CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class Precoder:
    """Unit-norm precoding columns (..., L, K) plus the post-precoding diagonal gains.

    diag_gains[..., k] is |H W| on the diagonal for user k, equal to the
    reciprocal norm of the unnormalized zero-forcing column. singular flags the
    channels of a stack that failed the condition check; their columns and
    gains are placeholders (the conjugate channel, gains 1).
    """

    columns: np.ndarray
    diag_gains: np.ndarray
    singular: Union[bool, np.ndarray] = False


@dataclass(frozen=True)
class PowerAllocation:
    """Per-user transmit powers in watts, (..., K), each row summing to the budget."""

    powers: np.ndarray
    total_power: float


@dataclass(frozen=True)
class LinkMetrics:
    """Per-user SINR/rate (..., K) plus the equivalent total SINR and average rate.

    total_sinr and average_rate are floats for a single channel and (...)
    arrays for a stack, where a singular channel reads -inf and nan.
    """

    sinr: np.ndarray
    rates: np.ndarray
    total_sinr: Union[float, np.ndarray]
    average_rate: Union[float, np.ndarray]


@dataclass(frozen=True)
class BeamformingSolution:
    precoder: Precoder
    allocation: PowerAllocation
    metrics: LinkMetrics


def zf_precoder(H: ChannelMatrix) -> Precoder:
    """Zero-forcing precoder W = H^H (H H^H)^{-1}, columns normalized.

    A channel that is rank deficient or has a condition number above 1e12 is
    ill conditioned; it is reported, never silently regularized. A single
    K x L channel raises SingularChannelError; in a (..., K, L) stack the
    channel is flagged in Precoder.singular and the others are solved as usual.
    """
    entries = H.entries
    singular_values = np.linalg.svd(entries, compute_uv=False)
    smallest, largest = singular_values[..., -1], singular_values[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        singular = (smallest <= 0.0) | (largest / smallest > CONDITION_LIMIT)
    if entries.ndim == 2 and singular:
        raise SingularChannelError(
            f"channel condition number {largest / max(smallest, 1e-300):.3e} "
            f"exceeds {CONDITION_LIMIT:.0e}")
    hermitian = np.swapaxes(entries.conj(), -1, -2)
    gram = entries @ hermitian
    gram[singular] = np.eye(entries.shape[-2])
    unnormalized = hermitian @ np.linalg.inv(gram)
    column_norms = np.linalg.norm(unnormalized, axis=-2)
    column_norms[singular] = 1.0
    return Precoder(columns=unnormalized / column_norms[..., None, :],
                    diag_gains=1.0 / column_norms, singular=singular)


def water_filling(diag_gains, total_power: float, noise_power: float) -> PowerAllocation:
    """Water-filling power allocation over interference-free per-user channels.

    P_k = max(level - 1/snr_k, 0) with snr_k = g_k^2 / sigma^2 the per-unit-power
    SNR, and the common water level in closed form: with the thresholds 1/snr_k
    sorted, funding the m cheapest users sets the level to (P + their sum) / m,
    and m is the largest count whose m-th threshold lies below that level.
    The thresholds are taken relative to their minimum first, so every funded
    quantity is below the budget and rounds relative to it, not to 1/snr: the
    powers sum to the budget within about 1e-15 of it. diag_gains is (K,) or a
    stack (..., K); every row is solved on its own.
    """
    gains = np.asarray(diag_gains, dtype=float)
    if np.any(gains <= 0):
        raise ConfigurationError("post-precoding gains must be positive")
    if not total_power > 0:
        raise ConfigurationError(f"total power must be positive, got {total_power}")
    inv_snr = noise_power / gains**2
    excess = inv_snr - inv_snr.min(axis=-1, keepdims=True)

    # The counts m whose m-th sorted threshold lies below levels[m-1] form a
    # prefix: m = 1 always does (its threshold is 0), and once t_m >= level_m,
    # level_{m+1} = (m level_m + t_{m+1}) / (m+1) <= t_{m+1}.
    thresholds = np.sort(excess, axis=-1)
    levels = (total_power + np.cumsum(thresholds, axis=-1)) / np.arange(1, gains.shape[-1] + 1)
    active = np.sum(thresholds < levels, axis=-1, keepdims=True)
    level = np.take_along_axis(levels, active - 1, axis=-1)
    powers = np.maximum(level - excess, 0.0)
    return PowerAllocation(powers=powers, total_power=float(total_power))


def link_metrics(H: ChannelMatrix, W: Precoder, allocation: PowerAllocation,
                 noise_power: float) -> LinkMetrics:
    """SINR, per-user rate, equivalent total SINR, and average rate.

    SINR uses the general interference expression, so residual leakage of any
    precoder shows up rather than being assumed away. Channels that W flags
    as singular get total SINR -inf and average rate nan.
    """
    effective = H.entries @ W.columns                      # (..., K, K), entry (k, j)
    powers = allocation.powers
    signal = powers * np.abs(np.diagonal(effective, axis1=-2, axis2=-1))**2
    cross = powers[..., None, :] * np.abs(effective)**2
    interference = np.sum(cross, axis=-1) - np.diagonal(cross, axis1=-2, axis2=-1)
    sinr = signal / (noise_power + interference)
    rates = 0.5 * np.log2(1.0 + sinr)
    total_sinr = np.exp(np.mean(np.log1p(sinr), axis=-1)) - 1.0
    average_rate = 0.5 * np.log2(1.0 + total_sinr)
    if np.ndim(total_sinr) == 0:
        return LinkMetrics(sinr=sinr, rates=rates, total_sinr=float(total_sinr),
                           average_rate=float(average_rate))
    total_sinr[W.singular] = -np.inf
    average_rate[W.singular] = np.nan
    return LinkMetrics(sinr=sinr, rates=rates, total_sinr=total_sinr, average_rate=average_rate)


def solve_beamforming(H: ChannelMatrix, total_power: float, noise_power: float) -> BeamformingSolution:
    """Zero forcing + water filling + metrics for one channel realization or a stack."""
    precoder = zf_precoder(H)
    allocation = water_filling(precoder.diag_gains, total_power, noise_power)
    metrics = link_metrics(H, precoder, allocation, noise_power)
    return BeamformingSolution(precoder=precoder, allocation=allocation, metrics=metrics)
