"""Rank-normalised split effective sample size (bulk ESS).

Follows Vehtari, Gelman, Simpson, Carpenter & Buerkner, "Rank-normalization,
folding, and localization: an improved R-hat for assessing convergence of
MCMC", Bayesian Analysis 16(2), 2021: each chain is split in half, the
pooled draws are replaced by normal scores of their ranks, and the
autocorrelation sum is truncated by Geyer's initial monotone positive
sequence.
"""

from __future__ import annotations

from statistics import NormalDist

import numpy as np


def _normal_scores(x: np.ndarray) -> np.ndarray:
    ranks = np.empty(x.size)
    ranks[np.argsort(x, axis=None, kind="stable")] = np.arange(1, x.size + 1)
    inv = NormalDist().inv_cdf
    return np.array([inv(p) for p in (ranks - 0.375) / (x.size + 0.25)]).reshape(x.shape)


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance of each row, all lags, via FFT."""
    n = x.shape[1]
    centred = x - x.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(centred, size, axis=1)
    return np.fft.irfft(f * np.conj(f), size, axis=1)[:, :n] / n


def bulk_ess(draws: np.ndarray) -> float:
    """Bulk ESS of one chain of scalar draws; NaN for a constant chain."""
    draws = np.asarray(draws, dtype=float)
    half = draws.size // 2
    if half < 4 or np.ptp(draws) == 0:
        return float("nan")
    chains = _normal_scores(np.stack([draws[:half], draws[-half:]]))
    m, n = chains.shape
    acov = _autocovariance(chains)
    chain_var = acov[:, 0] * n / (n - 1)
    mean_var = chain_var.mean()
    var_plus = mean_var * (n - 1) / n + chains.mean(axis=1).var(ddof=1)
    rho = 1.0 - (mean_var - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    # Geyer: sum adjacent pairs while positive, forced monotone
    tau, previous = -1.0, np.inf
    for t in range(0, n - 1, 2):
        pair = rho[t] + rho[t + 1]
        if pair <= 0:
            break
        previous = min(previous, pair)
        tau += 2.0 * previous
    return float(m * n / max(tau, 1.0 / np.log10(m * n)))
