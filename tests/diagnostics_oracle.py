"""Reference convergence diagnostics for the tests.

``split_rhat``, ``bulk_ess``, ``_split``, ``_ess_from_sequences`` and
``_autocov`` below are the bodies ``sampler`` had before the diagnostics
took every parameter in one pass, kept verbatim: one parameter's
(n_chains, n_iter) chains at a time, ranks from ``scipy.stats.rankdata``,
one FFT per split sequence and Geyer's initial monotone sequence as a
loop.  The sampler's diagnostics must match them bit for bit on every
parameter.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata


def split_rhat(chains: np.ndarray) -> float:
    """Split-R-hat of one parameter; ``chains`` is (n_chains, n_iter)."""
    seqs = _split(chains)
    m, L = seqs.shape
    if m < 2 or L < 2:
        return float("nan")
    means = seqs.mean(axis=1)
    vars_ = seqs.var(axis=1, ddof=1)
    W = vars_.mean()
    B = L * means.var(ddof=1)
    if W == 0:
        return float("nan") if B == 0 else float("inf")
    var_plus = (L - 1) / L * W + B / L
    return float(np.sqrt(var_plus / W))


def bulk_ess(chains: np.ndarray) -> float:
    """Bulk effective sample size (rank-normalized) of one parameter."""
    seqs = _split(chains)
    m, L = seqs.shape
    if L < 4:
        return float("nan")
    ranks = rankdata(seqs.reshape(-1)).reshape(m, L)
    z = ndtri((ranks - 0.375) / (m * L + 0.25))
    return _ess_from_sequences(z)


def _split(chains: np.ndarray) -> np.ndarray:
    chains = np.atleast_2d(np.asarray(chains, dtype=float))
    half = chains.shape[1] // 2
    return np.concatenate([chains[:, :half], chains[:, half : 2 * half]], axis=0)


def _ess_from_sequences(seqs: np.ndarray) -> float:
    m, L = seqs.shape
    acov = np.array([_autocov(s) for s in seqs])
    chain_var = acov[:, 0] * L / (L - 1.0)
    mean_var = chain_var.mean()
    var_plus = mean_var * (L - 1.0) / L
    if m > 1:
        var_plus += seqs.mean(axis=1).var(ddof=1)
    if var_plus == 0:
        return float("nan")
    rho = 1.0 - (mean_var - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    # Geyer initial monotone positive sequence over lag pairs
    tau = 0.0
    prev_pair = np.inf
    t = 0
    while t + 1 < L:
        pair = rho[t] + rho[t + 1]
        if pair <= 0:
            break
        pair = min(pair, prev_pair)
        tau += pair
        prev_pair = pair
        t += 2
    tau = max(2.0 * tau - 1.0, 1.0 / np.log10(m * L + 10.0))
    return float(min(m * L / tau, m * L))


def _autocov(x: np.ndarray) -> np.ndarray:
    n = len(x)
    xc = x - x.mean()
    size = 2 ** int(np.ceil(np.log2(2 * n)))
    f = np.fft.rfft(xc, size)
    acov = np.fft.irfft(f * np.conj(f), size)[:n].real
    return acov / n
