"""Per-column PSIS oracle for the tests.

``psis_smooth`` smooths one column at a time: a stable ``argsort`` of the
column's log ratios, a scalar Zhang–Stephens generalized Pareto fit of its
tail, and the fitted order statistics written back over the tail.  This is
the reference that ``loo.psis_smooth``, which smooths every column of a
matrix in one pass, must match bit for bit in log weights, k-hat, ESS and
degenerate flags.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.special import logsumexp

from survcheck.loo import LogLikMatrix, PsisResult, psis_tail_size


class DegenerateTailError(ValueError):
    """Tail sample unusable for generalized Pareto fitting."""


def gpd_fit(tail_sample) -> tuple[float, float]:
    """Fit the generalized Pareto shape and scale to positive exceedances.

    Profile-likelihood estimate with a weak prior pulling the shape toward
    0.5; needs at least 5 distinct values, otherwise the tail is degenerate.
    """
    x = np.sort(np.asarray(tail_sample, dtype=float))
    if x.size < 5:
        raise DegenerateTailError("need at least 5 tail values")
    if x.size and x[0] < 0:
        raise DegenerateTailError("tail sample must be non-negative exceedances")
    # zero exceedances (ties at the threshold, common with Metropolis draws)
    # carry no tail information and break the profile grid
    x = x[x > 0]
    n = x.size
    if n < 5 or np.unique(x).size < 5:
        raise DegenerateTailError("need at least 5 distinct positive tail values")
    prior_bs, prior_k = 3.0, 10.0
    m = 30 + int(math.sqrt(n))
    b = 1.0 - np.sqrt(m / (np.arange(1, m + 1) - 0.5))
    b /= prior_bs * x[int(n / 4 + 0.5) - 1]
    b += 1.0 / x[-1]
    k = np.mean(np.log1p(-b[:, None] * x), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        logl = n * (np.log(-b / k) - k - 1.0)
    valid = np.isfinite(logl)
    if not valid.any():
        raise DegenerateTailError("tail fit did not converge")
    b, logl = b[valid], logl[valid]
    w = np.exp(logl - logl.max())  # normalized in log space: no overflow
    w /= w.sum()
    b_post = float(np.sum(b * w))
    k_post = float(np.mean(np.log1p(-b_post * x)))
    sigma = -k_post / b_post
    khat = (n * k_post + prior_k * 0.5) / (n + prior_k)
    if not (np.isfinite(khat) and np.isfinite(sigma) and sigma > 0):
        raise DegenerateTailError("tail fit did not converge")
    return float(khat), float(sigma)


def gpd_quantile(u, khat: float, sigma: float) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if abs(khat) < 1e-12:
        return -sigma * np.log1p(-u)
    return sigma / khat * np.expm1(-khat * np.log1p(-u))


def smooth_tail(log_ratios: np.ndarray) -> tuple[np.ndarray, float]:
    """Pareto-smooth one column of raw log importance ratios.

    Returns the unnormalized smoothed log weights (shifted so the raw
    maximum is 0, and truncated there) and the fitted tail shape.  Raises
    DegenerateTailError when the tail cannot be fitted.
    """
    lw = np.asarray(log_ratios, dtype=float)
    S = lw.size
    M = psis_tail_size(S)
    lw = lw - lw.max()
    if M < 5:
        raise DegenerateTailError("too few draws for tail smoothing")
    order = np.argsort(lw, kind="stable")
    tail = order[-M:]
    cutoff = lw[order[-M - 1]]
    exceed = np.exp(lw[tail]) - np.exp(cutoff)
    k, sigma = gpd_fit(exceed)
    q = (np.arange(1, M + 1) - 0.5) / M
    smoothed = np.exp(cutoff) + gpd_quantile(q, k, sigma)
    tail_asc = tail[np.argsort(lw[tail], kind="stable")]
    out = lw.copy()
    out[tail_asc] = np.log(smoothed)
    return np.minimum(out, 0.0), k  # truncate at the raw maximum


def psis_smooth(loglik: LogLikMatrix) -> PsisResult:
    """Pareto smoothed importance weights for leaving each unit out.

    Raw log ratios are the negated pointwise log likelihoods.  Per column,
    the largest M = min(0.2 S, 3 sqrt(S)) weights are replaced by fitted
    GPD order statistics, truncated at the raw maximum, then normalized.
    Columns whose tail cannot be fitted (constant, or containing -inf
    scores) are flagged and passed through unsmoothed.
    """
    S, N = loglik.values.shape
    if S < 100:
        warnings.warn(
            f"only {S} draws; PSIS is unreliable below ~100",
            stacklevel=2,
        )
    log_w = np.empty((S, N))
    khat = np.full(N, np.nan)
    degenerate = np.zeros(N, dtype=bool)
    for j in range(N):
        ll = loglik.values[:, j]
        if not np.all(np.isfinite(ll)):
            degenerate[j] = True
            log_w[:, j] = 0.0  # uniform
            continue
        try:
            log_w[:, j], khat[j] = smooth_tail(-ll)
        except DegenerateTailError:
            degenerate[j] = True
            log_w[:, j] = ll.min() - ll  # raw log ratios -ll, shifted to a maximum of 0
    log_w -= logsumexp(log_w, axis=0)  # every column at once
    w = np.exp(log_w)
    ess = 1.0 / np.sum(w * w, axis=0)
    return PsisResult(log_w, khat, ess, degenerate)
