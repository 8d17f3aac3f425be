"""Reference sampling loop for the tests.

``sample_posterior`` below is the body ``sampler.sample_posterior`` had
before the loop was made to run window by window (each window's random
numbers drawn and its proposal steps computed at once), kept verbatim: it
draws each chain's normals and uniform, stacks them and computes the
proposal afresh every iteration.  The sampler must match it bit for bit:
kept draws, their log posterior, acceptance rates, adaptation records and
errors.
"""

from __future__ import annotations

import numpy as np

from survcheck.sampler import (
    ADAPT_WINDOW,
    INIT_JITTER,
    INIT_PROPOSAL_SCALE,
    TARGET_ACCEPT,
    SamplerConfig,
    SamplingError,
)


def sample_posterior(log_prob, dim: int, config: SamplerConfig, seeds, init=None):
    """Adaptive RWM, all chains in lockstep, adapting until the end of warmup.

    Chain c draws from ``default_rng(seeds[c])``; ``config`` sets the warmup
    and kept lengths.  ``log_prob`` maps a (C, dim) batch to (C,) values.
    Each chain's step is its own matrix-vector product (a gemv per chain in
    one batched ``np.matmul``), so its draws are bitwise those it makes
    alone.  Returns the kept draws (C, n_keep, dim), their log_prob (C,
    n_keep), and each chain's acceptance rate and adaptation record.  A SamplingError's diagnostics name the chain.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    C = len(rngs)
    init = np.zeros(dim) if init is None else np.asarray(init, dtype=float)
    x = init + INIT_JITTER * np.stack([rng.standard_normal(dim) for rng in rngs])
    lp = log_prob(x)
    if not np.all(np.isfinite(lp)):
        c = int(np.argmin(np.isfinite(lp)))
        raise SamplingError("initial point has non-finite log posterior",
                            {"chain": c, "init": x[c].tolist()})
    n_total = config.n_warmup + config.n_keep
    keep = np.empty((C, config.n_keep, dim))
    lp_keep = np.empty((C, config.n_keep))

    log_scale = np.full(C, np.log(INIT_PROPOSAL_SCALE))
    chol = np.broadcast_to(np.eye(dim), (C, dim, dim)).copy()
    run_mean = np.zeros((C, dim))
    run_cov = np.zeros((C, dim, dim))
    window_accepts, total_accepts = np.zeros(C, dtype=int), np.zeros(C, dtype=int)
    adapt_logs = [[] for _ in range(C)]

    for it in range(n_total):
        z = np.stack([rng.standard_normal(dim) for rng in rngs])
        prop = x + np.exp(log_scale)[:, None] * np.matmul(chol, z[:, :, None])[..., 0]
        lp_prop = log_prob(prop)
        accept = np.log([rng.random() for rng in rngs]) < lp_prop - lp
        x = np.where(accept[:, None], prop, x)
        lp = np.where(accept, lp_prop, lp)
        window_accepts += accept
        total_accepts += accept
        if it >= config.n_warmup:
            keep[:, it - config.n_warmup] = x
            lp_keep[:, it - config.n_warmup] = lp
            continue
        delta = x - run_mean
        run_mean += delta / (it + 1)
        run_cov += delta[:, :, None] * (x - run_mean)[:, None, :]
        if (it + 1) % ADAPT_WINDOW:
            continue
        if not np.all(window_accepts):
            c = int(np.argmin(window_accepts))
            raise SamplingError("no proposals accepted over a full adaptation window", {
                "chain": c, "iteration": it + 1, "log_scale": float(log_scale[c]),
                "position": x[c].tolist(), "log_posterior": float(lp[c])})
        rate = window_accepts / ADAPT_WINDOW
        log_scale += 0.66 * (rate - TARGET_ACCEPT)
        for c in range(C):
            if it + 1 > 2 * dim:
                cov = (2.38**2 / dim) * (run_cov[c] / it)
                cov[np.diag_indices_from(cov)] += 1e-8 + 1e-6 * np.trace(cov) / dim
                try:
                    chol[c] = np.linalg.cholesky(cov)
                except np.linalg.LinAlgError:
                    pass
            adapt_logs[c].append({"iteration": it + 1, "accept_rate": float(rate[c]),
                                  "log_scale": float(log_scale[c])})
        window_accepts[:] = 0
    frozen = np.exp(log_scale)[:, None, None] * chol
    logs = [{"windows": windows, "frozen_proposal_chol": frozen[c],
             "last_update_iteration": windows[-1]["iteration"] if windows else 0}
            for c, windows in enumerate(adapt_logs)]
    return keep, lp_keep, total_accepts / n_total, logs
