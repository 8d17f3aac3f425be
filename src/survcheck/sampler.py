"""Adaptive random-walk Metropolis for the model specifications.

The posterior dimension here stays small (a few dozen parameters at most
with splines), so a joint multivariate-normal random walk with covariance
adapted during warmup is adequate and keeps the package dependency-free.
Positive parameters (Weibull shape, smoothing scales) are sampled on the
log scale with the Jacobian correction.

All chains step in lockstep: each iteration makes one call of the log
posterior on the (C, dim) batch of proposals, which returns (C,) values.
Each chain still owns an RNG stream derived from (seed, chain_id) and draws
from it in a fixed order, so runs are bit-reproducible for a given seed and
a chain's draws do not depend on the chains beside it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata

from .data import DrawsMatrix, LongDataset, SurvivalDataset, require_valid
from .data import require_counts
from .models import (
    ModelDesign,
    ModelError,
    ModelSpec,
    bernoulli_log_score,
    group_log_scores,
    in_support,
    logistic,
    score_groups,
)

# warmup: chains start this jitter away from the init point with this
# proposal scale; every window the scale is tuned towards the target
# acceptance rate and the proposal covariance re-estimated
INIT_JITTER = 0.1
INIT_PROPOSAL_SCALE = 0.1
ADAPT_WINDOW = 100
TARGET_ACCEPT = 0.35
# diagnose flags a parameter whose split-R-hat exceeds this
RHAT_THRESHOLD = 1.01


class SamplingError(RuntimeError):
    """Sampler failure (e.g. a full adaptation window with no acceptances)."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class SamplerConfigError(ValueError):
    """Invalid sampler settings."""


@dataclass(frozen=True)
class SamplerConfig:
    n_chains: int = 4
    n_warmup: int = 1000
    n_keep: int = 1000
    seed: int = 0

    def __post_init__(self):
        require_counts(self, SamplerConfigError, ("n_chains", "n_warmup", "n_keep"), ("seed",))


@dataclass
class FitResult:
    draws: DrawsMatrix
    rhat: dict[str, float]
    ess: dict[str, float]
    accept_rate: np.ndarray
    log_post: np.ndarray
    adaptation: dict = field(default_factory=dict)
    config: SamplerConfig | None = None


def _by_row(method):
    """Evaluate ``method`` on the rows of an (..., dim) array, passed as a
    contiguous (C, dim) batch under one np.errstate; one vector gives a float."""

    @functools.wraps(method)
    def batched(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            out = method(self, np.ascontiguousarray(x.reshape(-1, self.dim)))
        return float(out[0]) if x.ndim == 1 else out.reshape(x.shape[:-1])

    return batched


def _row_sums(a) -> np.ndarray:
    """Sum of each row of a (C, n) array: bitwise the np.sum of that row alone."""
    return np.ascontiguousarray(a).sum(axis=1)


class PosteriorModel:
    """Log posterior of a ModelSpec bound to a dataset, or a batch of them.

    The unconstrained parameter vector is the regression coefficients,
    followed by log(alpha) for the Weibull family, followed by log smoothing
    scales when hierarchical smooths are on.  ``log_prior``,
    ``log_likelihood`` and ``log_posterior`` take an (..., dim) array: a
    (C, dim) batch, one row per chain, gives (C,) values, each bitwise the
    value of its row alone, and one vector a float.  A row outside the
    support (a non-finite entry, an overflowing mean or Weibull shape, a NaN
    value) gets -inf; nothing is raised or warned.

    With B ``held_out`` unit ids it is a batch: member b is the posterior
    without unit ``held_out[b]``'s rows, with a ``ModelDesign`` built on its
    training covariates, and a batch of rows is B equal blocks, block b
    evaluated under member b.  Zeroing the held-out scores adds a 0.0 to
    each row sum, so a member's value is that of a model on its training
    data to within a few ulp.  It holds B design matrices over all rows.

    Short-format rows are grouped by how they are scored once, at
    construction (``models.score_groups``); each log-likelihood evaluation
    sums the groups' scores from ``models.group_log_scores``, the same
    kernel that builds the pointwise LOO matrices.
    """

    def __init__(self, spec: ModelSpec, data, held_out=()):
        self.spec, self.data, self.held_out = spec, data, tuple(held_out)
        self._prepare_data()  # rejects wrong or invalid data before the design is built
        keeps = [data.subject_id != u for u in self.held_out]
        self._keep = np.stack(keeps) if keeps else None  # (B, n); None: one member, every row
        self.designs = [ModelDesign(spec, {k: v[keep] for k, v in data.covariates.items()})
                        for keep in keeps] or [ModelDesign(spec, data.covariates)]
        self.design = self.designs[0]
        names = list(self.design.parameter_names)
        if any(d.parameter_names != names for d in self.designs):
            raise ModelError("held-out members' designs differ in their parameters")
        n_rows = data.n_rows if isinstance(data, LongDataset) else data.n
        self.X = np.stack([d.matrix(data.covariates, n_rows=n_rows) for d in self.designs])
        self.n_beta = self.X.shape[2]
        if spec.has_shape:
            names.append("alpha")
        if spec.hierarchical_smooths:
            names += [f"sd_{sm.name}" for sm in spec.smooths]
        self.parameter_names = names
        self.dim = len(names)
        self._smooth_slices = self.design.smooth_slices()

    def _prepare_data(self):
        spec, data = self.spec, self.data
        if spec.family == "bernoulli_logit":
            if not isinstance(data, LongDataset):
                raise ModelError("bernoulli_logit fits long-format data")
        elif not isinstance(data, SurvivalDataset):
            raise ModelError(f"{spec.family} fits short-format data")
        require_valid(data)
        if spec.family == "bernoulli_logit":
            self._z = np.asarray(data.outcome, dtype=float)
        else:
            self._groups = score_groups(data)

    # -- parameter bookkeeping ------------------------------------------------

    def init_point(self) -> np.ndarray:
        """Prior locations (positive parameters at log of the prior mean)."""
        x = np.zeros(self.dim)  # alpha and the smoothing scales at 1
        if self.spec.intercept:
            x[0] = self.spec.priors.intercept.location
        return x

    def constrain(self, x: np.ndarray) -> np.ndarray:
        """Map unconstrained draws to the reported (constrained) scale."""
        x = np.atleast_2d(np.asarray(x, dtype=float)).copy()
        x[:, self.n_beta :] = np.exp(x[:, self.n_beta :])
        return x

    # -- log densities ----------------------------------------------------------

    @_by_row
    def log_prior(self, x: np.ndarray) -> np.ndarray:
        """Log prior density of the unconstrained vector, Jacobian included."""
        pr = self.spec.priors
        total = np.zeros(len(x))
        j = 0
        if self.spec.intercept:
            total += pr.intercept.log_pdf(x[:, 0])
            j = 1
        n_fixed = len(self.spec.fixed)
        if n_fixed:
            total += _row_sums(pr.fixed.log_pdf(x[:, j : j + n_fixed]))
        pos = self.n_beta
        if self.spec.has_shape:
            log_alpha = x[:, pos]
            total += pr.shape.log_pdf(np.exp(log_alpha)) + log_alpha
            pos += 1
        if self.spec.hierarchical_smooths:
            sd = np.exp(x[:, pos:])
            for term in (pr.smooth_scale.log_pdf(sd) + x[:, pos:]).T:
                total += term
        for k, sm in enumerate(self.spec.smooths):
            coefs = x[:, self._smooth_slices[sm.name]]
            if self.spec.hierarchical_smooths:
                total += _row_sums(-0.5 * (coefs / sd[:, k, None]) ** 2
                                   - np.log(sd[:, k, None]) - 0.5 * np.log(2 * np.pi))
            else:
                total += _row_sums(pr.smooth_coef.log_pdf(coefs))
        return np.where(np.isfinite(x).all(axis=1) & ~np.isnan(total), total, -np.inf)

    @_by_row
    def log_likelihood(self, x: np.ndarray) -> np.ndarray:
        spec = self.spec
        ok = np.isfinite(x).all(axis=1)
        B = len(self.X)
        if len(x) % B:
            raise ModelError(f"a batch of {B} members needs a multiple of {B} rows, got {len(x)}")
        member = np.arange(len(x)) // (len(x) // B)
        # one product per row keeps each row's predictor bitwise that of the
        # vector alone (a matrix product over the batch sums in another order)
        lin = np.stack([self.X[b] @ row[: self.n_beta] for b, row in zip(member, x)])
        keep = None if self._keep is None else self._keep[member]
        if spec.family == "bernoulli_logit":
            scores = [(slice(None), bernoulli_log_score(self._z, logistic(lin[ok])))]
        else:
            if keep is not None:
                lin = np.where(keep, lin, 0.0)  # held-out rows stay inside the support
            params = {"mean": np.exp(lin).T}
            if spec.has_shape:
                params["shape"] = np.exp(x[:, self.n_beta])[None, :]
            ok &= in_support(spec.family, params)
            scores = [(g.rows, s.T) for g, s in zip(self._groups, group_log_scores(
                spec.family, self._groups, {k: v[:, ok] for k, v in params.items()}))]
        if keep is not None:  # held-out rows score 0 (where, not a product: -inf * 0 is nan)
            scores = [(rows, np.where(keep[ok][:, rows], s, 0.0)) for rows, s in scores]
        ll = np.full(len(x), -np.inf)
        ll[ok] = sum((_row_sums(s) for _, s in scores), 0.0)
        return np.where(np.isnan(ll), -np.inf, ll)

    @_by_row
    def log_posterior(self, x: np.ndarray) -> np.ndarray:
        """Sum of log likelihood and log prior; -inf outside the support."""
        lp = self.log_prior(x)
        return np.where(np.isfinite(lp), self.log_likelihood(x) + lp, -np.inf)


# ---------------------------------------------------------------------------
# the random-walk kernel


def sample_posterior(log_prob, dim: int, config: SamplerConfig, seeds, init=None):
    """Adaptive RWM, all chains in lockstep, adapting until the end of warmup.

    Chain c draws from ``default_rng(seeds[c])``; ``config`` sets the warmup
    and kept lengths.  ``log_prob`` maps a (C, dim) batch to (C,) values.
    Each chain's step is its own matrix-vector product, so its draws are
    bitwise those it makes alone.  Returns the kept draws (C, n_keep, dim),
    their log_prob (C, n_keep), and each chain's acceptance rate and
    adaptation record.  A SamplingError's diagnostics name the chain.
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
        z = [rng.standard_normal(dim) for rng in rngs]
        prop = x + np.exp(log_scale)[:, None] * np.stack([chol[c] @ z[c] for c in range(C)])
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


def fit(spec: ModelSpec, data, config: SamplerConfig | None = None) -> FitResult:
    """Sample the posterior of ``spec`` on ``data``.

    Deterministic given ``config.seed``.  Raises SamplingError if any chain
    rejects every proposal over a full adaptation window.
    """
    config = config or SamplerConfig()
    post = PosteriorModel(spec, data)
    chains, lps, rates, logs = sample_posterior(
        post.log_posterior, post.dim, config, [(config.seed, c) for c in range(config.n_chains)],
        post.init_point())
    draws = DrawsMatrix(post.constrain(chains.reshape(-1, post.dim)), post.parameter_names,
                        np.repeat(np.arange(config.n_chains), config.n_keep))
    cols = {name: chains[:, :, j] for j, name in enumerate(post.parameter_names)}
    rhat = {name: split_rhat(c) if config.n_chains >= 2 else float("nan")
            for name, c in cols.items()}
    ess = {name: bulk_ess(c) for name, c in cols.items()}
    return FitResult(draws=draws, rhat=rhat, ess=ess, accept_rate=rates,
                     log_post=lps.reshape(-1), config=config,
                     adaptation={"chains": logs, "n_warmup": config.n_warmup})


# ---------------------------------------------------------------------------
# convergence diagnostics


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


def diagnose(result: FitResult) -> dict:
    """Convergence report: per-parameter split-R-hat and bulk ESS, with flags."""
    flags = [
        name
        for name, r in result.rhat.items()
        if not np.isnan(r) and r > RHAT_THRESHOLD
    ]
    return {
        "rhat": dict(result.rhat),
        "ess": dict(result.ess),
        "accept_rate": [float(r) for r in result.accept_rate],
        "flagged": flags,
        "rhat_threshold": RHAT_THRESHOLD,
        "ok": not flags,
    }
