"""Adaptive random-walk Metropolis for the model specifications.

The posterior dimension here stays small (a few dozen parameters at most
with splines), so a joint multivariate-normal random walk with covariance
adapted during warmup is adequate and keeps the package dependency-free.
Positive parameters (Weibull shape, smoothing scales) are sampled on the
log scale with the Jacobian correction.

Chains own independent RNG streams derived from (seed, chain_id), so runs
are bit-reproducible for a given seed regardless of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata

from .data import DrawsMatrix, LongDataset, SurvivalDataset, require_valid
from .models import (
    ModelDesign,
    ModelError,
    ModelSpec,
    bernoulli_log_score,
    group_log_scores,
    logistic,
    score_groups,
)


class SamplingError(RuntimeError):
    """Sampler failure (e.g. a full adaptation window with no acceptances)."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass(frozen=True)
class SamplerConfig:
    n_chains: int = 4
    n_warmup: int = 1000
    n_keep: int = 1000
    seed: int = 0
    init_jitter: float = 0.1
    init_proposal_scale: float = 0.1
    adapt_window: int = 100
    target_accept: float = 0.35

    def __post_init__(self):
        if min(self.n_chains, self.n_warmup, self.n_keep, self.adapt_window) < 1:
            raise ValueError("all sampler counts must be positive")
        if not 0 < self.target_accept < 1:
            raise ValueError("target acceptance rate must be in (0, 1)")


@dataclass
class FitResult:
    draws: DrawsMatrix
    rhat: dict[str, float]
    ess: dict[str, float]
    accept_rate: np.ndarray
    log_post: np.ndarray
    adaptation: dict = field(default_factory=dict)
    config: SamplerConfig | None = None

    def summary(self) -> dict:
        names = self.draws.parameter_names
        d = self.draws.draws
        return {
            name: {
                "mean": float(d[:, j].mean()),
                "sd": float(d[:, j].std(ddof=1)) if d.shape[0] > 1 else 0.0,
                "rhat": self.rhat[name],
                "ess": self.ess[name],
            }
            for j, name in enumerate(names)
        }


class PosteriorModel:
    """Log posterior of a ModelSpec bound to a dataset.

    The unconstrained parameter vector is the regression coefficients,
    followed by log(alpha) for the Weibull family, followed by log smoothing
    scales when hierarchical smooths are on.  ``log_posterior`` returns -inf
    for out-of-support points instead of raising.

    Short-format rows are grouped by how they are scored once, at
    construction (``models.score_groups``); each log-likelihood evaluation
    sums the groups' scores from ``models.group_log_scores``, the same
    kernel that builds the pointwise LOO matrices.
    """

    def __init__(self, spec: ModelSpec, data):
        self.spec = spec
        self.data = data
        self._prepare_data()  # rejects wrong or invalid data before the design is built
        self.design = ModelDesign(spec, data.covariates)
        n_rows = data.n_rows if isinstance(data, LongDataset) else data.n
        self.X = self.design.matrix(data.covariates, n_rows=n_rows)
        self.n_beta = self.X.shape[1]
        names = list(self.design.parameter_names)
        self._unconstrained_names = list(names)
        if spec.has_shape:
            names.append("alpha")
            self._unconstrained_names.append("log_alpha")
        self._smooth_scale_names = []
        if spec.hierarchical_smooths:
            for sm in spec.smooths:
                names.append(f"sd_{sm.name}")
                self._unconstrained_names.append(f"log_sd_{sm.name}")
                self._smooth_scale_names.append(sm.name)
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

    def log_prior(self, x: np.ndarray) -> float:
        """Log prior density of the unconstrained vector, Jacobian included."""
        pr = self.spec.priors
        total = 0.0
        j = 0
        if self.spec.intercept:
            total += float(pr.intercept.log_pdf(x[0]))
            j = 1
        n_fixed = len(self.spec.fixed)
        if n_fixed:
            total += float(np.sum(pr.fixed.log_pdf(x[j : j + n_fixed])))
        pos = self.n_beta
        if self.spec.has_shape:
            log_alpha = x[pos]
            total += float(pr.shape.log_pdf(np.exp(log_alpha))) + log_alpha
            pos += 1
        scale_of = {}
        for k, sm_name in enumerate(self._smooth_scale_names):
            log_sd = x[pos + k]
            total += float(pr.smooth_scale.log_pdf(np.exp(log_sd))) + log_sd
            scale_of[sm_name] = np.exp(log_sd)
        for sm in self.spec.smooths:
            coefs = x[self._smooth_slices[sm.name]]
            if self.spec.hierarchical_smooths:
                sd = scale_of[sm.name]
                total += float(
                    np.sum(-0.5 * (coefs / sd) ** 2 - np.log(sd) - 0.5 * np.log(2 * np.pi))
                )
            else:
                total += float(np.sum(pr.smooth_coef.log_pdf(coefs)))
        return total

    def log_likelihood(self, x: np.ndarray) -> float:
        spec = self.spec
        lin = self.X @ x[: self.n_beta]
        if spec.family == "bernoulli_logit":
            return float(np.sum(bernoulli_log_score(self._z, logistic(lin))))
        params = {"mean": np.exp(lin)}
        if spec.has_shape:
            params["shape"] = np.exp(x[self.n_beta])
        scores = group_log_scores(spec.family, self._groups, params)
        return sum((float(np.sum(s)) for s in scores), 0.0)

    def log_posterior(self, x) -> float:
        """Sum of log likelihood and log prior; -inf outside the support."""
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            return -np.inf
        try:
            lp = self.log_prior(x)
            if not np.isfinite(lp):
                return -np.inf
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                ll = self.log_likelihood(x)
            if np.isnan(ll):
                return -np.inf
            return ll + lp
        except (FloatingPointError, ModelError):
            return -np.inf


# ---------------------------------------------------------------------------
# the random-walk kernel


def sample_chain(log_prob, init, config: SamplerConfig, chain_id: int):
    """One adaptive RWM chain; adaptation stops exactly at the end of warmup."""
    rng = np.random.default_rng([config.seed, chain_id])
    dim = len(init)
    x = np.asarray(init, dtype=float) + config.init_jitter * rng.standard_normal(dim)
    lp = log_prob(x)
    if not np.isfinite(lp):
        raise SamplingError(
            "initial point has non-finite log posterior",
            {"chain": chain_id, "init": x.tolist()},
        )
    n_total = config.n_warmup + config.n_keep
    keep = np.empty((config.n_keep, dim))
    lp_keep = np.empty(config.n_keep)

    log_scale = np.log(config.init_proposal_scale)
    chol = np.eye(dim)
    run_mean = np.zeros(dim)
    run_cov = np.zeros((dim, dim))
    n_seen = 0
    window_accepts = 0
    total_accepts = 0
    adapt_log = []

    for it in range(n_total):
        z = rng.standard_normal(dim)
        prop = x + np.exp(log_scale) * (chol @ z)
        lp_prop = log_prob(prop)
        if np.log(rng.random()) < lp_prop - lp:
            x, lp = prop, lp_prop
            window_accepts += 1
            total_accepts += 1
        if it < config.n_warmup:
            n_seen += 1
            delta = x - run_mean
            run_mean += delta / n_seen
            run_cov += np.outer(delta, x - run_mean)
            if (it + 1) % config.adapt_window == 0:
                if window_accepts == 0:
                    raise SamplingError(
                        "no proposals accepted over a full adaptation window",
                        {
                            "chain": chain_id,
                            "iteration": it + 1,
                            "log_scale": float(log_scale),
                            "position": x.tolist(),
                            "log_posterior": float(lp),
                        },
                    )
                rate = window_accepts / config.adapt_window
                log_scale += 0.66 * (rate - config.target_accept)
                if n_seen > 2 * dim:
                    cov = run_cov / (n_seen - 1)
                    cov = (2.38**2 / dim) * cov
                    cov[np.diag_indices_from(cov)] += 1e-8 + 1e-6 * np.trace(cov) / dim
                    try:
                        chol = np.linalg.cholesky(cov)
                    except np.linalg.LinAlgError:
                        pass
                adapt_log.append(
                    {"iteration": it + 1, "accept_rate": rate, "log_scale": float(log_scale)}
                )
                window_accepts = 0
        else:
            keep[it - config.n_warmup] = x
            lp_keep[it - config.n_warmup] = lp
    accept_rate = total_accepts / n_total
    frozen = np.exp(log_scale) * chol
    return keep, lp_keep, accept_rate, {
        "windows": adapt_log,
        "frozen_proposal_chol": frozen,
        "last_update_iteration": adapt_log[-1]["iteration"] if adapt_log else 0,
    }


def sample_posterior(log_prob, dim: int, config: SamplerConfig, init=None):
    """Run all chains; returns (chains array (C, n_keep, dim), lp, rates, logs)."""
    if init is None:
        init = np.zeros(dim)
    chains = np.empty((config.n_chains, config.n_keep, dim))
    lps = np.empty((config.n_chains, config.n_keep))
    rates = np.empty(config.n_chains)
    logs = []
    for c in range(config.n_chains):
        keep, lp_keep, rate, alog = sample_chain(log_prob, init, config, c)
        chains[c] = keep
        lps[c] = lp_keep
        rates[c] = rate
        logs.append(alog)
    return chains, lps, rates, logs


def fit(spec: ModelSpec, data, config: SamplerConfig | None = None) -> FitResult:
    """Sample the posterior of ``spec`` on ``data``.

    Deterministic given ``config.seed``.  Raises SamplingError if any chain
    rejects every proposal over a full adaptation window.
    """
    config = config or SamplerConfig()
    post = PosteriorModel(spec, data)
    chains, lps, rates, logs = sample_posterior(
        post.log_posterior, post.dim, config, post.init_point()
    )
    flat_unc = chains.reshape(-1, post.dim)
    constrained = post.constrain(flat_unc)
    chain_ids = np.repeat(np.arange(config.n_chains), config.n_keep)
    draws = DrawsMatrix(constrained, post.parameter_names, chain_ids)
    rhat, ess = _diagnostics_from_chains(chains, post.parameter_names, config)
    return FitResult(
        draws=draws,
        rhat=rhat,
        ess=ess,
        accept_rate=rates,
        log_post=lps.reshape(-1),
        adaptation={"chains": logs, "n_warmup": config.n_warmup},
        config=config,
    )


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
    acov = np.empty((m, L))
    for i in range(m):
        acov[i] = _autocov(seqs[i])
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


def _diagnostics_from_chains(chains, names, config):
    rhat, ess = {}, {}
    for j, name in enumerate(names):
        mat = chains[:, :, j]
        rhat[name] = split_rhat(mat) if config.n_chains >= 2 else float("nan")
        ess[name] = bulk_ess(mat)
    return rhat, ess


def diagnose(result: FitResult, rhat_threshold: float = 1.01) -> dict:
    """Convergence report: per-parameter split-R-hat and bulk ESS, with flags."""
    flags = [
        name
        for name, r in result.rhat.items()
        if not np.isnan(r) and r > rhat_threshold
    ]
    return {
        "rhat": dict(result.rhat),
        "ess": dict(result.ess),
        "accept_rate": [float(r) for r in result.accept_rate],
        "flagged": flags,
        "rhat_threshold": rhat_threshold,
        "ok": not flags,
    }
