"""Adaptive random-walk Metropolis for the model specifications.

The posterior dimension here stays small (a few dozen parameters at most
with splines), so a joint multivariate-normal random walk with covariance
adapted during warmup is adequate and keeps the package dependency-free.
Positive parameters (Weibull shape, smoothing scales) are sampled on the
log scale with the Jacobian correction.

All chains step in lockstep: each iteration makes one call of the log
posterior on the (C, dim) batch of proposals, which returns (C,) values.
That call is one pass, and each chain's value in it is bitwise its value
alone (``PosteriorModel`` says how).  The loop runs one adaptation window
at a time: the proposal scale and covariance are fixed within a window, so
each chain draws the window's normals and uniforms at its start, and the
window's proposal steps are computed at once.  Each chain owns an RNG
stream derived from (seed, chain_id) and draws from it in a fixed order,
one iteration after another, and each proposal step is its own
matrix-vector product, so runs are bit-reproducible for a given seed and a
chain's draws do not depend on the chains beside it or on the window
lengths.
"""

from __future__ import annotations

import functools
import itertools
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
    Rate,
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
    """Sums over the last axis of an (..., n) array, each bitwise the np.sum
    of its row alone: an F-ordered array would be summed in another order."""
    return np.ascontiguousarray(a).sum(axis=-1)


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
    training covariates (``held_out`` may map each id to that design, built
    already), and a batch of rows is B equal blocks, block b evaluated under
    member b.  Zeroing the held-out scores adds a 0.0 to each row sum, so a
    member's value is that of a model on its training data to within a few
    ulp.  It holds B design matrices over all rows.

    One evaluation is one pass under one np.errstate.  The linear predictor
    is one matrix-vector product (gemv) per row, in one batched
    ``np.matmul``, bitwise the product of that row alone: a matrix product
    (gemm) over the batch would sum in another order, so none is used.
    Short-format rows are grouped by how they are scored once, at
    construction, with each group's time terms fixed
    (``models.score_groups``); each evaluation computes the rate once, over
    all rows, and sums the groups' scores from ``models.group_log_scores``,
    the same kernel that builds the pointwise LOO matrices.  Every row sum
    is over a C-ordered array, for the same reason.  Each prior's density
    is one call over all the coefficients that share it.
    """

    def __init__(self, spec: ModelSpec, data, held_out=()):
        self.spec, self.data, self.held_out = spec, data, tuple(held_out)
        self._prepare_data()  # rejects wrong or invalid data before the design is built
        keeps = [data.subject_id != u for u in self.held_out]
        if isinstance(held_out, dict):
            self.designs = list(held_out.values())
        else:
            self.designs = [ModelDesign(spec, {k: v[keep] for k, v in data.covariates.items()})
                            for keep in keeps] or [ModelDesign(spec, data.covariates)]
        self.design = self.designs[0]
        names = list(self.design.parameter_names)
        if any(d.parameter_names != names for d in self.designs):
            raise ModelError("held-out members' designs differ in their parameters")
        n_rows = data.n_rows if isinstance(data, LongDataset) else data.n
        self.X = np.stack([d.matrix(data.covariates, n_rows=n_rows) for d in self.designs])
        self.n_beta = self.X.shape[2]
        # (B, 1, n) rows each member keeps, and each score group's; None: every row
        self._keep = np.stack(keeps)[:, None, :] if keeps else None
        if self._keep is not None and spec.family != "bernoulli_logit":
            self._group_keep = [self._keep.take(g.rows, axis=-1) for g in self._groups]
        if spec.has_shape:
            names.append("alpha")
        if spec.hierarchical_smooths:
            names += [f"sd_{sm.name}" for sm in spec.smooths]
        self.parameter_names = names
        self.dim = len(names)
        # the coefficient columns after the intercept: the fixed effects,
        # then the smooths, each smooth term a slice of the smooth columns
        self._n_fixed = len(spec.fixed)
        self._fixed = slice(int(spec.intercept), int(spec.intercept) + self._n_fixed)
        self._smooth = slice(self._fixed.stop, self.n_beta)
        start = self._smooth.start
        self._smooth_terms = [slice(sl.start - start, sl.stop - start)
                              for sl in self.design.smooth_slices().values()]
        self._term_of_column = np.repeat(np.arange(len(self._smooth_terms)),
                                         [sl.stop - sl.start for sl in self._smooth_terms])
        pr = spec.priors
        self._shared_prior = not spec.hierarchical_smooths and pr.fixed == pr.smooth_coef

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

    def _prior(self, x: np.ndarray) -> np.ndarray:
        """Log prior density of the unconstrained vector, Jacobian included."""
        spec, pr = self.spec, self.spec.priors
        pos = self.n_beta  # log alpha, then the log smoothing scales
        if spec.hierarchical_smooths:
            sd = np.exp(x[:, pos + spec.has_shape :])
        # one density call per prior over all the coefficient columns it covers
        if self._shared_prior:
            coef = pr.fixed._log_pdf(x[:, self._fixed.start : self.n_beta])
            lp_fixed, lp_smooth = coef[:, : self._n_fixed], coef[:, self._n_fixed :]
        else:
            lp_fixed = pr.fixed._log_pdf(x[:, self._fixed])
            if spec.hierarchical_smooths:  # N(0, sd) on each smooth's columns
                col_sd = sd.take(self._term_of_column, axis=1)
                lp_smooth = (-0.5 * (x[:, self._smooth] / col_sd) ** 2
                             - np.log(sd).take(self._term_of_column, axis=1)
                             - 0.5 * np.log(2 * np.pi))
            else:
                lp_smooth = pr.smooth_coef._log_pdf(x[:, self._smooth])
        # the terms add up in a fixed order, each row sum over one term's columns
        total = np.zeros(len(x))
        if spec.intercept:
            total += pr.intercept._log_pdf(x[:, 0])
        if self._n_fixed:
            total += _row_sums(lp_fixed)
        if spec.has_shape:
            log_alpha = x[:, pos]
            total += pr.shape._log_pdf(np.exp(log_alpha)) + log_alpha
            pos += 1
        if spec.hierarchical_smooths:
            for term in (pr.smooth_scale._log_pdf(sd) + x[:, pos:]).T:
                total += term
        for cols in self._smooth_terms:
            total += _row_sums(lp_smooth[:, cols])
        return np.where(np.isfinite(x).all(axis=1) & ~np.isnan(total), total, -np.inf)

    def _likelihood(self, x: np.ndarray) -> np.ndarray:
        spec = self.spec
        B, N = len(self.X), len(x)
        if N % B:
            raise ModelError(f"a batch of {B} members needs a multiple of {B} rows, got {N}")
        x = x.reshape(B, N // B, self.dim)  # block b holds member b's rows
        ok = np.isfinite(x).all(axis=-1)
        lin = np.matmul(self.X[:, None], x[..., : self.n_beta, None])[..., 0]  # (B, C, n)
        keep = self._keep
        if spec.family == "bernoulli_logit":
            scores = [bernoulli_log_score(self._z, logistic(lin))]
            if keep is not None:  # held-out rows score 0 (where, not a product: -inf * 0 is nan)
                scores = [np.where(keep, scores[0], 0.0)]
        else:
            if keep is not None:
                lin = np.where(keep, lin, 0.0)  # held-out rows stay inside the support
            params = {"mean": np.exp(lin)}
            if spec.has_shape:
                params["shape"] = np.exp(x[..., self.n_beta, None])
            rate = Rate.of(spec.family, params, check=False)
            ok &= in_support(rate)
            scores = group_log_scores(spec.family, self._groups, rate)
            if keep is not None:
                scores = [np.where(k, s, 0.0) for k, s in zip(self._group_keep, scores)]
        ll = sum((_row_sums(s) for s in scores), 0.0)
        return np.where(ok & ~np.isnan(ll), ll, -np.inf).reshape(N)

    def _posterior(self, x: np.ndarray) -> np.ndarray:
        """Sum of log likelihood and log prior; -inf outside the support."""
        lp = self._prior(x)
        return np.where(np.isfinite(lp), self._likelihood(x) + lp, -np.inf)

    log_prior = _by_row(_prior)
    log_likelihood = _by_row(_likelihood)
    log_posterior = _by_row(_posterior)


# ---------------------------------------------------------------------------
# the random-walk kernel


def sample_posterior(log_prob, dim: int, config: SamplerConfig, seeds, init=None):
    """Adaptive RWM, all chains in lockstep, adapting until the end of warmup.

    Chain c draws from ``default_rng(seeds[c])``; ``config`` sets the warmup
    and kept lengths.  ``log_prob`` maps a (C, dim) batch to (C,) values.

    The loop runs window by window.  A window is ``ADAPT_WINDOW``
    iterations, or fewer at the end of warmup or of the kept draws; the
    proposal scale and Cholesky factor change only at the end of a full
    warmup window.  At a window's start each chain draws the whole window's
    randomness from its own stream, one iteration after another: ``dim``
    normals, then one uniform.  The window's proposal steps are one batched
    ``np.matmul``, a matrix-vector product (gemv) per chain and iteration:
    a matrix product (gemm) over them would sum in another order, so none is
    used.  Each iteration is then one ``log_prob`` call, the accept test
    and the state update.  A chain's draws are thus bitwise those it makes
    alone, or in a loop that draws and steps one iteration at a time.

    Returns the kept draws (C, n_keep, dim), their log_prob (C, n_keep), and
    each chain's acceptance rate and adaptation record.  A SamplingError's
    diagnostics name the chain.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    C = len(rngs)
    init = np.zeros(dim) if init is None else np.asarray(init, dtype=float)
    x = init + INIT_JITTER * np.stack([rng.standard_normal(dim) for rng in rngs])
    lp = np.array(log_prob(x), dtype=float)
    if not np.all(np.isfinite(lp)):
        c = int(np.argmin(np.isfinite(lp)))
        raise SamplingError("initial point has non-finite log posterior",
                            {"chain": c, "init": x[c].tolist()})
    n_warmup, n_total = config.n_warmup, config.n_warmup + config.n_keep
    keep = np.empty((C, config.n_keep, dim))
    lp_keep = np.empty((C, config.n_keep))

    log_scale = np.full(C, np.log(INIT_PROPOSAL_SCALE))
    chol = np.broadcast_to(np.eye(dim), (C, dim, dim)).copy()
    run_mean = np.zeros((C, dim))
    run_cov = np.zeros((C, dim, dim))
    total_accepts = np.zeros(C, dtype=int)
    adapt_logs = [[] for _ in range(C)]
    # one window's normals, uniforms, accept flags and warmup states
    W = min(ADAPT_WINDOW, n_total)
    z, u, accepted = np.empty((C, W, dim)), np.empty((C, W)), np.empty((C, W), dtype=bool)
    warm_x, warm_lp = np.empty((C, W, dim)), np.empty((C, W))
    delta, dev, outer = np.empty((C, dim)), np.empty((C, dim)), np.empty((C, dim, dim))

    bounds = [*range(0, n_warmup, ADAPT_WINDOW), *range(n_warmup, n_total, ADAPT_WINDOW), n_total]
    for start, stop in itertools.pairwise(bounds):
        w, warm = stop - start, start < n_warmup
        for zc, uc, rng in zip(z, u, rngs):
            normal, uniform = rng.standard_normal, rng.random
            for i in range(w):
                normal(out=zc[i])
                uc[i] = uniform()
        steps = (np.exp(log_scale)[:, None, None]
                 * np.matmul(chol[:, None], z[:, :w, :, None])[..., 0])
        log_u = np.log(u[:, :w])
        xs, lps = ((warm_x, warm_lp) if warm else
                   (keep[:, start - n_warmup:], lp_keep[:, start - n_warmup:]))
        for i in range(w):
            prop = x + steps[:, i]
            lp_prop = log_prob(prop)
            accept = np.less(log_u[:, i], lp_prop - lp, out=accepted[:, i])
            np.copyto(x, prop, where=accept[:, None])
            np.copyto(lp, lp_prop, where=accept)
            xs[:, i] = x
            lps[:, i] = lp
        window_accepts = accepted[:, :w].sum(axis=1)
        total_accepts += window_accepts
        if not warm or stop % ADAPT_WINDOW:  # a warmup window cut short adapts nothing
            continue
        for i, it in enumerate(range(start, stop)):  # Welford, one state at a time
            np.subtract(xs[:, i], run_mean, out=delta)
            run_mean += delta / (it + 1)
            np.subtract(xs[:, i], run_mean, out=dev)
            # one product per entry, bitwise a broadcast multiply's, in fewer inner loops
            run_cov += np.einsum("ci,cj->cij", delta, dev, out=outer)
        if not np.all(window_accepts):
            c = int(np.argmin(window_accepts))
            raise SamplingError("no proposals accepted over a full adaptation window", {
                "chain": c, "iteration": stop, "log_scale": float(log_scale[c]),
                "position": x[c].tolist(), "log_posterior": float(lp[c])})
        rate = window_accepts / ADAPT_WINDOW
        log_scale += 0.66 * (rate - TARGET_ACCEPT)
        for c in range(C):
            if stop > 2 * dim:
                cov = (2.38**2 / dim) * (run_cov[c] / (stop - 1))
                cov[np.diag_indices_from(cov)] += 1e-8 + 1e-6 * np.trace(cov) / dim
                try:
                    chol[c] = np.linalg.cholesky(cov)
                except np.linalg.LinAlgError:
                    pass
            adapt_logs[c].append({"iteration": stop, "accept_rate": float(rate[c]),
                                  "log_scale": float(log_scale[c])})
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
