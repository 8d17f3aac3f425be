"""Adaptive random-walk Metropolis for the model specifications.

The posterior dimension here stays small (a few dozen parameters at most
with splines), so a joint multivariate-normal random walk with covariance
adapted during warmup is adequate; the sampler and its diagnostics need
only numpy and ``scipy.special``.  Positive parameters (Weibull shape,
smoothing scales) are sampled on the log scale with the Jacobian
correction.

All chains step in lockstep.  The log posterior is called on a batch of
points, one pass returning one value per row, and each row's value in it
is bitwise its value alone (``PosteriorModel`` says how).  The loop runs
one adaptation window at a time: the proposal scale and covariance are
fixed within a window, so each chain draws the window's normals and
uniforms at its start, and the window's proposal steps are computed at
once.  Each iteration calls the log posterior on the (C, dim) batch of
proposals; or, where a call costs little more on three times the rows
(``LOOK_AHEAD_MAX_WORK``), two iterations make one call on the three
points they can propose, a (3C, dim) batch (prefetching: Brockwell,
"Parallel Markov chain Monte Carlo simulation by pre-fetching", JCGS
15(1), 2006).  Each chain owns an RNG stream derived from (seed,
chain_id) and draws from it in a fixed order, one iteration after
another, and each proposal step is its own matrix-vector product, so runs
are bit-reproducible for a given seed, and a chain's draws do not depend
on the chains beside it, on the window lengths or on looking ahead.

Split-R-hat and bulk ESS take every parameter's chains in one pass, in
blocks of parameters: one rank-normalisation, one batched FFT for the
autocovariances and Geyer's initial monotone sequence by cumulative
minimum and sum, each value bitwise what one parameter gives alone.

Fits that share nothing (the pipeline's models, the experiments' fits,
sub-batches of exact refits) run in forked worker processes through
``_run_jobs``; each keeps its own seeds, so its draws do not change.
"""

from __future__ import annotations

import functools
import itertools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .data import DrawsMatrix, LongDataset, SurvivalDataset, require_valid
from .data import require_counts
from .models import (
    ModelDesign,
    ModelError,
    ModelSpec,
    Rate,
    _row_blocks,
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
# diagnose flags a parameter whose split-R-hat exceeds this or is NaN
RHAT_THRESHOLD = 1.01
# ``_sample`` looks two steps ahead (one log-posterior call on 3C rows per
# member in place of two on C) where one call's work, as ``_sample`` counts
# it, is below this: the crossover measured on a 2-core Xeon.
# Whole 4 x (300 + 300) fits, looking ahead against not, with one BLAS
# thread (two in brackets): Weibull preset (31 coefficients) -6% (-1% to
# -9%) on 800 subjects, work 99k, and +3% to +9% (0% to -7%) on 1000,
# 124k; Bernoulli preset (49) -4% (0% to +7%) on 80 subjects' long rows,
# 113k, and even on 100 subjects', 137k.
LOOK_AHEAD_MAX_WORK = 120_000


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
    design: ModelDesign | None = None  # the design the fit's coefficients belong to


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
    of its row alone: numpy sums along a row whose entries are adjacent, so
    only an array whose last axis is strided (F-ordered, say) is copied to C
    order first; a column slice of a C-ordered array is summed as it is."""
    return (a if a.strides[-1] == a.itemsize else np.ascontiguousarray(a)).sum(axis=-1)


class PosteriorModel:
    """Log posterior of a ModelSpec bound to a dataset, or a batch of them.

    The unconstrained parameter vector is the regression coefficients,
    followed by log(alpha) for the Weibull family, followed by log smoothing
    scales when hierarchical smooths are on.  ``log_prior``,
    ``log_likelihood`` and ``log_posterior`` take an (..., dim) array: an
    (N, dim) batch gives (N,) values, each bitwise the value of its row
    alone, whatever N, and one vector a float.  ``sample_posterior`` relies
    on that: it calls ``log_posterior`` on (C, dim) batches, one row per
    chain, and on chain-major (3C, dim) ones when it looks ahead.  A row
    outside the support (a non-finite entry, an overflowing mean or Weibull
    shape, a NaN value) gets -inf; nothing is raised or warned.

    With ``held_out`` mapping B unit ids to their ``ModelDesign``s (each on
    the unit's training covariates) it is a batch: member b is the posterior
    without the b-th unit's rows, under its design, and a batch of rows is B
    equal blocks, block b evaluated under member b (chains are member-major,
    so a chain-major look-ahead batch keeps each member's rows in one
    block).  Setting the held-out rows' scores to 0.0 adds a 0.0 to each row
    sum, so a member's value is that of a model on its training data to
    within a few ulp.  It holds B design matrices over all rows.

    One evaluation is one pass under one np.errstate.  The linear predictor
    is one matrix-vector product (gemv) per row, in one batched
    ``np.matmul``, bitwise the product of that row alone: a matrix product
    (gemm) over the batch would sum in another order, so none is used.
    Short-format rows are grouped by how they are scored once, at
    construction, with each group's time terms fixed
    (``models.score_groups``); each evaluation computes the rate once, over
    all rows, and sums the groups' scores from ``models.group_log_scores``,
    the same kernel that builds the pointwise LOO matrices.  Every row sum
    runs along rows whose entries are adjacent, for the same reason.  Each
    prior's density is one call over all the coefficients that share it.
    Rows with a non-finite entry are found once for the prior and the
    likelihood.
    """

    def __init__(self, spec: ModelSpec, data, held_out: dict | None = None):
        held_out = held_out or {}
        self.spec, self.data, self.held_out = spec, data, tuple(held_out)
        self._prepare_data()  # rejects wrong or invalid data before the design is built
        keeps = [data.subject_id != u for u in self.held_out]
        self.designs = list(held_out.values()) or [ModelDesign(spec, data.covariates)]
        self.design = self.designs[0]
        names = list(self.design.parameter_names)
        if any(d.parameter_names != names for d in self.designs):
            raise ModelError("held-out members' designs differ in their parameters")
        n_rows = data.n_rows if isinstance(data, LongDataset) else data.n
        self.X = np.stack([d.matrix(data.covariates, n_rows=n_rows) for d in self.designs])
        self.n_beta = self.X.shape[2]
        # the (member, row) index pairs of held-out rows, and of each score
        # group's by its own rows; None: every row is kept
        self._held = self._group_held = None
        if keeps:
            held = ~np.stack(keeps)
            self._held = np.nonzero(held)
            if spec.family != "bernoulli_logit":
                self._group_held = [np.nonzero(held[:, g.rows]) for g in self._groups]
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
        self._half_log_2pi = 0.5 * np.log(2 * np.pi)

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

    def _prior_total(self, x: np.ndarray) -> np.ndarray:
        """Log prior density of the unconstrained vector, Jacobian included,
        before rows outside the support are set to -inf."""
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
                             - self._half_log_2pi)
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
        return total

    def _likelihood_total(self, x: np.ndarray) -> tuple:
        """Log likelihood and the mask of rows inside the support: entries
        all finite and a rate ``in_support``."""
        spec = self.spec
        B, N = len(self.X), len(x)
        if N % B:
            raise ModelError(f"a batch of {B} members needs a multiple of {B} rows, got {N}")
        ok = np.isfinite(x).all(axis=1).reshape(B, N // B)
        x = x.reshape(B, N // B, self.dim)  # block b holds member b's rows
        lin = np.matmul(self.X[:, None], x[..., : self.n_beta, None])[..., 0]  # (B, C, n)
        # held-out rows are set to 0 on their few columns: their linear
        # predictor, which keeps them inside the support, and their score
        # (set, not multiplied: -inf * 0 is nan)
        if spec.family == "bernoulli_logit":
            scores = [bernoulli_log_score(self._z, logistic(lin))]
            if self._held is not None:
                scores[0][self._held[0], :, self._held[1]] = 0.0
        else:
            if self._held is not None:
                lin[self._held[0], :, self._held[1]] = 0.0
            params = {"mean": np.exp(lin)}
            if spec.has_shape:
                params["shape"] = np.exp(x[..., self.n_beta, None])
            rate = Rate.of(spec.family, params, check=False)
            ok = ok & in_support(rate)
            scores = group_log_scores(spec.family, self._groups, rate)
            for (members, rows), score in zip(self._group_held or (), scores):
                score[members, :, rows] = 0.0
        ll = np.zeros((B, N // B))
        for score in scores:
            ll += _row_sums(score)
        return ll.reshape(N), ok.reshape(N)

    # each density is -inf outside the support: a row with a non-finite entry
    # or a NaN value, or for the likelihood one outside ``in_support``.  The
    # posterior is their sum, or -inf where the prior is not finite: the
    # likelihood's mask covers the entries, and one ``where`` the rest

    def _prior(self, x: np.ndarray) -> np.ndarray:
        total = self._prior_total(x)
        return np.where(np.isfinite(x).all(axis=1) & ~np.isnan(total), total, -np.inf)

    def _likelihood(self, x: np.ndarray) -> np.ndarray:
        ll, ok = self._likelihood_total(x)
        return np.where(ok & ~np.isnan(ll), ll, -np.inf)

    def _posterior(self, x: np.ndarray) -> np.ndarray:
        total = self._prior_total(x)
        ll, ok = self._likelihood_total(x)
        return np.where(ok & ~np.isnan(ll) & np.isfinite(total), ll + total, -np.inf)

    log_prior = _by_row(_prior)
    log_likelihood = _by_row(_likelihood)
    log_posterior = _by_row(_posterior)


# ---------------------------------------------------------------------------
# the random-walk kernel


def sample_posterior(log_prob, dim: int, config: SamplerConfig, seeds, init=None,
                     look_ahead: bool = False):
    """Adaptive RWM, all chains in lockstep, adapting until the end of warmup.

    Chain c draws from ``default_rng(seeds[c])``; ``config`` sets the warmup
    and kept lengths.  ``log_prob`` maps an (N, dim) batch to (N,) values,
    each bitwise the value of its row alone.

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

    With ``look_ahead`` (``_sample`` chooses it from the cost of a call),
    iterations i and i + 1 of a window make one call: from state x, with
    the window's steps s_i, s_i+1 fixed already, they can propose only
    a = x + s_i, then b = a + s_i+1 if a is accepted or c = x + s_i+1 if
    not.  ``log_prob`` gets the (3C, dim) batch of
    every chain's a, b and c, chain-major, and the two accept tests run as
    before on the values of the points proposed.  Those are the sums the
    one-step loop forms, and each row's value is its value alone, so every
    output is bitwise the same; the last iteration of a window of odd
    length is taken alone.  ``log_prob`` is thus also called on points no
    chain visits, which must not raise.

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
    ahead = np.empty((C, 3, dim))  # a look-ahead call's points, chain-major

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

        def step(i, prop, lp_prop):
            accept = np.less(log_u[:, i], lp_prop - lp, out=accepted[:, i])
            np.copyto(x, prop, where=accept[:, None])
            np.copyto(lp, lp_prop, where=accept)
            xs[:, i] = x
            lps[:, i] = lp
            return accept

        paired = w - w % 2 if look_ahead else 0
        for i in range(0, paired, 2):
            # steps i and i + 1 from x propose a = x + s_i, then b = a + s_i+1
            # if a is accepted, else c = x + s_i+1: one call on all three
            np.add(x, steps[:, i], out=ahead[:, 0])
            np.add(ahead[:, 0], steps[:, i + 1], out=ahead[:, 1])
            np.add(x, steps[:, i + 1], out=ahead[:, 2])
            lp_ahead = np.asarray(log_prob(ahead.reshape(3 * C, dim)), dtype=float).reshape(C, 3)
            accept = step(i, ahead[:, 0], lp_ahead[:, 0])
            step(i + 1, np.where(accept[:, None], ahead[:, 1], ahead[:, 2]),
                 np.where(accept, lp_ahead[:, 1], lp_ahead[:, 2]))
        for i in range(paired, w):
            prop = x + steps[:, i]
            step(i, prop, log_prob(prop))
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
    chains, lps, rates, logs = _sample(post, config,
                                       [(config.seed, c) for c in range(config.n_chains)])
    draws = DrawsMatrix(post.constrain(chains.reshape(-1, post.dim)), post.parameter_names,
                        np.repeat(np.arange(config.n_chains), config.n_keep))
    rhat = split_rhat(chains) if config.n_chains >= 2 else np.full(post.dim, np.nan)
    names = post.parameter_names
    return FitResult(draws=draws, rhat=dict(zip(names, rhat.tolist())),
                     ess=dict(zip(names, bulk_ess(chains).tolist())), accept_rate=rates,
                     log_post=lps.reshape(-1), design=post.design,
                     adaptation={"chains": logs, "n_warmup": config.n_warmup})


def _sample(post: PosteriorModel, config: SamplerConfig, seeds) -> tuple:
    """``sample_posterior`` of ``post`` from its init point, one chain per
    seed: the one route from a posterior to draws, for fits and refits.  It
    looks two steps ahead where a call's work, chains per member x entries
    of every member's design matrix, is below ``LOOK_AHEAD_MAX_WORK``."""
    return sample_posterior(post.log_posterior, post.dim, config, seeds, post.init_point(),
                            config.n_chains * post.X.size < LOOK_AHEAD_MAX_WORK)


# ---------------------------------------------------------------------------
# independent jobs in worker processes


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_jobs(fn, jobs) -> list:
    """``[fn(*job) for job in jobs]`` in a pool of as many forked worker
    processes as jobs, each job a tuple of ``fn``'s arguments.

    ``fn`` is a module-level function (it is pickled by name), and each
    job's arguments and result are pickled; the results come back in job
    order.  A worker's exception is raised here, that of the first failing
    job in order, with its type, message and attributes (a SamplingError
    keeps its diagnostics).  The workers are joined before this returns or raises.
    One job, a platform without the ``fork`` start method, or a call made
    inside a worker runs the jobs here, one after another, so pools never
    nest.  Only ``fork`` is used: under ``forkserver`` or ``spawn`` every
    worker would import survcheck again.
    """
    jobs = list(jobs)
    if (len(jobs) < 2 or multiprocessing.parent_process() is not None
            or "fork" not in multiprocessing.get_all_start_methods()):
        return [fn(*job) for job in jobs]
    with ProcessPoolExecutor(len(jobs), mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(fn, *zip(*jobs)))


# ---------------------------------------------------------------------------
# convergence diagnostics


def split_rhat(chains: np.ndarray):
    """Split-R-hat of each parameter: a float for one parameter's
    (n_chains, n_iter) chains, (k,) values for (n_chains, n_iter, k)."""
    return _per_parameter(_split_rhat, chains)


def bulk_ess(chains: np.ndarray):
    """Bulk effective sample size (rank-normalized) of each parameter: a
    float for one parameter's (n_chains, n_iter) chains, (k,) values for
    (n_chains, n_iter, k)."""
    return _per_parameter(_bulk_ess, chains)


def _per_parameter(stat, chains):
    """``stat`` of the split sequences of every parameter, in blocks of
    parameters.  Each block is a C-ordered (k, m, L) array, so every mean,
    variance and FFT runs along a contiguous last axis as it does for one
    parameter's (m, L) sequences, and each value is bitwise its value alone."""
    chains = np.asarray(chains, dtype=float)
    one = chains.ndim < 3
    if one:
        chains = np.atleast_2d(chains)[..., None]
    n_chains, n_iter, k = chains.shape
    half = n_iter // 2
    out = np.empty(k)
    with np.errstate(all="ignore"):
        # blocks of parameters, each 2 C FFT-sized sequences long
        for j in _row_blocks((k, 2 * n_chains * _fft_size(half))):
            block = chains[:, : 2 * half, j]
            b = block.shape[2]
            # (b, 2, C, half): every chain's first half, then every second half
            seqs = np.ascontiguousarray(block.reshape(n_chains, 2, half, b).transpose(3, 1, 0, 2))
            out[j] = stat(seqs.reshape(b, 2 * n_chains, half))
    return float(out[0]) if one else out


def _split_rhat(seqs: np.ndarray) -> np.ndarray:
    k, m, L = seqs.shape
    if m < 2 or L < 2:
        return np.full(k, np.nan)
    W = seqs.var(axis=-1, ddof=1).mean(axis=-1)
    B = L * seqs.mean(axis=-1).var(axis=-1, ddof=1)
    var_plus = (L - 1) / L * W + B / L
    return np.where(W == 0, np.where(B == 0, np.nan, np.inf), np.sqrt(var_plus / W))


def _bulk_ess(seqs: np.ndarray) -> np.ndarray:
    k, m, L = seqs.shape
    if L < 4:
        return np.full(k, np.nan)
    ranks = _average_ranks(seqs.reshape(k, m * L))
    return _ess(ndtri((ranks - 0.375) / (m * L + 0.25)).reshape(k, m, L))


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks along the rows of a (k, n) array, a tie group's the mean
    of its positions (scipy.stats.rankdata's 'average'); a row holding a NaN
    is all NaN."""
    k, n = a.shape
    order = np.argsort(a, axis=-1, kind="stable")
    ordered = np.take_along_axis(a, order, axis=-1)
    starts = np.ones((k, n), dtype=bool)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=starts[:, 1:])
    lo = np.flatnonzero(starts)
    counts = np.diff(lo, append=k * n)
    lo %= n
    hi = lo + counts  # one past each tie group's last position
    ranks = np.empty((k, n))
    np.put_along_axis(ranks, order, np.repeat(0.5 * (hi + lo + 1), counts).reshape(k, n), axis=-1)
    ranks[np.isnan(ordered[:, -1])] = np.nan  # NaN sorts last
    return ranks


def _fft_size(n: int) -> int:
    return 2 ** int(np.ceil(np.log2(2 * n))) if n else 1


def _ess(seqs: np.ndarray) -> np.ndarray:
    """ESS of each parameter's (m, L) sequences in a (k, m, L) array: the
    autocovariances by one batched FFT, then Geyer's initial monotone
    sequence over lag pairs, summed in lag order up to the first pair that
    is not positive."""
    k, m, L = seqs.shape
    size = _fft_size(L)
    f = np.fft.rfft(seqs - seqs.mean(axis=-1, keepdims=True), size)
    # not ``f * np.conj(f)``: numpy reuses a temporary operand of 256 KiB or
    # more in place, which swaps the operands of a product whose fused
    # complex multiply is not symmetric in them
    acov = np.fft.irfft(np.multiply(f, np.conj(f)), size)[..., :L] / L
    mean_var = (acov[..., 0] * L / (L - 1.0)).mean(axis=-1)
    var_plus = mean_var * (L - 1.0) / L
    if m > 1:
        var_plus += seqs.mean(axis=-1).var(axis=-1, ddof=1)
    rho = 1.0 - (mean_var[:, None] - acov.mean(axis=1)) / var_plus[:, None]
    rho[:, 0] = 1.0
    pairs = rho[:, 0 : L - 1 : 2] + rho[:, 1:L:2]
    n_pairs = pairs.shape[1]
    stop = np.where((pairs <= 0).any(axis=-1), np.argmax(pairs <= 0, axis=-1), n_pairs)
    sums = np.zeros((k, n_pairs + 1))  # sums[:, t]: the first t monotone pairs, in order
    np.cumsum(np.minimum.accumulate(pairs, axis=-1), axis=-1, out=sums[:, 1:])
    tau = 2.0 * sums[np.arange(k), stop] - 1.0
    floor = 1.0 / np.log10(m * L + 10.0)
    tau = np.where(floor > tau, floor, tau)  # max(tau, floor), a NaN tau kept
    ess = m * L / tau
    return np.where(var_plus == 0, np.nan, np.where(m * L < ess, m * L, ess))


def diagnose(result: FitResult) -> dict:
    """Convergence report: per-parameter split-R-hat and bulk ESS, with flags.

    A parameter is flagged unless its R-hat is at most ``RHAT_THRESHOLD``:
    an R-hat that cannot be computed (NaN: one chain, fewer than 4 kept
    draws, a parameter constant and equal across chains) shows no
    convergence, so it is flagged too."""
    flags = [name for name, r in result.rhat.items() if not r <= RHAT_THRESHOLD]
    return {
        "rhat": dict(result.rhat),
        "ess": dict(result.ess),
        "accept_rate": [float(r) for r in result.accept_rate],
        "flagged": flags,
        "rhat_threshold": RHAT_THRESHOLD,
        "ok": not flags,
    }
