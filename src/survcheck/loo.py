"""Pointwise predictive scoring and PSIS-LOO model comparison.

A log-likelihood matrix holds one column per scoring unit (a record, or all
the rows of a long-format subject) and one row per posterior draw.  Each
column is tagged ``density`` (event records scored by a log density) or
``probability`` (censored records, discretized intervals, dichotomized
outcomes, subjects' joint row scores).  Densities shift under a change of
time scale while probabilities do not, so comparisons are refused unless
the two models carry identical tag patterns.

PSIS replaces the largest importance weights of each column with fitted
generalized-Pareto order statistics, all columns in one pass and each
bitwise as if smoothed alone; the tail shape k-hat diagnoses reliability,
and units beyond the threshold can be recomputed exactly by refitting
without them.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import logsumexp

from .checks import dichotomize_outcomes
from .data import (
    ON_NAME,
    SINCE_NAME,
    DataError,
    DrawsMatrix,
    LongDataset,
    SurvivalDataset,
    TimeGrid,
    TreatmentRule,
    _by_subject,
    _short_form,
    _treatment_shown,
    _write_csv,
)
from .models import (
    DENSITY,
    PROBABILITY,
    ModelDesign,
    ModelSpec,
    Rate,
    _row_blocks,
    bernoulli_log_score,
    cdf,
    group_log_scores,
    score_groups,
    subject_params,
)

DEFAULT_KHAT_THRESHOLD = 0.7
MODES = ("raw", "interval", "dichotomized")


class LooError(ValueError):
    """Invalid scoring inputs or refused comparison."""


@dataclass(frozen=True)
class LogLikMatrix:
    """S draws x N scoring units of pointwise log scores."""

    values: np.ndarray
    tags: tuple[str, ...]
    unit_ids: tuple
    time_unit: str | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise LooError("log-lik matrix must be 2-D (draws x units)")
        if v.shape[0] == 0:
            raise LooError("log-lik matrix has no draws")
        if np.any(np.isnan(v)) or np.any(v == np.inf):
            raise LooError("log-lik entries must be finite or -inf")
        tags = tuple(self.tags)
        ids = tuple(self.unit_ids)
        if len(tags) != v.shape[1] or len(ids) != v.shape[1]:
            raise LooError("tags and unit_ids must have one entry per column")
        if not set(tags) <= {DENSITY, PROBABILITY}:
            raise LooError("tags must be 'density' or 'probability'")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "tags", tags)
        object.__setattr__(self, "unit_ids", ids)

    @property
    def n_draws(self) -> int:
        return self.values.shape[0]

    @property
    def n_units(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class PsisResult:
    log_weights: np.ndarray          # (S, N), normalized per column
    khat: np.ndarray                 # (N,), nan where degenerate
    ess: np.ndarray                  # (N,)
    degenerate: np.ndarray           # (N,) bool: column passed through unsmoothed


@dataclass(frozen=True)
class ElpdReport:
    total: float
    pointwise: np.ndarray
    se: float
    khat: np.ndarray
    unit_ids: tuple
    tags: tuple[str, ...]
    n_refit: int = 0
    time_unit: str | None = None
    name: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "elpd": self.total,
            "se": self.se,
            "n_units": len(self.unit_ids),
            "n_refit": self.n_refit,
            "khat_max": float(np.nanmax(self.khat)) if len(self.khat) else float("nan"),
            "time_unit": self.time_unit,
        }


@dataclass(frozen=True)
class ComparisonReport:
    """Model ranking with paired-difference standard errors.

    Rows are sorted best first; the best row has delta 0 and se 0.  A model
    is flagged indistinguishable from the best when |delta| <= 2 se (the
    reference row is trivially so).
    """

    rows: tuple[dict, ...]
    n_units: int
    warnings: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "comparison": [dict(r) for r in self.rows],
            "n_units": self.n_units,
            "warnings": list(self.warnings),
        }


# ---------------------------------------------------------------------------
# building log-lik matrices


def loglik_matrix(
    spec: ModelSpec,
    design: ModelDesign,
    draws,
    data,
    mode: str = "raw",
    grid: TimeGrid | None = None,
    horizon: float | None = None,
) -> LogLikMatrix:
    """Pointwise log scores of every scoring unit under every draw.

    Continuous families score short-format data, one column per record:

    mode 'raw':           events score log densities, censored records score
                          their censoring log probabilities.
    mode 'interval':      event densities are converted to probabilities by
                          integrating over the grid interval containing the
                          event; censored records keep their probabilities.
    mode 'dichotomized':  Bernoulli score of "event by the horizon", with
                          p = F(horizon); subjects censored before the
                          horizon are dropped.

    Raw and interval modes score through the kernel the sampler's likelihood
    uses (``models.score_groups`` and ``models.group_log_scores``), so each
    row of the matrix sums to the log likelihood at that draw.

    A ``bernoulli_logit`` model scores long-format data on its subjects, in
    first-appearance order (as ``to_short_form`` orders them).  In raw and
    interval modes a subject's column sums its rows' scores, which are
    already probabilities of the long format's intervals (``grid`` is not
    used); dichotomized mode is ``bernoulli_dichotomized_loglik``.  Any other
    mode is refused.  Its draws x rows probabilities are scored and summed
    one block of rows (of subjects, dichotomized) at a time: temporaries
    are bounded to one block and every value is bitwise.
    """
    if mode not in MODES:
        raise LooError(f"unknown scoring mode {mode!r}; expected one of {MODES}")
    if mode == "dichotomized" and (horizon is None or horizon <= 0):
        raise LooError("dichotomized mode needs a positive horizon")
    if spec.family == "bernoulli_logit":
        if not isinstance(data, LongDataset):
            raise DataError("bernoulli_logit models score long-format data")
        if mode == "dichotomized":
            return bernoulli_dichotomized_loglik(spec, design, draws, data, horizon)
        return _bernoulli_loglik(data, subject_params(spec, design, draws, data.covariates,
                                                      n_rows=data.n_rows)["p"])
    if not isinstance(data, SurvivalDataset):
        raise DataError("continuous families score short-format data")
    params = subject_params(spec, design, draws, data.covariates, n_rows=data.n)
    if mode == "dichotomized":
        z, keep, _excluded = dichotomize_outcomes(data, horizon)
        vals = _dichotomized_scores(
            z, cdf(spec.family, {**params, "mean": params["mean"][keep]}, horizon))
        ids = tuple(int(s) for s in data.subject_id[keep])
        return LogLikMatrix(vals.T, (PROBABILITY,) * len(keep), ids, data.time_unit)

    if mode == "interval" and grid is None:
        raise LooError("interval mode needs a grid")
    groups = score_groups(data, grid if mode == "interval" else None)
    # the kernel takes rows on the last axis: (S, n) views of the (n, S) params
    rate = Rate.of(spec.family, {k: v.T for k, v in params.items()})
    vals = np.empty(params["mean"].shape)
    tags = np.empty(data.n, dtype=object)
    with np.errstate(divide="ignore"):
        scores = group_log_scores(spec.family, groups, rate)
    for g, s in zip(groups, scores):
        vals[g.rows] = s.T
        tags[g.rows] = g.tag
    ids = tuple(int(s) for s in data.subject_id)
    return LogLikMatrix(vals.T, tuple(tags), ids, data.time_unit)


def _dichotomized_scores(z, p_event) -> np.ndarray:
    """(n, S) log scores of "event by the horizon" outcomes z (n,) under the
    event probabilities p_event (n, S), clipped so both logs stay finite."""
    return bernoulli_log_score(z[:, None], np.clip(p_event, 1e-300, 1 - 1e-16))


def _bernoulli_loglik(long: LongDataset, p) -> LogLikMatrix:
    """A Bernoulli model's subject columns from its row event probabilities
    p (n_rows, S): each subject sums its rows' log scores of the 0/1
    outcomes, subjects in first-appearance order."""
    z = np.asarray(long.outcome, dtype=float)
    ids, vals = _sum_by_subject(long.subject_id, p.shape[1],
                                lambda rows: bernoulli_log_score(z[rows, None], p[rows]))
    return LogLikMatrix(vals, (PROBABILITY,) * len(ids), ids, long.time_unit)


def _sum_by_subject(subject_id, width: int, scores) -> tuple[tuple, np.ndarray]:
    """(width, n_subjects) sums of row scores, subjects in first-appearance
    order; ``scores(rows)`` gives the (len(rows), width) scores of ``rows``,
    called on blocks of the rows grouped by subject.  A subject's rows are
    added in row order from 0.0, one pass per position within a subject:
    each sum is the plain running sum, however the blocks fall."""
    rank, by_subject, starts = _by_subject(subject_id)  # each subject's rows, in row order
    owner = rank[by_subject]
    position = np.arange(owner.size) - starts[owner]
    sums = np.zeros((starts.size, width))
    for rows in _row_blocks((owner.size, width)):
        at, who, block = position[rows], owner[rows], scores(by_subject[rows])
        for k in range(at.min(initial=0), at.max(initial=-1) + 1):
            this = at == k
            sums[who[this]] += block[this]
        del block  # before the next block's scores are made
    return tuple(int(s) for s in subject_id[by_subject[starts]]), np.ascontiguousarray(sums.T)


def bernoulli_dichotomized_loglik(
    spec: ModelSpec,
    design: ModelDesign,
    draws,
    long: LongDataset,
    horizon: float,
) -> LogLikMatrix:
    """Score "event by the horizon" under a discrete-time Bernoulli model.

    The model's event-by-k probability is 1 - prod_{j<=k}(1 - p_j), so the
    horizon must fall on an interval boundary (a positive integer here).
    The rows 1..horizon of every kept subject are rebuilt from its static
    covariates under the treatment rule the rows show (``TreatmentRule.of``),
    whatever its observed follow-up, and scored through one stacked design
    matrix, one block of rows per subject.  Subjects censored before the
    horizon are excluded, mirroring the continuous-family rule.  A rebuilt
    row that contradicts its observed row in a covariate of the model (rows
    of several durations) is a LooError, as is a time-dependent model
    covariate the rule does not make, and a model of the treatment columns
    past the longest treatment of rows that show no end of treatment.
    """
    k_max = int(round(horizon))
    if abs(horizon - k_max) > 1e-9 or k_max < 1:
        raise LooError("the discrete-time horizon must be a positive whole "
                       "number of intervals")
    short, (rank, _, _) = _short_form(long)
    z, keep, _excluded = dichotomize_outcomes(short, float(k_max))
    n_keep = len(keep)
    rows = TreatmentRule.of(long).rows({name: col[keep] for name, col in short.covariates.items()},
                                       k_max)
    _check_rebuilt_rows(spec, long, rank, keep, k_max, rows)
    blocks = {name: col.reshape(n_keep, k_max) for name, col in rows.items()}
    beta = design.coefficients(draws)
    vals = np.empty((n_keep, len(beta)))
    # one block of subjects at a time; a subject's rows are multiplied and
    # summed on their own, so every value is bitwise that of one pass
    for b in _row_blocks((n_keep, k_max, len(beta))):
        p = subject_params(spec, design, beta, {name: block[b] for name, block in blocks.items()},
                           n_rows=z[b].size * k_max)["p"]
        vals[b] = _dichotomized_scores(z[b], -np.expm1(np.sum(np.log1p(-p), axis=1)))
    ids = tuple(int(s) for s in short.subject_id[keep])
    return LogLikMatrix(vals.T, (PROBABILITY,) * len(keep), ids, long.time_unit)


def _check_rebuilt_rows(spec: ModelSpec, long: LongDataset, rank, keep, k_max: int,
                        rebuilt) -> None:
    """Raise a LooError naming every model covariate ``rebuilt`` (rows 1..k_max
    of each subject, in ``keep`` order) lacks, or else the first in which an
    observed row of the subjects numbered ``keep`` (``rank``), up to interval
    ``k_max``, differs from its row in ``rebuilt``, or where those show no
    end of treatment and a treated subject's rows pass their longest."""
    used = set(spec.fixed) | {sm.name for sm in spec.smooths}
    if used - set(rebuilt):
        raise LooError(f"covariates {sorted(used - set(rebuilt))} of the model are neither static"
                       " nor made by the treatment rule: their rows cannot be rebuilt")
    slot = np.full(rank.max() + 1, -1)
    slot[keep] = np.arange(len(keep))  # each kept subject's block in ``rebuilt``
    observed = (slot[rank] >= 0) & (long.interval_index <= k_max)
    at = slot[rank[observed]] * k_max + long.interval_index[observed] - 1
    for name, col in rebuilt.items():
        if (name in used and name in long.covariates
                and np.any(long.covariates[name][observed] != col[at])):
            raise LooError(f"covariate {name!r} of the observed rows differs from the rows the "
                           "treatment rule rebuilds: the data were made under another rule")
    shown, longest = _treatment_shown(long)
    if (not shown.size and k_max > longest and used & {ON_NAME, SINCE_NAME}
            and np.any(rebuilt[ON_NAME] != 0)):  # a kept subject is treated
        raise LooError(f"no row shows the end of treatment and none is on treatment past "
                       f"interval {longest:g}: the treatment rule up to {k_max} is unknown")


def group_long_by_subject(loglik: LogLikMatrix) -> LogLikMatrix:
    """Sum the (subject, interval) row columns of a matrix into subject columns.

    For row-level matrices, such as a log-lik CSV with row units;
    ``loglik_matrix`` already scores a Bernoulli model on its subjects.  A
    matrix keyed by plain subject ids is returned unchanged.
    """
    if not any(isinstance(u, tuple) for u in loglik.unit_ids):
        return loglik
    subject_id = np.array([u[0] if isinstance(u, tuple) else u for u in loglik.unit_ids])
    ids, vals = _sum_by_subject(subject_id, loglik.n_draws,
                                lambda rows: loglik.values[:, rows].T)
    return LogLikMatrix(vals, (PROBABILITY,) * len(ids), ids, loglik.time_unit)


# ---------------------------------------------------------------------------
# PSIS, all columns in one pass: one partial sort, one profile fit per tail
# size.  Each reduction runs along a contiguous last axis of a lone column's
# length, so each column comes out bitwise as if smoothed alone.

_PRIOR_BS, _PRIOR_K = 3.0, 10.0


def _grid_mean(b: np.ndarray, logl: np.ndarray) -> np.ndarray:
    """Mean of each row's grid points b weighted by their likelihoods exp(logl)."""
    w = np.exp(logl - logl.max(axis=1, keepdims=True))  # normalized in log space: no overflow
    w /= w.sum(axis=1, keepdims=True)
    return np.sum(b * w, axis=1)


def _gpd_profile(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zhang & Stephens profile fit of each row of x (rows, n), ascending
    positive exceedances; nan where it does not converge."""
    rows, n = x.shape
    m = 30 + int(math.sqrt(n))
    b = 1.0 - np.sqrt(m / (np.arange(1, m + 1) - 0.5))
    b = b / (_PRIOR_BS * x[:, [int(n / 4 + 0.5) - 1]]) + 1.0 / x[:, -1:]
    logl = np.empty((rows, m))
    with np.errstate(divide="ignore", invalid="ignore"):
        for r in _row_blocks((rows, m, n)):
            bc = b[r]
            k = np.mean(np.log1p(-bc[:, :, None] * x[r][:, None, :]), axis=2)
            logl[r] = n * (np.log(-bc / k) - k - 1.0)
        # the weights run over a row's finite grid points only
        valid = np.isfinite(logl)
        full = valid.all(axis=1)
        b_post = np.full(rows, np.nan)
        b_post[full] = _grid_mean(b[full], logl[full])
        for r in np.flatnonzero(~full & valid.any(axis=1)):
            b_post[r] = _grid_mean(b[r, valid[r]][None], logl[r, valid[r]][None])[0]
        k_post = np.mean(np.log1p(-b_post[:, None] * x), axis=1)
        sigma = -k_post / b_post
    khat = (n * k_post + _PRIOR_K * 0.5) / (n + _PRIOR_K)
    ok = np.isfinite(khat) & np.isfinite(sigma) & (sigma > 0)
    return np.where(ok, khat, np.nan), np.where(ok, sigma, np.nan)


def _fit_tails(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Generalized Pareto shape and scale of each row of x (rows, M), ascending
    non-negative exceedances.  Zero exceedances (ties at the threshold, common
    with Metropolis draws) carry no tail information and break the profile
    grid; a row with fewer than 5 distinct positive ones gets nan."""
    positive = x > 0
    n = positive.sum(axis=1)
    fits = np.sum(positive & (np.diff(x, axis=1, prepend=0.0) != 0), axis=1) >= 5
    khat, sigma = np.full(len(x), np.nan), np.full(len(x), np.nan)
    for size in np.unique(n[fits]):
        r = np.flatnonzero(fits & (n == size))
        khat[r], sigma[r] = _gpd_profile(np.ascontiguousarray(x[r, x.shape[1] - size:]))
    return khat, sigma


def gpd_quantile(u, khat, sigma) -> np.ndarray:
    """Quantiles at u; khat and sigma broadcast against u ((rows, 1) for a fit per row)."""
    u, khat, sigma = (np.asarray(a, dtype=float) for a in (u, khat, sigma))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q = sigma / khat * np.expm1(-khat * np.log1p(-u))
    return np.where(np.abs(khat) < 1e-12, -sigma * np.log1p(-u), q)


def psis_tail_size(n_draws: int) -> int:
    return int(min(0.2 * n_draws, 3.0 * math.sqrt(n_draws)))


def _top_ascending(lw: np.ndarray, k: int) -> np.ndarray:
    """Indices of each row's k largest entries, in the order that ends a
    stable ascending ``argsort`` of the row: by value, ties by index."""
    S = lw.shape[1]
    top = np.sort(np.argpartition(lw, S - k, axis=1)[:, S - k:], axis=1)
    vals = np.take_along_axis(lw, top, axis=1)
    top = np.take_along_axis(top, np.argsort(vals, axis=1, kind="stable"), axis=1)
    # the partition may split a tie group at the cutoff and keep the wrong
    # members of it: those rows take the full stable sort
    cut = vals.min(axis=1, keepdims=True)
    split = np.sum(lw == cut, axis=1) > np.sum(vals == cut, axis=1)
    top[split] = np.argsort(lw[split], axis=1, kind="stable")[:, S - k:]
    return top


def psis_smooth(loglik: LogLikMatrix) -> PsisResult:
    """Pareto smoothed importance weights for leaving each unit out.

    Raw log ratios are the negated pointwise log likelihoods.  Per column,
    the largest M = min(0.2 S, 3 sqrt(S)) weights are replaced by fitted
    GPD order statistics, truncated at the raw maximum, then normalized.
    Columns whose tail cannot be fitted (constant, fewer than 5 distinct
    positive exceedances, or containing -inf scores) are flagged and passed
    through unsmoothed.

    All columns go through at once: a partial sort picks every tail and one
    profile fit runs per tail size.  Log weights, k-hat, ESS and flags are
    bitwise those of smoothing each column alone with a stable ``argsort``
    and a scalar fit, as ``tests/psis_oracle.py`` does.
    """
    ll = loglik.values
    S, N = ll.shape
    if S < 100:
        warnings.warn(f"only {S} draws; PSIS is unreliable below ~100", stacklevel=2)
    finite = np.all(np.isfinite(ll), axis=0)
    log_w = np.zeros((S, N))  # uniform where a score is -inf
    khat = np.full(N, np.nan)
    lw = np.negative(ll[:, finite].T, order="C")  # raw log ratios -ll ...
    lw -= lw.max(axis=1, keepdims=True)  # ... shifted to a maximum of 0
    M = psis_tail_size(S)
    order = np.empty((len(lw), M + 1), dtype=np.intp)
    for rows in _row_blocks(lw.shape):
        order[rows] = _top_ascending(lw[rows], M + 1)
    top = np.take_along_axis(lw, order, axis=1)  # cutoff, then the tail
    k, sigma = _fit_tails(np.sort(np.exp(top[:, 1:]) - np.exp(top[:, :1]), axis=1))
    khat[finite] = k
    ok = np.flatnonzero(~np.isnan(k))
    q = (np.arange(1, M + 1) - 0.5) / M
    smoothed = np.exp(top[ok, :1]) + gpd_quantile(q, k[ok, None], sigma[ok, None])
    lw[ok[:, None], order[ok, 1:]] = np.log(smoothed)
    log_w[:, finite] = np.minimum(lw, 0.0, out=lw).T  # truncate at the raw maximum
    log_w -= logsumexp(log_w, axis=0)  # every column at once
    w = np.exp(log_w)
    ess = 1.0 / np.sum(w * w, axis=0)
    return PsisResult(log_w, khat, ess, np.isnan(khat))


# ---------------------------------------------------------------------------
# elpd and comparison


def elpd_loo(loglik: LogLikMatrix, psis: PsisResult | None = None,
             name: str = "") -> ElpdReport:
    """PSIS-LOO elpd: pointwise log of the weighted predictive average.

    The standard error is sqrt(n * V) with V the sample variance of the
    pointwise values (0 when n == 1 by the sample-variance convention).
    """
    if psis is None:
        psis = psis_smooth(loglik)
    if psis.log_weights.shape != loglik.values.shape:
        raise LooError("PSIS result does not match the log-lik matrix")
    with np.errstate(invalid="ignore"):
        pointwise = logsumexp(psis.log_weights + loglik.values, axis=0)
    pointwise = np.where(np.isnan(pointwise), -np.inf, pointwise)
    finite = np.isfinite(pointwise).all()
    return ElpdReport(
        total=float(pointwise.sum()) if finite else float("-inf"),
        pointwise=pointwise,
        se=_se(pointwise) if finite else 0.0,
        khat=psis.khat,
        unit_ids=loglik.unit_ids,
        tags=loglik.tags,
        time_unit=loglik.time_unit,
        name=name,
    )


def _se(values: np.ndarray) -> float:
    """Standard error sqrt(n V) of a sum of n values, V their sample
    variance; 0 when n <= 1, by the sample-variance convention."""
    n = values.size
    return float(np.sqrt(n * np.var(values, ddof=1))) if n > 1 else 0.0


def compare(reports: list[ElpdReport]) -> ComparisonReport:
    """Rank models by elpd with paired-difference standard errors.

    Refuses to compare models whose scoring units differ or whose
    density/probability tag patterns differ: mixing the two makes the
    ranking depend on the time scale of the target variable.
    """
    if len(reports) < 2:
        raise LooError("need at least two models to compare")
    ref = reports[0]
    warn_msgs = []
    for rep in reports[1:]:
        if rep.unit_ids != ref.unit_ids:
            raise LooError(
                f"scoring units differ between {ref.name or 'model 1'!r} and "
                f"{rep.name or 'model'!r}; align units before comparing"
            )
        if rep.tags != ref.tags:
            raise LooError(
                "density/probability tag patterns differ between models; "
                "densities move with the time scale while probabilities do "
                "not, so this comparison would be scale-dependent. "
                "Discretize the densities (interval or dichotomized mode) first."
            )
        if rep.time_unit != ref.time_unit:
            warn_msgs.append(
                f"time units differ ({ref.time_unit!r} vs {rep.time_unit!r}); "
                "raw-mode scores are not comparable across time scales"
            )
    for msg in warn_msgs:
        warnings.warn(msg, stacklevel=2)
    order = sorted(range(len(reports)), key=lambda i: -reports[i].total)
    best = reports[order[0]]
    n = len(best.unit_ids)
    rows = []
    for rank, i in enumerate(order):
        rep = reports[i]
        if rank == 0:
            delta, se_d = 0.0, 0.0
        else:
            diffs = rep.pointwise - best.pointwise
            delta, se_d = float(diffs.sum()), _se(diffs)
        rows.append({
            "model": rep.name or f"model_{i + 1}",
            "elpd": rep.total,
            "se": rep.se,
            "delta_elpd": delta,
            "se_delta": se_d,
            "indistinguishable": bool(abs(delta) <= 2.0 * se_d),
        })
    return ComparisonReport(tuple(rows), n, tuple(warn_msgs))


# ---------------------------------------------------------------------------
# exact refits for unreliable columns


def exact_refit_loo(
    spec: ModelSpec,
    data,
    config,
    unit_ids,
    mode: str = "raw",
    grid: TimeGrid | None = None,
    horizon: float | None = None,
) -> dict:
    """Exact leave-one-unit-out scores by refitting without each unit.

    For each unit (a subject: all its rows in long format), the model is
    refitted on the remaining records and the held-out unit's predictive
    score (``loglik_matrix`` in ``mode``; dichotomized, within the whole
    cohort, whose rows show the treatment rule) is the log average of its
    likelihood over the refit draws.  A unit not in the data, or one given
    twice, is a LooError before any sampling, one not scored in ``mode`` a
    LooError after it.  Returns {unit_id: elpd} plus per-unit failures.

    The refits run as lockstep batches (``PosteriorModel`` with
    ``held_out`` mapping each unit to its design), sampled as a fit is
    (``sampler._sample``): units whose spline widths differ (tied
    covariates) form separate batches, and each batch is split, in order,
    into min(units, usable CPUs) sub-batches, each sampled and scored in a
    forked worker process of its own (``sampler._run_jobs``; one after
    another in this process where there is no ``fork`` or inside a
    worker).  Each unit's chains are seeded from (config.seed, unit index)
    as its lone fit's would be, so the scores are bit for bit the same
    however the units are split: a unit whose chain fails goes into
    ``failures`` and its sub-batch reruns without it.  A worker's sub-batch
    of N units holds N * n_chains * n_keep * dim kept draws and N design
    matrices over all rows at once.
    """
    from .sampler import _run_jobs, _usable_cpus

    if not isinstance(data, (SurvivalDataset, LongDataset)):
        raise DataError("unsupported data type")
    unit_ids = list(unit_ids)
    if len(set(unit_ids)) < len(unit_ids):
        raise LooError("unit ids to refit must be distinct")
    batches: dict = {}
    for idx, uid in enumerate(unit_ids):
        keep = data.subject_id != uid
        if keep.all():
            raise LooError(f"unit {uid!r} not present in the data")
        # each unit's design, built once: it batches the units and binds the model
        design = ModelDesign(spec, {k: v[keep] for k, v in data.covariates.items()})
        batches.setdefault(tuple(design.parameter_names), []).append((idx, uid, design))
    scoring = {"mode": mode, "grid": grid, "horizon": horizon}
    results = {}
    for batch in batches.values():
        n = min(len(batch), _usable_cpus())
        parts = [batch[j * len(batch) // n:(j + 1) * len(batch) // n] for j in range(n)]
        for done in _run_jobs(_refit_units, [(spec, data, config, part, scoring)
                                             for part in parts]):
            results.update(done)
    return {kind: {unit_ids[i]: v for i, (k, v) in sorted(results.items()) if k == kind}
            for kind in ("elpd", "failures")}


def _refit_units(spec: ModelSpec, data, config, pending: list, scoring: dict) -> dict:
    """Refit one sub-batch of ``exact_refit_loo``'s (index, id, design)
    units in one lockstep loop, rerun without each unit whose chain fails,
    and score the units: {index: ("elpd" | "failures", value)}."""
    from .sampler import PosteriorModel, SamplingError, _sample

    C = config.n_chains
    results = {}
    while pending:
        post = PosteriorModel(spec, data, {uid: design for _, uid, design in pending})
        seeds = [(config.seed * 100003 + idx + 1, c) for idx, _, _ in pending for c in range(C)]
        try:
            chains = _sample(post, config, seeds)[0]
            break
        except SamplingError as err:
            failed = pending.pop(err.diagnostics["chain"] // C)[0]
            results[failed] = ("failures", str(err))
    for b, (idx, uid, _) in enumerate(pending):
        draws = DrawsMatrix(post.constrain(chains[b * C:(b + 1) * C].reshape(-1, post.dim)),
                            post.parameter_names)
        # dichotomized rows are rebuilt under the rule the whole cohort's rows show
        ll = loglik_matrix(spec, post.designs[b], draws, data if scoring["mode"] == "dichotomized"
                           else data.subset(data.subject_id == uid), **scoring)
        if uid not in ll.unit_ids:
            raise LooError(f"unit {uid!r} is not a scoring unit in {scoring['mode']} mode")
        col = ll.values[:, ll.unit_ids.index(uid)]
        results[idx] = ("elpd", float(logsumexp(col) - math.log(col.size)))
    return results


def apply_refits(report: ElpdReport, refits: dict) -> ElpdReport:
    """Replace PSIS pointwise values with exact-refit corrections."""
    pointwise = report.pointwise.copy()
    n_replaced = 0
    for uid, value in refits.get("elpd", {}).items():
        j = list(report.unit_ids).index(uid)
        pointwise[j] = value
        n_replaced += 1
    return replace(
        report,
        total=float(pointwise.sum()),
        pointwise=pointwise,
        se=_se(pointwise),
        n_refit=report.n_refit + n_replaced,
    )


def flag_for_refit(report: ElpdReport, threshold: float = DEFAULT_KHAT_THRESHOLD) -> list:
    """Units whose tail diagnostic exceeds the reliability threshold."""
    flagged = []
    for uid, k in zip(report.unit_ids, report.khat):
        if np.isnan(k) or k > threshold:
            flagged.append(uid)
    return flagged


# ---------------------------------------------------------------------------
# CSV interface: draws x units with unit/tag header rows


def write_loglik_csv(loglik: LogLikMatrix, path) -> None:
    _write_csv(path, ["unit"] + [_uid_str(u) for u in loglik.unit_ids], itertools.chain(
        [["tag", *loglik.tags], ["time_unit"] + [loglik.time_unit or ""] * loglik.n_units],
        ([s] + [repr(float(v)) for v in values] for s, values in enumerate(loglik.values))))


def _uid_str(u) -> str:
    if isinstance(u, tuple):
        return ":".join(str(x) for x in u)
    return str(u)
