"""Pointwise predictive scoring and PSIS-LOO model comparison.

A log-likelihood matrix holds one column per scoring unit and one row per
posterior draw.  Each column is tagged ``density`` (event records scored by
a log density) or ``probability`` (censored records, discretized intervals,
dichotomized outcomes, Bernoulli rows).  Densities shift under a change of
time scale while probabilities do not, so comparisons are refused unless
the two models carry identical tag patterns.

PSIS replaces the largest importance weights of each column with fitted
generalized-Pareto order statistics; the tail shape k-hat diagnoses
reliability, and units beyond the threshold can be recomputed exactly by
refitting without them.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import logsumexp

from .checks import dichotomize_outcomes
from .data import (
    DataError,
    LongDataset,
    SurvivalDataset,
    TimeGrid,
    TreatmentRule,
    to_short_form,
)
from .models import (
    DENSITY,
    PROBABILITY,
    ModelDesign,
    ModelSpec,
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


class DegenerateTailError(LooError):
    """Tail sample unusable for generalized Pareto fitting."""


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
    row of the matrix sums to the log likelihood at that draw.  Any other
    mode is refused.
    """
    if mode not in MODES:
        raise LooError(f"unknown scoring mode {mode!r}; expected one of {MODES}")
    if spec.family == "bernoulli_logit":
        if mode != "raw":
            raise LooError("interval/dichotomized modes apply to continuous families")
        return _bernoulli_loglik(spec, design, draws, data)
    if not isinstance(data, SurvivalDataset):
        raise DataError("continuous families score short-format data")
    params = subject_params(spec, design, draws, data.covariates, n_rows=data.n)
    if mode == "dichotomized":
        if horizon is None or horizon <= 0:
            raise LooError("dichotomized mode needs a positive horizon")
        z, keep, _excluded = dichotomize_outcomes(data, horizon)
        vals = _dichotomized_scores(
            z, cdf(spec.family, {**params, "mean": params["mean"][keep]}, horizon))
        ids = tuple(int(s) for s in data.subject_id[keep])
        return LogLikMatrix(vals.T, (PROBABILITY,) * len(keep), ids, data.time_unit)

    if mode == "interval" and grid is None:
        raise LooError("interval mode needs a grid")
    groups = score_groups(data, grid if mode == "interval" else None)
    vals = np.empty(params["mean"].shape)
    tags = np.empty(data.n, dtype=object)
    for g, scores in zip(groups, group_log_scores(spec.family, groups, params)):
        vals[g.rows] = scores
        tags[g.rows] = g.tag
    ids = tuple(int(s) for s in data.subject_id)
    return LogLikMatrix(vals.T, tuple(tags), ids, data.time_unit)


def _dichotomized_scores(z, p_event) -> np.ndarray:
    """(n, S) log scores of "event by the horizon" outcomes z (n,) under the
    event probabilities p_event (n, S), clipped so both logs stay finite."""
    return bernoulli_log_score(z[:, None], np.clip(p_event, 1e-300, 1 - 1e-16))


def _bernoulli_loglik(spec, design, draws, data: LongDataset) -> LogLikMatrix:
    p = subject_params(spec, design, draws, data.covariates, n_rows=data.n_rows)["p"]
    vals = bernoulli_log_score(np.asarray(data.outcome, dtype=float)[:, None], p)
    # row units: (subject, interval); grouped_units collapses to subjects
    ids = tuple((int(s), int(k)) for s, k in zip(data.subject_id, data.interval_index))
    return LogLikMatrix(vals.T, (PROBABILITY,) * data.n_rows, ids, data.time_unit)


def bernoulli_dichotomized_loglik(
    spec: ModelSpec,
    design: ModelDesign,
    draws,
    long: LongDataset,
    horizon: float,
    rule=None,
) -> LogLikMatrix:
    """Score "event by the horizon" under a discrete-time Bernoulli model.

    The model's event-by-k probability is 1 - prod_{j<=k}(1 - p_j), so the
    horizon must fall on an interval boundary (a positive integer here).
    The rows 1..horizon of every kept subject are rebuilt from its static
    covariates and the treatment rule, whatever its observed follow-up, and
    scored through one stacked design matrix, one block of rows per
    subject.  Subjects censored before the horizon are excluded, mirroring
    the continuous-family rule.
    """
    k_max = int(round(horizon))
    if abs(horizon - k_max) > 1e-9 or k_max < 1:
        raise LooError("the discrete-time horizon must be a positive whole "
                       "number of intervals")
    rule = rule if rule is not None else TreatmentRule()
    short = to_short_form(long)
    z, keep, _excluded = dichotomize_outcomes(short, float(k_max))
    n_keep = len(keep)
    rows = rule.rows({name: col[keep] for name, col in short.covariates.items()},
                     k_max, short.subject_id[keep])
    blocks = {name: col.reshape(n_keep, k_max) for name, col in rows.items()}
    p = subject_params(spec, design, draws, blocks, n_rows=n_keep * k_max)["p"]
    log_no_event = np.sum(np.log1p(-p), axis=1)  # (n_keep, S)
    vals = _dichotomized_scores(z, -np.expm1(log_no_event))
    ids = tuple(int(s) for s in short.subject_id[keep])
    return LogLikMatrix(vals.T, (PROBABILITY,) * len(keep), ids, long.time_unit)


def grouped_units(loglik: LogLikMatrix, subject_of_column) -> LogLikMatrix:
    """Collapse row-level columns to one column per subject (joint log score).

    ``subject_of_column`` maps each column's unit id to its subject; the
    LOO unit for long-format models is the whole subject, so its log score
    is the sum of its rows' log scores per draw.
    """
    subjects = []
    for uid in loglik.unit_ids:
        s = subject_of_column(uid)
        if s is None:
            raise LooError(f"column {uid!r} not mapped to a subject")
        subjects.append(s)
    order = []
    seen = {}
    for s in subjects:
        if s not in seen:
            seen[s] = len(order)
            order.append(s)
    vals = np.zeros((loglik.n_draws, len(order)))
    for j, s in enumerate(subjects):
        vals[:, seen[s]] += loglik.values[:, j]
    return LogLikMatrix(vals, (PROBABILITY,) * len(order), tuple(order), loglik.time_unit)


def group_long_by_subject(loglik: LogLikMatrix) -> LogLikMatrix:
    """Convenience: group (subject, interval) row units by subject."""
    return grouped_units(loglik, lambda uid: uid[0] if isinstance(uid, tuple) else uid)


# ---------------------------------------------------------------------------
# generalized Pareto tail fit (Zhang & Stephens style profile likelihood)


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


def psis_tail_size(n_draws: int) -> int:
    return int(min(0.2 * n_draws, 3.0 * math.sqrt(n_draws)))


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


def psis_smooth(loglik: LogLikMatrix, min_draws_warn: int = 100) -> PsisResult:
    """Pareto smoothed importance weights for leaving each unit out.

    Raw log ratios are the negated pointwise log likelihoods.  Per column,
    the largest M = min(0.2 S, 3 sqrt(S)) weights are replaced by fitted
    GPD order statistics, truncated at the raw maximum, then normalized.
    Columns whose tail cannot be fitted (constant, or containing -inf
    scores) are flagged and passed through unsmoothed.
    """
    S, N = loglik.values.shape
    if S < min_draws_warn:
        warnings.warn(
            f"only {S} draws; PSIS is unreliable below ~{min_draws_warn}",
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
    n = pointwise.size
    finite = np.isfinite(pointwise)
    total = float(pointwise.sum()) if finite.all() else float("-inf")
    se = float(np.sqrt(n * np.var(pointwise, ddof=1))) if (n > 1 and finite.all()) else 0.0
    return ElpdReport(
        total=total,
        pointwise=pointwise,
        se=se,
        khat=psis.khat,
        unit_ids=loglik.unit_ids,
        tags=loglik.tags,
        time_unit=loglik.time_unit,
        name=name,
    )


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
            delta = float(diffs.sum())
            se_d = float(np.sqrt(n * np.var(diffs, ddof=1))) if n > 1 else 0.0
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

    For each unit, the model is refitted on the remaining records and the
    held-out unit's predictive score is the log average of its likelihood
    over the refit draws.  Returns {unit_id: elpd} plus per-unit failures.
    Each refit derives its own seed from (config.seed, unit index), so runs
    are deterministic and units are independent.
    """
    from .sampler import SamplingError, fit as run_fit

    corrections: dict = {}
    failures: dict = {}
    for idx, uid in enumerate(unit_ids):
        train, held = _split_unit(data, uid)
        sub_cfg = replace(config, seed=config.seed * 100003 + idx + 1)
        try:
            res = run_fit(spec, train, sub_cfg)
        except SamplingError as err:
            failures[uid] = str(err)
            continue
        post_design = ModelDesign(spec, train.covariates)
        ll = loglik_matrix(spec, post_design, res.draws, held,
                           mode=mode, grid=grid, horizon=horizon)
        if spec.family == "bernoulli_logit":
            ll = group_long_by_subject(ll)
        col = ll.values[:, list(ll.unit_ids).index(uid)]
        corrections[uid] = float(logsumexp(col) - math.log(col.size))
    return {"elpd": corrections, "failures": failures}


def apply_refits(report: ElpdReport, refits: dict) -> ElpdReport:
    """Replace PSIS pointwise values with exact-refit corrections."""
    pointwise = report.pointwise.copy()
    n_replaced = 0
    for uid, value in refits.get("elpd", {}).items():
        j = list(report.unit_ids).index(uid)
        pointwise[j] = value
        n_replaced += 1
    n = pointwise.size
    se = float(np.sqrt(n * np.var(pointwise, ddof=1))) if n > 1 else 0.0
    return replace(
        report,
        total=float(pointwise.sum()),
        pointwise=pointwise,
        se=se,
        n_refit=report.n_refit + n_replaced,
    )


def flag_for_refit(report: ElpdReport, threshold: float = DEFAULT_KHAT_THRESHOLD) -> list:
    """Units whose tail diagnostic exceeds the reliability threshold."""
    flagged = []
    for uid, k in zip(report.unit_ids, report.khat):
        if np.isnan(k) or k > threshold:
            flagged.append(uid)
    return flagged


def _split_unit(data, uid):
    if not isinstance(data, (SurvivalDataset, LongDataset)):
        raise DataError("unsupported data type")
    mask = data.subject_id == uid
    if not mask.any():
        raise LooError(f"unit {uid!r} not present in the data")
    return data.subset(~mask), data.subset(mask)


# ---------------------------------------------------------------------------
# CSV interface: draws x units with unit/tag header rows


def write_loglik_csv(loglik: LogLikMatrix, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["unit"] + [_uid_str(u) for u in loglik.unit_ids])
        w.writerow(["tag"] + list(loglik.tags))
        w.writerow(["time_unit"] + [loglik.time_unit or ""] * loglik.n_units)
        for s in range(loglik.n_draws):
            w.writerow([s] + [repr(float(v)) for v in loglik.values[s]])


def read_loglik_csv(path) -> LogLikMatrix:
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if len(rows) < 4 or rows[0][0] != "unit" or rows[1][0] != "tag":
        raise LooError("not a log-lik CSV (unit/tag header rows required)")
    unit_ids = tuple(_uid_parse(u) for u in rows[0][1:])
    tags = tuple(rows[1][1:])
    body_start = 3 if rows[2][0] == "time_unit" else 2
    time_unit = rows[2][1] or None if body_start == 3 else None
    vals = np.array([[float(v) for v in r[1:]] for r in rows[body_start:]])
    return LogLikMatrix(vals, tags, unit_ids, time_unit)


def _uid_str(u) -> str:
    if isinstance(u, tuple):
        return ":".join(str(x) for x in u)
    return str(u)


def _uid_parse(s: str):
    if ":" in s:
        return tuple(int(x) for x in s.split(":"))
    return int(s)
