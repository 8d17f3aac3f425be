"""Reference log prior, log likelihood and log posterior for the tests.

These are the bodies ``sampler.PosteriorModel`` had before its evaluation
was made one pass (one rate per evaluation, batched products, one prior
density call per prior), kept verbatim with the family functions, score
groups, prior densities and Bernoulli log score they called (only
``logistic`` is the module's).  The model's batched methods must
match them bit for bit.  Each function takes the bound ``PosteriorModel``
(for its spec, data, designs and held-out units) and an (..., dim) array.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.special import gammaln

from survcheck.data import (
    EVENT,
    INTERVAL_CENSORED,
    LEFT_CENSORED,
    RIGHT_CENSORED,
    STATUSES,
    LongDataset,
)
from survcheck.models import ModelDesign, ModelError, logistic


# -- family functions ---------------------------------------------------------


def _rate(family: str, params, check: bool = True) -> np.ndarray:
    mean = np.asarray(params["mean"], dtype=float)
    if family == "exponential":
        theta = 1.0 / mean
    else:
        theta = np.exp(gammaln(1.0 + 1.0 / _shape(params, check))) / mean
    if check and (np.any(theta <= 0) or not np.all(np.isfinite(theta))):
        raise ModelError("rate must be positive and finite")
    return theta


def _shape(params, check: bool = True) -> np.ndarray:
    alpha = np.asarray(params.get("shape"), dtype=float)
    if params.get("shape") is None or (check and np.any(alpha <= 0)):
        raise ModelError("weibull_aft needs a positive 'shape'")
    return alpha


def in_support(family: str, params) -> np.ndarray:
    theta = _rate(family, params, check=False)
    ok = np.all((theta > 0) & np.isfinite(theta), axis=0)
    if family == "weibull_aft":
        alpha = _shape(params, check=False)
        ok &= np.all((alpha > 0) & np.isfinite(alpha), axis=0)
    return ok


def log_density(family: str, params, t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ModelError("event times must be positive")
    theta = _rate(family, params)
    if family == "exponential":
        return np.log(theta) - theta * t
    alpha = _shape(params)
    z = np.exp(alpha * (np.log(theta) + np.log(t)))
    return np.log(alpha) + alpha * np.log(theta) + (alpha - 1.0) * np.log(t) - z


def log_survival(family: str, params, t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ModelError("times must be non-negative")
    theta = _rate(family, params)
    if family == "exponential":
        return -theta * t
    alpha = _shape(params)
    with np.errstate(divide="ignore"):
        logt = np.where(t > 0, np.log(np.maximum(t, 1e-300)), -np.inf)
    z = np.where(t > 0, np.exp(alpha * (np.log(theta) + logt)), 0.0)
    return -z


def cdf(family: str, params, t) -> np.ndarray:
    return -np.expm1(log_survival(family, params, t))


def log_interval_prob(family: str, params, a, b) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(a >= b):
        raise ModelError("interval bounds need a < b")
    ls_a = log_survival(family, params, a)
    ls_b = log_survival(family, params, b)
    with np.errstate(divide="ignore"):
        return ls_a + np.log(-np.expm1(np.minimum(ls_b - ls_a, 0.0)))


def _log_cdf(family: str, params, t) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(cdf(family, params, t))


_LOG_SCORE = {
    EVENT: log_density,
    RIGHT_CENSORED: log_survival,
    LEFT_CENSORED: _log_cdf,
    INTERVAL_CENSORED: log_interval_prob,
}


def score_groups(data):
    """(kind, rows, times) of each status present, in ``STATUSES`` order."""
    groups = []
    for kind in STATUSES:
        rows = np.flatnonzero(data.status == kind)
        if rows.size == 0:
            continue
        times = (data.time[rows],)
        if kind == INTERVAL_CENSORED:
            times = (data.interval_bounds[rows, 0], data.interval_bounds[rows, 1])
        groups.append((kind, rows, times))
    return groups


def group_log_scores(family: str, groups, params) -> list[np.ndarray]:
    mean = params["mean"]
    out = []
    for kind, rows, times in groups:
        times = [t[:, None] for t in times] if mean.ndim == 2 else times
        out.append(_LOG_SCORE[kind](family, {**params, "mean": mean[rows]}, *times))
    return out


def bernoulli_log_score(z, p) -> np.ndarray:
    """``models.bernoulli_log_score`` as it was: both logs at every entry."""
    z = np.asarray(z)
    return np.log1p(-p) * (1.0 - z) + np.log(p) * z


# -- priors ----------------------------------------------------------------------


def prior_log_pdf(prior, x) -> np.ndarray:
    """``Prior.log_pdf`` as it was."""
    x = np.asarray(x, dtype=float)
    if prior.kind == "normal":
        loc, scale = prior.params
        z = (x - loc) / scale
        return -0.5 * z * z - math.log(scale) - 0.5 * math.log(2 * math.pi)
    if prior.kind == "student_t":
        df, loc, scale = prior.params
        return _t_log_pdf(x, df, loc, scale)
    if prior.kind == "half_student_t":
        df, scale = prior.params
        out = _t_log_pdf(x, df, 0.0, scale) + math.log(2.0)
        return np.where(x >= 0, out, -np.inf)
    shape, rate = prior.params
    with np.errstate(divide="ignore", invalid="ignore"):
        out = shape * math.log(rate) - gammaln(shape) + (shape - 1.0) * np.log(x) - rate * x
    return np.where(x > 0, out, -np.inf)


def _t_log_pdf(x, df, loc, scale):
    z = (np.asarray(x, dtype=float) - loc) / scale
    with np.errstate(over="ignore"):
        tail = np.log1p(np.minimum(z * z, 1e300) / df)
    return (
        gammaln((df + 1.0) / 2.0)
        - gammaln(df / 2.0)
        - 0.5 * math.log(df * math.pi)
        - math.log(scale)
        - (df + 1.0) / 2.0 * tail
    )


# -- the model ---------------------------------------------------------------------


def held_out_designs(spec, data, units) -> dict:
    """Each held-out unit's ``ModelDesign`` on its training covariates, by
    unit id: the ``held_out`` mapping a batched ``PosteriorModel`` takes."""
    return {u: ModelDesign(spec, {k: v[data.subject_id != u] for k, v in data.covariates.items()})
            for u in units}


class _Bound:
    """What the old bodies read from ``self``, rebuilt from a PosteriorModel."""

    def __init__(self, post):
        data = post.data
        self.spec, self.dim, self.n_beta = post.spec, post.dim, post.n_beta
        n_rows = data.n_rows if isinstance(data, LongDataset) else data.n
        self.X = np.stack([d.matrix(data.covariates, n_rows=n_rows) for d in post.designs])
        keeps = [data.subject_id != u for u in post.held_out]
        self._keep = np.stack(keeps) if keeps else None
        self._smooth_slices = post.designs[0].smooth_slices()
        if post.spec.family == "bernoulli_logit":
            self._z = np.asarray(data.outcome, dtype=float)
        else:
            self._groups = score_groups(data)


@functools.lru_cache(maxsize=None)
def _bound(post) -> _Bound:
    return _Bound(post)


def _by_row(method):
    @functools.wraps(method)
    def batched(post, x):
        self = _bound(post)
        x = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            out = method(self, np.ascontiguousarray(x.reshape(-1, self.dim)))
        return float(out[0]) if x.ndim == 1 else out.reshape(x.shape[:-1])

    return batched


def _row_sums(a) -> np.ndarray:
    return np.ascontiguousarray(a).sum(axis=1)


@_by_row
def log_prior(self, x: np.ndarray) -> np.ndarray:
    pr = self.spec.priors
    total = np.zeros(len(x))
    j = 0
    if self.spec.intercept:
        total += prior_log_pdf(pr.intercept, x[:, 0])
        j = 1
    n_fixed = len(self.spec.fixed)
    if n_fixed:
        total += _row_sums(prior_log_pdf(pr.fixed, x[:, j : j + n_fixed]))
    pos = self.n_beta
    if self.spec.has_shape:
        log_alpha = x[:, pos]
        total += prior_log_pdf(pr.shape, np.exp(log_alpha)) + log_alpha
        pos += 1
    if self.spec.hierarchical_smooths:
        sd = np.exp(x[:, pos:])
        for term in (prior_log_pdf(pr.smooth_scale, sd) + x[:, pos:]).T:
            total += term
    for k, sm in enumerate(self.spec.smooths):
        coefs = x[:, self._smooth_slices[sm.name]]
        if self.spec.hierarchical_smooths:
            total += _row_sums(-0.5 * (coefs / sd[:, k, None]) ** 2
                               - np.log(sd[:, k, None]) - 0.5 * np.log(2 * np.pi))
        else:
            total += _row_sums(prior_log_pdf(pr.smooth_coef, coefs))
    return np.where(np.isfinite(x).all(axis=1) & ~np.isnan(total), total, -np.inf)


@_by_row
def log_likelihood(self, x: np.ndarray) -> np.ndarray:
    spec = self.spec
    ok = np.isfinite(x).all(axis=1)
    B = len(self.X)
    if len(x) % B:
        raise ModelError(f"a batch of {B} members needs a multiple of {B} rows, got {len(x)}")
    member = np.arange(len(x)) // (len(x) // B)
    lin = np.stack([self.X[b] @ row[: self.n_beta] for b, row in zip(member, x)])
    keep = None if self._keep is None else self._keep[member]
    if spec.family == "bernoulli_logit":
        scores = [(slice(None), bernoulli_log_score(self._z, logistic(lin[ok])))]
    else:
        if keep is not None:
            lin = np.where(keep, lin, 0.0)
        params = {"mean": np.exp(lin).T}
        if spec.has_shape:
            params["shape"] = np.exp(x[:, self.n_beta])[None, :]
        ok &= in_support(spec.family, params)
        scores = [(g[1], s.T) for g, s in zip(self._groups, group_log_scores(
            spec.family, self._groups, {k: v[:, ok] for k, v in params.items()}))]
    if keep is not None:
        scores = [(rows, np.where(keep[ok][:, rows], s, 0.0)) for rows, s in scores]
    ll = np.full(len(x), -np.inf)
    ll[ok] = sum((_row_sums(s) for _, s in scores), 0.0)
    return np.where(np.isnan(ll), -np.inf, ll)


@_by_row
def log_posterior(self, x: np.ndarray) -> np.ndarray:
    lp = log_prior.__wrapped__(self, x)
    return np.where(np.isfinite(lp), log_likelihood.__wrapped__(self, x) + lp, -np.inf)
