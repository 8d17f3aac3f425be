"""Likelihood families and regression specifications.

Three families are supported:

* ``exponential`` -- constant hazard theta, mean-parameterised via
  log(mu) = eta with theta = 1/mu;
* ``weibull_aft`` -- hazard theta*alpha*(theta*t)^(alpha-1) with
  theta = Gamma(1 + 1/alpha)/mu, so mu is the mean of the distribution;
* ``bernoulli_logit`` -- discrete-time hazard on long-format rows,
  p = logistic(eta).

Event records contribute log densities; censored records contribute log
probabilities (survival for right censoring, CDF for left censoring,
CDF differences for interval censoring).  Every log score carries a
density/probability tag because the two must never be mixed when comparing
models across time scales.  One vectorized kernel (``score_groups`` and
``group_log_scores``) computes these scores for both the sampler's
likelihood and the pointwise LOO matrices.  Its time terms (log t, and
the t > 0 mask of censor times) are fixed per score group when the data is
bound, and checked there once; each evaluation computes the rate theta
once, over all rows (a ``Rate``), and each status's score reads it.  The
score of each status is written once, for both the kernel and the family
functions (``log_density``, ``log_survival``, ``cdf``, ``hazard``,
``quantile``, ``sample_truncated``), so each kernel score is bitwise the
family functions'.  Family parameters are a dict holding the 'mean' (and
for Weibull the 'shape'); the scalar oracle the kernel is tested against
is ``tests/pointwise_oracle.py``.

``subject_params`` is the one path from posterior draws to predictions: the
family parameters of every (row, draw), or for the Bernoulli family the
event probability, from which the LOO matrices, the calibration inputs and
the hazard curves are computed.  The sampler's likelihood works on the
unconstrained vector directly and is not a prediction path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np
from scipy.special import gammaln

from .data import (
    EVENT,
    INTERVAL_CENSORED,
    LEFT_CENSORED,
    RIGHT_CENSORED,
    STATUSES,
    DrawsMatrix,
    SurvivalDataset,
    TimeGrid,
    require_counts,
    settings,
)

FAMILIES = ("exponential", "weibull_aft", "bernoulli_logit")

DENSITY = "density"
PROBABILITY = "probability"

# logistic outputs are clamped before taking logs so that extreme linear
# predictors still yield finite scores
_PCLAMP = 1e-15

# float64 elements per temporary block of every blocked loop (_row_blocks):
# 512 KiB, so that a block and the temporaries of its passes stay in a
# core's L2 cache (with 2 MiB blocks PSIS, logistic and the Bernoulli
# log-lik matrix ran 3-8% slower on a 2-core x86-64 machine)
_CHUNK = 1 << 16


class ModelError(ValueError):
    """Invalid family parameters or specification."""


class SaturationError(ModelError):
    """Truncated sampling below a point whose survival underflows to 0."""


# ---------------------------------------------------------------------------
# family math (vectorized over params and t)


def _shape(params, check: bool = True) -> np.ndarray:
    alpha = np.asarray(params.get("shape"), dtype=float)
    if params.get("shape") is None or (check and np.any(alpha <= 0)):
        raise ModelError("weibull_aft needs a positive 'shape'")
    return alpha


class Rate:
    """The rate theta of a family and, for Weibull, the shape alpha and its
    log; log theta is computed on first use.  The score of every status is
    read off one Rate, so an evaluation computes theta once, and log theta
    at most once: a part of a Rate (``take``) takes its log theta too once
    that is computed."""

    def __init__(self, theta, shape=None, log_shape=None, log_theta=None):
        self.theta, self.shape, self._log_theta = theta, shape, log_theta
        self.log_shape = log_shape if shape is None or log_shape is not None else np.log(shape)

    @property
    def log_theta(self) -> np.ndarray:
        if self._log_theta is None:
            self._log_theta = np.log(self.theta)
        return self._log_theta

    @classmethod
    def of(cls, family: str, params, check: bool = True) -> "Rate":
        """Canonical rate theta from the 'mean' (and Weibull 'shape');
        ``check`` rejects one outside the support with a ModelError."""
        if family not in ("exponential", "weibull_aft"):
            raise ModelError(f"no continuous-time rate for family {family!r}")
        if "mean" not in params:
            raise ModelError(f"{family} needs a 'mean'")
        mean = np.asarray(params["mean"], dtype=float)
        shape = None
        if family == "exponential":
            theta = 1.0 / mean
        else:
            shape = _shape(params, check)
            theta = np.exp(gammaln(1.0 + 1.0 / shape)) / mean
        if check and (np.any(theta <= 0) or not np.all(np.isfinite(theta))):
            raise ModelError("rate must be positive and finite")
        return cls(theta, shape)

    def take(self, rows) -> "Rate":
        """The rate of the rows ``rows`` of the last axis (shape shared)."""
        log_theta = self._log_theta
        return Rate(_take(self.theta, rows), self.shape, self.log_shape,
                    None if log_theta is None else _take(log_theta, rows))


def _take(a: np.ndarray, rows) -> np.ndarray:
    """The entries ``rows`` of the last axis of ``a``."""
    # take copies an array that is not C-ordered to C order first
    return a.take(rows, axis=-1) if a.flags.c_contiguous else a[..., rows]


def in_support(rate: Rate) -> np.ndarray:
    """Mask over the leading axes of the draws whose rate on every row (the
    last axis) and shape are positive and finite: the others' scores raise
    ModelError or are NaN.  Tested as a finite log, which is also the log
    theta the scores take their parts of.  Out-of-range values warn outside
    np.errstate."""
    ok = np.isfinite(rate.log_theta).all(axis=-1)
    if rate.shape is not None:
        ok &= np.isfinite(rate.log_shape).all(axis=-1)
    return ok


# the score of each status, written once for the family functions below and
# the kernel (``group_log_scores``): a Rate and fixed time terms, t and log t
# (for survival, -inf at t = 0, and the mask t > 0, None where every t is)


def _event_terms(t) -> tuple:
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ModelError("event times must be positive")
    return t, np.log(t)


def _survival_terms(t) -> tuple:
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ModelError("times must be non-negative")
    positive = t > 0
    with np.errstate(divide="ignore"):
        log_t = np.where(positive, np.log(np.maximum(t, 1e-300)), -np.inf)
    return t, log_t, None if positive.all() else positive


def _interval_terms(a, b) -> tuple:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(a >= b):
        raise ModelError("interval bounds need a < b")
    return _survival_terms(a), _survival_terms(b)


def _event_score(family: str, r: Rate, t, log_t) -> np.ndarray:
    if family == "exponential":
        return r.log_theta - r.theta * t
    z = np.exp(r.shape * (r.log_theta + log_t))
    return r.log_shape + r.shape * r.log_theta + (r.shape - 1.0) * log_t - z


def _survival_score(family: str, r: Rate, t, log_t, positive) -> np.ndarray:
    if family == "exponential":
        return -r.theta * t
    h = np.exp(r.shape * (r.log_theta + log_t))  # the cumulative hazard, 0 at t = 0
    return -(h if positive is None else np.where(positive, h, 0.0))


def _left_score(family: str, r: Rate, *terms) -> np.ndarray:
    """log F(t); -inf where F(t) is 0 (divide warnings are the caller's)."""
    return np.log(-np.expm1(_survival_score(family, r, *terms)))


def _interval_score(family: str, r: Rate, a_terms, b_terms) -> np.ndarray:
    """log(S(a) - S(b)); -inf where it is 0 (divide warnings are the caller's)."""
    ls_a = _survival_score(family, r, *a_terms)
    ls_b = _survival_score(family, r, *b_terms)
    return ls_a + np.log(-np.expm1(np.minimum(ls_b - ls_a, 0.0)))


def log_density(family: str, params, t) -> np.ndarray:
    terms = _event_terms(t)
    return _event_score(family, Rate.of(family, params), *terms)


def log_survival(family: str, params, t) -> np.ndarray:
    terms = _survival_terms(t)
    return _survival_score(family, Rate.of(family, params), *terms)


def cdf(family: str, params, t) -> np.ndarray:
    """F(t) = 1 - S(t), computed as -expm1(log S) for accuracy near 0."""
    return -np.expm1(log_survival(family, params, t))


def hazard(family: str, params, t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ModelError("hazard needs t > 0")
    r = Rate.of(family, params)
    if family == "exponential":
        return np.broadcast_to(r.theta, np.broadcast_shapes(r.theta.shape, t.shape)).copy()
    return r.theta * r.shape * np.exp((r.shape - 1.0) * (r.log_theta + np.log(t)))


def _inverse_cumulative_hazard(family: str, r: Rate, h) -> np.ndarray:
    """The time t whose cumulative hazard H(t) under the rate ``r`` is h >= 0."""
    if family == "exponential":
        return h / r.theta
    with np.errstate(divide="ignore"):
        t = np.exp(np.log(np.where(h > 0, h, 1.0)) / r.shape) / r.theta
    return np.where(h > 0, t, 0.0)


def quantile(family: str, params, u) -> np.ndarray:
    """Inverse CDF for u in [0, 1)."""
    u = np.asarray(u, dtype=float)
    if np.any((u < 0) | (u >= 1)):
        raise ModelError("quantile needs u in [0, 1)")
    return _inverse_cumulative_hazard(family, Rate.of(family, params), -np.log1p(-u))


def sample_truncated(family: str, params, lower, rng: np.random.Generator, size=None):
    """Draw from the family conditional on exceeding ``lower``.

    Uses u ~ Uniform(F(lower), 1) through the inverse CDF, computed in log
    space: log S(t) = log S(lower) + log(1 - u).  Raises SaturationError if
    F(lower) is numerically 1, i.e. the censor time is beyond the support
    precision of the fitted distribution (the rate is computed once).
    """
    terms = _survival_terms(lower)
    rate = Rate.of(family, params)
    log_s = _survival_score(family, rate, *terms)
    if np.any(-np.expm1(log_s) >= 1.0):
        raise SaturationError("survival at the truncation point underflows to zero")
    h = -(log_s + np.log1p(-rng.random(size)))  # cumulative hazard of the draw
    # the contract is strictly greater than the truncation point; guard the
    # measure-zero u=0 draw and float round-down
    return np.maximum(_inverse_cumulative_hazard(family, rate, h), np.nextafter(terms[0], np.inf))


# the score and fixed time terms each status takes; rows are grouped by
# status once, when the data is bound, so that an evaluation makes one
# vectorized call per group
_LOG_SCORE = {
    EVENT: (_event_score, _event_terms),
    RIGHT_CENSORED: (_survival_score, _survival_terms),
    LEFT_CENSORED: (_left_score, _survival_terms),
    INTERVAL_CENSORED: (_interval_score, _interval_terms),
}


@dataclass(frozen=True)
class ScoreGroup:
    """Rows of a short-format dataset that take the score of status ``kind``.

    ``terms`` holds the fixed time terms of each argument of that score,
    computed and checked once: (t, log t) of event times, (t, log t, the
    mask t > 0 or None where every t is) of censor times, or those of the
    (a, b) bounds of an interval score.
    """

    kind: str
    rows: np.ndarray
    terms: tuple

    @property
    def tag(self) -> str:
        return DENSITY if self.kind == EVENT else PROBABILITY


def score_groups(data: SurvivalDataset, grid: TimeGrid | None = None) -> tuple[ScoreGroup, ...]:
    """Group the rows of ``data`` by how they are scored, in ``STATUSES`` order.

    Events score a log density or, given a ``grid``, the log probability of
    the grid interval holding the event; right-, left- and interval-censored
    rows score log S(t), log F(t) and log(F(b) - F(a)).  Empty groups are
    dropped so that evaluations never pay for them; times a score cannot
    take are a ModelError here, not at each evaluation.
    """
    groups = []
    for kind in STATUSES:
        rows = np.flatnonzero(data.status == kind)
        if rows.size == 0:
            continue
        times = (data.time[rows],)
        if kind == INTERVAL_CENSORED:
            if data.interval_bounds is None:
                raise ModelError("interval-censored records need bounds")
            times = (data.interval_bounds[rows, 0], data.interval_bounds[rows, 1])
        elif kind == EVENT and grid is not None:
            kind, times = INTERVAL_CENSORED, grid.bounds(grid.interval_of(times[0]))
        groups.append(ScoreGroup(kind, rows, _LOG_SCORE[kind][1](*times)))
    return tuple(groups)


def group_log_scores(family: str, groups, rate: Rate) -> list[np.ndarray]:
    """Log scores of each group's rows under one Rate.

    The rate holds every row of the dataset the groups came from on its
    last axis, as (n,), (C, n) or (B, C, n) arrays (a Weibull shape
    broadcasting against them); the result holds one array per group with
    the group's rows on its last axis.  Elementwise, each score is bitwise
    the family function's.  Call it under np.errstate: a left- or
    interval-censored score of probability 0 divides by zero.
    """
    if family == "weibull_aft":
        rate.log_theta  # every Weibull score reads it: one log over all rows, a take per group
    return [_LOG_SCORE[g.kind][0](family, rate.take(g.rows), *g.terms) for g in groups]


def _row_blocks(shape) -> list:
    """Indices of blocks of leading-axis rows of an array of ``shape``, each of
    at most ``_CHUNK`` elements or one row; ``[...]`` if it fits in one."""
    size = math.prod(shape)
    if size <= _CHUNK:
        return [...]
    step = max(1, _CHUNK * shape[0] // size)
    return [slice(lo, lo + step) for lo in range(0, shape[0], step)]


def bernoulli_log_score(z, p) -> np.ndarray:
    """Row log score z log p + (1 - z) log(1 - p) of 0/1 outcomes z, in an
    array of p's shape (z broadcasts to it), computed in place one block of
    rows at a time: temporaries are bounded to one block, values bitwise.

    It is log(1 - p) where z is 0 and log p where z is 1, each log taken
    only there: with p inside (0, 1) both logs are finite, so the term the
    sum drops adds a signed zero and changes no bit."""
    event = np.asarray(z) != 0
    rowwise = event.ndim == p.ndim > 0 and event.shape[0] > 1
    out = np.empty_like(p)
    for rows in _row_blocks(p.shape):
        o, pb = out[rows], p[rows]
        np.log1p(np.negative(pb, out=o), out=o)
        np.log(pb, out=o, where=event[rows] if rowwise else event)
    return out


def logistic(eta) -> np.ndarray:
    """Numerically stable logistic, clamped away from {0, 1}: one exp per
    element, computed in place one block of rows at a time (temporaries are
    bounded to one block, values bitwise); a scalar eta gives a scalar."""
    eta = np.asarray(eta, dtype=float)
    return _logistic_into(eta, np.empty_like(eta))[()]


def _logistic_into(eta: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``logistic(eta)`` written to ``out``, which may be ``eta`` itself:
    e/(1 + e) with e = exp(-|eta|) where eta < 0, else 1/(1 + e).  No pass
    branches on the sign: as e <= 1, the numerator is max(e, [eta >= 0])."""
    for rows in _row_blocks(eta.shape):
        e, p = eta[rows], out[rows]
        numerator = np.greater_equal(e, 0.0, out=np.empty_like(p), casting="unsafe")
        np.abs(e, out=p)
        np.exp(np.negative(p, out=p), out=p)
        np.maximum(p, numerator, out=numerator)
        p += 1.0
        np.divide(numerator, p, out=p)
        np.minimum(p, 1.0 - _PCLAMP, out=p)
        np.maximum(p, _PCLAMP, out=p)
    return out


# ---------------------------------------------------------------------------
# priors


@dataclass(frozen=True)
class Prior:
    """One of normal / student_t / half_student_t / gamma (shape-rate)."""

    kind: str
    params: tuple[float, ...]

    def __post_init__(self):
        k, p = self.kind, self.params
        if k == "normal":
            if len(p) != 2 or p[1] <= 0:
                raise ModelError("normal prior needs (loc, scale > 0)")
        elif k == "student_t":
            if len(p) != 3 or p[0] <= 0 or p[2] <= 0:
                raise ModelError("student_t prior needs (df > 0, loc, scale > 0)")
        elif k == "half_student_t":
            if len(p) != 2 or p[0] <= 0 or p[1] <= 0:
                raise ModelError("half_student_t prior needs (df > 0, scale > 0)")
        elif k == "gamma":
            if len(p) != 2 or p[0] <= 0 or p[1] <= 0:
                raise ModelError("gamma prior needs (shape > 0, rate > 0)")
        else:
            raise ModelError(f"unknown prior kind {k!r}")
        if not all(map(math.isfinite, p)):
            raise ModelError(f"{k} prior parameters must be finite, got {p}")

    def log_pdf(self, x) -> np.ndarray:
        """Log density at ``x``, -inf outside the support; nothing is warned."""
        with np.errstate(all="ignore"):
            return self._log_pdf(np.asarray(x, dtype=float))

    def _log_pdf(self, x: np.ndarray) -> np.ndarray:
        """``log_pdf`` of a float array, for callers already under an np.errstate."""
        if self.kind == "normal":
            loc, scale = self.params
            z = (x - loc) / scale
            return -0.5 * z * z - math.log(scale) - 0.5 * math.log(2 * math.pi)
        if self.kind == "student_t":
            df, loc, scale = self.params
            return _t_log_pdf(x, df, loc, scale, self._log_norm)
        if self.kind == "half_student_t":
            df, scale = self.params
            out = _t_log_pdf(x, df, 0.0, scale, self._log_norm) + math.log(2.0)
            return np.where(x >= 0, out, -np.inf)
        shape, rate = self.params
        out = self._log_norm + (shape - 1.0) * np.log(x) - rate * x
        return np.where(x > 0, out, -np.inf)

    @functools.cached_property
    def _log_norm(self) -> float:
        """Log normalising constant of a Student-t or gamma prior (its log
        Gamma terms are a scipy call each), computed once."""
        if self.kind == "gamma":
            shape, rate = self.params
            return float(shape * math.log(rate) - gammaln(shape))
        df, scale = self.params[0], self.params[-1]
        return float(gammaln((df + 1.0) / 2.0) - gammaln(df / 2.0)
                     - 0.5 * math.log(df * math.pi) - math.log(scale))

    @property
    def location(self) -> float:
        if self.kind in ("normal", "student_t"):
            return self.params[-2]
        if self.kind == "half_student_t":
            return self.params[1] / 2.0
        shape, rate = self.params
        return shape / rate


def _t_log_pdf(x, df, loc, scale, log_norm):
    z = (x - loc) / scale
    tail = np.log1p(np.minimum(z * z, 1e300) / df)
    return log_norm - (df + 1.0) / 2.0 * tail


def normal(loc, scale) -> Prior:
    return Prior("normal", (float(loc), float(scale)))


def student_t(df, loc, scale) -> Prior:
    return Prior("student_t", (float(df), float(loc), float(scale)))


def half_student_t(df, scale) -> Prior:
    return Prior("half_student_t", (float(df), float(scale)))


def gamma(shape, rate) -> Prior:
    return Prior("gamma", (float(shape), float(rate)))


# ---------------------------------------------------------------------------
# spline basis


@dataclass(frozen=True)
class SmoothSpec:
    """B-spline smooth term: degree-3 basis, interior knots at quantiles."""

    name: str
    degree: int = 3
    n_knots: int = 5

    def __post_init__(self):
        require_counts(self, ModelError, ("degree",), ("n_knots",))


def spline_knots(x, n_knots: int, degree: int) -> np.ndarray:
    """Full clamped knot vector with interior knots at quantiles of x.

    Duplicated quantile knots (heavily tied covariates) are dropped, so the
    effective number of interior knots may be smaller than requested.
    """
    x = np.asarray(x, dtype=float)
    distinct = np.unique(x)
    if distinct.size < max(n_knots, 2):
        raise ModelError(
            f"need at least {max(n_knots, 2)} distinct values, got {distinct.size}"
        )
    lo, hi = float(distinct[0]), float(distinct[-1])
    if n_knots > 0:
        qs = np.quantile(x, np.linspace(0, 1, n_knots + 2)[1:-1])
        interior = np.unique(qs[(qs > lo) & (qs < hi)])
    else:
        interior = np.array([])
    return np.concatenate([[lo] * (degree + 1), interior, [hi] * (degree + 1)])


def spline_basis(x, knots: np.ndarray, degree: int) -> np.ndarray:
    """Evaluate the B-spline basis at x, one column per function.

    ``knots`` is a full clamped knot vector as built by spline_knots.  Inputs
    outside the knot range are clamped to it, so the basis rows always sum
    to 1 (partition of unity); a NaN input is refused.

    Each point's degree + 1 non-zero values come from the Cox-de Boor
    recursion (de Boor 1972), run for all points at once with the operations
    of FITPACK's ``fpbspl`` in its order, so the matrix is bit for bit
    SciPy's ``BSpline.design_matrix(x, knots, degree).toarray()``.  SciPy's
    sparse-to-dense step adds the values into zeros; the ``+ 0.0`` here does
    the same, turning a ``-0.0`` (from ``x = -0.0`` on a knot at 0) into
    ``+0.0``.  Every denominator is at least the width of the point's knot
    interval, which is positive since spline_knots keeps two distinct values.
    """
    knots = np.asarray(knots, dtype=float)
    x = np.clip(np.atleast_1d(np.asarray(x, dtype=float)), knots[0], knots[-1])
    n_basis = len(knots) - degree - 1
    if n_basis < degree + 1:
        raise ModelError("knot vector too short for the requested degree")
    if np.isnan(x).any():
        raise ModelError("cannot evaluate the spline basis at NaN")
    interval = np.clip(np.searchsorted(knots, x, side="right") - 1, degree, n_basis - 1)
    h = [np.ones(x.size)]
    for j in range(1, degree + 1):
        prev, nxt = 0.0, []
        for i in range(j):
            right, left = knots[interval + i + 1], knots[interval + i + 1 - j]
            f = h[i] / (right - left)
            nxt.append(prev + f * (right - x))
            prev = f * (x - left)
        h = nxt + [prev]
    out = np.zeros((x.size, n_basis))
    cols = interval[:, None] + np.arange(-degree, 1)
    out[np.arange(x.size)[:, None], cols] = np.column_stack(h) + 0.0
    return out


# ---------------------------------------------------------------------------
# model specification and design matrices


@dataclass(frozen=True)
class PriorSet:
    intercept: Prior = field(default_factory=lambda: student_t(3, 0, 2.5))
    fixed: Prior = field(default_factory=lambda: normal(0, 2))
    smooth_coef: Prior = field(default_factory=lambda: normal(0, 2))
    shape: Prior = field(default_factory=lambda: gamma(0.01, 0.01))
    smooth_scale: Prior = field(default_factory=lambda: half_student_t(3, 2.5))


@dataclass(frozen=True)
class ModelSpec:
    """Family plus linear predictor plus priors.

    ``hierarchical_smooths`` switches spline-coefficient priors from the
    fixed-scale normal to N(0, sigma_l) with a half-t prior on each smooth's
    own scale sigma_l.
    """

    family: str
    fixed: tuple[str, ...] = ()
    smooths: tuple[SmoothSpec, ...] = ()
    intercept: bool = True
    priors: PriorSet = field(default_factory=PriorSet)
    hierarchical_smooths: bool = False
    name: str = ""

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ModelError(f"unknown family {self.family!r}")
        names = list(self.fixed) + [s.name for s in self.smooths]
        if len(set(names)) != len(names):
            raise ModelError("covariate names must be distinct across terms")
        if not (self.intercept or names):
            raise ModelError("a model needs an intercept, a fixed effect or a smooth term")
        object.__setattr__(self, "fixed", tuple(self.fixed))
        object.__setattr__(self, "smooths", tuple(self.smooths))

    @property
    def has_shape(self) -> bool:
        return self.family == "weibull_aft"

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d) -> "ModelSpec":
        def prior(p):
            return settings(Prior, p, ModelError, params=lambda v: tuple(map(float, v)))
        return settings(
            ModelSpec, d, ModelError,
            smooths=lambda terms: [settings(SmoothSpec, t, ModelError) for t in terms],
            priors=lambda ps: settings(PriorSet, ps, ModelError,
                                       **{f.name: prior for f in fields(PriorSet)}))


class ModelDesign:
    """Design-matrix builder fitted to training covariates.

    Learns spline knots and smooth-column centering offsets from the
    training data so new covariate values (e.g. a prediction patient) map
    through the identical basis.  Centering removes the constant direction
    from each smooth's span, keeping the intercept identified.
    """

    def __init__(self, spec: ModelSpec, covariates):
        self.spec = spec
        self.knots = {}
        self.centers = {}
        names = ["b_Intercept"] if spec.intercept else []
        names += [f"b_{f}" for f in spec.fixed]
        for sm in spec.smooths:
            if sm.name not in covariates:
                raise ModelError(f"smooth covariate {sm.name!r} missing from data")
            kn = spline_knots(covariates[sm.name], sm.n_knots, sm.degree)
            self.knots[sm.name] = kn
            basis = spline_basis(covariates[sm.name], kn, sm.degree)
            self.centers[sm.name] = basis.mean(axis=0)
            names += [f"s_{sm.name}_{j + 1}" for j in range(basis.shape[1])]
        for f in spec.fixed:
            if f not in covariates:
                raise ModelError(f"fixed covariate {f!r} missing from data")
        self.parameter_names = names

    def coefficients(self, draws) -> np.ndarray:
        """(S, len(parameter_names)) coefficients in design-column order.

        A DrawsMatrix is read by parameter name; an array is taken to hold
        the coefficients already.
        """
        if isinstance(draws, DrawsMatrix):
            names = draws.parameter_names
            missing = [nm for nm in self.parameter_names if nm not in names]
            if missing:
                raise ModelError(f"draws lack the model's parameters {missing}")
            return draws.draws.take([names.index(nm) for nm in self.parameter_names], axis=1)
        return np.asarray(draws, dtype=float)

    def matrix(self, covariates, n_rows: int | None = None) -> np.ndarray:
        if n_rows is None:
            n_rows = (len(np.asarray(next(iter(covariates.values()))).ravel())
                      if covariates else 1)
        cols = []
        if self.spec.intercept:
            cols.append(np.ones(n_rows))
        for f in self.spec.fixed:
            col = np.asarray(covariates[f], dtype=float).ravel()
            cols.append(np.broadcast_to(col, (n_rows,)) if col.size == 1 else col)
        for sm in self.spec.smooths:
            x = np.asarray(covariates[sm.name], dtype=float).ravel()
            if x.size == 1:
                x = np.broadcast_to(x, (n_rows,))
            basis = spline_basis(x, self.knots[sm.name], sm.degree)
            cols.append(basis - self.centers[sm.name])
        return np.column_stack(cols)

    def smooth_slices(self) -> dict[str, slice]:
        """Column slice of each smooth term within the design matrix."""
        start = (1 if self.spec.intercept else 0) + len(self.spec.fixed)
        out = {}
        for sm in self.spec.smooths:
            width = len(self.knots[sm.name]) - sm.degree - 1
            out[sm.name] = slice(start, start + width)
            start += width
        return out


def eta(design: ModelDesign, beta, covariates, n_rows: int | None = None) -> np.ndarray:
    """Linear predictor X @ beta for the given covariate values.

    Covariate arrays of shape (n, k) hold n blocks of k rows (say, each
    subject's intervals) and give an (n, k) or (n, k, S) result.  Each block
    is multiplied on its own, so its values do not depend on how many
    blocks are stacked with it.
    """
    X = design.matrix(covariates, n_rows)
    beta = np.asarray(beta, dtype=float)
    if beta.shape[-1] != X.shape[1]:
        raise ModelError(
            f"beta has {beta.shape[-1]} entries but the design has {X.shape[1]} columns"
        )
    blocks = np.shape(next(iter(covariates.values()), 0))
    if len(blocks) == 2:
        X = X.reshape(*blocks, X.shape[1])
    return X @ beta.T if beta.ndim == 2 else X @ beta


# ---------------------------------------------------------------------------
# draws -> per-subject family parameters and predictive simulation


def subject_params(spec: ModelSpec, design: ModelDesign, draws, covariates,
                   n_rows: int | None = None) -> dict:
    """Family parameters per (record, draw) from a draws matrix.

    For ``bernoulli_logit`` returns {'p': (n, S)}, the event probability
    logistic(X beta) of each long-format row.  The continuous families get
    'mean' (n, S) and, for Weibull, 'shape' (1, S) arrays broadcastable
    against each other.  (n, k) covariate blocks give (n, k, S) arrays (see
    ``eta``).  Either is computed in place in the linear predictor's array.
    """
    lin = eta(design, design.coefficients(draws), covariates, n_rows)
    if spec.family == "bernoulli_logit":
        return {"p": _logistic_into(lin, lin)}
    params = {"mean": np.exp(lin, out=lin)}
    if spec.has_shape:
        if "alpha" not in getattr(draws, "parameter_names", ()):
            raise ModelError("weibull_aft draws need an 'alpha' column")
        params["shape"] = draws.column("alpha")[None, :]
    return params


def _draw_pick(spec: ModelSpec, design: ModelDesign, draws, data: SurvivalDataset,
               n: int | None, what: str, count: str) -> tuple[dict, np.ndarray]:
    """The family parameters of every (record, draw) and the indices of n of
    the S draws, evenly spaced (all of them for n None or n >= S).  The
    Bernoulli family (``what`` event times) and a ``count`` n below 1 are
    refused with a ModelError first."""
    if spec.family == "bernoulli_logit":
        raise ModelError(f"{what} event times are for continuous families")
    if n is not None and n < 1:
        raise ModelError(f"{count} must be at least 1, got {n}")
    params = subject_params(spec, design, draws, data.covariates, n_rows=data.n)
    total = params["mean"].shape[1]
    return params, np.linspace(0, total - 1, total if n is None else min(n, total)).astype(int)


def posterior_predictive_times(
    spec: ModelSpec, design: ModelDesign, draws, data: SurvivalDataset,
    rng: np.random.Generator, n_draws: int | None = None,
) -> np.ndarray:
    """Simulate event times, one (S, n) matrix of times: row s uses draw s.
    Uniforms are drawn and inverted one block of records at a time, in C
    order: temporaries are bounded to one block, times and stream bitwise."""
    params, pick = _draw_pick(spec, design, draws, data, n_draws, "posterior predictive",
                              "n_draws")
    if pick.size < params["mean"].shape[1]:
        params = {k: v[:, pick] for k, v in params.items()}
    mean = params["mean"]
    times = np.empty(mean.shape)
    for rows in _row_blocks(mean.shape):
        u = rng.random(times[rows].shape)
        times[rows] = quantile(spec.family, {**params, "mean": mean[rows]}, u)
    return times.T  # (S, n)


def impute_censored(
    spec: ModelSpec, design: ModelDesign, draws, data: SurvivalDataset,
    rng: np.random.Generator, n_imputations: int,
) -> list[SurvivalDataset]:
    """Replace right-censored times with truncated posterior-predictive draws.

    Each imputed replicate uses a single posterior parameter draw, so
    parameter uncertainty propagates across replicates.  Every imputed time
    strictly exceeds the censor time it replaces.
    """
    params, pick = _draw_pick(spec, design, draws, data, n_imputations, "imputed",
                              "n_imputations")
    if n_imputations > pick.size:
        raise ModelError("more imputations requested than available draws")
    cens = np.asarray(data.status == RIGHT_CENSORED)
    status = np.where(cens, EVENT, data.status)
    out = []
    for s in pick:
        time = data.time.copy()
        fam_params = {"mean": params["mean"][cens, s]}
        if "shape" in params:
            fam_params["shape"] = params["shape"][0, s]
        time[cens] = sample_truncated(spec.family, fam_params, data.time[cens], rng,
                                      size=int(cens.sum()))
        out.append(replace(data, time=time, status=status))
    return out


# ---------------------------------------------------------------------------
# shipped model presets (the GIST case-study blocks)


def preset_bernoulli_gist() -> ModelSpec:
    """Discrete-time recurrence model on long-format rows."""
    return ModelSpec(
        family="bernoulli_logit",
        fixed=("AdjOn", "GenderMale", "Rupture", "Gastric"),
        smooths=(
            SmoothSpec("TimeSinceAdjStopped"),
            SmoothSpec("Time"),
            SmoothSpec("Size"),
            SmoothSpec("AgeAtSurg"),
            SmoothSpec("MitHPF"),
        ),
        priors=PriorSet(intercept=student_t(3, 0, 2.5)),
        name="bernoulli-gist",
    )


def preset_exponential_gist(extra_fixed: tuple[str, ...] = ()) -> ModelSpec:
    """Constant-hazard model on the short form."""
    return ModelSpec(
        family="exponential",
        fixed=("GenderMale", "Rupture", "Gastric") + tuple(extra_fixed),
        smooths=(
            SmoothSpec("Size"),
            SmoothSpec("AgeAtSurg"),
            SmoothSpec("MitHPF"),
        ),
        priors=PriorSet(intercept=student_t(3, 2.3, 2.5)),
        name="exponential-gist",
    )


def preset_weibull_gist(extra_fixed: tuple[str, ...] = ()) -> ModelSpec:
    """Weibull AFT model on the short form."""
    spec = preset_exponential_gist(extra_fixed)
    return replace(spec, family="weibull_aft", name="weibull-gist")


PRESETS = {
    "bernoulli-gist": preset_bernoulli_gist,
    "exponential-gist": preset_exponential_gist,
    "weibull-gist": preset_weibull_gist,
}


def get_preset(name: str) -> ModelSpec:
    if name not in PRESETS:
        raise ModelError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return PRESETS[name]()
