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
functions (``log_density``, ``log_survival``, ...), so each kernel score
is bitwise the family function's.  Family parameters are a dict holding
the 'mean' (and for Weibull the 'shape'); the scalar oracle the kernel is
tested against is ``tests/pointwise_oracle.py``.

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
from scipy.interpolate import BSpline
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
    read off one Rate, so an evaluation computes theta once."""

    def __init__(self, theta, shape=None, log_shape=None):
        self.theta, self.shape, self._log_theta = theta, shape, None
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
        theta = self.theta
        # take copies an array that is not C-ordered to C order first
        part = theta.take(rows, axis=-1) if theta.flags.c_contiguous else theta[..., rows]
        return Rate(part, self.shape, self.log_shape)


def in_support(rate: Rate) -> np.ndarray:
    """Mask over the leading axes of the draws whose rate on every row (the
    last axis) and shape are positive and finite: the others' scores raise
    ModelError or are NaN.  Out-of-range values warn outside np.errstate."""
    ok = ((rate.theta > 0) & np.isfinite(rate.theta)).all(axis=-1)
    if rate.shape is not None:
        ok &= ((rate.shape > 0) & np.isfinite(rate.shape)).all(axis=-1)
    return ok


# the score of each status, written once for the family functions below and
# the kernel (``group_log_scores``): a Rate and fixed time terms, t and log t
# (for survival, -inf at t = 0, and the mask t > 0)


def _event_terms(t) -> tuple:
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ModelError("event times must be positive")
    return t, np.log(t)


def _survival_terms(t) -> tuple:
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ModelError("times must be non-negative")
    with np.errstate(divide="ignore"):
        return t, np.where(t > 0, np.log(np.maximum(t, 1e-300)), -np.inf), t > 0


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
    return -np.where(positive, np.exp(r.shape * (r.log_theta + log_t)), 0.0)


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


def log_interval_prob(family: str, params, a, b) -> np.ndarray:
    """log(F(b) - F(a)) = log(S(a) - S(b)), stable for short intervals."""
    terms = _interval_terms(a, b)
    rate = Rate.of(family, params)
    with np.errstate(divide="ignore"):
        return _interval_score(family, rate, *terms)


def hazard(family: str, params, t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ModelError("hazard needs t > 0")
    r = Rate.of(family, params)
    if family == "exponential":
        return np.broadcast_to(r.theta, np.broadcast_shapes(r.theta.shape, t.shape)).copy()
    return r.theta * r.shape * np.exp((r.shape - 1.0) * (r.log_theta + np.log(t)))


def _inverse_cumulative_hazard(family: str, params, h) -> np.ndarray:
    """The time t whose cumulative hazard H(t) is h >= 0."""
    r = Rate.of(family, params)
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
    return _inverse_cumulative_hazard(family, params, -np.log1p(-u))


def sample_event_time(family: str, params, rng: np.random.Generator, size=None):
    """Inverse-CDF draw(s); cdf(sample) is uniform by construction."""
    u = rng.random(size)
    return quantile(family, params, u)


def sample_truncated(family: str, params, lower, rng: np.random.Generator, size=None):
    """Draw from the family conditional on exceeding ``lower``.

    Uses u ~ Uniform(F(lower), 1) through the inverse CDF, computed in log
    space: log S(t) = log S(lower) + log(1 - u).  Raises SaturationError if
    F(lower) is numerically 1, i.e. the censor time is beyond the support
    precision of the fitted distribution.
    """
    lower = np.asarray(lower, dtype=float)
    if np.any(cdf(family, params, lower) >= 1.0):
        raise SaturationError("survival at the truncation point underflows to zero")
    u = rng.random(size)
    h = -(log_survival(family, params, lower) + np.log1p(-u))  # cumulative hazard of the draw
    # the contract is strictly greater than the truncation point; guard the
    # measure-zero u=0 draw and float round-down
    return np.maximum(_inverse_cumulative_hazard(family, params, h), np.nextafter(lower, np.inf))


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
    computed and checked once: (t, log t) of event times, (t, log t, t > 0)
    of censor times, or those of the (a, b) bounds of an interval score.
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
    return [_LOG_SCORE[g.kind][0](family, rate.take(g.rows), *g.terms) for g in groups]


def bernoulli_log_score(z, p) -> np.ndarray:
    """Row log score z log p + (1 - z) log(1 - p) of binary outcomes z,
    computed in place in an array of p's shape (z broadcasts to it)."""
    out = np.log1p(-p)
    out *= 1.0 - z
    log_p = np.log(p)
    log_p *= z
    out += log_p
    return out


def logistic(eta) -> np.ndarray:
    """Numerically stable logistic, clamped away from {0, 1}: one exp per
    element, computed in place; a scalar eta gives a scalar."""
    eta = np.asarray(eta, dtype=float)
    p = np.exp(-np.abs(eta), out=np.empty_like(eta))
    numerator = np.where(eta < 0, p, 1.0)
    p += 1.0
    np.divide(numerator, p, out=p)
    return np.clip(p, _PCLAMP, 1.0 - _PCLAMP, out=p)[()]


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
            return _t_log_pdf(x, df, loc, scale, self._t_log_norm)
        if self.kind == "half_student_t":
            df, scale = self.params
            out = _t_log_pdf(x, df, 0.0, scale, self._t_log_norm) + math.log(2.0)
            return np.where(x >= 0, out, -np.inf)
        shape, rate = self.params
        out = shape * math.log(rate) - gammaln(shape) + (shape - 1.0) * np.log(x) - rate * x
        return np.where(x > 0, out, -np.inf)

    @functools.cached_property
    def _t_log_norm(self) -> float:
        """Log normalising constant of a Student-t prior, computed once."""
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
    to 1 (partition of unity).
    """
    x = np.clip(np.asarray(x, dtype=float), knots[0], knots[-1])
    n_basis = len(knots) - degree - 1
    if n_basis < degree + 1:
        raise ModelError("knot vector too short for the requested degree")
    if x.size == 0:
        return np.zeros((0, n_basis))
    return BSpline.design_matrix(x, knots, degree).toarray()


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
        return np.column_stack(cols) if cols else np.ones((n_rows, 1))

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
    ``eta``).
    """
    lin = eta(design, design.coefficients(draws), covariates, n_rows)
    if spec.family == "bernoulli_logit":
        return {"p": logistic(lin)}
    params = {"mean": np.exp(lin)}
    if spec.has_shape:
        if "alpha" not in getattr(draws, "parameter_names", ()):
            raise ModelError("weibull_aft draws need an 'alpha' column")
        params["shape"] = draws.column("alpha")[None, :]
    return params


def posterior_predictive_times(
    spec: ModelSpec, design: ModelDesign, draws, data: SurvivalDataset,
    rng: np.random.Generator, n_draws: int | None = None,
) -> np.ndarray:
    """Simulate event times, one (S, n) matrix of times: row s uses draw s."""
    if spec.family == "bernoulli_logit":
        raise ModelError("posterior predictive event times are for continuous families")
    if n_draws is not None and n_draws < 1:
        raise ModelError(f"n_draws must be at least 1, got {n_draws}")
    params = subject_params(spec, design, draws, data.covariates, n_rows=data.n)
    total = params["mean"].shape[1]
    if n_draws is not None and n_draws < total:
        idx = np.linspace(0, total - 1, n_draws).astype(int)
        params = {k: v[:, idx] for k, v in params.items()}
    u = rng.random(params["mean"].shape)
    return quantile(spec.family, params, u).T  # (S, n)


def impute_censored(
    spec: ModelSpec, design: ModelDesign, draws, data: SurvivalDataset,
    rng: np.random.Generator, n_imputations: int,
) -> list[SurvivalDataset]:
    """Replace right-censored times with truncated posterior-predictive draws.

    Each imputed replicate uses a single posterior parameter draw, so
    parameter uncertainty propagates across replicates.  Every imputed time
    strictly exceeds the censor time it replaces.
    """
    params = subject_params(spec, design, draws, data.covariates, n_rows=data.n)
    total = params["mean"].shape[1]
    if n_imputations > total:
        raise ModelError("more imputations requested than available draws")
    cens = np.asarray(data.status == RIGHT_CENSORED)
    pick = np.linspace(0, total - 1, n_imputations).astype(int)
    out = []
    for r, s in enumerate(pick):
        time = data.time.copy()
        status = data.status.copy()
        fam_params = {"mean": params["mean"][cens, s]}
        if "shape" in params:
            fam_params["shape"] = params["shape"][0, s]
        time[cens] = sample_truncated(
            spec.family, fam_params, data.time[cens], rng, size=int(cens.sum())
        )
        status[cens] = EVENT
        out.append(data.replace_times(time, status))
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
