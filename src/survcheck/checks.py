"""Predictive model checks for survival models.

Covers the full checking toolbox: Kaplan-Meier estimation with delayed
entry honored in the risk sets, Kaplan-Meier overlays against predictive
draws with an extrapolation cutoff and an imputed-data overlay, intervals
plots, PIT values and PIT-ECDF simultaneous bands, PAV-adjusted calibration
curves with consistency bands, the zoom region for unbalanced predictions,
and outcome dichotomisation at a fixed horizon.

Simultaneous bands are built by simulation: replicate statistics are drawn
under perfect calibration, and a pointwise quantile level gamma is searched
so that the requested fraction of replicates lies entirely inside the
envelope.  This is assumption-free and validated by coverage tests.  PAV
fits are SciPy's ``isotonic_regression`` (SciPy >= 1.12) over predictions
sorted and pooled once, with their weights made once.  PIT-ECDF replicates
are counted from one cumulative histogram per block of replicates.  The
envelope sorts the replicates one block of columns at a time and keeps only
the order statistics its steps read; the intervals plot reads its quantiles
off the draws sorted the same way, bit for bit ``np.quantile``'s.  The
Kaplan-Meier estimate is a cumulative product over sorted searches.
``scipy.optimize``, which holds ``isotonic_regression``, is imported at the
first PAV fit, so a command that does not calibrate never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import EVENT, RIGHT_CENSORED, SurvivalDataset
from .models import _row_blocks
from .series import PlotSeries


# a value this far outside a band still counts as inside it
_SLACK = 1e-12
# central probabilities of the inner and outer intervals of ``intervals_data``
_PROB_INNER, _PROB_OUTER = 0.5, 0.9


class CheckError(ValueError):
    """Invalid inputs to a predictive check."""


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous step function from 1.0: value after each jump time."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.shape != v.shape:
            raise CheckError("times and values must align")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise CheckError("jump times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def __call__(self, t):
        idx = np.searchsorted(self.times, np.asarray(t, dtype=float), side="right")
        vals = np.concatenate([[1.0], self.values])
        out = vals[idx]
        return float(out) if np.ndim(t) == 0 else out

    def truncated(self, tmax: float) -> "StepFunction":
        keep = self.times <= tmax
        return StepFunction(self.times[keep], self.values[keep])

    def to_series(self, name: str, role: str, xmax: float | None = None, **meta) -> PlotSeries:
        md = {"role": role, **meta}
        if xmax is not None:
            md["xmax"] = float(xmax)
        return PlotSeries(name, "step",
                          {"x": self.times, "y": self.values, "y0": 1.0}, md)


@dataclass(frozen=True)
class BandSeries:
    """Simultaneous envelope on a grid at a nominal coverage level."""

    grid: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    level: float
    pointwise_gamma: float = float("nan")

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if not (g.shape == lo.shape == hi.shape):
            raise CheckError("band arrays must align")
        if np.any(lo > hi):
            raise CheckError("band lower bound exceeds upper bound")
        if not 0 < self.level < 1:
            raise CheckError("band level must be in (0, 1)")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def contains(self, values) -> bool:
        v = np.asarray(values, dtype=float)
        return bool(np.all((v >= self.lower - _SLACK) & (v <= self.upper + _SLACK)))

    def to_series(self, name: str, **meta) -> PlotSeries:
        return PlotSeries(name, "band",
                          {"x": self.grid, "lower": self.lower, "upper": self.upper},
                          {"role": "band", "level": self.level, **meta})


@dataclass(frozen=True)
class CalibrationCurve:
    """Isotonic (PAV) conditional event probabilities over sorted predictions."""

    predictions: np.ndarray   # sorted ascending, ties in original order
    ceps: np.ndarray          # nondecreasing, in [0, 1]


# ---------------------------------------------------------------------------
# Kaplan-Meier


def km_estimate(data: SurvivalDataset) -> StepFunction:
    """Product-limit survival estimator.

    A subject joins the risk set only after its entry time (entry < t <=
    time).  Counting every subject with time >= t, which overestimates early
    survival when entries are delayed, is the estimate of the same data with
    every entry at 0.
    """
    if data.n == 0:
        raise CheckError("empty dataset")
    if not set(data.status) <= {EVENT, RIGHT_CENSORED}:
        raise CheckError("Kaplan-Meier needs event/right-censored records only")
    event_times, deaths = np.unique(data.time[data.status == EVENT], return_counts=True)
    # at risk at t: #{time >= t} - #{min(entry, time) >= t}, exact even for
    # a record entering at or after its own time, which is never at risk
    entered = np.sort(np.minimum(data.entry_time, data.time))
    at_risk = (np.searchsorted(entered, event_times)
               - np.searchsorted(np.sort(data.time), event_times))
    hazard = np.divide(deaths, at_risk, out=np.zeros(event_times.size), where=at_risk > 0)
    return StepFunction(event_times, np.cumprod(1.0 - hazard))


def empirical_ccdf(times) -> StepFunction:
    """1 - empirical CDF of a sample of (uncensored) times."""
    return _ccdfs(np.reshape(np.asarray(times, dtype=float), (1, -1)))[0]


def _ccdfs(samples: np.ndarray) -> list[StepFunction]:
    """``empirical_ccdf`` of each row of ``samples``, all rows sorted at once.
    A distinct value steps down to 1 - (its last position + 1) / n; the NaNs,
    sorted last, are one value, as ``np.unique`` counts them."""
    x = np.sort(samples, axis=1)
    n = x.shape[1]
    last = np.ones(x.shape, dtype=bool)
    last[:, :-1] = (x[:, 1:] != x[:, :-1]) & ~(np.isnan(x[:, 1:]) & np.isnan(x[:, :-1]))
    first = np.ones(x.shape, dtype=bool)
    first[:, 1:] = last[:, :-1]
    return [StepFunction(row[starts], 1.0 - (np.flatnonzero(ends) + 1) / n)
            for row, starts, ends in zip(x, first, last)]


def km_overlay(
    data: SurvivalDataset,
    predictive_draws,
    cutoff_factor: float = 1.2,
    imputed: list[SurvivalDataset] | None = None,
) -> list[PlotSeries]:
    """Kaplan-Meier overlay bundle.

    Returns the observed KM curve, one empirical CCDF per predictive draw
    truncated ``cutoff_factor`` times beyond the furthest observed time, and
    (optionally) one KM curve per imputed dataset replicate, tagged with the
    ``imputed`` role so renderers can separate the colours.
    """
    if not cutoff_factor >= 1:  # NaN too
        raise CheckError("cutoff_factor must be >= 1")
    draws = np.atleast_2d(np.asarray(predictive_draws, dtype=float))
    if draws.shape[0] < 1:
        raise CheckError("need at least one predictive draw sequence")
    cutoff = cutoff_factor * float(np.max(data.time))
    out = []
    for s, ccdf in enumerate(_ccdfs(draws)):
        out.append(ccdf.truncated(cutoff).to_series(f"predictive_{s}", "predictive", xmax=cutoff))
    if imputed is not None:
        for r, ds in enumerate(imputed):
            km_imp = km_estimate(ds).truncated(cutoff)
            out.append(km_imp.to_series(
                f"imputed_{r}", "imputed", xmax=cutoff, hint_color="#e34a33"))
    km_obs = km_estimate(data)
    out.append(km_obs.to_series("observed", "observed", xmax=float(np.max(data.time))))
    return out


# ---------------------------------------------------------------------------
# intervals plot


def intervals_data(
    observed,
    predictive_draws,
    imputed_flags=None,
) -> PlotSeries:
    """Observations vs central 50% and 90% predictive intervals.

    Quantiles use linear interpolation of order statistics (type 7), bit
    for bit ``np.quantile``'s default, read off the draws sorted once (a
    zero read from a column holding both -0.0 and 0.0 may differ in sign).
    """
    y = np.asarray(observed, dtype=float)
    draws = np.asarray(predictive_draws, dtype=float)
    if draws.ndim != 2 or draws.shape[1] != y.size:
        raise CheckError("predictive draws must be (S, n)")
    if draws.shape[0] < 20:
        raise CheckError("need at least 20 draws per observation")
    every = np.arange(len(draws))
    order_stats = _order_stats(draws, every)
    qs = [_linear_quantile(order_stats, q, every) for q in
          (0.5 - _PROB_OUTER / 2, 0.5 - _PROB_INNER / 2, 0.5,
           0.5 + _PROB_INNER / 2, 0.5 + _PROB_OUTER / 2)]
    for q in qs:  # np.quantile gives a column holding NaN its NaN
        np.copyto(q, order_stats[-1], where=np.isnan(order_stats[-1]))
    flags = (np.zeros(y.size, dtype=int) if imputed_flags is None
             else np.asarray(imputed_flags, dtype=int))
    return PlotSeries(
        "intervals",
        "interval",
        {
            "x": np.arange(1, y.size + 1),
            "y": y,
            "median": qs[2],
            "lower": qs[0],
            "upper": qs[4],
            "inner_lower": qs[1],
            "inner_upper": qs[3],
            "imputed": flags,
            "at_median": (y == qs[2]).astype(int),
        },
        {"role": "predictive", "prob_inner": _PROB_INNER, "prob_outer": _PROB_OUTER},
    )


# ---------------------------------------------------------------------------
# PIT and the PIT-ECDF band


def pit_values(observed, predictive_draws) -> np.ndarray:
    """PIT_i: proportion of draws for observation i that are <= the observation."""
    y = np.asarray(observed, dtype=float)
    draws = np.asarray(predictive_draws, dtype=float)
    if draws.ndim != 2 or draws.shape[1] != y.size:
        raise CheckError("predictive draws must be (S, n)")
    return np.mean(draws <= y[None, :], axis=0)


def ecdf_on_grid(values, grid) -> np.ndarray:
    values = np.sort(np.asarray(values, dtype=float))
    return np.searchsorted(values, np.asarray(grid, dtype=float), side="right") / values.size


def simultaneous_envelope(sims: np.ndarray, level: float):
    """Pointwise-quantile envelope adjusted for simultaneous coverage.

    Bisects the pointwise tail level gamma, to 1e-4 (1 - level), until the
    fraction of simulated replicate curves lying entirely inside
    [q_{gamma/2}, q_{1-gamma/2}] is at least ``level``.  Returns (lower,
    upper, gamma).  Each step counts the replicates outside from each
    column's K smallest and K largest values, bitwise as from every value.
    The replicates are sorted one block of columns at a time, and only the
    rows of the order statistics that a step reads are kept.
    """
    sims = np.asarray(sims, dtype=float)
    if not 0 < level < 1:
        raise CheckError("level must be in (0, 1)")
    n_sim, top = sims.shape[0], sims.shape[0] - 1
    # Only a column's K smallest and K largest replicates can fall outside
    # at a gamma <= 1 - level, as every step's is.  The lower bound is read
    # at v = top * (gamma / 2) <= top * ((1 - level) / 2), in the same float
    # operations, so i = int(v) <= K - 2; a + d g (g < 0.5) or b - d (1 - g)
    # between a = order_stats[i] and b = order_stats[i + 1], d = b - a >= 0,
    # rounds to at most b, so lo <= order_stats[K - 1]: every value at or
    # above it is inside.  Mirrored, the upper v > top - K + 1, so every
    # value at or below order_stats[n_sim - K] is inside.  Rounding of that
    # v, or a NaN or an infinity, can break this: a step failing either
    # check below compares every replicate instead.  The other steps compare
    # only the values below order_stats[K - 1] and those not at or below
    # order_stats[n_sim - K] (NaN among them): fewer than K a column, unless
    # K or more are NaN.
    k = min(n_sim, int(top * ((1.0 - level) / 2)) + 2)
    # The rows a step reads: 0..K - 1, and from the upper bound's row at
    # gamma = 1 - level, the lowest any step's reads, to the last.
    v = top * (1 - (1.0 - level) / 2)
    kept = np.r_[0:k, max(k, min(int(v) if v < top else top, n_sim - k)):n_sim]
    row = np.zeros(n_sim, dtype=np.intp)
    row[kept] = np.arange(kept.size)
    order_stats = _order_stats(sims, kept)
    floor, ceiling = order_stats[k - 1], order_stats[row[n_sim - k]]
    low = _entries(sims, sims < floor)
    high = _entries(sims, ~(sims <= ceiling))

    def coverage(gamma):
        lo = _linear_quantile(order_stats, gamma / 2, row)
        hi = _linear_quantile(order_stats, 1 - gamma / 2, row)
        lo_s, hi_s = lo - _SLACK, hi + _SLACK
        if np.all(floor >= lo_s) and np.all(ceiling <= hi_s):
            outside = np.zeros(n_sim, dtype=bool)
            outside[low[0][~(low[2] >= lo_s[low[1]])]] = True
            outside[high[0][~(high[2] <= hi_s[high[1]])]] = True
            inside = ~outside
        else:
            inside = np.all((sims >= lo_s) & (sims <= hi_s), axis=1)
        return inside.mean(), lo, hi

    lo_g, hi_g = 0.0, 1.0 - level
    best = coverage(lo_g)
    if best[0] < level:  # even the min/max hull fails: keep it anyway
        return best[1], best[2], lo_g
    cov_hi = coverage(hi_g)
    if cov_hi[0] >= level:
        return cov_hi[1], cov_hi[2], hi_g
    while hi_g - lo_g > 1e-4 * (1.0 - level):
        mid = 0.5 * (lo_g + hi_g)
        cov = coverage(mid)
        if cov[0] >= level:
            lo_g, best = mid, cov
        else:
            hi_g = mid
    return best[1], best[2], lo_g


def _order_stats(a: np.ndarray, kept) -> np.ndarray:
    """The rows ``kept`` of ``a`` sorted along axis 0, sorting one block of
    columns at a time, transposed so that each sort is contiguous."""
    out = np.empty((len(kept), a.shape[1]))
    for cols in _row_blocks(a.shape[::-1]):
        block = a[:, cols].T.copy()
        block.sort(axis=1)
        out[:, cols] = block[:, kept].T
    return out


def _linear_quantile(order_stats: np.ndarray, q: float, row: np.ndarray) -> np.ndarray:
    """``np.quantile``'s default (linear) method at q of each column, bit for
    bit, read off the column's sorted values: the i-th smallest of its
    len(row) values is ``order_stats[row[i]]``.  At or past the last value
    numpy interpolates the last with itself."""
    top = len(row) - 1
    v = top * q
    i = int(v) if v < top else -1
    g = v - i
    a, b = order_stats[row[i]], order_stats[row[i + 1 if i >= 0 else -1]]
    d = b - a
    return b - d * (1 - g) if g >= 0.5 else a + d * g


def _entries(sims: np.ndarray, mask: np.ndarray) -> tuple:
    """(rows, columns, values) of the entries of ``sims`` where ``mask`` holds."""
    rows, cols = np.divmod(np.flatnonzero(mask), sims.shape[1])
    return rows, cols, sims[rows, cols]


def simulate_pit_ecdfs(n: int, n_draws: int, n_sim: int, rng) -> np.ndarray:
    """Replicate PIT-ECDF curves under a well-calibrated model.

    For continuous data, the count of draws <= the observation is uniform on
    {0..S}, so calibrated PIT values live on the S-lattice k/S.  Each
    replicate draws its n lattice indices in one call.  Lattice values grow
    with k, so k/S is at most the grid point j/n exactly when k is below the
    count of lattice values at most it: each k has a first grid point that
    counts it, and a replicate's ECDF is the cumulative histogram of those,
    bitwise the sorted search of its PIT values.
    """
    grid = np.arange(1, n + 1) / n
    below = np.searchsorted(np.arange(n_draws + 1) / n_draws, grid, side="right")
    first = np.searchsorted(below, np.arange(n_draws + 1), side="right")
    sims = np.empty((n_sim, n))
    for rows in _row_blocks((n_sim, n + 1)):
        m = len(sims[rows])
        at = np.empty((m, n), dtype=np.intp)
        for r in range(m):
            at[r] = first[rng.integers(0, n_draws + 1, size=n)]
        at += np.arange(0, m * (n + 1), n + 1)[:, None]  # replicate r's bins start at r(n + 1)
        counts = np.bincount(at.ravel(), minlength=m * (n + 1)).reshape(m, n + 1)
        sims[rows] = np.cumsum(counts[:, :n], axis=1) / n
    return sims


def pit_ecdf_band(
    n: int, n_draws: int, level: float = 0.95, n_sim: int = 1000, seed: int = 0
) -> BandSeries:
    """Simultaneous confidence band for the ECDF of n calibrated PIT values.

    The band is evaluated on the grid {1/n, ..., 1}; an ECDF fully inside
    it is consistent with uniform PIT values at the given level.
    """
    if n < 2:
        raise CheckError("need at least two observations")
    rng = np.random.default_rng(seed)
    sims = simulate_pit_ecdfs(n, n_draws, n_sim, rng)
    lower, upper, gamma = simultaneous_envelope(sims, level)
    grid = np.arange(1, n + 1) / n
    return BandSeries(grid, lower, upper, level, pointwise_gamma=gamma)


def pit_ecdf_check(
    observed, predictive_draws, level: float = 0.95, n_sim: int = 1000, seed: int = 0,
    imputed_flags=None,
) -> tuple[list[PlotSeries], bool]:
    """PIT-ECDF bundle (ECDF steps, diagonal, band) plus the inside-band flag."""
    pit = pit_values(observed, predictive_draws)
    n = pit.size
    band = pit_ecdf_band(n, np.asarray(predictive_draws).shape[0], level, n_sim, seed)
    grid = band.grid
    e = ecdf_on_grid(pit, grid)
    inside = band.contains(e)
    meta = {"inside_band": bool(inside)}
    if imputed_flags is not None:
        meta["n_imputed"] = int(np.sum(imputed_flags))
    series = [
        band.to_series("pit_ecdf_band"),
        PlotSeries("diagonal", "points", {"x": grid, "y": grid}, {"role": "reference"}),
        PlotSeries("pit_ecdf", "points", {"x": grid, "y": e}, {"role": "observed", **meta}),
    ]
    return series, inside


# ---------------------------------------------------------------------------
# PAV-adjusted calibration


def pav_isotonic(values: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Weighted isotonic least-squares fit of a sequence (pool-adjacent-violators)."""
    from scipy.optimize import isotonic_regression

    return isotonic_regression(np.asarray(values, dtype=float), weights=weights).x


def _probabilities(predictions) -> np.ndarray:
    """Predictions as an array, refused unless nonempty and in [0, 1] (no NaN)."""
    p = np.asarray(predictions, dtype=float)
    if p.size == 0 or not np.all((p >= 0) & (p <= 1)):
        raise CheckError("predictions must be nonempty and lie in [0, 1]")
    return p


def _pooled(predictions):
    """Stable sort order, sorted predictions, and their distinct values
    with each sorted prediction's index among them and their counts."""
    p = _probabilities(predictions)
    order = np.argsort(p, kind="stable")
    p_sorted = p[order]
    uniq, inverse, counts = np.unique(p_sorted, return_inverse=True, return_counts=True)
    return order, p_sorted, uniq, inverse, counts


def _pooled_pav(inverse: np.ndarray, weights: np.ndarray, z_sorted: np.ndarray) -> np.ndarray:
    """Weighted PAV over distinct predictions, their counts as float
    ``weights``, expanded back per point."""
    return pav_isotonic(np.bincount(inverse, weights=z_sorted) / weights, weights)[inverse]


def pav_cep(predictions, outcomes) -> CalibrationCurve:
    """Conditional event probabilities via PAV.

    Outcomes are sorted by predicted probability (stable, ties by original
    index); tied predictions are pooled so the CEP is a function of the
    predicted probability, and the pooled blocks are isotonically regressed.
    """
    z = np.asarray(outcomes, dtype=float)
    if np.size(predictions) != z.size:
        raise CheckError("predictions and outcomes must align")
    if not np.all((z == 0) | (z == 1)):
        raise CheckError("outcomes must be 0 or 1")
    order, p_sorted, _, inverse, counts = _pooled(predictions)
    return CalibrationCurve(p_sorted, _pooled_pav(inverse, counts.astype(float), z[order]))


def calibration_band(
    predictions, level: float = 0.95, n_sim: int = 1000, seed: int = 0
) -> tuple[BandSeries, PlotSeries]:
    """Consistency band for the PAV calibration curve, plus density dots.

    Outcomes are simulated under perfect calibration (z ~ Bernoulli(p)),
    the PAV curve recomputed per replicate, and the pointwise quantile
    envelope widened by the same gamma-search as the PIT-ECDF band.  Dot
    sizes are the point masses of the distinct predictions, normalized.
    """
    _, p_sorted, uniq, inverse, counts = _pooled(predictions)
    rng = np.random.default_rng(seed)
    weights = counts.astype(float)
    sims = np.empty((n_sim, p_sorted.size))
    for sim in sims:
        sim[:] = _pooled_pav(inverse, weights, rng.random(p_sorted.size) < p_sorted)
    lower, upper, gamma = simultaneous_envelope(sims, level)
    band = BandSeries(p_sorted, lower, upper, level, pointwise_gamma=gamma)
    dots = PlotSeries("prediction_density", "points",
                      {"x": uniq, "y": np.zeros_like(uniq), "size": counts / counts.max()},
                      {"role": "predictive"})
    return band, dots


def calibration_check(
    predictions, outcomes, level: float = 0.95, n_sim: int = 1000, seed: int = 0,
    zoom_mass: float | None = None,
) -> tuple[list[PlotSeries], bool]:
    """PAV calibration bundle: curve, identity line, band, dots, zoom hint."""
    curve = pav_cep(predictions, outcomes)
    zoom = {} if zoom_mass is None else {"zoom_region": list(zoom_region(predictions, zoom_mass))}
    band, dots = calibration_band(predictions, level, n_sim, seed)
    inside = band.contains(curve.ceps)
    meta = {"inside_band": bool(inside), **zoom}
    series = [
        band.to_series("calibration_band"),
        PlotSeries("identity", "points",
                   {"x": [0.0, 1.0], "y": [0.0, 1.0]}, {"role": "reference"}),
        PlotSeries("calibration_curve", "points",
                   {"x": curve.predictions, "y": curve.ceps},
                   {"role": "observed", **meta}),
        dots,
    ]
    return series, inside


def zoom_region(predictions, mass: float = 0.9) -> tuple[float, float]:
    """Smallest interval anchored at the dense end holding >= ``mass`` in (0, 1].

    Anchored at 0 when predictions concentrate low (median <= 0.5), at 1
    otherwise, matching the zoomed calibration plot for unbalanced data.
    """
    p = _probabilities(predictions)
    if not 0 < mass <= 1:  # NaN too
        raise CheckError(f"zoom mass must be in (0, 1], got {mass!r}")
    if np.median(p) <= 0.5:
        return 0.0, float(np.quantile(p, mass))
    return float(np.quantile(p, 1 - mass)), 1.0


# ---------------------------------------------------------------------------
# dichotomisation


def dichotomize_outcomes(data: SurvivalDataset, horizon: float):
    """Binary "event by the horizon" outcomes.

    Events at or before the horizon give 1; events after it, and censoring
    at or after it, give 0 (the event cannot have occurred earlier).
    Subjects censored strictly before the horizon are excluded because
    their indicator is unknowable; their ids are returned separately.
    """
    if horizon <= 0:
        raise CheckError("horizon must be positive")
    return interval_outcomes(data, -np.inf, horizon)


def interval_outcomes(data: SurvivalDataset, a: float, b: float):
    """Binary "event inside (a, b]" outcomes among subjects at risk at a.

    At risk means the subject's event/censor time exceeds a.  Events in the
    interval give 1; subjects observed beyond it give 0; subjects censored
    strictly inside it, and left- or interval-censored subjects, are
    excluded (their indicator is unknowable).  Returns the outcomes and the
    row indices they belong to, in row order, and the excluded subject ids.
    One such vector per interval drives the per-interval calibration plots.
    """
    if not a < b:
        raise CheckError("interval needs a < b")
    t, status = data.time, data.status
    at_risk = ~(t <= a)
    event = at_risk & (status == EVENT)
    kept = event | (at_risk & (status == RIGHT_CENSORED) & (t >= b))
    keep = np.flatnonzero(kept)
    z = (event[keep] & (t[keep] <= b)).astype(int)
    return z, keep, data.subject_id[at_risk & ~kept].tolist()
