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
envelope.  This is assumption-free and validated by coverage tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import EVENT, RIGHT_CENSORED, SurvivalDataset
from .series import PlotSeries


class CheckError(ValueError):
    """Invalid inputs to a predictive check."""


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous step function: value after each jump time."""

    times: np.ndarray
    values: np.ndarray
    initial_value: float = 1.0

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
        vals = np.concatenate([[self.initial_value], self.values])
        out = vals[idx]
        return float(out) if np.ndim(t) == 0 else out

    def truncated(self, tmax: float) -> "StepFunction":
        keep = self.times <= tmax
        return StepFunction(self.times[keep], self.values[keep], self.initial_value)

    def to_series(self, name: str, role: str, xmax: float | None = None, **meta) -> PlotSeries:
        md = {"role": role, **meta}
        if xmax is not None:
            md["xmax"] = float(xmax)
        return PlotSeries(name, "step",
                          {"x": self.times, "y": self.values, "y0": self.initial_value}, md)


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

    def contains(self, values, slack: float = 1e-12) -> bool:
        v = np.asarray(values, dtype=float)
        return bool(np.all((v >= self.lower - slack) & (v <= self.upper + slack)))

    def to_series(self, name: str, **meta) -> PlotSeries:
        return PlotSeries(name, "band",
                          {"x": self.grid, "lower": self.lower, "upper": self.upper},
                          {"role": "band", "level": self.level, **meta})


@dataclass(frozen=True)
class CalibrationCurve:
    """Isotonic (PAV) conditional event probabilities over sorted predictions."""

    predictions: np.ndarray   # sorted ascending, ties in original order
    ceps: np.ndarray          # nondecreasing, in [0, 1]
    point_masses: dict        # distinct prediction -> count

    def distinct(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.array(sorted(self.point_masses)),
                np.array([self.point_masses[k] for k in sorted(self.point_masses)]))


# ---------------------------------------------------------------------------
# Kaplan-Meier


def km_estimate(data: SurvivalDataset, honor_entry: bool = True) -> StepFunction:
    """Product-limit survival estimator.

    With ``honor_entry`` a subject joins the risk set only after its entry
    time (entry < t <= time); without it every subject with time >= t is
    counted, which overestimates early survival when entries are delayed.
    """
    if data.n == 0:
        raise CheckError("empty dataset")
    if not set(data.status) <= {EVENT, RIGHT_CENSORED}:
        raise CheckError("Kaplan-Meier needs event/right-censored records only")
    is_event = data.status == EVENT
    event_times = np.unique(data.time[is_event])
    surv = 1.0
    values = np.empty(event_times.size)
    for j, t in enumerate(event_times):
        at_risk = data.time >= t
        if honor_entry:
            at_risk &= data.entry_time < t
        n_i = int(np.count_nonzero(at_risk))
        d_i = int(np.count_nonzero(is_event & (data.time == t)))
        if n_i > 0:
            surv *= 1.0 - d_i / n_i
        values[j] = surv
    return StepFunction(event_times, values, initial_value=1.0)


def empirical_ccdf(times) -> StepFunction:
    """1 - empirical CDF of a sample of (uncensored) times."""
    times = np.sort(np.asarray(times, dtype=float))
    uniq, counts = np.unique(times, return_counts=True)
    surv = 1.0 - np.cumsum(counts) / times.size
    return StepFunction(uniq, surv, initial_value=1.0)


def km_overlay(
    data: SurvivalDataset,
    predictive_draws,
    cutoff_factor: float = 1.2,
    imputed: list[SurvivalDataset] | None = None,
    honor_entry: bool = True,
) -> list[PlotSeries]:
    """Kaplan-Meier overlay bundle.

    Returns the observed KM curve, one empirical CCDF per predictive draw
    truncated ``cutoff_factor`` times beyond the furthest observed time, and
    (optionally) one KM curve per imputed dataset replicate, tagged with the
    ``imputed`` role so renderers can separate the colours.
    """
    if cutoff_factor < 1:
        raise CheckError("cutoff_factor must be >= 1")
    draws = np.atleast_2d(np.asarray(predictive_draws, dtype=float))
    if draws.shape[0] < 1:
        raise CheckError("need at least one predictive draw sequence")
    cutoff = cutoff_factor * float(np.max(data.time))
    out = []
    for s in range(draws.shape[0]):
        ccdf = empirical_ccdf(draws[s]).truncated(cutoff)
        out.append(ccdf.to_series(f"predictive_{s}", "predictive", xmax=cutoff))
    if imputed is not None:
        for r, ds in enumerate(imputed):
            km_imp = km_estimate(ds, honor_entry=honor_entry).truncated(cutoff)
            out.append(km_imp.to_series(
                f"imputed_{r}", "imputed", xmax=cutoff, hint_color="#e34a33"))
    km_obs = km_estimate(data, honor_entry=honor_entry)
    out.append(km_obs.to_series("observed", "observed", xmax=float(np.max(data.time))))
    return out


# ---------------------------------------------------------------------------
# intervals plot


def intervals_data(
    observed,
    predictive_draws,
    prob_inner: float = 0.5,
    prob_outer: float = 0.9,
    imputed_flags=None,
) -> PlotSeries:
    """Observations vs central predictive intervals.

    Quantiles use linear interpolation of order statistics (type 7), the
    numpy default, so outputs are pinned and bit-reproducible.
    """
    y = np.asarray(observed, dtype=float)
    draws = np.asarray(predictive_draws, dtype=float)
    if draws.ndim != 2 or draws.shape[1] != y.size:
        raise CheckError("predictive draws must be (S, n)")
    if draws.shape[0] < 20:
        raise CheckError("need at least 20 draws per observation")
    if not (0 < prob_inner < 1 and 0 < prob_outer < 1):
        raise CheckError("interval probabilities must be in (0, 1)")
    if prob_inner > prob_outer:
        raise CheckError("inner interval cannot exceed the outer one")
    qs = np.quantile(
        draws,
        [0.5 - prob_outer / 2, 0.5 - prob_inner / 2, 0.5,
         0.5 + prob_inner / 2, 0.5 + prob_outer / 2],
        axis=0,
        method="linear",
    )
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
        {"role": "predictive", "prob_inner": prob_inner, "prob_outer": prob_outer},
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


def simultaneous_envelope(sims: np.ndarray, level: float, tol: float = 1e-4):
    """Pointwise-quantile envelope adjusted for simultaneous coverage.

    Bisects the pointwise tail level gamma until the fraction of simulated
    replicate curves lying entirely inside [q_{gamma/2}, q_{1-gamma/2}] is
    at least ``level``.  Returns (lower, upper, gamma).
    """
    sims = np.asarray(sims, dtype=float)
    if not 0 < level < 1:
        raise CheckError("level must be in (0, 1)")

    def coverage(gamma):
        lo = np.quantile(sims, gamma / 2, axis=0)
        hi = np.quantile(sims, 1 - gamma / 2, axis=0)
        inside = np.all((sims >= lo - 1e-12) & (sims <= hi + 1e-12), axis=1)
        return inside.mean(), lo, hi

    lo_g, hi_g = 0.0, 1.0 - level
    best = coverage(lo_g)
    if best[0] < level:  # even the min/max hull fails: keep it anyway
        return best[1], best[2], lo_g
    cov_hi = coverage(hi_g)
    if cov_hi[0] >= level:
        return cov_hi[1], cov_hi[2], hi_g
    while hi_g - lo_g > tol * (1.0 - level):
        mid = 0.5 * (lo_g + hi_g)
        cov = coverage(mid)
        if cov[0] >= level:
            lo_g, best = mid, cov
        else:
            hi_g = mid
    return best[1], best[2], lo_g


def simulate_pit_ecdfs(n: int, n_draws: int, n_sim: int, rng) -> np.ndarray:
    """Replicate PIT-ECDF curves under a well-calibrated model.

    For continuous data, the count of draws <= the observation is uniform on
    {0..S}, so calibrated PIT values live on the S-lattice k/S.
    """
    grid = np.arange(1, n + 1) / n
    sims = np.empty((n_sim, n))
    for r in range(n_sim):
        pit = rng.integers(0, n_draws + 1, size=n) / n_draws
        sims[r] = ecdf_on_grid(pit, grid)
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
    """Isotonic least-squares fit of a sequence by pool-adjacent-violators.

    Single left-to-right pass with a block stack: amortized O(n).
    """
    y = np.asarray(values, dtype=float)
    w = np.ones_like(y) if weights is None else np.asarray(weights, dtype=float)
    # blocks as (weighted mean, weight, count)
    means, wts, counts = [], [], []
    for yi, wi in zip(y, w):
        means.append(float(yi))
        wts.append(float(wi))
        counts.append(1)
        while len(means) > 1 and means[-2] >= means[-1]:
            m2, w2, c2 = means.pop(), wts.pop(), counts.pop()
            m1, w1, c1 = means.pop(), wts.pop(), counts.pop()
            wt = w1 + w2
            means.append((m1 * w1 + m2 * w2) / wt)
            wts.append(wt)
            counts.append(c1 + c2)
    out = np.empty_like(y)
    pos = 0
    for m, c in zip(means, counts):
        out[pos : pos + c] = m
        pos += c
    return out


def _pooled_pav(inverse: np.ndarray, counts: np.ndarray, z_sorted: np.ndarray) -> np.ndarray:
    """Weighted PAV over distinct predictions, expanded back per point."""
    sums = np.bincount(inverse, weights=z_sorted)
    fit = pav_isotonic(sums / counts, counts.astype(float))
    return fit[inverse]


def pav_cep(predictions, outcomes) -> CalibrationCurve:
    """Conditional event probabilities via PAV.

    Outcomes are sorted by predicted probability (stable, ties by original
    index); tied predictions are pooled so the CEP is a function of the
    predicted probability, and the pooled blocks are isotonically regressed.
    """
    p = np.asarray(predictions, dtype=float)
    z = np.asarray(outcomes, dtype=float)
    if p.size != z.size or p.size == 0:
        raise CheckError("predictions and outcomes must align and be nonempty")
    if np.any((p < 0) | (p > 1)):
        raise CheckError("predictions must lie in [0, 1]")
    order = np.argsort(p, kind="stable")
    p_sorted = p[order]
    uniq, inverse, counts = np.unique(p_sorted, return_inverse=True, return_counts=True)
    ceps = _pooled_pav(inverse, counts, z[order])
    masses = {float(u): int(c) for u, c in zip(uniq, counts)}
    return CalibrationCurve(p_sorted, ceps, masses)


def calibration_band(
    predictions, level: float = 0.95, n_sim: int = 1000, seed: int = 0
) -> tuple[BandSeries, PlotSeries]:
    """Consistency band for the PAV calibration curve, plus density dots.

    Outcomes are simulated under perfect calibration (z ~ Bernoulli(p)),
    the PAV curve recomputed per replicate, and the pointwise quantile
    envelope widened by the same gamma-search as the PIT-ECDF band.  Dot
    sizes are the point masses of the distinct predictions, normalized.
    """
    p = np.asarray(predictions, dtype=float)
    if np.any((p < 0) | (p > 1)) or p.size == 0:
        raise CheckError("predictions must lie in [0, 1]")
    order = np.argsort(p, kind="stable")
    p_sorted = p[order]
    _, inverse, counts = np.unique(p_sorted, return_inverse=True, return_counts=True)
    rng = np.random.default_rng(seed)
    sims = np.empty((n_sim, p.size))
    for r in range(n_sim):
        z = (rng.random(p.size) < p_sorted).astype(float)
        sims[r] = _pooled_pav(inverse, counts, z)
    lower, upper, gamma = simultaneous_envelope(sims, level)
    band = BandSeries(p_sorted, lower, upper, level, pointwise_gamma=gamma)
    uniq, counts = np.unique(p, return_counts=True)
    sizes = counts / counts.max()
    dots = PlotSeries("prediction_density", "points",
                      {"x": uniq, "y": np.zeros_like(uniq), "size": sizes},
                      {"role": "predictive"})
    return band, dots


def calibration_check(
    predictions, outcomes, level: float = 0.95, n_sim: int = 1000, seed: int = 0,
    zoom_mass: float | None = None,
) -> tuple[list[PlotSeries], bool]:
    """PAV calibration bundle: curve, identity line, band, dots, zoom hint."""
    curve = pav_cep(predictions, outcomes)
    band, dots = calibration_band(predictions, level, n_sim, seed)
    inside = band.contains(curve.ceps)
    meta = {"inside_band": bool(inside)}
    if zoom_mass is not None:
        meta["zoom_region"] = list(zoom_region(predictions, zoom_mass))
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
    """Smallest interval anchored at the dense end holding >= ``mass``.

    Anchored at 0 when predictions concentrate low (median <= 0.5), at 1
    otherwise, matching the zoomed calibration plot for unbalanced data.
    """
    p = np.asarray(predictions, dtype=float)
    if p.size == 0:
        raise CheckError("no predictions")
    mass = min(max(mass, 0.0), 1.0)
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
