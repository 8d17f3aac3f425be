"""End-to-end experiments reproducing the case-study figures and claims.

``timescale_experiment`` regenerates the two-cluster pointwise-elpd
histograms: rescaling event times moves the density-scored (event) cluster
by exactly log c while the probability-scored (censored) cluster stays put,
and interval-discretized matrices are invariant entirely.

``hazard_curves_experiment`` fits the three case-study models to a
synthetic cohort and predicts hazard / recurrence-probability curves for
one example patient with and without treatment: constant hazard for the
exponential model, monotone for the Weibull, and a jump right after
treatment stops for the discrete-time model.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .checks import calibration_check, dichotomize_outcomes, interval_outcomes, km_overlay
from .data import (
    DataError,
    DrawsMatrix,
    SurvivalDataset,
    TimeGrid,
    TreatmentRule,
    apply_scaling,
    require_counts,
    rescale_time,
    scale_covariates,
    settings,
)
from .loo import _bernoulli_loglik, compare, elpd_loo, loglik_matrix, psis_smooth
from .models import (
    ModelDesign,
    ModelError,
    ModelSpec,
    cdf,
    get_preset,
    hazard,
    impute_censored,
    log_survival,
    posterior_predictive_times,
    preset_exponential_gist,
    preset_weibull_gist,
    subject_params,
)
from .sampler import SamplerConfig, SamplerConfigError, _run_jobs, diagnose, fit
from .series import PlotSeries
from .simulate import ScenarioConfig, simulate_scenario

CONTINUOUS_COVARIATES = ("Size", "AgeAtSurg", "MitHPF")
# the time-scale experiment passes when every deviation it asserts is within this
_TIMESCALE_TOL = 1e-10

# the worked example patient: treated three years, event at year five
EXAMPLE_PATIENT = {
    "Size": 75.0,
    "AgeAtSurg": 64.0,
    "MitHPF": 13.0,
    "GenderMale": 0.0,
    "Rupture": 0.0,
    "Gastric": 1.0,
}


# ---------------------------------------------------------------------------
# time-scale experiment


def map_draws_to_scale(draws: DrawsMatrix, c: float) -> DrawsMatrix:
    """Exact reparameterization matching a time rescale t -> t/c.

    Both families are mean-parameterised through log(mu) = eta, so dividing
    times by c maps mu -> mu/c, i.e. the intercept shifts by -log c; every
    other parameter (covariate effects, Weibull shape) is unchanged.
    """
    return draws.with_column("b_Intercept", draws.column("b_Intercept") - math.log(c))


def timescale_experiment(
    factor: float = 30.0,
    n_subjects: int = 150,
    seed: int = 77,
    sampler: SamplerConfig | None = None,
) -> dict:
    """Fit a Weibull model on day-scale data and rescale to months.

    Returns histogram data for the pointwise elpds on both scales plus the
    exact per-point assertions, and the invariance of the interval-mode
    comparison between the exponential and Weibull models.
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n_subjects)
    true_t = rng.weibull(1.4, size=n_subjects) * 600.0 * np.exp(0.3 * x)
    censor_at = 900.0
    times = np.minimum(true_t, censor_at)
    status = np.where(true_t > censor_at, "right_censored", "event").astype(object)
    data = SurvivalDataset(np.arange(1, n_subjects + 1), np.zeros(n_subjects),
                           times, status, {"x": x}, time_unit="days")
    sampler = sampler or SamplerConfig(n_warmup=800, n_keep=500, seed=seed)
    spec_w = ModelSpec(family="weibull_aft", fixed=("x",), name="weibull")
    spec_e = ModelSpec(family="exponential", fixed=("x",), name="exponential")
    fit_w, fit_e = _run_jobs(fit, [(spec_w, data, sampler), (spec_e, data, sampler)])
    design, design_e = fit_w.design, fit_e.design

    scaled = rescale_time(data, factor, time_unit="months")
    draws_w2 = map_draws_to_scale(fit_w.draws, factor)
    draws_e2 = map_draws_to_scale(fit_e.draws, factor)

    raw1 = loglik_matrix(spec_w, design, fit_w.draws, data, mode="raw")
    raw2 = loglik_matrix(spec_w, design, draws_w2, scaled, mode="raw")
    pw1 = elpd_loo(raw1, psis_smooth(raw1)).pointwise
    pw2 = elpd_loo(raw2, psis_smooth(raw2)).pointwise
    is_event = np.array([t == "density" for t in raw1.tags])

    cens_dev = float(np.max(np.abs(pw2[~is_event] - pw1[~is_event])))
    event_dev = float(np.max(np.abs(pw2[is_event] - pw1[is_event] - math.log(factor))))

    grid = TimeGrid(30.0, 40)
    inter_w1 = loglik_matrix(spec_w, design, fit_w.draws, data, "interval", grid=grid)
    inter_w2 = loglik_matrix(spec_w, design, draws_w2, scaled, "interval", grid=grid.scaled(factor))
    inter_e1 = loglik_matrix(spec_e, design_e, fit_e.draws, data, "interval", grid=grid)
    inter_e2 = loglik_matrix(spec_e, design_e, draws_e2, scaled, "interval", grid=grid.scaled(factor))
    inter_dev = float(np.max(np.abs(inter_w2.values - inter_w1.values)))

    comp1 = compare([elpd_loo(inter_w1, name="weibull"), elpd_loo(inter_e1, name="exponential")])
    comp2 = compare([elpd_loo(inter_w2, name="weibull"), elpd_loo(inter_e2, name="exponential")])
    comp_dev = max(
        abs(r1["delta_elpd"] - r2["delta_elpd"]) + abs(r1["se_delta"] - r2["se_delta"])
        for r1, r2 in zip(comp1.rows, comp2.rows)
    )
    same_order = [r["model"] for r in comp1.rows] == [r["model"] for r in comp2.rows]

    return {
        "factor": factor,
        "seed": seed,
        "n_subjects": n_subjects,
        "pointwise": {
            "original": pw1.tolist(),
            "rescaled": pw2.tolist(),
            "censored": (~is_event).astype(int).tolist(),
        },
        "assertions": {
            "censored_max_abs_change": cens_dev,
            "event_max_abs_dev_from_log_factor": event_dev,
            "interval_matrix_max_abs_change": inter_dev,
            "comparison_max_abs_change": float(comp_dev),
            "comparison_order_unchanged": bool(same_order),
            "log_factor": math.log(factor),
            "tolerance": _TIMESCALE_TOL,
            "passed": bool(all(dev <= _TIMESCALE_TOL
                               for dev in (cens_dev, event_dev, inter_dev, comp_dev))
                           and same_order),
        },
        "comparison_original": comp1.to_dict(),
        "comparison_rescaled": comp2.to_dict(),
    }


# ---------------------------------------------------------------------------
# hazard-curves experiment


def _quantile_curves(values: np.ndarray, x: np.ndarray, name: str, level: float = 0.95):
    """Median and central-interval series from (n_x, S) draws of a curve."""
    lo, med, hi = np.quantile(values, [(1 - level) / 2, 0.5, (1 + level) / 2], axis=1)
    return {
        "x": x.tolist(),
        "median": med.tolist(),
        "lower": lo.tolist(),
        "upper": hi.tolist(),
        "name": name,
        "level": level,
    }


def hazard_curves_experiment(
    scenario: ScenarioConfig | None = None,
    sampler: SamplerConfig | None = None,
) -> dict:
    """Predicted hazard / recurrence curves for the example patient.

    Fits the exponential, Weibull AFT (both with a treatment indicator) and
    discrete-time Bernoulli models to a synthetic cohort, then predicts the
    treated and untreated curves for one patient.

    The three fits run at once, each in a forked worker process that holds
    its fit's draws (``sampler._run_jobs``; one after another in this
    process where there is no ``fork`` or inside a worker).  Each keeps its
    seed, so the results are bit for bit those of one process.
    """
    scenario = scenario or ScenarioConfig()
    sampler = sampler or SamplerConfig(n_warmup=2500, n_keep=750, seed=scenario.seed + 1)
    short_scaled, long_scaled, record, specs, bern = _case_study(scenario)

    results = {"scenario": scenario.to_dict(), "sampler": asdict(sampler),
               "patient": dict(EXAMPLE_PATIENT), "curves": {}, "diagnostics": {}}

    *fits, res_b = _run_jobs(fit, [*((spec, short_scaled, sampler) for spec in specs),
                                   (bern, long_scaled, sampler)])
    t_grid = np.linspace(0.25, float(scenario.max_follow_up), 40)
    for spec, res in zip(specs, fits):
        results["diagnostics"][spec.name] = diagnose(res)
        for treated in (1.0, 0.0):
            covs = record.apply({**EXAMPLE_PATIENT, "AdjTreatm": treated})
            params = subject_params(spec, res.design, res.draws, covs, n_rows=1)
            haz = hazard(spec.family, params, t_grid[:, None])  # (n_t, S)
            label = "treated" if treated else "untreated"
            results["curves"][f"{spec.name}_{label}"] = _quantile_curves(
                haz, t_grid, f"{spec.name} hazard ({label})")

    results["diagnostics"][bern.name] = diagnose(res_b)
    years = np.arange(1, scenario.max_follow_up + 1, dtype=float)
    rule = TreatmentRule(duration=float(scenario.treatment_duration))
    for treated in (1.0, 0.0):
        rows = rule.rows({**EXAMPLE_PATIENT, "AdjTreatm": treated}, scenario.max_follow_up)
        p = subject_params(bern, res_b.design, res_b.draws, record.apply(rows))["p"]  # (n_years, S)
        label = "treated" if treated else "untreated"
        results["curves"][f"bernoulli-gist_{label}"] = _quantile_curves(
            p, years, f"recurrence probability ({label})")

    exp_tr = results["curves"]["exponential-gist_treated"]["median"]
    wei_tr = results["curves"]["weibull-gist_treated"]["median"]
    bern_tr = results["curves"]["bernoulli-gist_treated"]["median"]
    diffs = np.diff(wei_tr)
    results["assertions"] = {
        "exponential_hazard_constant": bool(
            np.max(exp_tr) - np.min(exp_tr) <= 1e-10 * max(np.max(exp_tr), 1e-300)),
        "weibull_hazard_monotone": bool(np.all(diffs >= -1e-12) or np.all(diffs <= 1e-12)),
        "bernoulli_jump_after_treatment": bool(
            bern_tr[int(scenario.treatment_duration)] > bern_tr[int(scenario.treatment_duration) - 1]),
        "bernoulli_median_year3": float(bern_tr[2]),
        "bernoulli_median_year4": float(bern_tr[3]),
    }
    results["assertions"]["passed"] = all(
        results["assertions"][k] for k in
        ("exponential_hazard_constant", "weibull_hazard_monotone",
         "bernoulli_jump_after_treatment")
    )
    return results


def _case_study(scenario: ScenarioConfig) -> tuple:
    """The case study's cohort and models: (short, long, scaling record,
    continuous specs, Bernoulli spec).  The data holds ``scenario``'s cohort
    with its continuous covariates scaled; the exponential and Weibull
    presets carry the treatment as a plain indicator."""
    long, short = simulate_scenario(scenario)
    short_scaled, record = scale_covariates(short, CONTINUOUS_COVARIATES)
    specs = (preset_exponential_gist(extra_fixed=("AdjTreatm",)),
             preset_weibull_gist(extra_fixed=("AdjTreatm",)))
    return (short_scaled, apply_scaling(long, record), record, specs,
            get_preset("bernoulli-gist"))


def curves_to_series(curves: dict) -> list[PlotSeries]:
    out = []
    for key, c in curves.items():
        out.append(PlotSeries(key, "band",
                              {"x": c["x"], "lower": c["lower"], "upper": c["upper"]},
                              {"role": "band", "level": c["level"]}))
        out.append(PlotSeries(f"{key}_median", "points",
                              {"x": c["x"], "y": c["median"]},
                              {"role": "observed", "label": c["name"]}))
    return out


# ---------------------------------------------------------------------------
# calibration inputs


def calibration_inputs(spec: ModelSpec, design: ModelDesign, draws, data,
                       horizon: float | None = None, interval: int | None = None,
                       grid: TimeGrid | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Posterior-mean event probabilities and the binary outcomes they predict.

    A Bernoulli model predicts the outcome of each long-format row, or with
    ``interval`` of the rows with that interval index.  A continuous model
    predicts, with ``interval``, the event inside that ``grid`` interval for
    the subjects at risk at its start, P(event in (a, b] | alive at a);
    otherwise the event by ``horizon``, F(horizon).  Subjects whose outcome
    is unknowable are left out (see ``checks.interval_outcomes``).  A
    ``horizon`` it would not use (Bernoulli, or with ``interval``) is refused.

    Its callers are ``survcheck check calibration``, the tests and the
    golden-output tool; ``run_pipeline`` takes the Bernoulli model's
    posterior means from the worker that fitted it.
    """
    if horizon is not None and (spec.family == "bernoulli_logit" or interval is not None):
        raise ModelError("a horizon is only for a continuous model without an interval")
    if spec.family == "bernoulli_logit":
        rows = slice(None) if interval is None else data.interval_index == interval
        outcomes = data.outcome[rows]
        covs = {name: col[rows] for name, col in data.covariates.items()}
        p = subject_params(spec, design, draws, covs, n_rows=outcomes.size)["p"]
        return p.mean(axis=1), outcomes
    if interval is not None:
        if grid is None:
            raise ModelError("a per-interval calibration needs a grid")
        a, b = (float(x) for x in grid.bounds(interval))
        outcomes, keep, _ = interval_outcomes(data, a, b)
        params = subject_params(spec, design, draws, data.covariates, n_rows=data.n)
        p = -np.expm1(log_survival(spec.family, params, b) - log_survival(spec.family, params, a))
    elif horizon is not None:
        outcomes, keep, _ = dichotomize_outcomes(data, horizon)
        params = subject_params(spec, design, draws, data.covariates, n_rows=data.n)
        p = cdf(spec.family, params, horizon)
    else:
        raise ModelError("calibration for continuous families needs a horizon or an interval")
    return p[keep].mean(axis=1), outcomes


# ---------------------------------------------------------------------------
# whole-pipeline driver (simulate -> fit -> check -> compare)


@dataclass(frozen=True)
class PipelineConfig:
    """The settings of ``run_pipeline``; the seed defaults to the scenario's + 9."""

    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    horizon: float = 5.0
    seed: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise DataError(f"horizon must be finite and > 0, got {self.horizon!r}")
        if self.seed is not None:
            require_counts(self, DataError, (), ("seed",))


def run_pipeline(config: dict) -> dict:
    """One-command case-study reproduction; returns a results dict.

    Config keys (all optional): scenario {...}, sampler {...}, horizon
    (finite and > 0), seed; anything else is a DataError.  Every setting is
    checked before anything is simulated.  The pipeline simulates the
    cohort, fits the three models, runs the recommended checks for each,
    and compares them on the probability scale (interval mode) plus the
    dichotomized task for the continuous pair.

    The three models are fitted and scored by PSIS-LOO at once, each in a
    forked worker process that holds its fit's draws and log-lik matrices
    (``sampler._run_jobs``; one after another in this process where there
    is no ``fork`` or inside a worker).  Each worker returns its fit, its
    PSIS-LOO reports and, for the Bernoulli model, the posterior-mean event
    probability of every long-format row, taken from the draws x rows
    probabilities its log-lik is scored from (``_pipeline_job``), so no
    draws x rows matrix is built here.  The checks that draw from the
    pipeline's RNG (predictive times, imputations, the calibration band's
    seed) then run here in a fixed order, so the results are bit for bit
    those of one process.
    """
    pipeline = settings(
        PipelineConfig, config, DataError, scenario=ScenarioConfig.from_dict, horizon=float,
        sampler=lambda d: settings(SamplerConfig, d, SamplerConfigError))
    scenario, sampler, horizon = pipeline.scenario, pipeline.sampler, pipeline.horizon
    rng = np.random.default_rng(scenario.seed + 9 if pipeline.seed is None else pipeline.seed)

    short_scaled, long_scaled, _, specs, bern = _case_study(scenario)
    grid = TimeGrid(1.0, scenario.max_follow_up)

    out = {"config": {"scenario": scenario.to_dict(), "sampler": asdict(sampler),
                      "horizon": horizon},
           "checks": {}, "diagnostics": {}}

    jobs = [*((spec, short_scaled, sampler, grid, horizon) for spec in specs),
            (bern, long_scaled, sampler, None, None)]
    done = _run_jobs(_pipeline_job, jobs)
    for (spec, *_), (res, *_) in zip(jobs, done):
        out["diagnostics"][spec.name] = diagnose(res)
    *models, (_, reports_b, p_mean) = done

    for spec, (res, *_) in zip(specs, models):
        sims = posterior_predictive_times(spec, res.design, res.draws, short_scaled, rng,
                                          n_draws=50)
        imputed = impute_censored(spec, res.design, res.draws, short_scaled, rng,
                                  n_imputations=10)
        bundle = km_overlay(short_scaled, sims, cutoff_factor=1.2, imputed=imputed)
        out["checks"][f"km_overlay_{spec.name}"] = [s.to_dict() for s in bundle]

    series, inside = calibration_check(p_mean, long_scaled.outcome,
                                       seed=int(rng.integers(2**31)), zoom_mass=0.9)
    out["checks"]["calibration_bernoulli-gist"] = [s.to_dict() for s in series]
    out["checks"]["calibration_inside_band"] = bool(inside)

    out["compare_interval"] = compare([reports[0] for _, reports, _ in models]
                                      + reports_b).to_dict()
    out["compare_dichotomized"] = compare([reports[1] for _, reports, _ in models]).to_dict()
    return out


def _pipeline_job(spec: ModelSpec, data, sampler: SamplerConfig, grid, horizon) -> tuple:
    """Fit one of ``run_pipeline``'s models: (fit, PSIS-LOO reports,
    posterior-mean row probabilities).  A continuous model's reports are in
    interval mode and dichotomized at ``horizon``, and it has no row
    probabilities (None).  A Bernoulli model's one interval-mode report and
    its (n_rows,) posterior means come from one draws x rows matrix of row
    probabilities."""
    res = fit(spec, data, sampler)
    if spec.family == "bernoulli_logit":
        p = subject_params(spec, res.design, res.draws, data.covariates, n_rows=data.n_rows)["p"]
        loglik, p_mean = _bernoulli_loglik(data, p), p.mean(axis=1)
        del p  # freed before PSIS
        return res, [elpd_loo(loglik, name=spec.name)], p_mean
    scoring = ({"mode": "interval", "grid": grid}, {"mode": "dichotomized", "horizon": horizon})
    return res, [elpd_loo(loglik_matrix(spec, res.design, res.draws, data, **kw),
                          name=spec.name) for kw in scoring], None
