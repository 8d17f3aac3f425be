"""Predictive checking and comparison of Bayesian survival models.

Workflow in one breath: simulate or load survival data (`data`,
`simulate`), fit a small Bayesian model (`models`, `sampler`), check its
predictions with censoring-aware diagnostics (`checks`), and compare
models with PSIS-LOO on a sound probability scale (`loo`).  The `cli`
module wires the same pieces into the `survcheck` command.
"""

from .data import (
    DrawsMatrix,
    LongDataset,
    ScalingRecord,
    SurvivalDataset,
    TimeGrid,
    TreatmentRule,
    apply_scaling,
    expand_long,
    read_draws_csv,
    read_long_csv,
    read_short_csv,
    require_valid,
    rescale_time,
    scale_covariates,
    to_short_form,
    validate_dataset,
    validate_long,
    write_draws_csv,
    write_long_csv,
    write_short_csv,
)
from .models import (
    ModelDesign,
    ModelSpec,
    PriorSet,
    SmoothSpec,
    cdf,
    get_preset,
    hazard,
    impute_censored,
    posterior_predictive_times,
    sample_truncated,
    spline_basis,
    spline_knots,
)
from .sampler import FitResult, PosteriorModel, SamplerConfig, diagnose, fit
from .checks import (
    BandSeries,
    CalibrationCurve,
    StepFunction,
    calibration_band,
    calibration_check,
    dichotomize_outcomes,
    interval_outcomes,
    intervals_data,
    km_estimate,
    km_overlay,
    pav_cep,
    pit_ecdf_band,
    pit_ecdf_check,
    pit_values,
    zoom_region,
)
from .loo import (
    ComparisonReport,
    ElpdReport,
    LogLikMatrix,
    PsisResult,
    apply_refits,
    compare,
    elpd_loo,
    exact_refit_loo,
    flag_for_refit,
    group_long_by_subject,
    loglik_matrix,
    psis_smooth,
)
from .simulate import ScenarioConfig, gen_covariates, gen_events, scenario_report, simulate_scenario
from .series import PlotSeries, bundle_to_json, bundle_to_svg
from .experiments import calibration_inputs

__version__ = "0.1.0"
