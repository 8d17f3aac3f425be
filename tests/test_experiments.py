import math

import numpy as np
import pytest

from survcheck.checks import calibration_check
from survcheck.data import (
    DrawsMatrix,
    SurvivalDataset,
    TimeGrid,
    apply_scaling,
    scale_covariates,
)
from survcheck.experiments import CONTINUOUS_COVARIATES, calibration_inputs, run_pipeline
from survcheck.models import ModelDesign, ModelError, ModelSpec, get_preset
from survcheck.sampler import SamplerConfig, fit
from survcheck.simulate import ScenarioConfig, simulate_scenario

PIPELINE = {
    "scenario": {"n_subjects": 50, "seed": 13},
    "sampler": {"n_chains": 2, "n_warmup": 150, "n_keep": 100, "seed": 9},
    "horizon": 5,
}


def test_calibration_inputs_give_the_pipeline_bernoulli_predictions():
    results = run_pipeline(PIPELINE)
    long, short = simulate_scenario(ScenarioConfig.from_dict(PIPELINE["scenario"]))
    _, record = scale_covariates(short, CONTINUOUS_COVARIATES)
    long_scaled = apply_scaling(long, record)
    spec = get_preset("bernoulli-gist")
    draws = fit(spec, long_scaled, SamplerConfig(**PIPELINE["sampler"])).draws
    predictions, outcomes = calibration_inputs(
        spec, ModelDesign(spec, long_scaled.covariates), draws, long_scaled)
    assert np.array_equal(outcomes, long_scaled.outcome)
    # the curve and the prediction dots depend on the predictions only, not on
    # the seed of the simulated band
    series, _ = calibration_check(predictions, outcomes)
    expected = {s.name: s.to_dict()["data"] for s in series}
    got = {s["name"]: s["data"] for s in results["checks"]["calibration_bernoulli-gist"]}
    for name in ("calibration_curve", "prediction_density"):
        assert got[name] == expected[name]


class TestContinuousCalibrationInputs:
    def setup_method(self):
        self.spec = ModelSpec(family="exponential")
        self.design = ModelDesign(self.spec, {})
        # means 2 and 4, i.e. rates 1/2 and 1/4
        self.draws = DrawsMatrix(np.log([[2.0], [4.0]]), ("b_Intercept",))
        self.data = SurvivalDataset(
            [1, 2, 3, 4, 5], np.zeros(5), [0.5, 1.5, 1.8, 4.0, 2.5],
            ["event", "event", "right_censored", "right_censored", "event"], {})

    def test_event_by_horizon(self):
        p, z = calibration_inputs(self.spec, self.design, self.draws, self.data, horizon=3.0)
        assert z.tolist() == [1, 1, 0, 1]  # subject 3, censored at 1.8, is left out
        expected = np.mean([-math.expm1(-3.0 / 2.0), -math.expm1(-3.0 / 4.0)])
        np.testing.assert_allclose(p, expected, rtol=1e-14)

    def test_event_in_grid_interval_given_at_risk(self):
        p, z = calibration_inputs(self.spec, self.design, self.draws, self.data,
                                  interval=2, grid=TimeGrid(1.0, 10))
        assert z.tolist() == [1, 0, 0]  # at risk at 1: subjects 2, 4 and 5
        # memoryless: P(event in (1, 2] | alive at 1) = 1 - exp(-rate)
        expected = np.mean([-math.expm1(-0.5), -math.expm1(-0.25)])
        np.testing.assert_allclose(p, expected, rtol=1e-14)

    def test_needs_horizon_or_interval_with_grid(self):
        with pytest.raises(ModelError, match="horizon or an interval"):
            calibration_inputs(self.spec, self.design, self.draws, self.data)
        with pytest.raises(ModelError, match="grid"):
            calibration_inputs(self.spec, self.design, self.draws, self.data, interval=2)

    def test_horizon_it_would_not_use_refused(self):
        # with an interval the horizon was dropped, and a Bernoulli model never
        # reads one: both ran as if it were not given
        with pytest.raises(ModelError, match="only for a continuous model without an interval"):
            calibration_inputs(self.spec, self.design, self.draws, self.data, horizon=3.0,
                               interval=2, grid=TimeGrid(1.0, 10))
        long, _ = simulate_scenario(ScenarioConfig(n_subjects=10, seed=2))
        spec = ModelSpec(family="bernoulli_logit", fixed=("AdjOn",))
        design = ModelDesign(spec, long.covariates)
        draws = DrawsMatrix(np.zeros((2, 2)), design.parameter_names)
        with pytest.raises(ModelError, match="only for a continuous model without an interval"):
            calibration_inputs(spec, design, draws, long, horizon=5.0)
