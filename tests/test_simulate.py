import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survcheck.data import TimeGrid, expand_long, to_short_form, validate_dataset, validate_long
from survcheck.models import logistic
from survcheck.simulate import (
    CovariateGen,
    ScenarioConfig,
    SimulationError,
    gen_covariates,
    gen_events,
    hazard_logit,
    scenario_report,
    simulate_scenario,
)


class TestCovariates:
    def test_probability_zero_all_zeros(self):
        gen = CovariateGen("bernoulli", (0.0,))
        x = gen.sample(500, np.random.default_rng(0))
        assert np.all(x == 0)

    def test_binary_mean_matches_probability(self):
        cfg = ScenarioConfig(n_subjects=100_000, seed=1)
        covs = gen_covariates(cfg, np.random.default_rng(cfg.seed))
        p = cfg.covariates["GenderMale"].params[0]
        se = np.sqrt(p * (1 - p) / cfg.n_subjects)
        assert abs(covs["GenderMale"].mean() - p) < 3 * se

    def test_same_seed_identical(self):
        cfg = ScenarioConfig(n_subjects=50, seed=9)
        a = gen_covariates(cfg, np.random.default_rng(cfg.seed))
        b = gen_covariates(cfg, np.random.default_rng(cfg.seed))
        for name in a:
            assert np.array_equal(a[name], b[name])

    def test_bad_probability_rejected(self):
        with pytest.raises(SimulationError):
            CovariateGen("bernoulli", (1.5,)).sample(10, np.random.default_rng(0))

    @pytest.mark.parametrize("kind, params, message", [
        ("normal", (1.0,), "needs 2 'params'"),
        ("lognormal", (1.0, 2.0, 3.0), "needs 2 'params'"),
        ("bernoulli", (), "needs 1 'params'"),
        ("bernoulli", (-0.1,), "probability"),
        ("poisson", (1.0,), "unknown covariate generator 'poisson'"),
    ])
    def test_malformed_generator_rejected_when_built(self, kind, params, message):
        with pytest.raises(SimulationError, match=message):
            CovariateGen(kind, params)

    @pytest.mark.parametrize("pair", [(60.0,), (60.0, 0.0), (60.0, -4.0), (np.nan, 4.0),
                                      (60.0, np.inf), ("a", 4.0)])
    def test_standardize_needs_finite_center_and_positive_spread(self, pair):
        with pytest.raises(SimulationError, match="'standardize'"):
            ScenarioConfig(standardize={"Size": pair})


class TestEvents:
    def test_near_zero_hazard_all_censored(self):
        cfg = ScenarioConfig(n_subjects=60, seed=2,
                             coefficients={"intercept": -30.0}, tsa_scale=0.0)
        long, short = simulate_scenario(cfg)
        assert np.all(short.status == "right_censored")
        assert np.all(short.time == cfg.max_follow_up)

    def test_near_one_hazard_all_events_year_one(self):
        cfg = ScenarioConfig(n_subjects=60, seed=3,
                             coefficients={"intercept": 30.0}, tsa_scale=0.0)
        long, short = simulate_scenario(cfg)
        assert np.all(short.status == "event")
        assert np.all(short.time == 1.0)

    def test_yearly_event_fraction_matches_hazard(self):
        # simple scenario with only the intercept and treatment structure off
        cfg = ScenarioConfig(
            n_subjects=100_000, seed=4,
            coefficients={"intercept": -2.0}, tsa_scale=0.0,
            covariates={"AdjTreatm": CovariateGen("bernoulli", (0.0,))},
            standardize={},
        )
        rng = np.random.default_rng(cfg.seed)
        covs = gen_covariates(cfg, rng)
        long = gen_events(covs, cfg, rng)
        p = float(logistic(-2.0))
        for k in range(1, 6):
            rows = long.interval_index == k
            at_risk = int(rows.sum())
            frac = long.outcome[rows].mean()
            se = np.sqrt(p * (1 - p) / at_risk)
            assert abs(frac - p) < 3.5 * se

    def test_long_output_valid_and_round_trips(self):
        cfg = ScenarioConfig(n_subjects=120, seed=5)
        long, short = simulate_scenario(cfg)
        assert validate_long(long) == []
        assert validate_dataset(short) == []
        # expand/collapse round trip through the core transforms
        grid = TimeGrid(1.0, cfg.max_follow_up)
        back = to_short_form(expand_long(short, grid))
        assert np.array_equal(back.time, short.time)
        assert np.array_equal(back.status, short.status)

    def test_short_form_ranges(self):
        cfg = ScenarioConfig(n_subjects=200, seed=6)
        _, short = simulate_scenario(cfg)
        assert set(np.unique(short.time)) <= set(range(1, 11))
        assert set(short.status) <= {"event", "right_censored"}

    def test_treatment_effect_direction(self):
        # treated subjects have lower hazard during treatment years
        cfg = ScenarioConfig(n_subjects=50_000, seed=7)
        long, _ = simulate_scenario(cfg)
        y1 = long.interval_index == 1
        treated = long.covariates["AdjOn"] == 1
        frac_treated = long.outcome[y1 & treated].mean()
        frac_untreated = long.outcome[y1 & ~treated].mean()
        assert frac_treated < frac_untreated

    def test_untreated_tsa_counts_from_year_zero(self):
        cfg = ScenarioConfig(n_subjects=30, seed=8)
        long, _ = simulate_scenario(cfg)
        untreated = long.covariates["AdjTreatm"] == 0
        assert np.array_equal(
            long.covariates["TimeSinceAdjStopped"][untreated],
            long.covariates["Time"][untreated],
        )


def reference_events(covariates: dict, config: ScenarioConfig, u) -> list[tuple]:
    """``gen_events`` written out row by row from the uniforms ``u``: each
    subject's rows 1..last, the statics then Time, AdjOn and
    TimeSinceAdjStopped under the config's rule, and the outcome 1 on the
    last row if and only if the subject had the event."""
    rows = []
    for i in range(config.n_subjects):
        statics = {name: float(col[i]) for name, col in covariates.items()}
        duration = config.treatment_duration if statics.get("AdjTreatm", 0.0) != 0 else 0.0
        for k in range(1, config.max_follow_up + 1):
            on, since = float(k <= duration), max(0.0, k - duration)
            p = logistic(hazard_logit(config, {name: col[i:i + 1] for name, col in
                                               covariates.items()}, on, since))
            event = bool(u[i, k - 1] < p[0])
            rows.append((i + 1, k, int(event), [*statics.values(), float(k), on, since]))
            if event:
                break
    return rows


@settings(max_examples=80, deadline=None, derandomize=True)
@given(n=st.integers(1, 8), duration=st.integers(1, 4), extra=st.integers(0, 6),
       treated=st.booleans(), intercept=st.floats(-3.0, 0.5), seed=st.integers(0, 10**6))
def test_events_match_row_by_row_reference(n, duration, extra, treated, intercept, seed):
    covariates = ScenarioConfig().covariates
    if not treated:
        covariates = {k: v for k, v in covariates.items() if k != "AdjTreatm"}
    config = ScenarioConfig(n_subjects=n, covariates=covariates, treatment_duration=duration,
                            max_follow_up=min(duration + extra, 10), seed=seed,
                            coefficients={**ScenarioConfig().coefficients,
                                          "intercept": intercept})
    rng = np.random.default_rng(seed)
    covs = gen_covariates(config, rng)
    long = gen_events(covs, config, rng)
    replay = np.random.default_rng(seed)  # the uniforms gen_events drew
    gen_covariates(config, replay)
    expected = reference_events(covs, config, replay.random((n, config.max_follow_up)))
    assert list(long.covariates) == [*covs, "Time", "AdjOn", "TimeSinceAdjStopped"]
    assert long.static_names == tuple(covs) and long.time_unit == config.time_unit
    assert [(int(long.subject_id[r]), int(long.interval_index[r]), int(long.outcome[r]),
             [float(col[r]) for col in long.covariates.values()])
            for r in range(long.n_rows)] == expected


class TestHazardLogit:
    def test_post_treatment_jump(self):
        cfg = ScenarioConfig(n_subjects=1)
        covs = {name: np.array([0.0]) for name in
                ("GenderMale", "Rupture", "Gastric", "AdjTreatm")}
        during = hazard_logit(cfg, covs, adj_on=1.0, tsa=0.0)
        after = hazard_logit(cfg, covs, adj_on=0.0, tsa=1.0)
        later = hazard_logit(cfg, covs, adj_on=0.0, tsa=5.0)
        assert after > during        # the jump when treatment stops
        assert after > later         # and decay afterwards


class TestReport:
    def test_all_censored_fraction_one(self):
        cfg = ScenarioConfig(n_subjects=40, seed=10,
                             coefficients={"intercept": -30.0}, tsa_scale=0.0)
        _, short = simulate_scenario(cfg)
        rep = scenario_report(short)
        assert rep["censoring_fraction"] == 1.0

    def test_byte_identical_given_seed(self):
        cfg = ScenarioConfig(n_subjects=70, seed=11)
        a = scenario_report(simulate_scenario(cfg)[1])
        b = scenario_report(simulate_scenario(cfg)[1])
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_censoring_fraction_recount(self):
        cfg = ScenarioConfig(n_subjects=150, seed=12)
        _, short = simulate_scenario(cfg)
        rep = scenario_report(short)
        direct = sum(1 for s in short.status if s != "event") / short.n
        assert rep["censoring_fraction"] == pytest.approx(direct)

    def test_config_round_trip(self):
        cfg = ScenarioConfig(
            n_subjects=33, seed=13, treatment_duration=2, max_follow_up=7,
            covariates={"Size": CovariateGen("lognormal", (4.0, 0.5)),
                        "AdjTreatm": CovariateGen("bernoulli", (0.3,))},
            coefficients={"intercept": -2.0, "Size": 0.4}, standardize={"Size": (50, 30.5)})
        text = json.dumps(cfg.to_dict(), sort_keys=True)
        back = ScenarioConfig.from_dict(json.loads(text))
        assert back == cfg
        assert json.dumps(back.to_dict(), sort_keys=True) == text
