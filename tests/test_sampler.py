import math

import numpy as np
import pytest

from survcheck.data import SurvivalDataset
from survcheck.models import ModelError, ModelSpec, get_preset, log_lik_point
from survcheck.sampler import (
    PosteriorModel,
    SamplerConfig,
    SamplingError,
    bulk_ess,
    diagnose,
    fit,
    sample_posterior,
    split_rhat,
)
from survcheck.simulate import ScenarioConfig, simulate_scenario


def exp_dataset(rng, n=50, rate=0.5, censor_at=None):
    times = rng.exponential(1 / rate, size=n)
    status = np.full(n, "event", dtype=object)
    if censor_at is not None:
        cens = times > censor_at
        times = np.minimum(times, censor_at)
        status[cens] = "right_censored"
    return SurvivalDataset(np.arange(1, n + 1), np.zeros(n), times, status, {})


class TestLogPosterior:
    def test_zero_data_equals_log_prior(self):
        data = SurvivalDataset(np.array([], dtype=int), [], [], np.array([], dtype=object), {})
        post = PosteriorModel(ModelSpec(family="exponential"), data)
        x = np.array([1.7])
        assert post.log_posterior(x) == pytest.approx(post.log_prior(x), abs=1e-14)

    def test_doubling_data_doubles_loglik(self):
        rng = np.random.default_rng(0)
        data = exp_dataset(rng, n=20)
        doubled = SurvivalDataset(
            np.arange(1, 41), np.zeros(40),
            np.concatenate([data.time, data.time]),
            np.concatenate([data.status, data.status]), {},
        )
        spec = ModelSpec(family="exponential")
        p1 = PosteriorModel(spec, data)
        p2 = PosteriorModel(spec, doubled)
        x = np.array([0.9])
        assert p2.log_likelihood(x) == pytest.approx(2 * p1.log_likelihood(x), rel=1e-12)

    def test_term_by_term_oracle(self):
        # independent summation over records via log_lik_point
        rng = np.random.default_rng(1)
        data = exp_dataset(rng, n=30, censor_at=2.5)
        spec = ModelSpec(family="weibull_aft")
        post = PosteriorModel(spec, data)
        x = np.array([0.4, math.log(1.3)])  # intercept, log shape
        mu = math.exp(0.4)
        by_hand = sum(
            log_lik_point("weibull_aft", {"shape": 1.3, "mean": mu}, data.row(i))[0]
            for i in range(data.n)
        )
        assert post.log_likelihood(x) == pytest.approx(by_hand, abs=1e-12)
        assert post.log_posterior(x) == pytest.approx(by_hand + post.log_prior(x), abs=1e-12)

    def test_out_of_support_is_minus_inf(self):
        rng = np.random.default_rng(2)
        post = PosteriorModel(ModelSpec(family="exponential"), exp_dataset(rng, n=5))
        assert post.log_posterior(np.array([np.nan])) == -np.inf
        assert post.log_posterior(np.array([1e308])) == -np.inf

    def test_rejects_wrong_data_type(self):
        # the data type is checked before the design is built from its covariates
        long, short = simulate_scenario(ScenarioConfig(n_subjects=30, seed=5))
        with pytest.raises(ModelError, match="long-format"):
            PosteriorModel(get_preset("bernoulli-gist"), short)
        with pytest.raises(ModelError, match="short-format"):
            PosteriorModel(get_preset("exponential-gist"), long)
        with pytest.raises(ModelError, match="short-format"):
            PosteriorModel(ModelSpec(family="exponential"), {"x": np.ones(3)})

    def test_presets_finite_at_init(self):
        long, short = simulate_scenario(ScenarioConfig(n_subjects=80, seed=5))
        for name, data in [("bernoulli-gist", long), ("exponential-gist", short),
                           ("weibull-gist", short)]:
            post = PosteriorModel(get_preset(name), data)
            assert np.isfinite(post.log_posterior(post.init_point()))


class TestFit:
    def test_recovers_known_rate(self):
        rng = np.random.default_rng(3)
        theta = 0.5
        data = exp_dataset(rng, n=200, rate=theta)
        res = fit(ModelSpec(family="exponential"),
                  data, SamplerConfig(n_warmup=600, n_keep=600, seed=42))
        # theta = exp(-intercept)
        thetas = np.exp(-res.draws.column("b_Intercept"))
        assert abs(thetas.mean() - theta) < 3 * thetas.std(ddof=1)

    def test_same_seed_bit_identical(self):
        rng = np.random.default_rng(4)
        data = exp_dataset(rng, n=30)
        cfg = SamplerConfig(n_warmup=200, n_keep=200, seed=7)
        a = fit(ModelSpec(family="exponential"), data, cfg)
        b = fit(ModelSpec(family="exponential"), data, cfg)
        assert np.array_equal(a.draws.draws, b.draws.draws)
        assert np.array_equal(a.log_post, b.log_post)

    def test_bernoulli_intercept_against_grid_posterior(self):
        # fine-grid integration over the intercept is the oracle for E[p | y]
        from survcheck.data import LongDataset
        from survcheck.models import logistic as expit

        rng = np.random.default_rng(5)
        n = 120
        z = (rng.random(n) < 0.3).astype(int)
        long = LongDataset(np.arange(1, n + 1), np.ones(n, dtype=int), z, {})
        spec = ModelSpec(family="bernoulli_logit")
        post = PosteriorModel(spec, long)
        grid = np.linspace(-8, 8, 8001)
        logp = np.array([post.log_posterior(np.array([b])) for b in grid])
        w = np.exp(logp - logp.max())
        w /= np.trapezoid(w, grid)
        p_mean_grid = np.trapezoid(expit(grid) * w, grid)
        res = fit(spec, long, SamplerConfig(n_warmup=800, n_keep=1500, seed=11))
        p_draws = expit(res.draws.column("b_Intercept"))
        mc_se = p_draws.std(ddof=1) / math.sqrt(min(res.ess["b_Intercept"], p_draws.size))
        assert abs(p_draws.mean() - p_mean_grid) < 4 * mc_se + 1e-4

    def test_divergence_reported(self):
        def log_prob(x):
            # only a tiny ball around the init is allowed; wide proposals
            # always land outside, so every proposal is rejected
            return 0.0 if np.all(np.abs(x) < 1e-6) else -np.inf

        cfg = SamplerConfig(n_chains=1, n_warmup=100, n_keep=10, seed=0,
                            init_jitter=1e-8, init_proposal_scale=10.0)
        with pytest.raises(SamplingError) as err:
            sample_posterior(log_prob, 1, cfg)
        assert "window" in str(err.value)
        assert "iteration" in err.value.diagnostics

    def test_adaptation_freezes_after_warmup(self):
        rng = np.random.default_rng(6)
        data = exp_dataset(rng, n=40)
        cfg = SamplerConfig(n_warmup=300, n_keep=300, seed=1, adapt_window=50)
        res = fit(ModelSpec(family="exponential"), data, cfg)
        for chain_log in res.adaptation["chains"]:
            assert chain_log["last_update_iteration"] <= cfg.n_warmup
            assert chain_log["frozen_proposal_chol"].shape == (1, 1)


class TestDetailedBalance:
    def test_standard_normal_target(self):
        cfg = SamplerConfig(n_chains=4, n_warmup=1000, n_keep=10_000, seed=123)
        chains, _, rates, _ = sample_posterior(
            lambda x: float(-0.5 * x @ x), 1, cfg, init=np.zeros(1))
        draws = chains.reshape(-1)
        assert draws.size == 40_000
        assert abs(draws.mean()) < 0.05
        assert 0.9 < draws.var(ddof=1) < 1.1
        assert np.all(rates > 0.1)


class TestDiagnostics:
    def test_iid_normal_rhat_near_one(self):
        rng = np.random.default_rng(7)
        chains = rng.standard_normal((4, 2000))
        r = split_rhat(chains)
        assert 0.99 <= r <= 1.02
        assert bulk_ess(chains) > 2000

    def test_disjoint_constant_chains_flagged(self):
        chains = np.vstack([np.zeros(100), np.ones(100)])
        assert split_rhat(chains) == np.inf

    def test_duplicated_chain_between_variance_zero(self):
        rng = np.random.default_rng(8)
        one = rng.standard_normal(500)
        r_dup = split_rhat(np.vstack([one, one]))
        # within-halves variation only comes from the split, stays near 1
        assert r_dup < 1.05

    def test_diagnose_report(self):
        rng = np.random.default_rng(9)
        data = exp_dataset(rng, n=60)
        res = fit(ModelSpec(family="exponential"), data,
                  SamplerConfig(n_warmup=500, n_keep=500, seed=2))
        rep = diagnose(res)
        assert set(rep["rhat"]) == {"b_Intercept"}
        assert rep["ess"]["b_Intercept"] > 50
        assert rep["ok"] in (True, False)

    def test_single_chain_rhat_unavailable(self):
        rng = np.random.default_rng(10)
        data = exp_dataset(rng, n=30)
        res = fit(ModelSpec(family="exponential"), data,
                  SamplerConfig(n_chains=1, n_warmup=300, n_keep=300, seed=3))
        assert math.isnan(res.rhat["b_Intercept"])
        assert np.isfinite(res.ess["b_Intercept"])
