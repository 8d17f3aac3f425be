import math
import warnings
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survcheck.data import INTERVAL_CENSORED, LEFT_CENSORED, STATUSES, DataError, SurvivalDataset
from survcheck.models import (
    ModelError,
    ModelSpec,
    PriorSet,
    SmoothSpec,
    gamma,
    get_preset,
    half_student_t,
    normal,
    student_t,
)
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

import posterior_oracle
from pointwise_oracle import log_lik_point, row


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
            log_lik_point("weibull_aft", {"shape": 1.3, "mean": mu}, row(data, i))[0]
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


def all_statuses(short):
    """``short`` with every status, cycling through them; a left-censored
    record is censored at 1.5 t, an interval-censored one gets (0.5 t, 1.5 t)."""
    status = np.array([STATUSES[i % 4] for i in range(short.n)], dtype=object)
    time = short.time.copy()
    bounds = np.full((short.n, 2), np.nan)
    time[status == LEFT_CENSORED] *= 1.5
    icens = status == INTERVAL_CENSORED
    bounds[icens] = np.column_stack([0.5 * time[icens], 1.5 * time[icens]])
    time[icens] *= 1.5
    return replace(short, time=time, status=status, interval_bounds=bounds)


BATCH_SPECS = {
    "exponential": ModelSpec(family="exponential", fixed=("GenderMale",),
                             smooths=(SmoothSpec("Size", n_knots=3),)),
    "weibull": ModelSpec(family="weibull_aft", fixed=("GenderMale",),
                         smooths=(SmoothSpec("Size", n_knots=3),)),
    "weibull-hierarchical": ModelSpec(family="weibull_aft", fixed=("GenderMale",),
                                      smooths=(SmoothSpec("Size", n_knots=3),
                                               SmoothSpec("AgeAtSurg", n_knots=3)),
                                      hierarchical_smooths=True),
    "bernoulli": ModelSpec(family="bernoulli_logit", fixed=("AdjOn",),
                           smooths=(SmoothSpec("Size", n_knots=3),)),
}
# non-finite entries, and values whose exp (a mean, shape or scale) overflows
SPECIAL = (np.nan, np.inf, -np.inf, 1e308, -1e308, 800.0, -800.0)


@lru_cache(maxsize=None)
def batch_posterior(name):
    long, short = simulate_scenario(ScenarioConfig(n_subjects=60, seed=5))
    spec = BATCH_SPECS[name]
    return PosteriorModel(spec, long if spec.family == "bernoulli_logit" else all_statuses(short))


class TestBatchedLogPosterior:
    @pytest.mark.parametrize("name", sorted(BATCH_SPECS))
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_batch_bitwise_equal_to_rows(self, name, data):
        post = batch_posterior(name)
        n_chains = data.draw(st.integers(1, 5), label="n_chains")
        values = data.draw(st.lists(st.floats(-3, 3), min_size=n_chains * post.dim,
                                    max_size=n_chains * post.dim), label="x")
        x = np.array(values).reshape(n_chains, post.dim)
        for _ in range(data.draw(st.integers(0, 3), label="n_special")):
            x[data.draw(st.integers(0, n_chains - 1)), data.draw(st.integers(0, post.dim - 1))] = (
                data.draw(st.sampled_from(SPECIAL)))
        for method in (post.log_prior, post.log_likelihood, post.log_posterior):
            batch = method(x)
            assert batch.shape == (n_chains,)
            assert np.array_equal(batch, [method(row) for row in x])
            assert not np.any(np.isnan(batch))
        assert np.all(post.log_posterior(x)[~np.isfinite(x).all(axis=1)] == -np.inf)

    def test_out_of_support_rows_alone_are_minus_inf(self):
        post = batch_posterior("weibull-hierarchical")
        init = post.init_point()
        x = np.tile(init, (7, 1))
        x[1, 0] = np.nan
        x[2, 0] = 1e308  # the mean overflows
        x[3, post.n_beta] = 800.0  # the shape overflows
        x[4, post.n_beta] = -800.0  # ... and underflows to 0
        x[5, -1] = 800.0  # a smoothing scale overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lp = post.log_posterior(x)
        assert np.all(lp[1:6] == -np.inf)
        assert np.isfinite(lp[0]) and lp[0] == lp[6] == post.log_posterior(init)
        assert isinstance(post.log_posterior(init), float)
        assert np.array_equal(post.log_posterior(x.reshape(7, 1, -1)), lp[:, None])

    def test_prior_overflow_is_minus_inf_without_warning(self):
        post = batch_posterior("weibull-hierarchical")
        x = post.init_point()
        fixed = x.copy()
        fixed[1] = 1e308  # the GenderMale effect: its squared z-score overflows
        log_sd = x.copy()
        log_sd[-1] = 800.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for point in (fixed, log_sd):
                assert post.log_prior(point) == -np.inf
                assert post.log_posterior(point) == -np.inf


ORACLE_SPECS = {
    **BATCH_SPECS,
    "weibull-gist": get_preset("weibull-gist"),
    # every prior kind, and fixed and smooth coefficients under different priors
    "weibull-priors": ModelSpec(
        family="weibull_aft", fixed=("GenderMale", "Rupture"),
        smooths=(SmoothSpec("Size", n_knots=3), SmoothSpec("AgeAtSurg", degree=2, n_knots=2)),
        priors=PriorSet(intercept=normal(1.0, 3.0), fixed=student_t(4, 0.5, 1.5),
                        smooth_coef=half_student_t(3, 2.0), shape=gamma(2.0, 1.5))),
}
# besides SPECIAL: a mean or Weibull shape that is huge or tiny but finite
ORACLE_SPECIAL = SPECIAL + (300.0, -300.0, 30.0, -30.0)


@lru_cache(maxsize=None)
def oracle_posterior(name, held_out):
    long, short = simulate_scenario(ScenarioConfig(n_subjects=60, seed=5))
    spec = ORACLE_SPECS[name]
    data = long if spec.family == "bernoulli_logit" else all_statuses(short)
    units = [int(u) for u in short.subject_id[:4]] if held_out else []  # one of each status
    return PosteriorModel(spec, data, units)


class TestBitwiseAgainstOracle:
    """Every value is byte-equal to the old one-row-at-a-time bodies
    (``posterior_oracle``), out-of-support rows included."""

    @pytest.mark.parametrize("held_out", [False, True])
    @pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_byte_equal_to_oracle(self, name, held_out, data):
        post = oracle_posterior(name, held_out)
        n_chains = data.draw(st.sampled_from([1, 4, 120]), label="n_chains")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        scale = data.draw(st.sampled_from([0.1, 1.0, 4.0]), label="scale")
        rng = np.random.default_rng(seed)
        x = post.init_point() + scale * rng.standard_normal((len(post.designs) * n_chains,
                                                             post.dim))
        # the intercept moves every mean; the last column is log alpha or a log scale
        columns = st.one_of(st.sampled_from([0, min(post.n_beta, post.dim - 1), post.dim - 1]),
                            st.integers(0, post.dim - 1))
        for _ in range(data.draw(st.integers(0, 6), label="n_special")):
            x[data.draw(st.integers(0, len(x) - 1)), data.draw(columns)] = data.draw(
                st.sampled_from(ORACLE_SPECIAL))
        for method in ("log_prior", "log_likelihood", "log_posterior"):
            got = getattr(post, method)(x)
            want = getattr(posterior_oracle, method)(post, x)
            assert got.shape == want.shape == (len(x),)
            assert got.tobytes() == want.tobytes(), method
            if not held_out:
                one = getattr(post, method)(x[-1])
                assert isinstance(one, float)
                assert np.float64(one).tobytes() == np.float64(
                    getattr(posterior_oracle, method)(post, x[-1])).tobytes()


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
        logp = post.log_posterior(grid[:, None])
        w = np.exp(logp - logp.max())
        w /= np.trapezoid(w, grid)
        p_mean_grid = np.trapezoid(expit(grid) * w, grid)
        res = fit(spec, long, SamplerConfig(n_warmup=800, n_keep=1500, seed=11))
        p_draws = expit(res.draws.column("b_Intercept"))
        mc_se = p_draws.std(ddof=1) / math.sqrt(min(res.ess["b_Intercept"], p_draws.size))
        assert abs(p_draws.mean() - p_mean_grid) < 4 * mc_se + 1e-4

    def test_divergence_reported(self):
        calls = []

        def log_prob(x):
            # finite at the initial points only, so every proposal is rejected
            calls.append(len(x))
            return np.zeros(len(x)) if len(calls) == 1 else np.full(len(x), -np.inf)

        cfg = SamplerConfig(n_chains=1, n_warmup=100, n_keep=10, seed=0)
        with pytest.raises(SamplingError) as err:
            sample_posterior(log_prob, 1, cfg, [(0, 0)])
        assert "window" in str(err.value)
        assert err.value.diagnostics["iteration"] == 100

    def test_adaptation_freezes_after_warmup(self):
        rng = np.random.default_rng(6)
        data = exp_dataset(rng, n=40)
        cfg = SamplerConfig(n_warmup=300, n_keep=300, seed=1)
        res = fit(ModelSpec(family="exponential"), data, cfg)
        for chain_log in res.adaptation["chains"]:
            assert chain_log["last_update_iteration"] == cfg.n_warmup
            assert chain_log["frozen_proposal_chol"].shape == (1, 1)


class TestInvalidData:
    # rejected when the model is bound, before the sampler starts
    def test_negative_time(self):
        data = SurvivalDataset([1, 2, 3], np.zeros(3), [2.0, -1.0, 1.5],
                               np.array(["event", "right_censored", "event"], dtype=object), {})
        with pytest.raises(DataError, match="time must be positive"):
            fit(ModelSpec(family="exponential"), data, SamplerConfig(n_warmup=10, n_keep=10))

    def test_long_interval_gap(self):
        from survcheck.data import LongDataset

        long = LongDataset([1, 1, 2, 2, 2], [1, 2, 1, 3, 4], [0, 1, 0, 0, 0], {})
        with pytest.raises(DataError, match="subject 2: interval_index not contiguous"):
            PosteriorModel(ModelSpec(family="bernoulli_logit"), long)


class TestDetailedBalance:
    def test_standard_normal_target(self):
        cfg = SamplerConfig(n_chains=4, n_warmup=1000, n_keep=10_000, seed=123)
        chains, _, rates, _ = sample_posterior(
            lambda x: -0.5 * np.sum(x * x, axis=1), 1, cfg, [(123, c) for c in range(4)],
            init=np.zeros(1))
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
