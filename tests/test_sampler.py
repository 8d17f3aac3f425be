import math
import warnings
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survcheck import models
from survcheck.data import INTERVAL_CENSORED, LEFT_CENSORED, STATUSES, DataError, SurvivalDataset
from survcheck.loo import exact_refit_loo
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
    INIT_JITTER,
    FitResult,
    PosteriorModel,
    SamplerConfig,
    SamplingError,
    bulk_ess,
    diagnose,
    fit,
    sample_posterior,
    _average_ranks,
    split_rhat,
)
from survcheck.simulate import ScenarioConfig, simulate_scenario

import diagnostics_oracle
import posterior_oracle
import sampler_oracle
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
    return PosteriorModel(spec, data, posterior_oracle.held_out_designs(spec, data, units))


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

    @pytest.mark.parametrize("held_out", [False, True])
    @pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
    def test_rows_independent_of_batch_size(self, name, held_out):
        # 1, C and 3C rows per member, as the sampler calls it with C = 4
        post = oracle_posterior(name, held_out)
        B, C = len(post.designs), 4
        rng = np.random.default_rng(sorted(ORACLE_SPECS).index(name))
        x = post.init_point() + rng.standard_normal((B, 3 * C, post.dim))
        for i, value in enumerate(ORACLE_SPECIAL):
            x[i % B, (5 * i) % (3 * C), (3 * i) % post.dim] = value
        for method in ("log_prior", "log_likelihood", "log_posterior"):
            whole = getattr(post, method)(x.reshape(-1, post.dim)).reshape(B, 3 * C)
            want = getattr(posterior_oracle, method)(post, x.reshape(-1, post.dim))
            assert whole.tobytes() == want.tobytes(), method
            for rows in (slice(0, C), slice(C, 2 * C), slice(2 * C, 3 * C)):
                part = getattr(post, method)(x[:, rows].reshape(-1, post.dim))
                assert part.tobytes() == whole[:, rows].tobytes(), method
            for j in range(3 * C):
                assert getattr(post, method)(x[:, j]).tobytes() == whole[:, j].tobytes(), method

    @pytest.mark.parametrize("prior", [normal(1.0, 3.0), student_t(4, 0.5, 1.5),
                                       half_student_t(3, 2.0), gamma(2.0, 1.5),
                                       gamma(0.01, 0.01)], ids=lambda p: p.kind)
    def test_prior_log_pdf_alone_is_silent(self, prior):
        # the posterior evaluates each density under its own np.errstate;
        # called alone, log_pdf enters one itself
        x = np.array([0.0, -0.0, -1.0, 0.5, 3.0, 1e-300, 1e155, 1e308, -1e308,
                      np.inf, -np.inf, np.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = prior.log_pdf(x)
            one = prior.log_pdf(3.0)
        with np.errstate(all="ignore"):
            want = posterior_oracle.prior_log_pdf(prior, x)
        assert got.tobytes() == want.tobytes()
        assert np.float64(one).tobytes() == want[4].tobytes()


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


def gaussian_target(dim, seed, scale):
    """A correlated normal log density with ``scale`` times the proposal's
    spread.  Each row is multiplied by the root on its own (``x @ root``
    would be one matrix product over the batch, summing in an order that
    depends on the batch size), so a row's value is bitwise its value alone."""
    rng = np.random.default_rng(seed)
    root = (np.eye(dim) + 0.4 * np.tril(rng.standard_normal((dim, dim)), -1)) / scale

    def log_prob(x):
        return -0.5 * np.sum(np.matmul(x[:, None, :], root)[:, 0] ** 2, axis=1)
    return log_prob


def half_space_target(dim, seed, scale, edge):
    """``gaussian_target`` cut to x[0] < edge: -inf beyond, NaN far beyond.
    An edge near 0 puts some chain's jittered start outside: the
    initial-point SamplingError."""
    base = gaussian_target(dim, seed, scale)

    def log_prob(x):
        lp = np.where(x[:, 0] < edge, base(x), -np.inf)
        return np.where(x[:, 0] > edge + 3.0, np.nan, lp)
    return log_prob


def starts(dim, seeds):
    """The chains' jittered initial points from ``sampler_outcome``'s init."""
    return np.linspace(-0.2, 0.2, dim) + INIT_JITTER * np.stack(
        [np.random.default_rng(seed).standard_normal(dim) for seed in seeds])


def sticky_target(dim, seed, scale, start, chains, trap):
    """``gaussian_target``, but the named chains are stuck by their position,
    a function of each evaluated row alone.  A named chain's log density is
    -inf everywhere but at its ``start`` and past x[0] = start[0] + ``trap``,
    where it is +inf: the proposal that gets there is the last it accepts,
    since every later difference is -inf or NaN.  With trap inf it never
    leaves its start: the SamplingError of a full window without
    acceptances at the first full warmup window.  With trap 0 its first move
    (within the first window) traps it: the error at the second full warmup
    window (n_warmup 250), none with shorter warmups.  The chain of row r is
    r // (len(x) // len(start)), in a (C, dim) batch or a chain-major one of
    several rows per chain."""
    base = gaussian_target(dim, seed, scale)

    def log_prob(x):
        lp = base(x)
        chain = np.arange(len(x)) // (len(x) // len(start))
        named, at = np.isin(chain, chains), start[chain]
        lp[named & (x != at).any(axis=1)] = -np.inf
        lp[named & (x[:, 0] > at[:, 0] + trap)] = np.inf
        return lp
    return log_prob


def sampler_outcome(sampler, make_target, dim, config, seeds, **options):
    """Everything ``sampler`` returns, or its SamplingError, as comparable bytes.
    A trapped chain of ``sticky_target`` subtracts +inf from +inf: NaN, a
    rejection, which numpy would warn about."""
    try:
        with np.errstate(invalid="ignore"):
            keep, lp_keep, rates, logs = sampler(make_target(), dim, config, seeds,
                                                 init=np.linspace(-0.2, 0.2, dim), **options)
    except SamplingError as err:
        return ("SamplingError", str(err), repr(err.diagnostics))
    return (keep.shape, keep.tobytes(), lp_keep.tobytes(), rates.tobytes(),
            [(repr(log["windows"]), log["last_update_iteration"],
              log["frozen_proposal_chol"].tobytes()) for log in logs])


class TestWindowedSamplerAgainstOracle:
    """``sample_posterior`` runs window by window; every output is byte-equal
    to the old loop that drew and stepped one iteration at a time
    (``sampler_oracle``), errors included."""

    @pytest.mark.parametrize("n_keep", [1, 99, 100, 101])
    @pytest.mark.parametrize("n_warmup", [1, 99, 100, 101, 250])
    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_byte_equal_to_oracle(self, n_warmup, n_keep, data):
        n_chains = data.draw(st.sampled_from([1, 4, 8]), label="n_chains")
        dim = data.draw(st.integers(1, 50), label="dim")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        scale = data.draw(st.sampled_from([0.01, 1.0, 30.0]), label="scale")
        kind = data.draw(st.sampled_from(["gaussian", "half-space", "sticky"]), label="target")
        if kind == "gaussian":
            def make_target():
                return gaussian_target(dim, seed, scale)
        elif kind == "half-space":
            edge = data.draw(st.sampled_from([-0.1, 0.05, 1.0, 10.0]), label="edge")

            def make_target():
                return half_space_target(dim, seed, scale, edge)
        else:
            chains = data.draw(st.sets(st.integers(0, n_chains - 1), min_size=1), label="chains")
            trap = data.draw(st.sampled_from([0.0, np.inf]), label="trap")

            def make_target():
                return sticky_target(dim, seed, scale, starts(dim, seeds), sorted(chains), trap)
        config = SamplerConfig(n_chains=n_chains, n_warmup=n_warmup, n_keep=n_keep, seed=seed)
        seeds = [(seed, c) for c in range(n_chains)]
        got = sampler_outcome(sample_posterior, make_target, dim, config, seeds)
        want = sampler_outcome(sampler_oracle.sample_posterior, make_target, dim, config, seeds)
        assert got[0] == want[0]
        assert got == want


@lru_cache(maxsize=None)
def held_out_posterior(name, n_members):
    """A ``BATCH_SPECS`` model on 40 subjects, batched over ``n_members``
    held-out subjects (each status, for the short form)."""
    long, short = simulate_scenario(ScenarioConfig(n_subjects=40, seed=6))
    spec = BATCH_SPECS[name]
    data = long if spec.family == "bernoulli_logit" else all_statuses(short)
    units = [int(u) for u in short.subject_id[:n_members]]
    return PosteriorModel(spec, data, posterior_oracle.held_out_designs(spec, data, units))


class TestLookAhead:
    """Looking two steps ahead (one call on a chain-major (3C, dim) batch per
    two steps) changes no output bit."""

    # 12 cases of 8 examples, each two sampler runs of at most 250 + 101
    # iterations on at most 24 chains: a few seconds; no deadline
    @pytest.mark.parametrize("n_chains", [1, 4, 8])
    @pytest.mark.parametrize("kind", ["gaussian", "half-space", "sticky", "held-out"])
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_byte_equal_with_and_without(self, kind, n_chains, data):
        # warmup and kept lengths that end mid window, on an odd step among them
        n_warmup = data.draw(st.sampled_from([1, 2, 99, 100, 101, 250]), label="n_warmup")
        n_keep = data.draw(st.sampled_from([1, 2, 99, 101]), label="n_keep")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        scale = data.draw(st.sampled_from([0.01, 1.0, 30.0]), label="scale")
        dim = data.draw(st.integers(1, 20), label="dim")
        members = 1
        if kind == "held-out":  # B members, each n_chains chains, member-major
            name = data.draw(st.sampled_from(sorted(BATCH_SPECS)), label="model")
            members = data.draw(st.integers(1, 3), label="members")
            post = held_out_posterior(name, members)
            dim = post.dim

            def make_target():
                return post.log_posterior
        elif kind == "gaussian":
            def make_target():
                return gaussian_target(dim, seed, scale)
        elif kind == "half-space":  # -inf beyond the edge, NaN far beyond
            edge = data.draw(st.sampled_from([-0.1, 0.05, 1.0, 10.0]), label="edge")

            def make_target():
                return half_space_target(dim, seed, scale, edge)
        else:
            chains = data.draw(st.sets(st.integers(0, n_chains - 1), min_size=1), label="chains")
            trap = data.draw(st.sampled_from([0.0, np.inf]), label="trap")

            def make_target():
                return sticky_target(dim, seed, scale, starts(dim, seeds), sorted(chains), trap)
        config = SamplerConfig(n_chains=n_chains, n_warmup=n_warmup, n_keep=n_keep, seed=seed)
        seeds = [(seed, b, c) for b in range(members) for c in range(n_chains)]
        ahead = sampler_outcome(sample_posterior, make_target, dim, config, seeds, look_ahead=True)
        step = sampler_outcome(sample_posterior, make_target, dim, config, seeds, look_ahead=False)
        assert ahead == step

    def test_fit_looks_ahead_below_the_constant(self, monkeypatch):
        rng = np.random.default_rng(14)
        data = exp_dataset(rng, n=40)
        spec = ModelSpec(family="exponential")
        cfg = SamplerConfig(n_chains=3, n_warmup=150, n_keep=51, seed=5)
        log_posterior = PosteriorModel.log_posterior
        batches = []

        def counted(self, x):
            batches.append(len(x))
            return log_posterior(self, x)

        monkeypatch.setattr(PosteriorModel, "log_posterior", counted)
        monkeypatch.setattr("survcheck.sampler._usable_cpus", lambda: 1)  # one refit batch, here

        def runs(sample, work):
            out = []
            for bound in (work + 1, work):  # the work below the constant, then at it
                monkeypatch.setattr("survcheck.sampler.LOOK_AHEAD_MAX_WORK", bound)
                batches.clear()
                out.append((sample(), list(batches)))
            return out

        # work: chains per member x design rows x coefficients
        (ahead, ahead_calls), (alone, alone_calls) = runs(lambda: fit(spec, data, cfg),
                                                          cfg.n_chains * data.n * 1)
        # windows of 100, 50 and 51 steps: the last step of the third alone
        assert ahead_calls == [3] + [9] * 100 + [3]
        assert alone_calls == [3] * 202
        for a, b in ((ahead.draws.draws, alone.draws.draws), (ahead.log_post, alone.log_post),
                     (ahead.accept_rate, alone.accept_rate)):
            assert a.tobytes() == b.tobytes()
        assert (ahead.rhat, ahead.ess) == (alone.rhat, alone.ess)
        # an exact-refit batch of two members counts both members' design rows,
        # with the chains of one member
        (ahead, ahead_calls), (alone, alone_calls) = runs(
            lambda: exact_refit_loo(spec, data, cfg, [1, 2]), cfg.n_chains * 2 * data.n * 1)
        assert ahead_calls == [6] + [18] * 100 + [6]
        assert alone_calls == [6] * 202
        assert ahead == alone and not ahead["failures"]


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
        # an R-hat that cannot be computed shows no convergence
        rep = diagnose(res)
        assert rep["flagged"] == ["b_Intercept"]
        assert rep["ok"] is False

    def test_nan_and_inf_rhat_flagged(self):
        res = FitResult(draws=None, rhat={"a": 1.0, "b": float("nan"), "c": float("inf")},
                        ess={}, accept_rate=np.ones(2), log_post=np.zeros(2))
        rep = diagnose(res)
        assert rep["flagged"] == ["b", "c"]
        assert rep["ok"] is False
        assert math.isnan(split_rhat(np.full((3, 40), 2.5)))


def chain_set(data, n_chains, n_iter, k):
    """(n_chains, n_iter, k) chains drawn by hypothesis: autocorrelated,
    rounded (heavy ties) or Metropolis-like (repeated states), with some
    parameters constant and equal across chains, constant and disjoint, or
    holding infinite or NaN draws."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    kind = data.draw(st.sampled_from(["iid", "ar", "rounded", "metropolis"]), label="kind")
    x = rng.standard_normal((n_chains, n_iter, k))
    if kind in ("ar", "rounded"):
        phi = data.draw(st.sampled_from([0.5, 0.9, 0.99]), label="phi")
        for t in range(1, n_iter):
            x[:, t] += phi * x[:, t - 1]
        if kind == "rounded":
            x = np.round(x, data.draw(st.integers(-1, 1), label="decimals"))
    elif kind == "metropolis":
        accept = data.draw(st.sampled_from([0.02, 0.2, 0.5]), label="accept")
        x = np.cumsum(x * (rng.random((n_chains, n_iter, 1)) < accept), axis=1)
    x += data.draw(st.sampled_from([0.0, 1.0]), label="offset") * np.arange(n_chains)[:, None, None]
    for j in data.draw(st.sets(st.integers(0, k - 1), max_size=4), label="special"):
        what = data.draw(st.sampled_from(["equal", "disjoint", "inf", "-inf", "nan"]))
        if what == "equal":
            x[:, :, j] = 1.5
        elif what == "disjoint":
            x[:, :, j] = np.arange(n_chains)[:, None]
        else:
            x[rng.integers(n_chains), rng.integers(n_iter), j] = float(what)
    return x


class TestDiagnosticsAgainstOracle:
    """``split_rhat`` and ``bulk_ess`` take every parameter in one pass; each
    value is byte-equal to the old one-parameter bodies (``diagnostics_oracle``,
    ranks from ``scipy.stats.rankdata``), and one parameter's chains give a
    float."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_byte_equal_to_oracle(self, data):
        n_chains = data.draw(st.integers(1, 8), label="n_chains")
        n_iter = data.draw(st.one_of(st.integers(1, 9), st.integers(1, 600)), label="n_iter")
        k = data.draw(st.integers(1, 50), label="k")
        x = chain_set(data, n_chains, n_iter, k)
        rhat, ess = split_rhat(x), bulk_ess(x)
        assert rhat.shape == ess.shape == (k,)
        for j in range(k):
            with np.errstate(all="ignore"):
                want = (diagnostics_oracle.split_rhat(x[:, :, j]),
                        diagnostics_oracle.bulk_ess(x[:, :, j]))
            alone = split_rhat(x[:, :, j]), bulk_ess(x[:, :, j])
            assert [type(v) for v in alone] == [float, float]
            assert np.array(alone).tobytes() == np.array(want).tobytes()
            assert np.array([rhat[j], ess[j]]).tobytes() == np.array(want).tobytes()

    def test_blocks_of_parameters_bitwise_one_block(self, monkeypatch):
        # in blocks of 64 elements each parameter is a block of its own
        rng = np.random.default_rng(13)
        x = np.cumsum(rng.standard_normal((4, 301, 9)), axis=1)
        x[:, :, 2] = 1.5
        x[1, 7, 4] = np.inf
        x[:, :, 5] = np.round(x[:, :, 5])
        x[2, 40, 6] = np.nan
        one = split_rhat(x), bulk_ess(x)
        monkeypatch.setattr(models, "_CHUNK", 64)
        assert len(models._row_blocks((9, 2 * 4 * 512))) == 9
        blocked = split_rhat(x), bulk_ess(x)
        for a, b in zip(one, blocked):
            assert a.tobytes() == b.tobytes()

    def test_average_ranks_match_rankdata(self):
        from scipy.stats import rankdata
        rng = np.random.default_rng(12)
        a = rng.integers(0, 6, size=(40, 97)).astype(float)
        a[3, 5] = np.nan
        a[7] = -0.0
        a[7, ::2] = 0.0
        a[9, :3] = [np.inf, -np.inf, np.inf]
        got = _average_ranks(a)
        want = np.array([rankdata(row) for row in a])
        assert got.tobytes() == want.tobytes()
        assert np.isnan(got[3]).all() and not np.isnan(got[4]).any()
