import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import BSpline
from scipy.special import gammaln
from scipy.stats import kstest

from survcheck import models
from survcheck.data import DrawsMatrix, SurvivalDataset
from survcheck.models import (
    ModelDesign,
    ModelError,
    ModelSpec,
    PRESETS,
    PriorSet,
    SaturationError,
    SmoothSpec,
    bernoulli_log_score,
    cdf,
    eta,
    gamma,
    get_preset,
    half_student_t,
    hazard,
    impute_censored,
    log_density,
    log_survival,
    logistic,
    normal,
    posterior_predictive_times,
    quantile,
    sample_truncated,
    spline_basis,
    spline_knots,
    student_t,
    subject_params,
)

import posterior_oracle
from pointwise_oracle import Record, log_interval_prob, log_lik_point


def record(time, status, bounds=None):
    return Record(subject_id=1, entry_time=0.0, time=time, status=status,
                  bounds=bounds, covariates={})


def weibull_pdf(t, shape, mean):
    theta = math.exp(gammaln(1 + 1 / shape)) / mean
    return theta * shape * (theta * t) ** (shape - 1) * math.exp(-((theta * t) ** shape))


class TestSplineBasis:
    def test_partition_of_unity(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 10, size=200)
        knots = spline_knots(x, n_knots=5, degree=3)
        basis = spline_basis(x, knots, degree=3)
        assert np.allclose(basis.sum(axis=1), 1.0, atol=1e-12)

    def test_degree_one_hat_functions(self):
        knots = np.array([0.0, 0.0, 1.0, 2.0, 2.0])
        basis = spline_basis(np.array([0.5]), knots, degree=1)
        # halfway along the first interval: equal weight on the two hats
        assert basis.shape == (1, 3)
        assert np.allclose(basis[0], [0.5, 0.5, 0.0])

    def test_against_de_boor_recursion(self):
        # independent oracle: naive recursive Cox-de Boor definition
        # (only valid strictly inside the knot range)
        def naive(x, knots, i, k):
            if k == 0:
                return 1.0 if knots[i] <= x < knots[i + 1] else 0.0
            left = 0.0
            if knots[i + k] > knots[i]:
                left = (x - knots[i]) / (knots[i + k] - knots[i]) * naive(x, knots, i, k - 1)
            right = 0.0
            if knots[i + k + 1] > knots[i + 1]:
                right = ((knots[i + k + 1] - x) / (knots[i + k + 1] - knots[i + 1])
                         * naive(x, knots, i + 1, k - 1))
            return left + right

        rng = np.random.default_rng(1)
        data = rng.uniform(0, 5, size=100)
        knots = spline_knots(data, n_knots=4, degree=3)
        xs = np.concatenate([rng.uniform(knots[0], knots[-1], size=30), [knots[0]]])
        basis = spline_basis(xs, knots, degree=3)
        n_basis = len(knots) - 4
        for r, x in enumerate(xs):
            for i in range(n_basis):
                assert basis[r, i] == pytest.approx(naive(x, knots, i, 3), abs=1e-12)

    def test_right_boundary_is_last_basis(self):
        rng = np.random.default_rng(2)
        knots = spline_knots(rng.uniform(0, 5, size=100), n_knots=4, degree=3)
        basis = spline_basis(np.array([knots[-1]]), knots, degree=3)
        assert basis[0, -1] == pytest.approx(1.0)
        assert np.allclose(basis[0, :-1], 0.0)

    def test_clamps_outside_range(self):
        knots = spline_knots(np.arange(10.0), n_knots=3, degree=3)
        basis = spline_basis(np.array([-5.0, 50.0]), knots, degree=3)
        assert np.allclose(basis.sum(axis=1), 1.0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(degree=st.integers(1, 5), n_knots=st.integers(0, 8),
           shape=st.sampled_from(["normal", "ties", "rounded"]),
           scale=st.sampled_from([1e-3, 1.0, 1e3]), from_zero=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_bitwise_scipy_design_matrix(self, degree, n_knots, shape, scale, from_zero, seed):
        # SciPy is the oracle: the same recursion in the same order, so equal bits
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 200))
        x = {"normal": rng.normal(size=n), "ties": rng.integers(0, 12, n).astype(float),
             "rounded": np.round(rng.normal(size=n), 1)}[shape] * scale
        if from_zero:  # a knot at 0, which the point -0.0 sits on
            x = x - x.min()
        try:
            knots = spline_knots(x, n_knots, degree)
        except ModelError:
            assume(False)
        pts = np.concatenate([x, knots, knots - 1e-9, knots + 1e-9,
                              [knots[0] - scale, knots[-1] + scale, -0.0, 0.0]])
        want = BSpline.design_matrix(np.clip(pts, knots[0], knots[-1]), knots, degree)
        got = spline_basis(pts, knots, degree)
        assert np.array_equal(got.view(np.int64), want.toarray().view(np.int64))

    def test_nan_refused(self):
        knots = spline_knots(np.arange(10.0), n_knots=3, degree=3)
        with pytest.raises(ValueError):
            spline_basis(np.array([0.5, np.nan]), knots, degree=3)

    def test_too_few_distinct_values(self):
        with pytest.raises(ModelError, match="distinct"):
            spline_knots(np.array([1.0, 1.0, 2.0]), n_knots=5, degree=3)

    def test_empty_input_and_short_knot_vector(self):
        knots = spline_knots(np.arange(10.0), n_knots=3, degree=3)
        assert spline_basis(np.array([]), knots, degree=3).shape == (0, len(knots) - 4)
        with pytest.raises(ModelError, match="too short"):
            spline_basis(np.array([0.5]), np.array([0.0, 0.0, 1.0, 1.0]), degree=2)


class TestEta:
    def make_design(self, n=20, seed=0):
        rng = np.random.default_rng(seed)
        covs = {"a": rng.normal(size=n), "b": rng.normal(size=n)}
        spec = ModelSpec(family="exponential", fixed=("a", "b"))
        return ModelDesign(spec, covs), covs

    def test_zero_beta(self):
        design, covs = self.make_design()
        assert np.allclose(eta(design, np.zeros(3), covs), 0.0)

    def test_intercept_only(self):
        spec = ModelSpec(family="exponential")
        design = ModelDesign(spec, {})
        assert eta(design, np.array([2.3]), {})[0] == pytest.approx(2.3)

    def test_matches_dot_product(self):
        design, covs = self.make_design(seed=3)
        rng = np.random.default_rng(4)
        beta = rng.normal(size=3)
        hand = beta[0] + beta[1] * covs["a"] + beta[2] * covs["b"]
        assert np.allclose(eta(design, beta, covs), hand, atol=1e-14)

    def test_coefficients_follow_design_order(self):
        design, _ = self.make_design()
        draws = DrawsMatrix(np.arange(8.0).reshape(2, 4), ("alpha", "b_b", "b_Intercept", "b_a"))
        beta = design.coefficients(draws)
        assert np.array_equal(beta, [[2.0, 3.0, 1.0], [6.0, 7.0, 5.0]])
        assert beta.flags["C_CONTIGUOUS"]
        assert design.coefficients(beta) is beta

    def test_dimension_mismatch(self):
        design, covs = self.make_design()
        with pytest.raises(ModelError, match="columns"):
            eta(design, np.zeros(5), covs)


class TestLogLikPoint:
    def test_exponential_event(self):
        value, tag = log_lik_point("exponential", {"mean": 1.0}, record(1.0, "event"))
        assert value == pytest.approx(-1.0)
        assert tag == "density"

    def test_right_censored_at_zero(self):
        value, tag = log_lik_point("exponential", {"mean": 1.0}, record(0.0, "right_censored"))
        assert value == 0.0
        assert tag == "probability"

    def test_weibull_interval_against_quadrature(self):
        # shape 2, mean chosen so the rate is 1: integrate the density over (1, 2)
        mean = math.exp(gammaln(1.5))
        value, tag = log_lik_point(
            "weibull_aft", {"shape": 2.0, "mean": mean},
            record(2.0, "interval_censored", bounds=(1.0, 2.0)),
        )
        oracle, _ = quad(lambda t: weibull_pdf(t, 2.0, mean), 1.0, 2.0)
        assert value == pytest.approx(math.log(oracle), abs=1e-9)
        assert value == pytest.approx(math.log(math.exp(-1) - math.exp(-4)), abs=1e-12)
        assert tag == "probability"

    def test_left_censored(self):
        value, tag = log_lik_point("exponential", {"mean": 2.0}, record(2.0, "left_censored"))
        assert value == pytest.approx(math.log(1 - math.exp(-1.0)))
        assert tag == "probability"

    def test_tags_exhaustive_over_statuses(self):
        cases = {
            "event": "density",
            "right_censored": "probability",
            "left_censored": "probability",
            "interval_censored": "probability",
        }
        for status, expected in cases.items():
            bounds = (0.5, 1.5) if status == "interval_censored" else None
            _, tag = log_lik_point("exponential", {"mean": 1.0}, record(1.0, status, bounds))
            assert tag == expected

    def test_interval_prob_matches_cdf_difference(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            shape = rng.uniform(0.5, 3)
            mean = rng.uniform(0.3, 5)
            a = rng.uniform(0.05, 2)
            b = a + rng.uniform(0.01, 3)
            params = {"shape": shape, "mean": mean}
            lhs = math.exp(log_interval_prob("weibull_aft", params, a, b))
            rhs = cdf("weibull_aft", params, b) - cdf("weibull_aft", params, a)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_nonpositive_time_rejected(self):
        with pytest.raises(ModelError):
            log_density("exponential", {"mean": 1.0}, -1.0)

    @pytest.mark.parametrize("family", ["exponential", "weibull_aft"])
    def test_right_censored_group_at_zero(self, family):
        # a t = 0 row keeps the mask of the survival score; a group without one has none
        rng = np.random.default_rng(15)
        for times in ([0.0, 0.7, 2.5, 0.0, 4.0], [0.3, 0.7, 2.5]):
            n = len(times)
            data = SurvivalDataset(np.arange(1, n + 1), np.zeros(n), times,
                                   np.full(n, "right_censored", dtype=object), {})
            (group,) = models.score_groups(data)
            assert (group.terms[2] is None) == (min(times) > 0)
            params = {"mean": np.exp(rng.normal(size=(3, n)))}
            if family == "weibull_aft":
                params["shape"] = np.exp(rng.normal(size=(3, 1)))
            got = models.group_log_scores(family, (group,), models.Rate.of(family, params))[0]
            want = posterior_oracle.log_survival(family, params, np.asarray(times))
            assert got.tobytes() == want.tobytes()
            for i, t in enumerate(times):
                one = {k: v[0, i if k == "mean" else 0] for k, v in params.items()}
                assert log_lik_point(family, one, record(t, "right_censored"))[0] == got[0, i]

    def test_rate_key_refused(self):
        for family, params in (("exponential", {"rate": 1.0}),
                               ("weibull_aft", {"shape": 1.5, "rate": 1.0})):
            with pytest.raises(ModelError, match="'mean'"):
                log_density(family, params, 1.0)


class TestCdf:
    def test_weibull_shape_one_is_exponential(self):
        t = np.linspace(0.01, 10, 50)
        mu = 2.5
        w = cdf("weibull_aft", {"shape": 1.0, "mean": mu}, t)
        e = cdf("exponential", {"mean": mu}, t)
        assert np.allclose(w, e, atol=1e-12)

    def test_boundaries(self):
        assert cdf("exponential", {"mean": 0.5}, 0.0) == 0.0
        assert cdf("exponential", {"mean": 0.5}, 1e9) == pytest.approx(1.0)

    def test_weibull_against_quadrature(self):
        # shape 2, mean 1: rate is Gamma(1.5) ~ 0.8862, F(1) = 1 - exp(-rate^2)
        val = cdf("weibull_aft", {"shape": 2.0, "mean": 1.0}, 1.0)
        theta = math.exp(gammaln(1.5))
        assert val == pytest.approx(1 - math.exp(-(theta**2)), abs=1e-14)
        oracle, _ = quad(lambda t: weibull_pdf(t, 2.0, 1.0), 0.0, 1.0)
        assert val == pytest.approx(oracle, abs=1e-10)

    def test_nondecreasing(self):
        t = np.linspace(0, 20, 200)
        vals = cdf("weibull_aft", {"shape": 0.7, "mean": 3.0}, t)
        assert np.all(np.diff(vals) >= 0)


class TestHazard:
    def test_exponential_constant(self):
        assert hazard("exponential", {"mean": 1 / 0.3}, 1.0) == pytest.approx(0.3)
        assert hazard("exponential", {"mean": 1 / 0.3}, 100.0) == pytest.approx(0.3)

    def test_weibull_shape_one_reduces(self):
        t = np.linspace(0.1, 5, 20)
        h = hazard("weibull_aft", {"shape": 1.0, "mean": 1 / 0.7}, t)
        assert np.allclose(h, 0.7, atol=1e-12)

    def test_hazard_is_density_over_survival(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            params = {"shape": rng.uniform(0.4, 4), "mean": rng.uniform(0.2, 6)}
            t = rng.uniform(0.05, 8)
            h = hazard("weibull_aft", params, t)
            ratio = math.exp(log_density("weibull_aft", params, t)
                             - log_survival("weibull_aft", params, t))
            assert h == pytest.approx(ratio, rel=1e-10)


class TestBernoulliProb:
    def test_eta_zero(self):
        spec = ModelSpec(family="bernoulli_logit")
        design = ModelDesign(spec, {})
        draws = DrawsMatrix(np.zeros((1, 1)), ("b_Intercept",))
        assert subject_params(spec, design, draws, {})["p"][0, 0] == pytest.approx(0.5)

    def test_extreme_eta_clamped(self):
        assert logistic(-1e6) > 0.0
        assert logistic(1e6) < 1.0
        assert np.isfinite(np.log(logistic(-1e6)))

    def test_bitwise_equal_to_two_branch_formula(self):
        # the formula logistic replaced: both branches over the whole array
        eta = np.concatenate([[800.0, -800.0, 0.0, -0.0, np.inf, -np.inf, 36.0, -36.0],
                              np.random.default_rng(8).normal(scale=30, size=200)])
        with np.errstate(over="ignore", invalid="ignore"):
            two_branch = np.where(eta >= 0, 1.0 / (1.0 + np.exp(-eta)),
                                  np.exp(eta) / (1.0 + np.exp(eta)))
        expected = np.clip(two_branch, 1e-15, 1.0 - 1e-15)
        assert logistic(eta).tobytes() == expected.tobytes()
        assert np.isnan(logistic(np.array([np.nan])))[0]

    def test_log_score_bitwise_equal_to_two_temporary_formula(self):
        rng = np.random.default_rng(10)
        p = logistic(rng.normal(scale=6, size=(300, 40)))
        z = (rng.random((300, 1)) < 0.4).astype(float)
        for zz, pp in ((z[:, 0], p[:, 0]), (z, p)):
            expected = zz * np.log(pp) + (1.0 - zz) * np.log1p(-pp)
            assert bernoulli_log_score(zz, pp).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("bounds", [(1e-15, 1 - 1e-15), (1e-300, 1 - 1e-16)],
                             ids=["logistic-clamp", "dichotomized-clip"])
    def test_log_score_at_the_clamp_bounds(self, bounds):
        # each log is taken only where its outcome is, even at a bound
        rng = np.random.default_rng(16)
        p = rng.choice([*bounds, 0.5, 0.01], size=(6, 40))
        p[:2] = bounds[0]
        p[2:4] = bounds[1]
        z = (rng.random(40) < 0.5).astype(float)
        z[:2] = [0.0, 1.0]
        for zz, pp in ((z, p), (z[:6, None], p)):
            got = bernoulli_log_score(zz, pp)
            assert got.tobytes() == posterior_oracle.bernoulli_log_score(zz, pp).tobytes()
            assert np.isfinite(got).all()

    @staticmethod
    def one_and_blocked(monkeypatch, score):
        """score() in one block and in blocks of 64 elements."""
        one = score()
        with monkeypatch.context() as m:
            m.setattr(models, "_CHUNK", 64)
            return one, score()

    def test_logistic_bitwise_over_blocks(self, monkeypatch):
        eta = 30 * np.random.default_rng(11).standard_normal((50, 40))
        eta[3, :9] = [800.0, -800.0, 0.0, -0.0, np.inf, -np.inf, np.nan, 36.0, -36.0]
        # C-ordered, non-contiguous, F-ordered, reversed, 0-d
        for x in (eta, eta[:, ::3], eta.T, eta[::-2, 5:], np.array(-2.5)):
            one, blocked = self.one_and_blocked(monkeypatch, lambda: logistic(x))
            assert blocked.tobytes() == one.tobytes()
        assert np.isscalar(blocked)  # of the 0-d input

    def test_log_score_bitwise_over_blocks(self, monkeypatch):
        rng = np.random.default_rng(12)
        p = logistic(rng.normal(scale=6, size=(50, 40)))
        # outcomes (n, 1) against (n, S) probabilities, and (n,) against (C, n)
        for z in ((rng.random((50, 1)) < 0.4).astype(float), (rng.random(40) < 0.4).astype(float)):
            one, blocked = self.one_and_blocked(monkeypatch, lambda: bernoulli_log_score(z, p))
            assert blocked.tobytes() == one.tobytes()

    def test_matches_high_precision(self):
        import mpmath

        rng = np.random.default_rng(9)
        for e in rng.normal(scale=4, size=50):
            expected = float(1 / (1 + mpmath.e ** (-mpmath.mpf(float(e)))))
            assert logistic(e) == pytest.approx(expected, rel=1e-14)


class TestSampling:
    def test_exponential_inverse_cdf_algebra(self):
        # u = 1 - exp(-2) must map to t = 2 under rate 1
        u = 1 - math.exp(-2)
        assert quantile("exponential", {"mean": 1.0}, u) == pytest.approx(2.0, abs=1e-12)

    def test_draws_match_analytic_cdf(self):
        rng = np.random.default_rng(10)
        draws = quantile("exponential", {"mean": 1.25}, rng.random(100_000))
        stat = kstest(draws, lambda t: cdf("exponential", {"mean": 1.25}, t)).statistic
        assert stat < 0.01

    def test_weibull_shape_one_matches_exponential(self):
        rng = np.random.default_rng(11)
        a = quantile("weibull_aft", {"shape": 1.0, "mean": 2.0}, rng.random(20_000))
        p = kstest(a, lambda t: cdf("exponential", {"mean": 2.0}, t)).pvalue
        assert p > 0.01

    def test_pit_of_samples_uniform(self):
        rng = np.random.default_rng(12)
        params = {"shape": 1.7, "mean": 3.0}
        draws = quantile("weibull_aft", params, rng.random(50_000))
        u = cdf("weibull_aft", params, draws)
        assert kstest(u, "uniform").statistic < 0.01


class TestTruncatedSampling:
    def test_memorylessness(self):
        rng = np.random.default_rng(13)
        a = 2.5
        draws = sample_truncated("exponential", {"mean": 1 / 1.3}, a, rng, size=100_000)
        assert np.all(draws > a)
        p = kstest(draws - a, lambda t: cdf("exponential", {"mean": 1 / 1.3}, t)).pvalue
        assert p > 0.01

    def test_zero_lower_matches_unconditional(self):
        rng = np.random.default_rng(14)
        cut = sample_truncated("exponential", {"mean": 1.0}, 0.0, rng, size=50_000)
        assert kstest(cut, lambda t: cdf("exponential", {"mean": 1.0}, t)).pvalue > 0.01

    def test_weibull_truncated_mean_vs_quadrature(self):
        params = {"shape": 2.0, "mean": 1.2}
        a = 1.0
        surv_a = 1 - cdf("weibull_aft", params, a)
        num, _ = quad(lambda t: t * weibull_pdf(t, 2.0, 1.2), a, 50.0)
        expected = num / surv_a
        rng = np.random.default_rng(15)
        draws = sample_truncated("weibull_aft", params, a, rng, size=100_000)
        mc_se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - expected) < 3 * mc_se

    def test_saturation_error(self):
        with pytest.raises(SaturationError):
            sample_truncated("exponential", {"mean": 1.0}, 1e6, np.random.default_rng(0))

    def test_bitwise_the_explicit_formula(self):
        # u ~ U(0, 1), H = -(log S(lower) + log(1 - u)) and t = H^(-1): the
        # same times, and the generator left where one draw of the uniforms leaves it
        lower = np.array([0.0, 0.4, 1.7, 3.0])
        mean = np.array([1.3, 0.6, 2.2, 4.0])
        for family, shape in (("exponential", None), ("weibull_aft", 1.7), ("weibull_aft", 0.6)):
            params = {"mean": mean} if shape is None else {"mean": mean, "shape": shape}
            rng, ref = np.random.default_rng(3), np.random.default_rng(3)
            got = sample_truncated(family, params, lower, rng, size=4)
            u = ref.random(4)
            if shape is None:
                theta = 1.0 / mean
                h = -(-theta * lower + np.log1p(-u))
                t = h / theta
            else:
                theta = np.exp(gammaln(1.0 + 1.0 / shape)) / mean
                with np.errstate(divide="ignore"):
                    log_t = np.where(lower > 0, np.log(np.maximum(lower, 1e-300)), -np.inf)
                log_s = -np.where(lower > 0, np.exp(shape * (np.log(theta) + log_t)), 0.0)
                h = -(log_s + np.log1p(-u))
                t = np.exp(np.log(h) / shape) / theta
            want = np.maximum(t, np.nextafter(lower, np.inf))
            assert got.tobytes() == want.tobytes()
            assert rng.bit_generator.state == ref.bit_generator.state


class TestChangeOfVariables:
    def test_exponential_density_and_survival_shift(self):
        # the time-scale phenomenon at parameter level, exact
        rng = np.random.default_rng(16)
        c = 30.0
        for _ in range(300):
            t = rng.uniform(0.1, 50)
            mu = 1 / rng.uniform(0.05, 2)
            ld = log_density("exponential", {"mean": mu}, t)
            ld_scaled = log_density("exponential", {"mean": mu / c}, t / c)
            assert ld + math.log(c) == pytest.approx(ld_scaled, abs=1e-10)
            ls = log_survival("exponential", {"mean": mu}, t)
            ls_scaled = log_survival("exponential", {"mean": mu / c}, t / c)
            assert ls == pytest.approx(ls_scaled, abs=1e-12)


class TestWeibullExponentialReduction:
    def test_full_reduction_at_shape_one(self):
        rng = np.random.default_rng(17)
        t = rng.uniform(0.05, 20, size=10_000)
        mu = rng.uniform(0.2, 10, size=10_000)
        w = {"shape": 1.0, "mean": mu}
        e = {"mean": mu}
        assert np.allclose(log_density("weibull_aft", w, t),
                           log_density("exponential", e, t), atol=1e-10)
        assert np.allclose(cdf("weibull_aft", w, t), cdf("exponential", e, t), atol=1e-10)
        assert np.allclose(hazard("weibull_aft", w, t), hazard("exponential", e, t),
                           rtol=1e-10)


class TestLongFormatLikelihoodIdentity:
    def test_bernoulli_product_equals_hazard_product(self):
        # the row-wise Bernoulli likelihood must equal the discrete-time
        # survival likelihood assembled from hazards directly
        rng = np.random.default_rng(18)
        for _ in range(300):
            k_last = rng.integers(1, 9)
            is_event = rng.random() < 0.5
            p = rng.uniform(0.01, 0.6, size=k_last)
            y = np.zeros(k_last)
            if is_event:
                y[-1] = 1
            bernoulli = float(np.sum(y * np.log(p) + (1 - y) * np.log1p(-p)))
            # hazard product: survive k-1 intervals, then event or survive
            surv = float(np.sum(np.log1p(-p[:-1])))
            hazardly = surv + (math.log(p[-1]) if is_event else math.log1p(-p[-1]))
            assert bernoulli == pytest.approx(hazardly, abs=1e-12)


class TestPredictiveHelpers:
    def make_fit_inputs(self, n=30, seed=20):
        rng = np.random.default_rng(seed)
        covs = {"x": rng.normal(size=n)}
        times = rng.exponential(2.0, size=n) + 0.01
        status = np.where(rng.random(n) < 0.7, "event", "right_censored")
        data = SurvivalDataset(np.arange(1, n + 1), np.zeros(n), times, status, covs)
        spec = ModelSpec(family="exponential", fixed=("x",))
        design = ModelDesign(spec, covs)
        beta = rng.normal(size=(40, 2)) * 0.3
        return spec, design, beta, data

    def test_predictive_matrix_shape(self):
        spec, design, beta, data = self.make_fit_inputs()
        rng = np.random.default_rng(0)
        sims = posterior_predictive_times(spec, design, beta, data, rng)
        assert sims.shape == (40, 30)
        assert np.all(sims > 0)

    def test_predictive_times_bitwise_over_blocks(self, monkeypatch):
        # drawn and inverted 64 elements at a time: the same times, and the
        # generator left where one draw of all the uniforms leaves it
        spec, design, beta, data = self.make_fit_inputs()
        alpha = np.random.default_rng(3).uniform(0.5, 2.0, size=(40, 1))
        weibull = DrawsMatrix(np.hstack([beta, alpha]), (*design.parameter_names, "alpha"))
        for spec_, draws, n_draws in ((spec, beta, None), (spec, beta, 25),
                                      (replace(spec, family="weibull_aft"), weibull, None)):
            runs = []
            for chunk in (models._CHUNK, 64):
                monkeypatch.setattr(models, "_CHUNK", chunk)
                rng = np.random.default_rng(7)
                sims = posterior_predictive_times(spec_, design, draws, data, rng, n_draws)
                runs.append((sims.tobytes(), rng.bit_generator.state))
            monkeypatch.undo()
            assert runs[0] == runs[1]

    def test_imputed_times_exceed_censor_times(self):
        spec, design, beta, data = self.make_fit_inputs()
        rng = np.random.default_rng(1)
        imputed = impute_censored(spec, design, beta, data, rng, n_imputations=10)
        cens = data.status == "right_censored"
        for ds in imputed:
            assert np.all(ds.status == "event")
            assert np.all(ds.time[cens] > data.time[cens])
            assert np.array_equal(ds.time[~cens], data.time[~cens])

    def test_imputation_count_and_family_refused(self):
        spec, design, beta, data = self.make_fit_inputs()
        rng = np.random.default_rng(1)
        for n_imputations in (0, -1):
            with pytest.raises(ModelError, match=f"at least 1, got {n_imputations}"):
                impute_censored(spec, design, beta, data, rng, n_imputations)
        bern = get_preset("bernoulli-gist")
        with pytest.raises(ModelError, match="continuous families"):
            impute_censored(bern, design, beta, data, rng, 1)
        # more imputations than the 40 draws: refused after the family check
        with pytest.raises(ModelError, match="continuous families"):
            impute_censored(bern, design, beta, data, rng, 41)
        with pytest.raises(ModelError, match="more imputations requested than available"):
            impute_censored(spec, design, beta, data, rng, 41)

    def test_picks_at_and_beyond_every_draw(self):
        # n == S and n > S predictive draws are all S draws in order; n == S
        # imputations use each draw once, in order
        spec, design, beta, data = self.make_fit_inputs()
        runs = []
        for n_draws in (None, 40, 41, 1000):
            rng = np.random.default_rng(8)
            sims = posterior_predictive_times(spec, design, beta, data, rng, n_draws)
            runs.append((sims.tobytes(), rng.bit_generator.state))
        assert all(run == runs[0] for run in runs[1:])
        imputed = impute_censored(spec, design, beta, data, np.random.default_rng(9), 40)
        cens = data.status == "right_censored"
        rng = np.random.default_rng(9)
        mean = subject_params(spec, design, beta, data.covariates)["mean"][cens]
        for s, ds in enumerate(imputed):
            want = sample_truncated("exponential", {"mean": mean[:, s]}, data.time[cens], rng,
                                    size=int(cens.sum()))
            assert ds.time[cens].tobytes() == want.tobytes()


class TestPresets:
    def test_presets_build(self):
        for name in ("bernoulli-gist", "exponential-gist", "weibull-gist"):
            spec = get_preset(name)
            assert spec.name == name
        b = get_preset("bernoulli-gist")
        assert b.fixed == ("AdjOn", "GenderMale", "Rupture", "Gastric")
        assert tuple(s.name for s in b.smooths) == (
            "TimeSinceAdjStopped", "Time", "Size", "AgeAtSurg", "MitHPF")
        assert b.priors.intercept == student_t(3, 0, 2.5)
        assert b.priors.fixed == normal(0, 2)
        e = get_preset("exponential-gist")
        assert e.priors.intercept == student_t(3, 2.3, 2.5)
        w = get_preset("weibull-gist")
        assert w.priors.shape.kind == "gamma"
        assert w.priors.shape.params == (0.01, 0.01)

    def test_spec_dict_round_trip(self):
        custom = ModelSpec(
            family="weibull_aft", fixed=("GenderMale",), name="custom",
            smooths=(SmoothSpec("Size", degree=2, n_knots=3), SmoothSpec("MitHPF")),
            hierarchical_smooths=True,
            priors=PriorSet(intercept=student_t(3, 2.3, 2.5), fixed=normal(0, 1.5),
                            shape=gamma(2, 1), smooth_scale=half_student_t(3, 1)))
        for spec in [get_preset(name) for name in PRESETS] + [custom]:
            text = json.dumps(spec.to_dict(), sort_keys=True)
            back = ModelSpec.from_dict(json.loads(text))
            assert back == spec
            assert json.dumps(back.to_dict(), sort_keys=True) == text

    @pytest.mark.parametrize("make, params", [
        (normal, (0, math.inf)), (normal, (0, math.nan)), (normal, (math.inf, 1)),
        (normal, (-math.inf, 1)), (normal, (math.nan, 1)), (student_t, (math.inf, 0, 1)),
        (student_t, (3, -math.inf, 1)), (student_t, (3, 0, math.nan)),
        (half_student_t, (3, math.inf)), (half_student_t, (math.nan, 1)),
        (gamma, (math.inf, 1)), (gamma, (1, math.nan))])
    def test_non_finite_prior_parameter_refused(self, make, params):
        # each passed the sign checks: an inf scale ended the fit in a
        # SamplingError at the first log posterior
        with pytest.raises(ModelError, match="prior parameters must be finite"):
            make(*params)

    @pytest.mark.parametrize("family", ["exponential", "weibull_aft", "bernoulli_logit"])
    def test_spec_without_a_coefficient_refused(self, family):
        with pytest.raises(ModelError, match="needs an intercept, a fixed effect or a smooth"):
            ModelSpec(family=family, intercept=False)
