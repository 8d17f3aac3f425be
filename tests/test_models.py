import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln
from scipy.stats import kstest

from survcheck.data import DrawsMatrix, Record, SurvivalDataset
from survcheck.models import (
    ModelDesign,
    ModelError,
    ModelSpec,
    SaturationError,
    cdf,
    eta,
    get_preset,
    hazard,
    impute_censored,
    log_density,
    log_interval_prob,
    log_lik_point,
    log_survival,
    logistic,
    normal,
    posterior_predictive_times,
    sample_event_time,
    sample_truncated,
    spline_basis,
    spline_knots,
    student_t,
    subject_params,
)


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

    def test_too_few_distinct_values(self):
        with pytest.raises(ModelError, match="distinct"):
            spline_knots(np.array([1.0, 1.0, 2.0]), n_knots=5, degree=3)


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
        value, tag = log_lik_point("exponential", {"rate": 1.0}, record(1.0, "event"))
        assert value == pytest.approx(-1.0)
        assert tag == "density"

    def test_right_censored_at_zero(self):
        value, tag = log_lik_point("exponential", {"rate": 1.0}, record(0.0, "right_censored"))
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
        value, tag = log_lik_point("exponential", {"rate": 0.5}, record(2.0, "left_censored"))
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
            _, tag = log_lik_point("exponential", {"rate": 1.0}, record(1.0, status, bounds))
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
            log_density("exponential", {"rate": 1.0}, -1.0)


class TestCdf:
    def test_weibull_shape_one_is_exponential(self):
        t = np.linspace(0.01, 10, 50)
        mu = 2.5
        w = cdf("weibull_aft", {"shape": 1.0, "mean": mu}, t)
        e = cdf("exponential", {"rate": 1 / mu}, t)
        assert np.allclose(w, e, atol=1e-12)

    def test_boundaries(self):
        assert cdf("exponential", {"rate": 2.0}, 0.0) == 0.0
        assert cdf("exponential", {"rate": 2.0}, 1e9) == pytest.approx(1.0)

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
        assert hazard("exponential", {"rate": 0.3}, 1.0) == pytest.approx(0.3)
        assert hazard("exponential", {"rate": 0.3}, 100.0) == pytest.approx(0.3)

    def test_weibull_shape_one_reduces(self):
        t = np.linspace(0.1, 5, 20)
        h = hazard("weibull_aft", {"shape": 1.0, "rate": 0.7}, t)
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

    def test_matches_high_precision(self):
        import mpmath

        rng = np.random.default_rng(9)
        for e in rng.normal(scale=4, size=50):
            expected = float(1 / (1 + mpmath.e ** (-mpmath.mpf(float(e)))))
            assert logistic(e) == pytest.approx(expected, rel=1e-14)


class TestSampling:
    def test_exponential_inverse_cdf_algebra(self):
        # u = 1 - exp(-2) must map to t = 2 under rate 1
        from survcheck.models import quantile

        u = 1 - math.exp(-2)
        assert quantile("exponential", {"rate": 1.0}, u) == pytest.approx(2.0, abs=1e-12)

    def test_draws_match_analytic_cdf(self):
        rng = np.random.default_rng(10)
        draws = sample_event_time("exponential", {"rate": 0.8}, rng, size=100_000)
        stat = kstest(draws, lambda t: cdf("exponential", {"rate": 0.8}, t)).statistic
        assert stat < 0.01

    def test_weibull_shape_one_matches_exponential(self):
        rng = np.random.default_rng(11)
        a = sample_event_time("weibull_aft", {"shape": 1.0, "mean": 2.0}, rng, size=20_000)
        p = kstest(a, lambda t: cdf("exponential", {"rate": 0.5}, t)).pvalue
        assert p > 0.01

    def test_pit_of_samples_uniform(self):
        rng = np.random.default_rng(12)
        params = {"shape": 1.7, "mean": 3.0}
        draws = sample_event_time("weibull_aft", params, rng, size=50_000)
        u = cdf("weibull_aft", params, draws)
        assert kstest(u, "uniform").statistic < 0.01


class TestTruncatedSampling:
    def test_memorylessness(self):
        rng = np.random.default_rng(13)
        a = 2.5
        draws = sample_truncated("exponential", {"rate": 1.3}, a, rng, size=100_000)
        assert np.all(draws > a)
        p = kstest(draws - a, lambda t: cdf("exponential", {"rate": 1.3}, t)).pvalue
        assert p > 0.01

    def test_zero_lower_matches_unconditional(self):
        rng = np.random.default_rng(14)
        cut = sample_truncated("exponential", {"rate": 1.0}, 0.0, rng, size=50_000)
        assert kstest(cut, lambda t: cdf("exponential", {"rate": 1.0}, t)).pvalue > 0.01

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
            sample_truncated("exponential", {"rate": 1.0}, 1e6, np.random.default_rng(0))


class TestChangeOfVariables:
    def test_exponential_density_and_survival_shift(self):
        # the time-scale phenomenon at parameter level, exact
        rng = np.random.default_rng(16)
        c = 30.0
        for _ in range(300):
            t = rng.uniform(0.1, 50)
            theta = rng.uniform(0.05, 2)
            ld = log_density("exponential", {"rate": theta}, t)
            ld_scaled = log_density("exponential", {"rate": c * theta}, t / c)
            assert ld + math.log(c) == pytest.approx(ld_scaled, abs=1e-10)
            ls = log_survival("exponential", {"rate": theta}, t)
            ls_scaled = log_survival("exponential", {"rate": c * theta}, t / c)
            assert ls == pytest.approx(ls_scaled, abs=1e-12)


class TestWeibullExponentialReduction:
    def test_full_reduction_at_shape_one(self):
        rng = np.random.default_rng(17)
        t = rng.uniform(0.05, 20, size=10_000)
        mu = rng.uniform(0.2, 10, size=10_000)
        w = {"shape": 1.0, "mean": mu}
        e = {"rate": 1 / mu}
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

    def test_imputed_times_exceed_censor_times(self):
        spec, design, beta, data = self.make_fit_inputs()
        rng = np.random.default_rng(1)
        imputed = impute_censored(spec, design, beta, data, rng, n_imputations=10)
        cens = data.status == "right_censored"
        for ds in imputed:
            assert np.all(ds.status == "event")
            assert np.all(ds.time[cens] > data.time[cens])
            assert np.array_equal(ds.time[~cens], data.time[~cens])


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
        spec = get_preset("weibull-gist")
        back = ModelSpec.from_dict(spec.to_dict())
        assert back == spec
