import csv
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from survcheck.checks import dichotomize_outcomes
from survcheck.data import (
    EVENT,
    INTERVAL_CENSORED,
    STATUSES,
    DataError,
    DrawsMatrix,
    LongDataset,
    SurvivalDataset,
    TimeGrid,
    TreatmentRule,
    apply_scaling,
    expand_long,
    rescale_time,
    scale_covariates,
    to_short_form,
)
from survcheck import loo, models
from survcheck.loo import (
    LogLikMatrix,
    LooError,
    apply_refits,
    bernoulli_dichotomized_loglik,
    compare,
    elpd_loo,
    exact_refit_loo,
    flag_for_refit,
    gpd_quantile,
    group_long_by_subject,
    loglik_matrix,
    psis_smooth,
    psis_tail_size,
    write_loglik_csv,
)
from survcheck.models import (
    ModelDesign,
    ModelError,
    ModelSpec,
    SmoothSpec,
    get_preset,
    subject_params,
)
from survcheck.sampler import PosteriorModel, SamplerConfig, fit
from survcheck.simulate import ScenarioConfig, simulate_scenario

import psis_oracle
from posterior_oracle import held_out_designs
from pointwise_oracle import log_lik_point, row


def exp_data(rng, n=25, rate=0.6, censor_at=2.5, covariate=True):
    covs = {"x": rng.normal(size=n)} if covariate else {}
    scale = (1 / rate) * np.exp(0.4 * covs["x"]) if covariate else 1 / rate
    times = rng.exponential(scale, size=n)
    status = np.full(n, "event", dtype=object)
    if censor_at is not None:
        cens = times > censor_at
        times = np.minimum(times, censor_at)
        status[cens] = "right_censored"
    return SurvivalDataset(np.arange(1, n + 1), np.zeros(n), times, status, covs)


def mat(values, tags=None, ids=None):
    values = np.asarray(values, dtype=float)
    tags = tags or ("probability",) * values.shape[1]
    ids = ids or tuple(range(values.shape[1]))
    return LogLikMatrix(values, tags, ids)


def fit_tail(tail_sample) -> tuple[float, float]:
    """The generalized Pareto fit PSIS makes of one sorted tail sample."""
    khat, sigma = loo._fit_tails(np.sort(np.asarray(tail_sample, dtype=float))[None])
    return float(khat[0]), float(sigma[0])


class TestGpdFit:
    def test_too_few_points(self):
        assert math.isnan(fit_tail([1.0, 2.0, 3.0, 4.0])[0])

    def test_constant_tail_degenerate(self):
        assert math.isnan(fit_tail([2.0] * 10)[0])

    def test_recovers_positive_shape(self):
        rng = np.random.default_rng(0)
        u = rng.random(10_000)
        k_true, sigma = 0.5, 1.0
        x = gpd_quantile(u, k_true, sigma)
        khat, sigma_hat = fit_tail(x)
        assert 0.45 <= khat <= 0.55
        assert 0.9 <= sigma_hat <= 1.1

    def test_exponential_tail_near_zero(self):
        rng = np.random.default_rng(1)
        x = rng.exponential(1.0, size=10_000)
        khat, _ = fit_tail(x)
        assert abs(khat) < 0.05

    def test_grid_point_at_zero_skipped_as_alone(self):
        # a lower quartile that puts profile grid point 5 at exactly b = 0:
        # its log-likelihood is nan, and the posterior weights run over the
        # other points, in the per-column order
        n = 8
        m = 30 + int(math.sqrt(n))
        grid = 1.0 - np.sqrt(m / (np.arange(1, m + 1) - 0.5))
        xq = -grid[5] / 3.0
        for _ in range(100):
            if grid[5] / (3.0 * xq) + 1.0 == 0.0:
                break
            xq = np.nextafter(xq, np.inf)
        x = np.concatenate([[xq / 4, xq], np.geomspace(1.5 * xq, 1.0, n - 2)])
        assert grid[5] / (3.0 * x[int(n / 4 + 0.5) - 1]) + 1.0 / x[-1] == 0.0
        assert fit_tail(x) == psis_oracle.gpd_fit(x)

    def test_quantiles_broadcast_one_fit_per_row(self):
        u = np.array([0.05, 0.5, 0.95])
        khat = np.array([[0.0], [0.5], [-0.25]])
        sigma = np.array([[1.0], [2.0], [0.5]])
        q = gpd_quantile(u, khat, sigma)
        assert q.shape == (3, 3)
        assert np.array_equal(q[0], -1.0 * np.log1p(-u))
        for row_q, k, s in zip(q[1:], khat[1:, 0], sigma[1:, 0]):
            assert np.array_equal(row_q, s / k * np.expm1(-k * np.log1p(-u)))


class TestPsis:
    def test_constant_column_uniform_weights(self):
        S = 200
        loglik = mat(np.full((S, 1), -1.3))
        res = psis_smooth(loglik)
        assert res.degenerate[0]
        assert np.isnan(res.khat[0])
        assert np.allclose(np.exp(res.log_weights[:, 0]), 1 / S)

    def test_nonfinite_column_uniform_weights(self):
        S = 200
        vals = np.random.default_rng(1).normal(-2, 1, size=(S, 2))
        vals[3, 1] = -np.inf
        res = psis_smooth(mat(vals))
        assert list(res.degenerate) == [False, True]
        assert np.all(res.log_weights[:, 1] == res.log_weights[0, 1])
        assert res.log_weights[0, 1] == pytest.approx(-math.log(S), rel=1e-15)

    def test_weights_normalize(self):
        rng = np.random.default_rng(2)
        loglik = mat(rng.normal(-2, 1, size=(400, 7)))
        res = psis_smooth(loglik)
        sums = np.exp(logsumexp(res.log_weights, axis=0))
        assert np.allclose(sums, 1.0, atol=1e-12)
        assert np.all(res.ess > 1)

    def test_low_khat_matches_plain_importance_sampling(self):
        rng = np.random.default_rng(3)
        # well-behaved case: mild ratios
        loglik_col = -1.0 + 0.3 * rng.standard_normal(4000)
        loglik = mat(loglik_col[:, None])
        res = psis_smooth(loglik)
        assert res.khat[0] < 0.3
        psis_elpd = logsumexp(res.log_weights[:, 0] + loglik_col)
        lw_raw = -loglik_col
        lw_raw -= logsumexp(lw_raw)
        plain = logsumexp(lw_raw + loglik_col)
        assert abs(psis_elpd - plain) < 0.01

    def test_small_draw_count_warns(self):
        rng = np.random.default_rng(4)
        with pytest.warns(UserWarning, match="unreliable"):
            psis_smooth(mat(rng.normal(size=(30, 2))))

    def test_smoothed_weights_capped_at_raw_max(self):
        rng = np.random.default_rng(5)
        lr = rng.normal(0, 2, size=1000)  # raw log ratios
        res = psis_smooth(mat(-lr[:, None]))
        assert not res.degenerate[0]
        assert np.isfinite(res.khat[0])
        # the smallest ratio is outside the tail, so it keeps its raw value
        # (shifted so the raw max is 0): undo the normalization with it
        low = np.argmin(lr)
        smoothed = res.log_weights[:, 0] + (lr[low] - lr.max() - res.log_weights[low, 0])
        # truncation keeps everything <= 0
        assert smoothed.max() <= 1e-12
        # only the tail changes
        M = np.count_nonzero(~np.isclose(smoothed, lr - lr.max()))
        assert M <= psis_tail_size(1000)


def _metropolis_repeats(rng, values):
    """Rows repeated as a random-walk Metropolis chain repeats a rejected draw."""
    moves = np.where(rng.random(len(values)) < 0.3, np.arange(len(values)), 0)
    return values[np.maximum.accumulate(moves)]


def _odd_columns(rng, values, n_exceedances):
    """Overwrite the leading columns with a constant column, a column with a
    -inf score, and one whose tail has ``n_exceedances`` distinct positive
    exceedances over a flat body."""
    S, N = values.shape
    if N > 0:
        values[:, 0] = -1.3
    if N > 1:
        values[rng.integers(S), 1] = -np.inf
    if N > 2:
        values[:, 2] = -1.0
        values[:n_exceedances, 2] = -2.0 - np.arange(n_exceedances)
    return values


def assert_psis_matches_oracle(values):
    loglik = mat(values)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # fewer than 100 draws
        got, want = psis_smooth(loglik), psis_oracle.psis_smooth(loglik)
    for field in ("log_weights", "khat", "ess", "degenerate"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), field
        assert a.tobytes() == b.tobytes(), field


class TestPsisMatchesPerColumnOracle:
    """``psis_smooth`` smooths all columns in one pass; each column's log
    weights, k-hat, ESS and degenerate flag are bitwise those of the
    per-column oracle."""

    @pytest.mark.parametrize("n_draws", [100, 1000, 4000])
    def test_draw_counts(self, n_draws):
        rng = np.random.default_rng(n_draws)
        assert_psis_matches_oracle(
            rng.standard_t(5, size=(n_draws, 12)) * rng.uniform(0.05, 3.0, 12) - 2.0)

    def test_repeated_draws(self):
        rng = np.random.default_rng(7)
        values = _metropolis_repeats(rng, rng.normal(-2.0, 1.0, size=(1000, 40)))
        assert_psis_matches_oracle(values)

    def test_ties_straddling_the_cutoff(self):
        rng = np.random.default_rng(8)
        values = np.round(rng.normal(-2.0, 1.0, size=(1000, 40)), 1)
        # the (M+1)-th largest log ratio, the cutoff, recurs below it in
        # most columns, and in the tail above it in most
        lr = np.sort(-values, axis=0)
        M = psis_tail_size(1000)
        assert np.count_nonzero(lr[-M - 1] == lr[-M - 2]) >= 30
        assert np.count_nonzero(lr[-M - 1] == lr[-M]) >= 30
        assert_psis_matches_oracle(values)

    @pytest.mark.parametrize("n_exceedances", [3, 4, 5, 6])
    def test_constant_nonfinite_and_few_distinct_columns(self, n_exceedances):
        rng = np.random.default_rng(9)
        values = _odd_columns(rng, rng.normal(-1.0, 0.7, size=(400, 6)), n_exceedances)
        res = psis_smooth(mat(values))
        assert list(res.degenerate[:3]) == [True, True, n_exceedances < 5]
        assert_psis_matches_oracle(values)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n_draws=st.sampled_from([30, 100, 1000, 4000]), n_units=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1), df=st.integers(2, 30),
           repeats=st.booleans(), decimals=st.sampled_from([None, 0, 1, 2]),
           odd=st.booleans(), n_exceedances=st.integers(0, 8))
    def test_random_matrices(self, n_draws, n_units, seed, df, repeats, decimals, odd,
                             n_exceedances):
        rng = np.random.default_rng(seed)
        values = (rng.standard_t(df, size=(n_draws, n_units))
                  * rng.uniform(0.05, 3.0, n_units) - 2.0)
        if repeats:
            values = _metropolis_repeats(rng, values)
        if decimals is not None:
            values = np.round(values, decimals)
        if odd:
            values = _odd_columns(rng, values, n_exceedances)
        assert_psis_matches_oracle(values)


class TestPsisBlocks:
    """PSIS partial-sorts and fits the tails over ``models._row_blocks``: in
    blocks of 64 elements its results are bitwise those of one block."""

    FIELDS = ("log_weights", "khat", "ess", "degenerate")

    def test_blocked_matches_one_block_and_oracle(self, monkeypatch):
        rng = np.random.default_rng(14)
        values = _metropolis_repeats(rng, rng.standard_t(6, size=(400, 30)) - 2.0)
        values = _odd_columns(rng, values, 5)
        one = psis_smooth(mat(values))
        monkeypatch.setattr(models, "_CHUNK", 64)
        assert len(models._row_blocks((30, 400))) == 30
        blocked = psis_smooth(mat(values))
        for field in self.FIELDS:
            assert getattr(blocked, field).tobytes() == getattr(one, field).tobytes(), field
        assert_psis_matches_oracle(values)

    def test_no_finite_column(self):
        # no column is smoothed: the (0, S) log ratios are one block
        values = np.random.default_rng(15).normal(-2.0, 1.0, size=(200, 3))
        values[[5, 9, 0], [0, 1, 2]] = -np.inf
        assert models._row_blocks((0, 200)) == [...]
        res = psis_smooth(mat(values))
        assert res.degenerate.all() and np.isnan(res.khat).all()
        assert np.all(res.log_weights == -math.log(200))
        assert_psis_matches_oracle(values)


class TestElpd:
    def test_single_unit_se_zero(self):
        rng = np.random.default_rng(6)
        rep = elpd_loo(mat(rng.normal(-1, 0.2, size=(300, 1))))
        assert rep.se == 0.0

    def test_certain_censored_point_scores_zero(self):
        rep = elpd_loo(mat(np.zeros((150, 1))))
        assert rep.pointwise[0] == pytest.approx(0.0)
        assert rep.total == pytest.approx(0.0)

    def test_tiny_case_equal_weights(self):
        from survcheck.loo import PsisResult

        loglik = mat(np.log([[0.2], [0.4]]))
        equal = PsisResult(np.full((2, 1), math.log(0.5)), np.array([np.nan]),
                           np.array([2.0]), np.array([True]))
        rep = elpd_loo(loglik, equal)
        assert rep.pointwise[0] == pytest.approx(math.log(0.3))

    def test_matrix_without_draws_refused(self):
        with pytest.raises(LooError, match="no draws"):
            mat(np.empty((0, 3)))

    def test_all_minus_inf_column(self):
        loglik = mat(np.full((150, 1), -np.inf))
        rep = elpd_loo(loglik)
        assert rep.pointwise[0] == -np.inf
        assert rep.total == -np.inf

    def test_se_formula(self):
        rng = np.random.default_rng(7)
        vals = rng.normal(-1, 0.1, size=(500, 6))
        rep = elpd_loo(mat(vals))
        expected = math.sqrt(6 * np.var(rep.pointwise, ddof=1))
        assert rep.se == pytest.approx(expected)

    def test_pointwise_between_column_extremes(self):
        rng = np.random.default_rng(8)
        vals = rng.normal(-2, 1, size=(800, 10))
        rep = elpd_loo(mat(vals))
        assert np.all(rep.pointwise >= vals.min(axis=0) - 1e-9)
        assert np.all(rep.pointwise <= vals.max(axis=0) + 1e-9)


class TestCompare:
    def test_model_against_itself(self):
        rng = np.random.default_rng(9)
        ll = mat(rng.normal(-1, 0.3, size=(300, 5)))
        a = elpd_loo(ll, name="a")
        b = elpd_loo(ll, name="b")
        rep = compare([a, b])
        assert rep.rows[1]["delta_elpd"] == 0.0
        assert rep.rows[1]["se_delta"] == 0.0
        assert rep.rows[1]["indistinguishable"]

    def test_constant_difference_zero_se(self):
        rng = np.random.default_rng(10)
        base = rng.normal(-1, 0.3, size=(300, 4))
        a = elpd_loo(mat(base), name="a")
        b_ll = mat(base + math.log(2))  # every pointwise shifts by log 2 exactly
        b = elpd_loo(b_ll, name="b")
        rep = compare([a, b])
        worst = rep.rows[1]
        assert worst["model"] == "a"
        assert worst["delta_elpd"] == pytest.approx(-4 * math.log(2), abs=1e-9)
        assert worst["se_delta"] == pytest.approx(0.0, abs=1e-9)

    def test_hand_computed_paired_se(self):
        # n=4 synthetic pointwise vectors, Eq-style paired computation
        pw_a = np.array([-1.0, -2.0, -1.5, -0.5])
        pw_b = np.array([-1.2, -1.8, -2.0, -0.4])
        a = mat(np.tile(pw_a, (100, 1)))
        b = mat(np.tile(pw_b, (100, 1)))
        rep = compare([elpd_loo(a, name="a"), elpd_loo(b, name="b")])
        best, worst = rep.rows
        assert best["model"] == "a"  # totals: -5.0 vs -5.4
        d = pw_b - pw_a
        assert worst["delta_elpd"] == pytest.approx(d.sum())
        assert worst["se_delta"] == pytest.approx(math.sqrt(4 * np.var(d, ddof=1)))
        assert worst["indistinguishable"] == (abs(d.sum()) <= 2 * math.sqrt(4 * np.var(d, ddof=1)))

    def test_refuses_mismatched_units(self):
        a = elpd_loo(mat(np.zeros((150, 2)), ids=(1, 2)))
        b = elpd_loo(mat(np.zeros((150, 2)), ids=(1, 3)))
        with pytest.raises(LooError, match="units"):
            compare([a, b])

    def test_refuses_mismatched_tags(self):
        a = elpd_loo(mat(np.zeros((150, 2)), tags=("density", "probability")))
        b = elpd_loo(mat(np.zeros((150, 2)), tags=("probability", "probability")))
        with pytest.raises(LooError, match="tag"):
            compare([a, b])

    def test_warns_on_time_unit_mismatch(self):
        a = elpd_loo(LogLikMatrix(np.zeros((150, 2)), ("density",) * 2, (1, 2), "days"))
        b = elpd_loo(LogLikMatrix(np.zeros((150, 2)), ("density",) * 2, (1, 2), "months"))
        with pytest.warns(UserWarning, match="time units differ"):
            rep = compare([a, b])
        assert rep.warnings


class TestGrouped:
    def test_single_row_subject_unchanged(self):
        ll = mat(np.log([[0.5, 0.3]]), ids=((1, 1), (2, 1)))
        grouped = group_long_by_subject(ll)
        assert grouped.unit_ids == (1, 2)
        assert np.allclose(grouped.values, ll.values)

    def test_two_rows_product(self):
        ll = mat(np.log([[0.5, 0.5]]), ids=((7, 1), (7, 2)))
        grouped = group_long_by_subject(ll)
        assert grouped.unit_ids == (7,)
        assert grouped.values[0, 0] == pytest.approx(math.log(0.25))

    def test_subject_keyed_matrix_unchanged(self):
        ll = mat(np.zeros((5, 2)), tags=("density", "probability"), ids=(1, 2))
        assert group_long_by_subject(ll) is ll

    def test_bernoulli_grouped_equals_hazard_product_elpd(self):
        # grouped column value per draw = discrete-time likelihood of the
        # subject; verified against direct hazard-product computation
        rng = np.random.default_rng(11)
        S = 40
        for _ in range(30):
            k = int(rng.integers(1, 7))
            p = rng.uniform(0.05, 0.6, size=(S, k))
            y = np.zeros(k)
            if rng.random() < 0.5:
                y[-1] = 1
            rows = y * np.log(p) + (1 - y) * np.log1p(-p)
            ll = mat(rows, ids=tuple((1, j + 1) for j in range(k)))
            grouped = group_long_by_subject(ll)
            direct = np.log1p(-p[:, :-1]).sum(axis=1) + (
                np.log(p[:, -1]) if y[-1] else np.log1p(-p[:, -1]))
            assert np.allclose(grouped.values[:, 0], direct, atol=1e-12)


class TestLogLikMatrixBuilder:
    def setup_method(self):
        rng = np.random.default_rng(12)
        self.data = exp_data(rng, n=12, covariate=False)
        self.spec = ModelSpec(family="exponential")
        self.design = ModelDesign(self.spec, {})
        # two draws: rate 1 and rate 2 (mean may differ), intercept = log(mu)
        self.draws = DrawsMatrix(np.array([[0.0], [math.log(0.5)]]), ("b_Intercept",))

    def test_raw_mode_event_value(self):
        data = SurvivalDataset([1], [0.0], [1.0], ["event"], {})
        ll = loglik_matrix(self.spec, self.design, self.draws, data, mode="raw")
        # rate 1 draw: log f(1) = -1
        assert ll.values[0, 0] == pytest.approx(-1.0)
        assert ll.tags == ("density",)

    def test_interval_mode_value_and_tag(self):
        data = SurvivalDataset([1], [0.0], [1.0], ["event"], {})
        grid = TimeGrid(1.0, 10)
        ll = loglik_matrix(self.spec, self.design, self.draws, data,
                           mode="interval", grid=grid)
        assert ll.values[0, 0] == pytest.approx(math.log(1 - math.exp(-1)))
        assert ll.tags == ("probability",)

    def test_censored_rows_tagged_probability(self):
        ll = loglik_matrix(self.spec, self.design, self.draws, self.data, mode="raw")
        for tag, status in zip(ll.tags, self.data.status):
            assert tag == ("density" if status == "event" else "probability")

    def test_dichotomized_mode(self):
        ll = loglik_matrix(self.spec, self.design, self.draws, self.data,
                           mode="dichotomized", horizon=1.0)
        assert set(ll.tags) == {"probability"}
        # excluded subjects (censored before horizon) are dropped
        from survcheck.checks import dichotomize_outcomes

        z, keep, excluded = dichotomize_outcomes(self.data, 1.0)
        assert len(ll.unit_ids) == len(keep)

    @pytest.mark.parametrize("family", ["exponential", "bernoulli_logit"])
    def test_unknown_mode_refused(self, family):
        spec = ModelSpec(family=family)
        with pytest.raises(LooError, match="unknown scoring mode"):
            loglik_matrix(spec, self.design, self.draws, self.data, mode="intervals")


class TestBernoulliBlocks:
    """A Bernoulli model's matrices scored in blocks of 64 elements are bitwise
    those scored in one block."""

    def setup_method(self):
        self.long, _ = simulate_scenario(ScenarioConfig(n_subjects=40, seed=3,
                                                        treatment_duration=2))
        self.spec = ModelSpec(family="bernoulli_logit", fixed=("AdjOn", "TimeSinceAdjStopped"))
        self.design = ModelDesign(self.spec, self.long.covariates)
        self.draws = DrawsMatrix(np.random.default_rng(4).normal(scale=0.5, size=(6, 3)),
                                 self.design.parameter_names)

    @staticmethod
    def assert_bitwise_over_blocks(monkeypatch, score):
        one = score()
        with monkeypatch.context() as m:
            m.setattr(models, "_CHUNK", 64)
            blocked = score()
        assert blocked.unit_ids == one.unit_ids
        assert blocked.values.tobytes() == one.values.tobytes()

    def test_raw_rows_as_given_and_shuffled(self, monkeypatch):
        # 10 rows of 6 draws a block: subjects of 1 to 10 rows straddle its edges
        shuffled = self.long.subset(np.random.default_rng(5).permutation(self.long.n_rows))
        for long in (self.long, shuffled):
            self.assert_bitwise_over_blocks(monkeypatch, lambda: loglik_matrix(
                self.spec, self.design, self.draws, long, mode="raw"))
        rows = LogLikMatrix(np.random.default_rng(6).normal(size=(6, shuffled.n_rows)),
                            ("probability",) * shuffled.n_rows,
                            tuple(zip(shuffled.subject_id.tolist(),
                                      shuffled.interval_index.tolist())))
        self.assert_bitwise_over_blocks(monkeypatch, lambda: group_long_by_subject(rows))

    def test_dichotomized(self, monkeypatch):
        self.assert_bitwise_over_blocks(monkeypatch, lambda: bernoulli_dichotomized_loglik(
            self.spec, self.design, self.draws, self.long, 5.0))

    def test_raw_scores_hold_one_draws_by_rows_matrix(self):
        # the draws x rows probabilities are the one array of their size; scored
        # all at once, their row scores and a log p temporary made three
        import tracemalloc

        rng = np.random.default_rng(6)
        counts = rng.integers(1, 14, size=300)
        n_rows, n_draws = int(counts.sum()), 600
        interval = np.concatenate([np.arange(1, c + 1) for c in counts])
        event = (interval == np.repeat(counts, counts)) & np.repeat(rng.random(300) < 0.4, counts)
        long = LongDataset(np.repeat(np.arange(1, 301), counts), interval, event.astype(int),
                           {"x": rng.normal(size=n_rows)})
        spec = ModelSpec(family="bernoulli_logit", fixed=("x",))
        design = ModelDesign(spec, long.covariates)
        draws = DrawsMatrix(rng.normal(scale=0.5, size=(n_draws, 2)), design.parameter_names)
        matrix, output, block = 8 * n_rows * n_draws, 8 * 300 * n_draws, 8 * models._CHUNK
        assert matrix >= 8 << 20
        tracemalloc.start()
        try:
            loglik_matrix(spec, design, draws, long, mode="raw")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= matrix + output + 4 * block


class TestBernoulliDichotomized:
    """A discrete-time model scores whole subjects: against per-subject products."""

    HORIZON = 4

    def setup_method(self):
        self.short = SurvivalDataset(
            [1, 2, 3, 4, 5], np.zeros(5), [2.0, 6.0, 2.0, 5.0, 4.0],
            ["event", "right_censored", "right_censored", "event", "event"],
            {"z": [0.3, -1.2, 0.8, 0.0, 1.5], "AdjTreatm": [1.0, 1.0, 0.0, 0.0, 1.0]})
        self.long = expand_long(self.short, TimeGrid(1.0, 6), TreatmentRule(duration=3))
        self.spec = ModelSpec(family="bernoulli_logit",
                              fixed=("z", "Time", "AdjOn", "TimeSinceAdjStopped"))
        self.design = ModelDesign(self.spec, self.long.covariates)
        rng = np.random.default_rng(5)
        self.draws = DrawsMatrix(rng.normal(scale=0.5, size=(7, 5)),
                                 self.design.parameter_names)

    def expected(self, duration_of, short=None, draws=None, horizon=None, static="z"):
        """Per-subject log scores of "event by the horizon", written out row by
        row, under a model with fixed ``static``, Time, AdjOn and
        TimeSinceAdjStopped: of the class's data unless ``short``, ``draws``
        and ``horizon`` are given."""
        short = self.short if short is None else short
        draws = self.draws if draws is None else draws
        horizon = self.HORIZON if horizon is None else horizon
        cols = []
        for i in range(short.n):
            event = short.status[i] == "event"
            if not event and short.time[i] < horizon:  # censored before the horizon: excluded
                continue
            dur = duration_of(int(short.subject_id[i]), short.covariates["AdjTreatm"][i])
            log_no_event = np.zeros(draws.n_draws)
            for k in range(1, horizon + 1):
                x = np.array([1.0, short.covariates[static][i], k,
                              float(k <= dur), max(0.0, k - dur)])
                p = 1.0 / (1.0 + np.exp(-(draws.draws @ x)))
                log_no_event += np.log1p(-p)
            p_event = -np.expm1(log_no_event)
            event_by_horizon = event and short.time[i] <= horizon
            cols.append(np.log(p_event) if event_by_horizon else np.log1p(-p_event))
        return np.column_stack(cols)

    # durations the rows show (1, 2, 4, 5) or, treated through the follow-up
    # of 6, do not (6)
    @pytest.mark.parametrize("rule, duration_of", [
        (None, lambda sid, treated: 3.0 if treated else 0.0),
        *((TreatmentRule(duration=d), lambda sid, treated, d=d: d if treated else 0.0)
          for d in (2.0, 1.0, 4.0, 5.0, 6.0)),
    ])
    def test_matches_per_subject_product(self, rule, duration_of):
        long = self.long if rule is None else expand_long(self.short, TimeGrid(1.0, 6), rule)
        ll = bernoulli_dichotomized_loglik(self.spec, self.design, self.draws, long,
                                           float(self.HORIZON))
        assert ll.unit_ids == (1, 2, 4, 5)
        assert ll.tags == ("probability",) * 4
        np.testing.assert_allclose(ll.values, self.expected(duration_of), rtol=1e-12)

    @pytest.mark.parametrize("duration, follow_up", [(1, 10), (2, 10), (3, 10), (4, 10), (5, 5)])
    def test_simulated_cohort_of_another_duration_scored(self, duration, follow_up):
        # scored under the default 3-interval rule, every duration but 3 was
        # refused; the rule is now read from the rows, at every horizon
        long, short = simulate_scenario(ScenarioConfig(n_subjects=40, seed=3 + duration,
                                                       treatment_duration=duration,
                                                       max_follow_up=follow_up))
        spec = ModelSpec(family="bernoulli_logit",
                         fixed=("GenderMale", "Time", "AdjOn", "TimeSinceAdjStopped"))
        design = ModelDesign(spec, long.covariates)
        draws = DrawsMatrix(np.random.default_rng(4).normal(scale=0.3, size=(6, 5)),
                            design.parameter_names)
        for horizon in range(1, follow_up + 1):
            ll = loglik_matrix(spec, design, draws, long, mode="dichotomized",
                               horizon=float(horizon))
            np.testing.assert_allclose(
                ll.values, self.expected(lambda sid, treated: duration if treated else 0.0,
                                         short, draws, horizon, "GenderMale"), rtol=1e-12)

    def test_cohort_of_two_durations(self):
        # rows showing durations 2 and 4 rebuild under the default rule: a model
        # of AdjOn or TimeSinceAdjStopped is refused, one of statics and Time is
        # scored as each part is on its own
        parts = [simulate_scenario(ScenarioConfig(n_subjects=30, seed=seed,
                                                  treatment_duration=duration))[0]
                 for seed, duration in ((7, 2), (8, 4))]
        parts[1] = replace(parts[1], subject_id=parts[1].subject_id + 100)
        mixed = LongDataset(*(np.concatenate([getattr(p, name) for p in parts])
                              for name in ("subject_id", "interval_index", "outcome")),
                            {name: np.concatenate([p.covariates[name] for p in parts])
                             for name in parts[0].covariates}, parts[0].static_names)
        preset = models.get_preset("bernoulli-gist")
        design = ModelDesign(preset, mixed.covariates)
        draws = DrawsMatrix(np.zeros((2, len(design.parameter_names))), design.parameter_names)
        with pytest.raises(LooError, match="made under another rule"):
            loglik_matrix(preset, design, draws, mixed, mode="dichotomized", horizon=5.0)
        spec = ModelSpec(family="bernoulli_logit", fixed=("GenderMale", "AdjTreatm", "Time"))
        design = ModelDesign(spec, mixed.covariates)
        draws = DrawsMatrix(np.random.default_rng(9).normal(scale=0.3, size=(6, 4)),
                            design.parameter_names)
        ll = loglik_matrix(spec, design, draws, mixed, mode="dichotomized", horizon=5.0)
        alone = [loglik_matrix(spec, design, draws, p, mode="dichotomized", horizon=5.0)
                 for p in parts]
        assert ll.unit_ids == alone[0].unit_ids + alone[1].unit_ids
        assert ll.values.tobytes() == np.hstack([a.values for a in alone]).tobytes()

    def test_rule_past_the_longest_treatment_refused(self):
        # rows of a 6-interval rule whose treated subjects all ended by
        # interval 4 show no end of treatment: they fix the treated rows
        # through interval 4 only, so a model of the treatment columns is
        # scored through it and refused past it
        short = replace(self.short, time=np.minimum(self.short.time, 4.0))
        long = expand_long(short, TimeGrid(1.0, 6), TreatmentRule(duration=6))
        ll = loglik_matrix(self.spec, self.design, self.draws, long, mode="dichotomized",
                           horizon=4.0)
        np.testing.assert_allclose(
            ll.values, self.expected(lambda sid, treated: 6.0 if treated else 0.0, short),
            rtol=1e-12)
        with pytest.raises(LooError, match="no row shows the end of treatment and none is on "
                                           "treatment past interval 4"):
            loglik_matrix(self.spec, self.design, self.draws, long, mode="dichotomized",
                          horizon=5.0)
        # a model of statics and Time, or a cohort with no one treated, is scored
        spec = ModelSpec(family="bernoulli_logit", fixed=("z", "AdjTreatm", "Time"))
        design = ModelDesign(spec, long.covariates)
        draws = DrawsMatrix(self.draws.draws[:, :4], design.parameter_names)
        assert loglik_matrix(spec, design, draws, long, mode="dichotomized",
                             horizon=5.0).unit_ids == (1, 4, 5)
        untreated = replace(short, covariates={**short.covariates,
                                               "AdjTreatm": np.zeros(short.n)})
        ll = loglik_matrix(self.spec, self.design, self.draws,
                           expand_long(untreated, TimeGrid(1.0, 6)), mode="dichotomized",
                           horizon=5.0)
        np.testing.assert_allclose(
            ll.values, self.expected(lambda sid, treated: 0.0, untreated, horizon=5), rtol=1e-12)

    def test_refit_scored_under_the_cohort_rule(self):
        # subject 10 of a 2-interval cohort was treated and failed at interval
        # 2: its rows alone show no end of treatment and read the default 3
        # intervals, so its refit is scored within the whole cohort
        long, short = simulate_scenario(ScenarioConfig(n_subjects=80, seed=3,
                                                       treatment_duration=2))
        spec = ModelSpec(family="bernoulli_logit",
                         fixed=("GenderMale", "Time", "AdjOn", "TimeSinceAdjStopped"))
        config = SamplerConfig(n_chains=2, n_warmup=100, n_keep=60, seed=5)
        refit = exact_refit_loo(spec, long, config, [10], mode="dichotomized", horizon=5.0)
        # the same draws: the unit's lone fit on the training subset
        draws = fit(spec, long.subset(long.subject_id != 10),
                    replace(config, seed=config.seed * 100003 + 1)).draws
        alone = short.subset(short.subject_id == 10)

        def elpd(duration):
            col = self.expected(lambda sid, treated: duration if treated else 0.0, alone,
                                draws, 5, "GenderMale")
            return float(logsumexp(col) - math.log(col.size))

        assert refit["elpd"][10] == pytest.approx(elpd(2.0), rel=1e-12)
        assert abs(elpd(2.0) - elpd(3.0)) > 1e-3

    def test_time_dependent_covariate_outside_the_rule_refused(self):
        # rows 1..horizon of a covariate that changes within a subject and is
        # not made by the rule cannot be rebuilt: every such one is named (a
        # KeyError ended the scoring)
        time = self.long.covariates["Time"]
        long = replace(self.long, covariates={**self.long.covariates, "w": 0.2 * time,
                                              "v": np.sqrt(time)})
        spec = ModelSpec(family="bernoulli_logit", fixed=("w", "z", "v", "AdjOn"))
        design = ModelDesign(spec, long.covariates)
        draws = DrawsMatrix(np.zeros((3, 5)), design.parameter_names)
        with pytest.raises(LooError, match=r"covariates \['v', 'w'\] of the model are neither "
                                           "static nor made by the treatment rule"):
            loglik_matrix(spec, design, draws, long, mode="dichotomized",
                          horizon=float(self.HORIZON))

    @pytest.mark.parametrize("horizon", [2.5, 0.0])
    def test_horizon_must_be_whole_intervals(self, horizon):
        with pytest.raises(LooError, match="whole"):
            bernoulli_dichotomized_loglik(self.spec, self.design, self.draws, self.long,
                                          horizon)

    def hazard_products(self):
        """Per-subject log likelihood prod_k p_k^y_k (1 - p_k)^(1 - y_k), row by row."""
        cols = {}
        for r in range(self.long.n_rows):
            x = np.array([1.0] + [self.long.covariates[f][r] for f in self.spec.fixed])
            p = 1.0 / (1.0 + np.exp(-(self.draws.draws @ x)))
            score = np.log(p) if self.long.outcome[r] else np.log1p(-p)
            sid = int(self.long.subject_id[r])
            cols[sid] = cols.get(sid, 0.0) + score
        return cols

    @pytest.mark.parametrize("mode", ["raw", "interval", "dichotomized"])
    def test_loglik_matrix_scores_subjects(self, mode):
        ll = loglik_matrix(self.spec, self.design, self.draws, self.long, mode=mode,
                           horizon=float(self.HORIZON))
        ids = (1, 2, 4, 5) if mode == "dichotomized" else (1, 2, 3, 4, 5)
        assert ll.unit_ids == ids
        assert ll.tags == ("probability",) * len(ids)
        if mode == "dichotomized":
            expected = bernoulli_dichotomized_loglik(self.spec, self.design, self.draws,
                                                     self.long, float(self.HORIZON))
            assert ll.values.tobytes() == expected.values.tobytes()
        else:
            cols = self.hazard_products()
            np.testing.assert_allclose(ll.values, np.column_stack([cols[s] for s in ids]),
                                       rtol=1e-12)

    def test_interval_mode_equals_raw(self):
        raw = loglik_matrix(self.spec, self.design, self.draws, self.long)
        interval = loglik_matrix(self.spec, self.design, self.draws, self.long,
                                 mode="interval", grid=TimeGrid(0.5, 20))
        assert raw.values.tobytes() == interval.values.tobytes()

    @pytest.mark.parametrize("interleave", [False, True])
    @pytest.mark.parametrize("mode", ["raw", "dichotomized"])
    def test_reordered_rows_keep_first_appearance_order(self, mode, interleave):
        sid = self.long.subject_id
        rows = (np.random.default_rng(3).permutation(sid.size) if interleave else
                np.concatenate([np.flatnonzero(sid == s) for s in (4, 1, 2, 5, 3)]))
        shuffled = self.long.subset(rows)
        kw = {"mode": mode, "horizon": float(self.HORIZON)}
        ll = loglik_matrix(self.spec, self.design, self.draws, shuffled, **kw)
        ref = loglik_matrix(self.spec, self.design, self.draws, self.long, **kw)
        first_seen = dict.fromkeys(int(s) for s in shuffled.subject_id)
        assert ll.unit_ids == tuple(s for s in first_seen if s in ref.unit_ids)
        np.testing.assert_allclose(
            ll.values, ref.values[:, [ref.unit_ids.index(s) for s in ll.unit_ids]],
            rtol=1e-12)

    def test_short_format_refused(self):
        with pytest.raises(DataError, match="long-format"):
            loglik_matrix(self.spec, self.design, self.draws, self.short)

    def test_exact_refit_scores_subjects(self):
        cfg = SamplerConfig(n_chains=2, n_warmup=100, n_keep=100, seed=6)
        for mode, units in (("raw", [1, 3]), ("dichotomized", [1, 2])):
            refits = exact_refit_loo(self.spec, self.long, cfg, units, mode=mode,
                                     horizon=float(self.HORIZON))
            assert not refits["failures"]
            assert sorted(refits["elpd"]) == units
            assert all(np.isfinite(v) for v in refits["elpd"].values())
        # subject 3 is censored before the horizon: not a dichotomized unit
        with pytest.raises(LooError, match="unit 3 is not a scoring unit"):
            exact_refit_loo(self.spec, self.long, cfg, [3], mode="dichotomized",
                            horizon=float(self.HORIZON))


def four_status_data(rng, n=24):
    """Cohort cycling through event, right-, left- and interval-censored rows."""
    x = rng.normal(size=n)
    t = rng.weibull(1.3, size=n) * 2.0 * np.exp(0.4 * x)
    status = np.array(STATUSES * (n // 4), dtype=object)
    ic = status == INTERVAL_CENSORED
    bounds = np.full((n, 2), np.nan)
    bounds[ic] = np.column_stack([0.6 * t[ic], 1.3 * t[ic] + 0.01])
    time = np.where(ic, bounds[:, 1], t)
    return SurvivalDataset(np.arange(1, n + 1), np.zeros(n), time, status, {"x": x},
                           interval_bounds=bounds)


class TestScoringKernel:
    """loglik_matrix and PosteriorModel share one kernel; log_lik_point is the oracle."""

    GRID = TimeGrid(0.5, 40)

    def setup_draws(self, family):
        rng = np.random.default_rng(21)
        data = four_status_data(rng)
        spec = ModelSpec(family=family, fixed=("x",))
        post = PosteriorModel(spec, data)
        xs = post.init_point() + 0.3 * rng.standard_normal((6, post.dim))
        draws = DrawsMatrix(post.constrain(xs), post.parameter_names)
        return data, spec, post.design, xs, draws

    def as_interval_events(self, data):
        """The dataset interval mode scores: events become their grid intervals."""
        ev = data.status == EVENT
        bounds = data.interval_bounds.copy()
        a, b = self.GRID.bounds(self.GRID.interval_of(data.time[ev]))
        bounds[ev] = np.column_stack([a, b])
        status = np.where(ev, INTERVAL_CENSORED, data.status)
        return SurvivalDataset(data.subject_id, data.entry_time, data.time, status,
                               data.covariates, interval_bounds=bounds)

    @pytest.mark.parametrize("mode", ["raw", "interval"])
    @pytest.mark.parametrize("family", ["exponential", "weibull_aft"])
    def test_entries_match_pointwise_oracle(self, family, mode):
        data, spec, design, _, draws = self.setup_draws(family)
        ll = loglik_matrix(spec, design, draws, data, mode=mode, grid=self.GRID)
        scored = data if mode == "raw" else self.as_interval_events(data)
        params = subject_params(spec, design, draws, data.covariates, n_rows=data.n)
        for i in range(data.n):
            for s in range(draws.n_draws):
                p = {"mean": params["mean"][i, s]}
                if "shape" in params:
                    p["shape"] = params["shape"][0, s]
                value, tag = log_lik_point(family, p, row(scored, i))
                assert ll.values[s, i] == value
                assert ll.tags[i] == tag
        assert set(ll.tags) == ({"density", "probability"} if mode == "raw"
                                else {"probability"})

    @pytest.mark.parametrize("mode", ["raw", "interval"])
    @pytest.mark.parametrize("family", ["exponential", "weibull_aft"])
    def test_likelihood_is_row_sum(self, family, mode):
        data, spec, design, xs, draws = self.setup_draws(family)
        ll = loglik_matrix(spec, design, draws, data, mode=mode, grid=self.GRID)
        post = PosteriorModel(spec, data if mode == "raw" else self.as_interval_events(data))
        for s, x in enumerate(xs):
            assert post.log_likelihood(x) == pytest.approx(ll.values[s].sum(),
                                                           rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("family", ["exponential", "weibull_aft"])
    def test_single_status_and_empty_datasets(self, family):
        data, spec, design, xs, draws = self.setup_draws(family)
        full = loglik_matrix(spec, design, draws, data)
        for keep in [data.status == st for st in STATUSES] + [np.zeros(data.n, bool)]:
            sub = data.subset(keep)
            ll = loglik_matrix(spec, design, draws, sub)
            assert ll.values.shape == (draws.n_draws, int(keep.sum()))
            assert np.array_equal(ll.values, full.values[:, keep])
            post = PosteriorModel(spec, sub)
            for s, x in enumerate(xs):
                assert post.log_likelihood(x) == pytest.approx(ll.values[s].sum(),
                                                               rel=1e-12, abs=1e-12)


class TestTimeScaleTheorem:
    def test_raw_and_interval_mode_behavior(self):
        rng = np.random.default_rng(13)
        data = exp_data(rng, n=20, covariate=True)
        spec = ModelSpec(family="exponential", fixed=("x",))
        design = ModelDesign(spec, data.covariates)
        draws = DrawsMatrix(
            np.column_stack([rng.normal(0.5, 0.2, 60), rng.normal(0.3, 0.1, 60)]),
            ("b_Intercept", "b_x"),
        )
        c = 30.0
        scaled_data = rescale_time(data, c)
        # exact mapping: mu -> mu / c, i.e. intercept -> intercept - log c
        scaled_draws = draws.with_column(
            "b_Intercept", draws.column("b_Intercept") - math.log(c))

        raw = loglik_matrix(spec, design, draws, data, mode="raw")
        raw_scaled = loglik_matrix(spec, design, scaled_draws, scaled_data, mode="raw")
        is_event = np.array([t == "density" for t in raw.tags])
        assert np.allclose(raw_scaled.values[:, ~is_event],
                           raw.values[:, ~is_event], atol=1e-10)
        assert np.allclose(raw_scaled.values[:, is_event],
                           raw.values[:, is_event] + math.log(c), atol=1e-10)

        grid = TimeGrid(0.5, 40)
        inter = loglik_matrix(spec, design, draws, data, mode="interval", grid=grid)
        inter_scaled = loglik_matrix(spec, design, scaled_draws, scaled_data,
                                     mode="interval", grid=grid.scaled(c))
        assert np.allclose(inter_scaled.values, inter.values, atol=1e-10)


class TestExactRefit:
    def test_duplicate_unit_agrees_with_psis(self):
        # removing one of many near-identical records barely moves the
        # posterior, so PSIS and the exact refit agree within MC error
        rng = np.random.default_rng(14)
        n = 40
        times = rng.exponential(2.0, size=n)
        data = SurvivalDataset(np.arange(1, n + 1), np.zeros(n), times,
                               ["event"] * n, {})
        spec = ModelSpec(family="exponential")
        cfg = SamplerConfig(n_warmup=400, n_keep=500, seed=21)
        res = fit(spec, data, cfg)
        design = ModelDesign(spec, {})
        ll = loglik_matrix(spec, design, res.draws, data)
        rep = elpd_loo(ll)
        refits = exact_refit_loo(spec, data, cfg, [1, 2])
        assert not refits["failures"]
        for uid in (1, 2):
            j = list(rep.unit_ids).index(uid)
            assert refits["elpd"][uid] == pytest.approx(rep.pointwise[j], abs=0.1)
        fixed = apply_refits(rep, refits)
        assert fixed.n_refit == 2
        assert fixed.total == pytest.approx(rep.total, abs=0.5)

    def test_flagging(self):
        rep = elpd_loo(mat(np.random.default_rng(15).normal(-1, 0.1, (300, 3)),
                           ids=(1, 2, 3)))
        bad = rep.khat.copy()
        bad[1] = 0.9
        from dataclasses import replace

        rep2 = replace(rep, khat=bad)
        assert flag_for_refit(rep2, threshold=0.7) == [2]


def bernoulli_cohort(n_subjects=30, seed=9):
    long, short = simulate_scenario(ScenarioConfig(n_subjects=n_subjects, seed=seed))
    short, record = scale_covariates(short, ("Size", "AgeAtSurg", "MitHPF"))
    return apply_scaling(long, record)


def tied_smooth_data():
    """Four-status cohort whose smoothed covariate is tied so that leaving out
    unit 2 gives its design one spline column more than units 1 and 4 get."""
    data = four_status_data(np.random.default_rng(30))
    tied = np.random.default_rng(4).integers(0, 6, data.n).astype(float)
    return replace(data, covariates={"x": tied})


def lone_refit_elpd(spec, data, config, uid, idx, **scoring):
    """The exact-refit score of one unit from its own fit on the training subset."""
    train = data.subset(data.subject_id != uid)
    res = fit(spec, train, replace(config, seed=config.seed * 100003 + idx + 1))
    # dichotomized, within the whole cohort, whose rows show the treatment rule
    scored = data if scoring.get("mode") == "dichotomized" else data.subset(data.subject_id == uid)
    ll = loglik_matrix(spec, ModelDesign(spec, train.covariates), res.draws, scored, **scoring)
    col = ll.values[:, ll.unit_ids.index(uid)]
    return float(logsumexp(col) - math.log(col.size))


class TestRefitBatch:
    """Exact refits run as one batch of leave-one-out members of a PosteriorModel."""

    SMOOTH = ModelSpec(family="weibull_aft", smooths=(SmoothSpec("x", n_knots=3),),
                       hierarchical_smooths=True)
    CASES = {
        "exponential-four-status": (ModelSpec(family="exponential", fixed=("x",)),
                                    lambda: four_status_data(np.random.default_rng(31)),
                                    [1, 2, 3, 4, 9]),
        "weibull-hierarchical-four-status": (
            SMOOTH, lambda: four_status_data(np.random.default_rng(32)), [1, 2, 3, 4]),
        "bernoulli-preset": (get_preset("bernoulli-gist"), bernoulli_cohort, [1, 5, 12]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_member_equals_model_on_training_subset(self, case):
        spec, make_data, units = self.CASES[case]
        data = make_data()
        batch = PosteriorModel(spec, data, held_out_designs(spec, data, units))
        C = 3
        rng = np.random.default_rng(33)
        x = batch.init_point() + 0.4 * rng.standard_normal((len(units) * C, batch.dim))
        x[::C][:, 0] = 800.0  # an extreme intercept: exp overflows, logistic saturates
        x[1::C][:, -1] = np.nan
        values = batch.log_posterior(x)
        assert values.shape == (len(units) * C,)
        for b, uid in enumerate(units):
            lone = PosteriorModel(spec, data.subset(data.subject_id != uid))
            assert lone.parameter_names == batch.parameter_names
            expected = lone.log_posterior(x[b * C:(b + 1) * C])
            got = values[b * C:(b + 1) * C]
            assert np.all(np.isfinite(expected[2:]))
            np.testing.assert_allclose(got, expected, rtol=1e-15, atol=0.0)
            assert np.array_equal(np.isfinite(got), np.isfinite(expected))

    def test_held_out_row_outside_the_support_ignored(self):
        data = four_status_data(np.random.default_rng(31))
        spec = ModelSpec(family="exponential", fixed=("x",))
        top = int(np.argmax(data.covariates["x"]))
        uid = int(data.subject_id[top])
        # a slope whose mean overflows on the held-out unit's row alone
        x = np.array([0.0, 710.0 / data.covariates["x"][top]])
        lone = PosteriorModel(spec, data.subset(data.subject_id != uid)).log_posterior(x)
        assert np.isfinite(lone)
        batch = PosteriorModel(spec, data, held_out_designs(spec, data, [uid]))
        assert batch.log_posterior(x) == pytest.approx(lone, rel=1e-15)

    def test_batch_rows_must_split_into_members(self):
        spec, data = ModelSpec(family="exponential"), four_status_data(np.random.default_rng(34))
        post = PosteriorModel(spec, data, held_out_designs(spec, data, [1, 2]))
        with pytest.raises(ModelError, match="multiple of 2 rows"):
            post.log_posterior(np.zeros((3, post.dim)))

    @pytest.mark.parametrize("case", ["four-status-raw", "four-status-interval",
                                      "tied-widths", "bernoulli-dichotomized"])
    def test_elpd_equals_lone_fits(self, case):
        config = SamplerConfig(n_chains=2, n_warmup=100, n_keep=60, seed=7)
        scoring = {}
        if case.startswith("four-status"):
            spec, data, units = (ModelSpec(family="weibull_aft", fixed=("x",)),
                                 four_status_data(np.random.default_rng(35)), [1, 2, 3, 4])
            if case.endswith("interval"):
                scoring = {"mode": "interval", "grid": TimeGrid(0.5, 40)}
        elif case == "tied-widths":
            spec, data, units = (ModelSpec(family="exponential",
                                           smooths=(SmoothSpec("x", n_knots=3),)),
                                 tied_smooth_data(), [1, 2, 4])
            widths = {len(ModelDesign(spec, data.subset(data.subject_id != u).covariates)
                          .parameter_names) for u in units}
            assert len(widths) == 2
        else:
            spec, data = get_preset("bernoulli-gist"), bernoulli_cohort()
            short = to_short_form(data)
            units = [int(s) for s in short.subject_id[dichotomize_outcomes(short, 5.0)[1]][:3]]
            scoring = {"mode": "dichotomized", "horizon": 5.0}
        refits = exact_refit_loo(spec, data, config, units, **scoring)
        assert not refits["failures"]
        assert list(refits["elpd"]) == units
        for idx, uid in enumerate(units):
            assert refits["elpd"][uid] == pytest.approx(
                lone_refit_elpd(spec, data, config, uid, idx, **scoring), rel=1e-12, abs=1e-12)

    def test_failing_unit_isolated(self, monkeypatch, tmp_path):
        spec = ModelSpec(family="weibull_aft", fixed=("x",))
        data = four_status_data(np.random.default_rng(36))
        config = SamplerConfig(n_chains=2, n_warmup=200, n_keep=50, seed=8)
        units = [1, 2, 3, 4]
        clean = exact_refit_loo(spec, data, config, units)
        log_posterior = PosteriorModel.log_posterior
        runs = tmp_path / "runs"  # each sampling run's members, written by whichever process ran it

        def unit_3_rejects_every_proposal(self, x):
            lp = log_posterior(self, x)
            if not hasattr(self, "started"):  # the initial points stay finite
                self.started = True
                with open(runs, "a") as fh:
                    fh.write(f"{self.held_out}\n")
                return lp
            return np.where(np.repeat(np.array(self.held_out) == 3, len(x) // len(self.held_out)),
                            -np.inf, lp)

        monkeypatch.setattr(PosteriorModel, "log_posterior", unit_3_rejects_every_proposal)
        monkeypatch.setattr("survcheck.sampler._usable_cpus", lambda: 2)  # (1, 2) and (3, 4)
        refits = exact_refit_loo(spec, data, config, units)
        assert list(refits["failures"]) == [3]
        assert "no proposals accepted" in refits["failures"][3]
        assert refits["elpd"] == {u: v for u, v in clean["elpd"].items() if u != 3}
        # the sub-batch holding unit 3 reran without it; the other ran once
        assert sorted(runs.read_text().splitlines()) == ["(1, 2)", "(3, 4)", "(4,)"]

    def test_unknown_unit_refused_before_sampling(self, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before refusing the unit")

        monkeypatch.setattr("survcheck.sampler.sample_posterior", no_sampling)
        data = four_status_data(np.random.default_rng(37))
        config = SamplerConfig(n_chains=2, n_warmup=10, n_keep=10)
        with pytest.raises(LooError, match="unit 999 not present"):
            exact_refit_loo(ModelSpec(family="exponential"), data, config, [1, 999])
        with pytest.raises(LooError, match="must be distinct"):
            exact_refit_loo(ModelSpec(family="exponential"), data, config, [1, 2, 1])


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(16)
        ll = LogLikMatrix(rng.normal(size=(20, 3)),
                          ("density", "probability", "probability"),
                          (1, 2, 3), "days")
        path = tmp_path / "loglik.csv"
        write_loglik_csv(ll, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[:3] == [["unit", "1", "2", "3"], ["tag", *ll.tags], ["time_unit"] + ["days"] * 3]
        assert [row[0] for row in rows[3:]] == [str(s) for s in range(20)]
        assert np.array_equal([[float(v) for v in row[1:]] for row in rows[3:]], ll.values)

    def test_bytes(self, tmp_path):
        ll = LogLikMatrix([[-1.5, -np.inf], [-0.1, 0.0]], ("density", "probability"),
                          ((4, 2), 7), "days")
        path = tmp_path / "loglik.csv"
        write_loglik_csv(ll, path)
        assert path.read_bytes() == (b"unit,4:2,7\r\ntag,density,probability\r\n"
                                     b"time_unit,days,days\r\n0,-1.5,-inf\r\n1,-0.1,0.0\r\n")

    def test_round_trip_tuple_units(self, tmp_path):
        ll = LogLikMatrix(np.zeros((4, 2)), ("probability",) * 2, ((1, 1), (1, 2)))
        path = tmp_path / "loglik.csv"
        write_loglik_csv(ll, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[:3] == [["unit", "1:1", "1:2"], ["tag", "probability", "probability"],
                            ["time_unit", "", ""]]
        assert np.array_equal([[float(v) for v in row[1:]] for row in rows[3:]], np.zeros((4, 2)))
