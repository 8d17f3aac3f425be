import math

import numpy as np
import pytest
from scipy.special import logsumexp

from survcheck.data import (
    EVENT,
    INTERVAL_CENSORED,
    STATUSES,
    DrawsMatrix,
    SurvivalDataset,
    TimeGrid,
    TreatmentRule,
    expand_long,
    rescale_time,
)
from survcheck.loo import (
    DegenerateTailError,
    LogLikMatrix,
    LooError,
    apply_refits,
    bernoulli_dichotomized_loglik,
    compare,
    elpd_loo,
    exact_refit_loo,
    flag_for_refit,
    gpd_fit,
    gpd_quantile,
    group_long_by_subject,
    grouped_units,
    loglik_matrix,
    psis_smooth,
    read_loglik_csv,
    write_loglik_csv,
)
from survcheck.models import ModelDesign, ModelSpec, log_lik_point, subject_params
from survcheck.sampler import PosteriorModel, SamplerConfig, fit


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


class TestGpdFit:
    def test_too_few_points(self):
        with pytest.raises(DegenerateTailError):
            gpd_fit([1.0, 2.0, 3.0, 4.0])

    def test_constant_tail_degenerate(self):
        with pytest.raises(DegenerateTailError):
            gpd_fit([2.0] * 10)

    def test_recovers_positive_shape(self):
        rng = np.random.default_rng(0)
        u = rng.random(10_000)
        k_true, sigma = 0.5, 1.0
        x = gpd_quantile(u, k_true, sigma)
        khat, sigma_hat = gpd_fit(x)
        assert 0.45 <= khat <= 0.55
        assert 0.9 <= sigma_hat <= 1.1

    def test_exponential_tail_near_zero(self):
        rng = np.random.default_rng(1)
        x = rng.exponential(1.0, size=10_000)
        khat, _ = gpd_fit(x)
        assert abs(khat) < 0.05


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
        from survcheck.loo import smooth_tail

        rng = np.random.default_rng(5)
        lr = rng.normal(0, 2, size=1000)
        smoothed, khat = smooth_tail(lr)
        # shifted so the raw max is 0; truncation keeps everything <= 0
        assert smoothed.max() <= 0.0
        assert np.isfinite(khat)
        # only the tail changes
        M = len(lr) - np.count_nonzero(np.isclose(smoothed, lr - lr.max()))
        assert M <= int(min(0.2 * 1000, 3 * math.sqrt(1000)))


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

    def test_unmapped_rows_rejected(self):
        ll = mat(np.zeros((5, 2)), ids=(1, 2))
        with pytest.raises(LooError, match="not mapped"):
            grouped_units(ll, lambda uid: None)

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


class TestBernoulliDichotomized:
    """Event-by-horizon scores of a discrete-time model against a per-subject product."""

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

    def expected(self, duration_of):
        """Per-subject log scores of "event by the horizon", written out row by row."""
        cols = []
        for i in range(self.short.n):
            sid = int(self.short.subject_id[i])
            if sid == 3:  # censored at 2, before the horizon: excluded
                continue
            dur = duration_of(sid, self.short.covariates["AdjTreatm"][i])
            log_no_event = np.zeros(self.draws.n_draws)
            for k in range(1, self.HORIZON + 1):
                x = np.array([1.0, self.short.covariates["z"][i], k,
                              float(k <= dur), max(0.0, k - dur)])
                p = 1.0 / (1.0 + np.exp(-(self.draws.draws @ x)))
                log_no_event += np.log1p(-p)
            p_event = -np.expm1(log_no_event)
            event_by_horizon = self.short.status[i] == "event" and self.short.time[i] <= self.HORIZON
            cols.append(np.log(p_event) if event_by_horizon else np.log1p(-p_event))
        return np.column_stack(cols)

    @pytest.mark.parametrize("rule, duration_of", [
        (None, lambda sid, treated: 3.0 if treated else 0.0),
        (TreatmentRule(duration={1: 1.0, 4: 4.0, 5: 2.0}),
         lambda sid, treated: {1: 1.0, 4: 4.0, 5: 2.0}.get(sid, 0.0)),
    ])
    def test_matches_per_subject_product(self, rule, duration_of):
        ll = bernoulli_dichotomized_loglik(self.spec, self.design, self.draws, self.long,
                                           float(self.HORIZON), rule=rule)
        assert ll.unit_ids == (1, 2, 4, 5)
        assert ll.tags == ("probability",) * 4
        np.testing.assert_allclose(ll.values, self.expected(duration_of), rtol=1e-12)

    @pytest.mark.parametrize("horizon", [2.5, 0.0])
    def test_horizon_must_be_whole_intervals(self, horizon):
        with pytest.raises(LooError, match="whole"):
            bernoulli_dichotomized_loglik(self.spec, self.design, self.draws, self.long,
                                          horizon)


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
                value, tag = log_lik_point(family, p, scored.row(i))
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


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(16)
        ll = LogLikMatrix(rng.normal(size=(20, 3)),
                          ("density", "probability", "probability"),
                          (1, 2, 3), "days")
        path = tmp_path / "loglik.csv"
        write_loglik_csv(ll, path)
        back = read_loglik_csv(path)
        assert back.tags == ll.tags
        assert back.unit_ids == ll.unit_ids
        assert back.time_unit == "days"
        assert np.array_equal(back.values, ll.values)

    def test_round_trip_tuple_units(self, tmp_path):
        ll = LogLikMatrix(np.zeros((4, 2)), ("probability",) * 2, ((1, 1), (1, 2)))
        path = tmp_path / "loglik.csv"
        write_loglik_csv(ll, path)
        back = read_loglik_csv(path)
        assert back.unit_ids == ((1, 1), (1, 2))
