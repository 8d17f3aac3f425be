"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
from scipy.stats import expon, kstest

from survcheck.checks import (
    km_estimate,
    km_overlay,
    pav_cep,
    pit_ecdf_band,
    pit_values,
    ecdf_on_grid,
)
from survcheck.checks import calibration_band, pav_isotonic
from survcheck.data import DrawsMatrix, SurvivalDataset, TimeGrid, rescale_time
from survcheck.loo import (
    apply_refits,
    compare,
    elpd_loo,
    exact_refit_loo,
    loglik_matrix,
    psis_smooth,
)
from survcheck.models import (
    ModelDesign,
    ModelSpec,
    cdf,
    hazard,
    impute_censored,
    log_density,
    log_survival,
    quantile,
    sample_truncated,
)
from survcheck.sampler import PosteriorModel, SamplerConfig, fit


def _report(num, name):
    print(f"\nACCEPTANCE {num} ({name}): PASS")


def make_dataset(times, statuses, entries=None):
    n = len(times)
    return SurvivalDataset(
        subject_id=np.arange(1, n + 1),
        entry_time=entries if entries is not None else np.zeros(n),
        time=times,
        status=statuses,
        covariates={},
    )


class TestCriterion1KmOracle:
    def test_km_matches_brute_force_on_500_random_datasets(self):
        start = time.time()
        rng = np.random.default_rng(101)
        for _ in range(500):
            n = int(rng.integers(1, 21))
            times = rng.choice([0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.5, 7.0], size=n)
            statuses = rng.choice(["event", "right_censored"], size=n)
            entries = np.where(rng.random(n) < 0.5,
                               rng.uniform(0, 0.95, size=n) * times, 0.0)
            ds = make_dataset(times, statuses, entries=entries)
            km = km_estimate(ds)
            # brute-force risk-set product-limit oracle
            surv = 1.0
            for j, t in enumerate(km.times):
                d = sum(1 for i in range(n)
                        if statuses[i] == "event" and times[i] == t)
                at_risk = sum(1 for i in range(n)
                              if times[i] >= t and entries[i] < t)
                if at_risk > 0:
                    surv *= 1.0 - d / at_risk
                assert abs(km.values[j] - surv) <= 1e-12
        elapsed = time.time() - start
        assert elapsed < 10.0
        _report(1, f"KM oracle equivalence, {elapsed:.1f}s")


class TestCriterion2LeftTruncation:
    def test_ignoring_entries_overestimates_early_survival(self):
        ds = make_dataset([1.0, 2.0, 3.0], ["event"] * 3, entries=[0.0, 0.0, 1.5])
        honored = km_estimate(ds)
        naive = km_estimate(replace(ds, entry_time=np.zeros(3)))  # entries ignored
        assert honored(1.0) == 0.5                 # risk set {1, 2}: 1 - 1/2
        assert naive(1.0) == 1.0 - 1.0 / 3.0       # risk set {1, 2, 3}: 1 - 1/3
        assert naive(1.0) > honored(1.0)           # 2/3 > 1/2, exactly
        assert honored(2.0) == 0.25
        assert honored(3.0) == 0.0
        _report(2, "left-truncation demonstration")


class TestCriterion3Pav:
    @staticmethod
    def isotonic_minimax(y):
        n = len(y)
        prefix = np.concatenate([[0.0], np.cumsum(y)])

        def mean(a, b):
            return (prefix[b + 1] - prefix[a]) / (b - a + 1)

        return np.array([
            max(min(mean(a, b) for b in range(i, n)) for a in range(i + 1))
            for i in range(n)
        ])

    def test_pav_equals_oracle_and_stays_monotone(self):
        start = time.time()
        rng = np.random.default_rng(103)
        for _ in range(1000):
            n = int(rng.integers(1, 13))
            p = rng.random(n)
            z = (rng.random(n) < p).astype(float)
            curve = pav_cep(p, z)
            order = np.argsort(p, kind="stable")
            oracle = self.isotonic_minimax(z[order])
            assert np.allclose(curve.ceps, oracle, atol=1e-12)
        for _ in range(100):
            p = rng.random(10_000)
            z = (rng.random(10_000) < p).astype(float)
            curve = pav_cep(p, z)
            assert np.all(np.diff(curve.ceps) >= -1e-15)
            assert np.all((curve.ceps >= 0.0) & (curve.ceps <= 1.0))
        elapsed = time.time() - start
        assert elapsed < 30.0
        _report(3, f"PAV equivalence, {elapsed:.1f}s")


class TestCriterion4PitEcdfCoverage:
    def test_simultaneous_band_coverage(self):
        start = time.time()
        n, n_draws, level, reps = 100, 400, 0.95, 200
        band = pit_ecdf_band(n, n_draws, level=level, n_sim=1000, seed=104)
        rng = np.random.default_rng(204)
        inside = 0
        for _ in range(reps):
            theta = 1.0
            y = rng.exponential(1 / theta, size=n)
            draws = rng.exponential(1 / theta, size=(n_draws, n))
            pit = pit_values(y, draws)
            inside += band.contains(ecdf_on_grid(pit, band.grid))
        coverage = inside / reps
        elapsed = time.time() - start
        assert elapsed < 300.0
        assert 0.92 <= coverage <= 0.98
        _report(4, f"PIT-ECDF coverage {coverage:.3f}, {elapsed:.1f}s")


class TestCriterion5CalibrationCoverage:
    def test_consistency_band_coverage(self):
        start = time.time()
        rng = np.random.default_rng(105)
        p = np.sort(rng.uniform(0.05, 0.95, size=200))
        band, _ = calibration_band(p, level=0.95, n_sim=1000, seed=205)
        _, inverse, counts = np.unique(p, return_inverse=True, return_counts=True)
        inside = 0
        reps = 200
        for _ in range(reps):
            z = (rng.random(200) < p).astype(float)
            sums = np.bincount(inverse, weights=z)
            curve = pav_isotonic(sums / counts, counts.astype(float))[inverse]
            inside += band.contains(curve)
        coverage = inside / reps
        elapsed = time.time() - start
        assert elapsed < 300.0
        assert 0.92 <= coverage <= 0.98
        _report(5, f"calibration-band coverage {coverage:.3f}, {elapsed:.1f}s")


class TestCriterion6PsisVsExactLoo:
    def test_exact_refits_agree_with_psis(self):
        start = time.time()
        rng = np.random.default_rng(106)
        n = 30
        x = rng.normal(size=n)
        times = rng.exponential(2.0 * np.exp(0.5 * x))
        censor_at = 6.0
        status = np.where(times > censor_at, "right_censored", "event").astype(object)
        times = np.minimum(times, censor_at)
        data = SurvivalDataset(np.arange(1, n + 1), np.zeros(n), times, status,
                               {"x": x})
        spec = ModelSpec(family="exponential", fixed=("x",))
        config = SamplerConfig(n_chains=4, n_warmup=1000, n_keep=1000, seed=61)
        result = fit(spec, data, config)
        design = ModelDesign(spec, data.covariates)
        ll = loglik_matrix(spec, design, result.draws, data, mode="raw")
        assert ll.n_draws == 4000
        psis = psis_smooth(ll)
        assert np.all(psis.khat[~np.isnan(psis.khat)] < 0.7)
        assert not np.isnan(psis.khat).all()
        report = elpd_loo(ll, psis)
        refits = exact_refit_loo(spec, data, config, list(range(1, n + 1)))
        assert not refits["failures"]
        exact = apply_refits(report, refits)
        diff = abs(report.total - exact.total)
        elapsed = time.time() - start
        assert elapsed < 60.0
        assert diff <= 0.3
        _report(6, f"PSIS vs exact LOO |diff|={diff:.3f}, {elapsed:.0f}s")


class TestCriterion7TimeScale:
    def test_exact_shift_and_interval_invariance(self):
        rng = np.random.default_rng(107)
        c = 30.0
        n = 40
        x = rng.normal(size=n)
        true_t = rng.weibull(1.3, size=n) * 500.0 * np.exp(0.3 * x)
        times = np.minimum(true_t, 800.0)
        status = np.where(true_t > 800.0, "right_censored", "event").astype(object)
        data = SurvivalDataset(np.arange(1, n + 1), np.zeros(n), times, status,
                               {"x": x}, time_unit="days")
        spec = ModelSpec(family="weibull_aft", fixed=("x",))
        design = ModelDesign(spec, data.covariates)
        S = 500
        draws = DrawsMatrix(
            np.column_stack([rng.normal(6.2, 0.2, S), rng.normal(0.3, 0.1, S),
                             rng.lognormal(0.2, 0.1, S)]),
            ("b_Intercept", "b_x", "alpha"),
        )
        scaled_data = rescale_time(data, c, time_unit="months")
        scaled_draws = draws.with_column(
            "b_Intercept", draws.column("b_Intercept") - math.log(c))

        raw1 = loglik_matrix(spec, design, draws, data, mode="raw")
        raw2 = loglik_matrix(spec, design, scaled_draws, scaled_data, mode="raw")
        ev = np.array([t == "density" for t in raw1.tags])
        assert ev.any() and (~ev).any()
        assert np.max(np.abs(raw2.values[:, ~ev] - raw1.values[:, ~ev])) <= 1e-10
        assert np.max(np.abs(raw2.values[:, ev] - raw1.values[:, ev]
                             - math.log(c))) <= 1e-10

        grid = TimeGrid(25.0, 40)
        spec_e = ModelSpec(family="exponential", fixed=("x",))
        design_e = ModelDesign(spec_e, data.covariates)
        draws_e = DrawsMatrix(
            np.column_stack([rng.normal(6.2, 0.2, S), rng.normal(0.3, 0.1, S)]),
            ("b_Intercept", "b_x"),
        )
        draws_e2 = draws_e.with_column(
            "b_Intercept", draws_e.column("b_Intercept") - math.log(c))
        mats1, mats2 = [], []
        for sp, dg, d1, d2 in ((spec, design, draws, scaled_draws),
                               (spec_e, design_e, draws_e, draws_e2)):
            m1 = loglik_matrix(sp, dg, d1, data, mode="interval", grid=grid)
            m2 = loglik_matrix(sp, dg, d2, scaled_data, mode="interval",
                               grid=grid.scaled(c))
            assert np.max(np.abs(m2.values - m1.values)) <= 1e-10
            mats1.append(m1)
            mats2.append(m2)
        comp1 = compare([elpd_loo(m, name=nm) for m, nm in zip(mats1, "AB")])
        comp2 = compare([elpd_loo(m, name=nm) for m, nm in zip(mats2, "AB")])
        assert [r["model"] for r in comp1.rows] == [r["model"] for r in comp2.rows]
        for r1, r2 in zip(comp1.rows, comp2.rows):
            assert abs(r1["delta_elpd"] - r2["delta_elpd"]) <= 1e-10
            assert abs(r1["se_delta"] - r2["se_delta"]) <= 1e-10
        _report(7, "time-scale theorem")


class TestCriterion8GroupedLikelihood:
    def test_bernoulli_equals_hazard_product_on_1000_subjects(self):
        rng = np.random.default_rng(108)
        for _ in range(1000):
            k = int(rng.integers(1, 11))
            p = rng.uniform(0.001, 0.8, size=k)
            is_event = bool(rng.random() < 0.5)
            y = np.zeros(k)
            if is_event:
                y[-1] = 1.0
            bernoulli = float(np.sum(y * np.log(p) + (1 - y) * np.log1p(-p)))
            surv_part = float(np.sum(np.log1p(-p[:-1])))
            hazard_form = surv_part + (math.log(p[-1]) if is_event
                                       else math.log1p(-p[-1]))
            assert abs(bernoulli - hazard_form) <= 1e-12
        _report(8, "grouped-likelihood identity")


class TestCriterion9WeibullReduction:
    def test_shape_one_agreement_everywhere(self):
        rng = np.random.default_rng(109)
        n = 10_000
        t = rng.uniform(0.02, 30.0, size=n)
        mu = rng.uniform(0.1, 20.0, size=n)
        u = rng.uniform(0.0, 0.999, size=n)
        w = {"shape": 1.0, "mean": mu}
        e = {"mean": mu}
        assert np.max(np.abs(log_density("weibull_aft", w, t)
                             - log_density("exponential", e, t))) <= 1e-10
        assert np.max(np.abs(log_survival("weibull_aft", w, t)
                             - log_survival("exponential", e, t))) <= 1e-10
        assert np.max(np.abs(cdf("weibull_aft", w, t)
                             - cdf("exponential", e, t))) <= 1e-10
        rel_h = np.abs(hazard("weibull_aft", w, t) - hazard("exponential", e, t))
        assert np.max(rel_h * mu) <= 1e-10  # relative to the rate scale
        # sampler targets: identical inverse-CDF maps
        qw = quantile("weibull_aft", w, u)
        qe = quantile("exponential", e, u)
        assert np.max(np.abs(qw - qe) / np.maximum(qe, 1e-12)) <= 1e-10
        _report(9, "Weibull/exponential reduction")


class TestCriterion10SamplerCalibration:
    def test_posterior_mean_against_grid_oracle(self):
        rng = np.random.default_rng(110)
        spec = ModelSpec(family="exponential")
        grid = np.linspace(-4.0, 6.0, 4001)
        for trial in range(20):
            n = 40
            theta = rng.uniform(0.2, 2.0)
            times = rng.exponential(1 / theta, size=n)
            data = SurvivalDataset(np.arange(1, n + 1), np.zeros(n), times,
                                   ["event"] * n, {})
            post = PosteriorModel(spec, data)
            logp = post.log_posterior(grid[:, None])
            w = np.exp(logp - logp.max())
            norm = np.trapezoid(w, grid)
            mean_grid = np.trapezoid(grid * w, grid) / norm
            sd_grid = math.sqrt(np.trapezoid((grid - mean_grid) ** 2 * w, grid) / norm)
            res = fit(spec, data, SamplerConfig(n_warmup=800, n_keep=1500,
                                                seed=1000 + trial))
            # reported draws are on the constrained scale == unconstrained here
            mcmc_mean = res.draws.column("b_Intercept").mean()
            assert abs(mcmc_mean - mean_grid) <= 3 * sd_grid
            for r in res.rhat.values():
                assert r < 1.01
        _report(10, "sampler calibration vs grid posterior")


class TestCriterion11CaseStudyCurves:
    def test_hazard_curves_experiment(self, tmp_path):
        from survcheck.cli import main

        start = time.time()
        out = tmp_path / "curves"
        code = main(["experiment", "hazard-curves", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "hazard_curves.json").read_text())
        a = doc["assertions"]
        assert a["exponential_hazard_constant"]
        assert a["weibull_hazard_monotone"]
        assert a["bernoulli_jump_after_treatment"]
        assert a["bernoulli_median_year4"] > a["bernoulli_median_year3"]
        assert a["passed"]
        elapsed = time.time() - start
        _report(11, f"case-study hazard curves, {elapsed:.0f}s")


class TestCriterion12Imputation:
    def test_imputed_times_and_truncated_law(self):
        rng = np.random.default_rng(112)
        n = 60
        true_t = rng.exponential(3.0, size=n)
        times = np.minimum(true_t, 4.0)
        status = np.where(true_t > 4.0, "right_censored", "event").astype(object)
        data = SurvivalDataset(np.arange(1, n + 1), np.zeros(n), times, status, {})
        spec = ModelSpec(family="exponential")
        res = fit(spec, data, SamplerConfig(n_warmup=400, n_keep=300, seed=12))
        design = ModelDesign(spec, {})
        imputed = impute_censored(spec, design, res.draws, data, rng,
                                  n_imputations=20)
        cens = data.status == "right_censored"
        for ds in imputed:
            assert np.all(ds.time[cens] > data.time[cens])  # strictly beyond

        bundle = km_overlay(data, np.atleast_2d(times), imputed=imputed[:5])
        imp_series = [s for s in bundle if s.metadata["role"] == "imputed"]
        assert len(imp_series) == 5

        # truncated exponential draws follow the shifted-exponential law
        theta, a = 0.7, 2.3
        for seed in range(10):
            draws = sample_truncated("exponential", {"mean": 1 / theta}, a,
                                     np.random.default_rng(900 + seed),
                                     size=100_000)
            p = kstest(draws - a, expon(scale=1 / theta).cdf).pvalue
            assert p > 0.01
        _report(12, "imputation validity")
