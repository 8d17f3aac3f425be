import json
from dataclasses import replace

import numpy as np
import pytest

from survcheck.checks import (
    CheckError,
    StepFunction,
    calibration_band,
    calibration_check,
    dichotomize_outcomes,
    ecdf_on_grid,
    empirical_ccdf,
    intervals_data,
    km_estimate,
    km_overlay,
    pav_cep,
    pav_isotonic,
    pit_ecdf_band,
    pit_values,
    simulate_pit_ecdfs,
    simultaneous_envelope,
    zoom_region,
)
from survcheck.data import SurvivalDataset
from survcheck.series import PlotSeries, bundle_to_json

import checks_oracle


def make_dataset(times, statuses, entries=None):
    n = len(times)
    return SurvivalDataset(
        subject_id=np.arange(1, n + 1),
        entry_time=entries if entries is not None else np.zeros(n),
        time=times,
        status=statuses,
        covariates={},
    )


def km_brute_force(times, statuses, entries, honor_entry, grid):
    """Independent product-limit oracle via explicit risk-set loops."""
    surv = 1.0
    out = []
    for t in grid:
        d = sum(1 for ti, st in zip(times, statuses) if st == "event" and ti == t)
        n_at_risk = 0
        for ti, ei in zip(times, entries):
            if ti >= t and (not honor_entry or ei < t):
                n_at_risk += 1
        if n_at_risk > 0:
            surv *= 1.0 - d / n_at_risk
        out.append(surv)
    return np.array(out)


class TestKaplanMeier:
    def test_all_censored_flat_one(self):
        ds = make_dataset([1.0, 2.0, 3.0], ["right_censored"] * 3)
        km = km_estimate(ds)
        assert km(0.5) == 1.0 and km(10.0) == 1.0

    def test_hand_product_limit(self):
        ds = make_dataset([1.0, 2.0, 3.0], ["event", "event", "right_censored"])
        km = km_estimate(ds)
        assert km(1.0) == pytest.approx(2 / 3)
        assert km(1.5) == pytest.approx(2 / 3)
        assert km(2.0) == pytest.approx(1 / 3)
        assert km(5.0) == pytest.approx(1 / 3)
        assert km(0.99) == 1.0

    def test_delayed_entry_risk_sets(self):
        ds = make_dataset([1.0, 2.0, 3.0], ["event"] * 3, entries=[0.0, 0.0, 1.5])
        honored = km_estimate(ds)
        assert honored(1.0) == pytest.approx(1 / 2)
        assert honored(2.0) == pytest.approx(1 / 4)
        assert honored(3.0) == pytest.approx(0.0)
        naive = km_estimate(replace(ds, entry_time=np.zeros(3)))  # entries ignored
        assert naive(1.0) == pytest.approx(2 / 3)  # overestimated early survival

    def test_zero_entries_flag_equivalence(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = rng.integers(2, 12)
            ds = make_dataset(
                rng.integers(1, 8, size=n).astype(float),
                rng.choice(["event", "right_censored"], size=n),
            )
            # with every entry at 0, honoring the entries changes no risk set
            a = km_estimate(ds)
            b = km_brute_force(ds.time, ds.status, ds.entry_time, False, a.times)
            assert np.array_equal(a.times, np.unique(ds.time[ds.status == "event"]))
            assert np.array_equal(a.values, b)

    def test_no_censoring_is_one_minus_ecdf(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = rng.integers(2, 30)
            times = rng.integers(1, 10, size=n).astype(float)
            ds = make_dataset(times, ["event"] * n)
            km = km_estimate(ds)
            grid = np.linspace(0, 11, 40)
            ecdf = np.array([(times <= t).mean() for t in grid])
            assert np.allclose(km(grid), 1 - ecdf, atol=1e-12)

    def test_nonincreasing(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = rng.integers(2, 25)
            ds = make_dataset(
                rng.integers(1, 9, size=n).astype(float),
                rng.choice(["event", "right_censored"], size=n),
                entries=rng.uniform(0, 0.9, size=n),
            )
            km = km_estimate(ds)
            assert km(0.0) == 1.0
            assert np.all(np.diff(np.concatenate([[1.0], km.values])) <= 1e-15)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 20))
            times = rng.choice([1.0, 1.5, 2.0, 3.0, 4.5, 6.0], size=n)
            statuses = rng.choice(["event", "right_censored"], size=n)
            entries = np.where(rng.random(n) < 0.4, rng.uniform(0, 0.9, size=n) * times, 0.0)
            ds = make_dataset(times, statuses, entries=entries)
            for honor in (True, False):  # entries ignored: every entry at 0
                km = km_estimate(ds if honor else replace(ds, entry_time=np.zeros(n)))
                oracle = km_brute_force(times, statuses, entries, honor, km.times)
                assert np.allclose(km.values, oracle, atol=1e-12)

    def test_rejects_empty_and_bad_status(self):
        with pytest.raises(CheckError):
            km_estimate(make_dataset([], []))
        with pytest.raises(CheckError):
            km_estimate(make_dataset([1.0], ["left_censored"]))


class TestKmOverlay:
    def test_cutoff_contract(self):
        ds = make_dataset([2.0, 10.0, 7.0], ["event", "right_censored", "event"])
        draws = np.random.default_rng(4).exponential(8.0, size=(6, 3))
        bundle = km_overlay(ds, draws, cutoff_factor=1.2)
        for s in bundle:
            if s.metadata["role"] == "predictive":
                assert all(x <= 12.0 for x in s.data["x"])
                assert s.metadata["xmax"] == pytest.approx(12.0)
        obs = [s for s in bundle if s.metadata["role"] == "observed"]
        assert len(obs) == 1

    def test_observed_series_never_truncated(self):
        ds = make_dataset([1.0, 2.0, 9.0], ["event", "event", "event"])
        draws = np.full((3, 3), 0.5)
        bundle = km_overlay(ds, draws, cutoff_factor=1.0)
        obs = next(s for s in bundle if s.metadata["role"] == "observed")
        assert max(obs.data["x"]) == 9.0

    def test_draws_equal_to_observations(self):
        times = np.array([1.0, 2.0, 3.0, 4.0])
        ds = make_dataset(times, ["event"] * 4)
        bundle = km_overlay(ds, times[None, :], cutoff_factor=2.0)
        pred = next(s for s in bundle if s.metadata["role"] == "predictive")
        ccdf = empirical_ccdf(times)
        assert list(pred.data["x"]) == list(ccdf.times)
        assert list(pred.data["y"]) == list(ccdf.values)
        # equals 1 - empirical CDF
        assert ccdf(2.0) == pytest.approx(0.5)

    def test_imputed_series_tagged(self):
        ds = make_dataset([1.0, 5.0], ["event", "right_censored"])
        imp = make_dataset([1.0, 8.0], ["event", "event"])
        bundle = km_overlay(ds, np.array([[1.0, 6.0]]), imputed=[imp])
        roles = {s.metadata["role"] for s in bundle}
        assert "imputed" in roles
        imp_series = next(s for s in bundle if s.metadata["role"] == "imputed")
        assert imp_series.metadata["hint_color"]

    def test_rejects_bad_cutoff(self):
        ds = make_dataset([1.0], ["event"])
        for factor in (0.5, float("nan")):
            with pytest.raises(CheckError, match="cutoff_factor"):
                km_overlay(ds, np.array([[1.0]]), cutoff_factor=factor)


class TestBundleJson:
    def test_non_finite_values_are_null(self):
        series = PlotSeries("s", "points", {
            "x": [1, 2.5, float("nan"), np.float64(np.inf)],
            "y": np.array([-np.inf, 0.5, np.nan, 2.0]),
            "size": [[1.0, float("-inf")], (np.nan, 3)],
        })

        def refuse(token):
            raise AssertionError(f"bare {token} in the JSON")

        doc = json.loads(bundle_to_json([series], {"seed": 1}), parse_constant=refuse)
        data = doc["series"][0]["data"]
        assert data["x"] == [1.0, 2.5, None, None]
        assert data["y"] == [None, 0.5, None, 2.0]
        assert data["size"] == [[1.0, None], [None, 3.0]]

    def test_array_columns_convert_as_each_element_would(self):
        a = np.random.default_rng(3).normal(size=(6, 5))
        a[0, 0], a[1, 2], a[4, 0], a[5, 4] = -0.0, np.nan, np.inf, -np.inf
        for v in (a, np.asfortranarray(a), a[::-1, ::2], a.astype(np.float32), a > 0,
                  np.arange(7), np.array(3.5), np.array([np.nan]), np.empty(0)):
            want = [float(x) if np.isfinite(float(x)) else None for x in v.ravel()]
            got = PlotSeries("s", "points", {"x": v}).data["x"]
            assert repr(got) == repr(want)

    def test_non_finite_metadata_refused(self):
        with pytest.raises(ValueError):
            bundle_to_json([PlotSeries("s", "points", {"x": [1.0]}, {"gamma": float("nan")})])


class TestIntervalsData:
    def test_type7_quantiles_of_1_to_100(self):
        # independent type-7 oracle: h = (n-1)p + 1 on sorted order statistics
        def type7(sorted_vals, p):
            h = (len(sorted_vals) - 1) * p
            lo = int(np.floor(h))
            return sorted_vals[lo] + (h - lo) * (
                sorted_vals[min(lo + 1, len(sorted_vals) - 1)] - sorted_vals[lo]
            )

        draws = np.arange(1.0, 101.0)[:, None]
        series = intervals_data(np.array([50.0]), draws)
        assert series.data["lower"][0] == pytest.approx(type7(np.arange(1.0, 101.0), 0.05))
        assert series.data["lower"][0] == pytest.approx(5.95)
        assert series.data["upper"][0] == pytest.approx(95.05)
        assert series.data["median"][0] == pytest.approx(50.5)

    @pytest.mark.parametrize("seed", range(8))
    def test_bitwise_numpy_quantile(self, seed):
        # read off one sort of the draws, each bound is np.quantile's, bit for
        # bit, with ties, infinities and a column holding NaN
        rng = np.random.default_rng(seed)
        draws = np.round(rng.exponential(2.0, size=(int(rng.integers(20, 400)), 30)), seed % 3)
        draws[rng.random(draws.shape) < 0.04] = np.inf
        draws[rng.random(draws.shape) < 0.02] = -np.inf
        draws[rng.integers(len(draws)), 3] = np.nan
        with np.errstate(invalid="ignore"):
            want = np.quantile(draws, [0.5 - 0.9 / 2, 0.5 - 0.5 / 2, 0.5, 0.5 + 0.5 / 2,
                                       0.5 + 0.9 / 2], axis=0)
            series = intervals_data(np.zeros(30), draws)
        for q, key in zip(want, ("lower", "inner_lower", "median", "inner_upper", "upper")):
            assert series.data[key] == PlotSeries("want", "points", {key: q}).data[key], key

    def test_constant_draws_collapse(self):
        draws = np.full((25, 2), 3.3)
        series = intervals_data(np.array([3.3, 1.0]), draws)
        assert series.data["median"] == [3.3, 3.3]
        assert series.data["lower"] == [3.3, 3.3]
        assert series.data["upper"] == [3.3, 3.3]
        assert series.data["at_median"] == [1, 0]

    def test_validation(self):
        with pytest.raises(CheckError, match="20"):
            intervals_data(np.array([1.0]), np.ones((5, 1)))


class TestPit:
    def test_all_draws_below(self):
        assert pit_values([10.0], np.array([[1.0], [2.0], [3.0]]))[0] == 1.0

    def test_direct_count(self):
        assert pit_values([2.5], np.array([[1.0], [2.0], [3.0], [4.0]]))[0] == 0.5

    def test_observation_below_all_draws(self):
        assert pit_values([0.5], np.array([[1.0], [2.0]]))[0] == 0.0


class TestAgainstLoopOracles:
    """The array forms of ``km_estimate`` and ``simulate_pit_ecdfs`` are bitwise
    their loop forms in ``tests/checks_oracle.py``."""

    @pytest.mark.parametrize("seed", range(6))
    def test_km_estimate(self, seed):
        rng = np.random.default_rng(seed)
        n = 2 * int(rng.integers(20, 200)) + 1  # odd
        times = np.round(rng.exponential(2.0, n), 1) + 0.1  # tied times
        entries = np.where(rng.random(n) < 0.4, np.round(rng.uniform(0, 1.5, n), 1), 0.0)
        entries[:3] = times[:3] + [0.0, 0.5, 2.0]  # entering at or after its own time
        status = np.where(rng.random(n) < 0.6, "event", "right_censored")
        status[:3] = "event"
        ds = make_dataset(times, status, entries)
        got, want = km_estimate(ds), checks_oracle.km_estimate(ds)
        assert got.times.tobytes() == want.times.tobytes()
        assert got.values.tobytes() == want.values.tobytes()

    @pytest.mark.parametrize("n, n_draws, n_sim", [
        (61, 100, 300), (600, 1000, 70), (7, 4000, 50), (150, 3, 40), (2, 1, 10), (5, 0, 3)])
    def test_simulate_pit_ecdfs(self, n, n_draws, n_sim):
        with np.errstate(divide="ignore", invalid="ignore"):  # S = 0: every PIT is 0/0
            got = simulate_pit_ecdfs(n, n_draws, n_sim, np.random.default_rng(n))
            want = checks_oracle.simulate_pit_ecdfs(n, n_draws, n_sim, np.random.default_rng(n))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("sample", [
        [], [np.nan], [2.0], [3.0, 1.0, 3.0, np.inf, 1.0, np.inf],
        [-np.inf, 1.0, 0.5, 1.0], np.round(np.linspace(0, 4, 301) ** 2 % 3, 1)])
    def test_empirical_ccdf(self, sample):
        got, want = empirical_ccdf(sample), checks_oracle.empirical_ccdf(sample)
        assert got.times.tobytes() == want.times.tobytes()
        assert got.values.tobytes() == want.values.tobytes()

    def test_km_overlay_reads_each_draw_as_empirical_ccdf(self):
        ds = make_dataset([1.0, 2.0, 4.0], ["event"] * 3)
        draws = np.round(np.random.default_rng(5).exponential(2.0, (4, 9)), 1)
        pred = [s for s in km_overlay(ds, draws, cutoff_factor=2.0)
                if s.metadata["role"] == "predictive"]
        for s, (row, series) in enumerate(zip(draws, pred)):
            want = checks_oracle.empirical_ccdf(row).truncated(8.0).to_series(
                f"predictive_{s}", "predictive", xmax=8.0)
            assert series.to_dict() == want.to_dict()
        assert len(km_overlay(ds, np.empty((2, 0)))) == 3  # two empty draw sequences


class TestPitEcdfBand:
    def test_diagonal_inside(self):
        band = pit_ecdf_band(n=80, n_draws=200, level=0.95, n_sim=400, seed=0)
        assert band.contains(band.grid)

    def test_band_width_shrinks_with_n(self):
        small = pit_ecdf_band(n=50, n_draws=400, level=0.95, n_sim=400, seed=1)
        big = pit_ecdf_band(n=500, n_draws=400, level=0.95, n_sim=400, seed=1)
        mid = lambda b: np.interp(0.5, b.grid, b.upper - b.lower)  # noqa: E731
        assert mid(big) < mid(small)

    def test_coverage_close_to_level(self):
        # light version of the acceptance experiment
        band = pit_ecdf_band(n=60, n_draws=100, level=0.9, n_sim=800, seed=2)
        rng = np.random.default_rng(3)
        sims = simulate_pit_ecdfs(60, 100, 400, rng)
        inside = np.mean([band.contains(s) for s in sims])
        assert 0.84 <= inside <= 0.96

    def test_level_validated(self):
        with pytest.raises(CheckError):
            pit_ecdf_band(10, 10, level=1.5)


class TestPav:
    @staticmethod
    def isotonic_minimax(y):
        # O(n^2-ish) independent oracle: fit_i = max_{a<=i} min_{b>=i} mean(y[a..b])
        n = len(y)
        prefix = np.concatenate([[0.0], np.cumsum(y)])

        def mean(a, b):
            return (prefix[b + 1] - prefix[a]) / (b - a + 1)

        out = np.empty(n)
        for i in range(n):
            out[i] = max(min(mean(a, b) for b in range(i, n)) for a in range(i + 1))
        return out

    def test_spec_example(self):
        curve = pav_cep([0.2, 0.4, 0.6], [0, 1, 0])
        assert np.allclose(curve.ceps, [0.0, 0.5, 0.5])

    def test_already_isotonic(self):
        curve = pav_cep([0.1, 0.5, 0.9], [0, 0, 1])
        assert np.allclose(curve.ceps, [0, 0, 1])

    def test_all_ones(self):
        curve = pav_cep([0.3, 0.6], [1, 1])
        assert np.allclose(curve.ceps, [1, 1])

    def test_matches_minimax_oracle_small(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(1, 13))
            p = rng.random(n)
            z = (rng.random(n) < p).astype(float)
            curve = pav_cep(p, z)
            order = np.argsort(p, kind="stable")
            oracle = self.isotonic_minimax(z[order])
            assert np.allclose(curve.ceps, oracle, atol=1e-12)

    def test_monotone_large(self):
        rng = np.random.default_rng(6)
        p = rng.random(5000)
        z = (rng.random(5000) < 0.4).astype(float)
        curve = pav_cep(p, z)
        assert np.all(np.diff(curve.ceps) >= -1e-15)
        assert np.all((curve.ceps >= 0) & (curve.ceps <= 1))

    def test_tied_predictions_pooled(self):
        # the CEP is a function of the predicted probability: ties pool
        curve = pav_cep([0.5, 0.5, 0.5], [1, 0, 1])
        assert np.allclose(curve.ceps, [2 / 3, 2 / 3, 2 / 3])

    def test_deterministic_under_input_order(self):
        p = [0.5, 0.2, 0.5, 0.9]
        z = [1, 0, 0, 1]
        a = pav_cep(p, z)
        b = pav_cep(p, z)
        assert np.array_equal(a.ceps, b.ceps)
        assert np.array_equal(a.predictions, b.predictions)

    def test_rejects_out_of_range(self):
        with pytest.raises(CheckError):
            pav_cep([1.2], [1])

    def test_rejects_nan_prediction(self):
        z = [0, 0, 1, 0, 1, 1]
        with pytest.raises(CheckError, match=r"\[0, 1\]"):
            calibration_check([0.1, 0.2, np.nan, 0.4, 0.5, 0.6], z, n_sim=20)

    def test_rejects_outcome_not_binary(self):
        with pytest.raises(CheckError, match="0 or 1"):
            calibration_check([0.1, 0.2, 0.3, 0.4, 0.5, 0.6], [0, 0, 2, 0, 1, 1], n_sim=20)

    def test_pav_isotonic_weighted(self):
        fit = pav_isotonic(np.array([3.0, 1.0]), np.array([1.0, 3.0]))
        assert np.allclose(fit, [1.5, 1.5])


class TestCalibrationBand:
    def test_identity_curve_inside(self):
        rng = np.random.default_rng(7)
        p = rng.uniform(0.05, 0.95, size=150)
        band, _ = calibration_band(p, level=0.95, n_sim=400, seed=8)
        assert band.contains(np.sort(p))

    def test_constant_predictions_binomial_oracle(self):
        n = 200
        p = np.full(n, 0.5)
        band, _ = calibration_band(p, level=0.95, n_sim=2000, seed=9)
        # every replicate PAV curve is constant at mean(z*): the band at 0.5
        # is the gamma-adjusted central interval of Binomial(n, 1/2)/n
        from scipy.stats import binom

        gamma = band.pointwise_gamma
        lo = binom.ppf(gamma / 2, n, 0.5) / n
        hi = binom.ppf(1 - gamma / 2, n, 0.5) / n
        assert band.lower[0] == pytest.approx(lo, abs=0.015)
        assert band.upper[0] == pytest.approx(hi, abs=0.015)
        # and gamma-search kept roughly the nominal level for one grid point
        assert 0.01 <= gamma <= 0.07

    def test_coverage_light(self):
        rng = np.random.default_rng(10)
        p = np.sort(rng.uniform(0.1, 0.9, size=100))
        band, _ = calibration_band(p, level=0.9, n_sim=600, seed=11)
        inside = 0
        reps = 200
        for _ in range(reps):
            z = (rng.random(100) < p).astype(float)
            inside += band.contains(pav_isotonic(z))
        assert 0.82 <= inside / reps <= 0.97

    def test_calibration_check_bundle(self):
        rng = np.random.default_rng(12)
        p = rng.uniform(0, 0.4, size=120)
        z = (rng.random(120) < p).astype(int)
        series, inside = calibration_check(p, z, n_sim=300, seed=13, zoom_mass=0.9)
        names = {s.name for s in series}
        assert {"calibration_band", "calibration_curve", "identity",
                "prediction_density"} <= names
        curve = next(s for s in series if s.name == "calibration_curve")
        assert "zoom_region" in curve.metadata


class TestZoom:
    def test_low_concentration(self):
        p = np.random.default_rng(14).uniform(0, 0.25, size=50)
        lo, hi = zoom_region(p, 0.9)
        assert lo == 0.0 and hi <= 0.25

    def test_uniform_predictions(self):
        p = np.linspace(0.001, 0.999, 2001)
        lo, hi = zoom_region(p, 0.9)
        assert lo == 0.0
        assert hi == pytest.approx(0.9, abs=0.01)

    def test_full_mass_spans_range(self):
        p = np.array([0.2, 0.6, 0.7])
        lo, hi = zoom_region(p, 1.0)
        assert lo <= 0.2 and hi >= 0.7

    def test_rejects_nan(self):
        with pytest.raises(CheckError, match=r"\[0, 1\]"):
            zoom_region([np.nan, 0.2, 0.3])

    @pytest.mark.parametrize("mass", [-1.0, 0.0, 1.5, np.nan])
    def test_mass_outside_unit_interval_refused(self, mass):
        # a mass outside (0, 1] was clamped into [0, 1]
        with pytest.raises(CheckError, match=r"zoom mass must be in \(0, 1\]"):
            zoom_region([0.1, 0.2, 0.3], mass)
        with pytest.raises(CheckError, match="zoom mass"):
            calibration_check([0.1, 0.2, 0.3], [0, 1, 0], n_sim=10, zoom_mass=mass)

    def test_high_concentration_anchors_at_one(self):
        p = np.random.default_rng(15).uniform(0.75, 1.0, size=50)
        lo, hi = zoom_region(p, 0.9)
        assert hi == 1.0 and lo >= 0.7


class TestIntervalOutcomes:
    def test_at_risk_and_exclusions(self):
        from survcheck.checks import interval_outcomes

        ds = make_dataset(
            [0.5, 1.5, 1.7, 2.0, 3.0],
            ["event", "event", "right_censored", "right_censored", "event"],
        )
        # interval (1, 2]: subject 1 not at risk; 2 events inside; 3 censored
        # inside (excluded); 4 censored at the boundary counts as observed
        z, keep, excluded = interval_outcomes(ds, 1.0, 2.0)
        assert list(ds.subject_id[keep]) == [2, 4, 5]
        assert list(z) == [1, 0, 0]
        assert excluded == [3]

    def test_rejects_bad_bounds(self):
        from survcheck.checks import interval_outcomes

        with pytest.raises(CheckError):
            interval_outcomes(make_dataset([1.0], ["event"]), 2.0, 1.0)


class TestDichotomize:
    def test_event_before_horizon(self):
        ds = make_dataset([3.0], ["event"])
        z, keep, excluded = dichotomize_outcomes(ds, 5.0)
        assert list(z) == [1] and excluded == []

    def test_censored_after_horizon(self):
        ds = make_dataset([10.0], ["right_censored"])
        z, keep, excluded = dichotomize_outcomes(ds, 5.0)
        assert list(z) == [0] and excluded == []

    def test_censored_before_horizon_excluded(self):
        ds = make_dataset([4.0], ["right_censored"])
        z, keep, excluded = dichotomize_outcomes(ds, 5.0)
        assert len(z) == 0 and excluded == [1]

    def test_event_after_horizon(self):
        ds = make_dataset([7.0], ["event"])
        z, _, _ = dichotomize_outcomes(ds, 5.0)
        assert list(z) == [0]


class TestEnvelopeHelpers:
    def test_ecdf_on_grid(self):
        vals = np.array([0.1, 0.5, 0.5, 0.9])
        grid = np.array([0.25, 0.5, 1.0])
        assert np.allclose(ecdf_on_grid(vals, grid), [0.25, 0.75, 1.0])

    def test_envelope_monotone_in_level(self):
        rng = np.random.default_rng(16)
        sims = rng.standard_normal((500, 20)).cumsum(axis=1)
        lo90, hi90, _ = simultaneous_envelope(sims, 0.90)
        lo99, hi99, _ = simultaneous_envelope(sims, 0.99)
        assert np.all(lo99 <= lo90 + 1e-12)
        assert np.all(hi99 >= hi90 - 1e-12)

    @staticmethod
    def _envelope_by_np_quantile(sims, level, tol=1e-4):
        # the bisection re-running np.quantile over the replicates at each level
        def coverage(gamma):
            lo = np.quantile(sims, gamma / 2, axis=0)
            hi = np.quantile(sims, 1 - gamma / 2, axis=0)
            inside = np.all((sims >= lo - 1e-12) & (sims <= hi + 1e-12), axis=1)
            return inside.mean(), lo, hi

        lo_g, hi_g = 0.0, 1.0 - level
        best = coverage(lo_g)
        if best[0] < level:
            return best[1], best[2], lo_g
        cov_hi = coverage(hi_g)
        if cov_hi[0] >= level:
            return cov_hi[1], cov_hi[2], hi_g
        while hi_g - lo_g > tol * (1.0 - level):
            mid = 0.5 * (lo_g + hi_g)
            cov = coverage(mid)
            if cov[0] >= level:
                lo_g, best = mid, cov
            else:
                hi_g = mid
        return best[1], best[2], lo_g

    def test_envelope_bitwise_equal_to_np_quantile(self):
        rng = np.random.default_rng(17)
        cases = [
            (rng.integers(0, 9, size=(300, 40)) / 8.0, (0.5, 0.9, 0.95, 0.99)),  # ties
            (rng.standard_normal((250, 30)), (0.8, 0.95)),
            (rng.random((1, 12)), (0.9,)),          # a single replicate
            (rng.random((10, 25)), (0.999,)),       # bisects down to the gamma = 0 hull
            (np.tile(rng.random(15), (50, 1)), (0.95,)),  # the first 1 - level step holds
        ]
        # coverage is counted from each column's K = int(top (1 - level) / 2) + 2
        # smallest and largest replicates: ties across the K-th value (K = 6 at
        # level 0.9 on 100 replicates), levels of 0.5 and below, and K = n_sim
        tied = np.sort(rng.standard_normal((100, 15)), axis=0)
        tied[3:9], tied[-9:-3] = tied[5], tied[-6]
        cases += [
            (rng.permuted(tied, axis=0), (0.9,)),
            (rng.standard_normal((120, 20)), (0.3, 0.5)),
            (rng.random((2, 9)), (0.6,)),
            (rng.random((5, 12)), (0.1, 0.95)),  # the K smallest and K largest overlap
        ]
        infinite = rng.standard_normal((60, 8))
        infinite[5, 2], infinite[9, 1], infinite[:, 4] = -np.inf, np.inf, np.inf
        cases.append((infinite, (0.5, 0.9)))  # steps that compare every replicate
        gammas = []
        for sims, levels in cases:
            for level in levels:
                # an infinite gap times 0 interpolates to NaN in the infinite case
                with np.errstate(invalid="ignore" if np.isinf(sims).any() else "warn"):
                    got = simultaneous_envelope(sims, level)
                    want = self._envelope_by_np_quantile(sims, level)
                assert got[0].tobytes() == want[0].tobytes()
                assert got[1].tobytes() == want[1].tobytes()
                assert got[2] == want[2]
                gammas.append(got[2])
        assert gammas[7] == 0.0 and gammas[8] == pytest.approx(0.05)

    def test_step_function_eval(self):
        f = StepFunction([1.0, 3.0], [0.5, 0.2])
        assert f(0.5) == 1.0
        assert f(1.0) == 0.5
        assert f(2.9) == 0.5
        assert f(3.0) == 0.2
