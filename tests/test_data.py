import io

import numpy as np
import pytest

from survcheck.data import (
    DataError,
    DrawsMatrix,
    SurvivalDataset,
    TimeGrid,
    TreatmentRule,
    expand_long,
    read_draws_csv,
    read_long_csv,
    read_short_csv,
    rescale_time,
    scale_covariates,
    to_short_form,
    validate_dataset,
    validate_long,
    write_draws_csv,
    write_long_csv,
    write_short_csv,
)


def make_dataset(times, statuses, entries=None, covariates=None, ids=None):
    n = len(times)
    return SurvivalDataset(
        subject_id=ids if ids is not None else np.arange(1, n + 1),
        entry_time=entries if entries is not None else np.zeros(n),
        time=times,
        status=statuses,
        covariates=covariates or {},
    )


def random_dataset(rng, n=None, statuses=("event", "right_censored")):
    n = n or rng.integers(2, 15)
    times = rng.integers(1, 9, size=n).astype(float)
    status = rng.choice(statuses, size=n)
    return make_dataset(times, status)


class TestValidation:
    def test_entry_after_time_flagged(self):
        ds = make_dataset([1.0], ["event"], entries=[2.0])
        report = validate_dataset(ds)
        assert any("entry_time < time" in msg for msg in report)

    def test_valid_dataset_empty_report(self):
        ds = make_dataset([1.0, 2.0, 3.0], ["event", "right_censored", "event"],
                          covariates={"x": [0.1, 0.2, 0.3]})
        assert validate_dataset(ds) == []

    def test_duplicate_id_flagged(self):
        ds = make_dataset([1.0, 2.0], ["event", "event"], ids=[60, 60])
        report = validate_dataset(ds)
        assert any("duplicate subject_id 60" in msg for msg in report)

    def test_nonfinite_covariate_flagged(self):
        ds = make_dataset([1.0, 2.0], ["event", "event"], covariates={"x": [np.nan, 1.0]})
        assert any("not finite" in msg for msg in validate_dataset(ds))

    def test_interval_bounds_rules(self):
        ds = SurvivalDataset(
            subject_id=[1, 2],
            entry_time=[0, 0],
            time=[2.0, 3.0],
            status=["interval_censored", "event"],
            interval_bounds=[[1.0, 2.0], [np.nan, np.nan]],
        )
        assert validate_dataset(ds) == []
        bad = SurvivalDataset(
            subject_id=[1],
            entry_time=[0],
            time=[2.0],
            status=["interval_censored"],
            interval_bounds=[[2.0, 1.0]],
        )
        assert any("a < b" in msg for msg in validate_dataset(bad))
        missing = make_dataset([2.0], ["interval_censored"])
        assert any("without bounds" in msg for msg in validate_dataset(missing))


class TestExpandLong:
    def test_table_patient_60(self):
        # treated three years, event at year 5: the worked example rows
        ds = make_dataset(
            [5.0], ["event"], ids=[60],
            covariates={"Size": [75.0], "AgeAtSurg": [64.0], "MitHPF": [13.0],
                        "GenderMale": [0.0], "Rupture": [0.0], "Gastric": [1.0],
                        "AdjTreatm": [1.0]},
        )
        long = expand_long(ds, TimeGrid(1.0, 10), TreatmentRule(duration=3))
        assert list(long.interval_index) == [1, 2, 3, 4, 5]
        assert list(long.covariates["AdjOn"]) == [1, 1, 1, 0, 0]
        assert list(long.covariates["TimeSinceAdjStopped"]) == [0, 0, 0, 1, 2]
        assert list(long.outcome) == [0, 0, 0, 0, 1]
        assert list(long.covariates["Time"]) == [1, 2, 3, 4, 5]
        for name, value in [("Size", 75.0), ("Gastric", 1.0), ("GenderMale", 0.0)]:
            assert np.all(long.covariates[name] == value)
        assert validate_long(long) == []

    def test_duration_mapping_by_subject_and_subset(self):
        ds = make_dataset([3.0, 2.0], ["event", "right_censored"], ids=[7, 8])
        long = expand_long(ds, TimeGrid(1.0, 5), TreatmentRule(duration={7: 2.0}))
        assert list(long.subject_id) == [7, 7, 7, 8, 8]
        assert list(long.covariates["AdjOn"]) == [1, 1, 0, 0, 0]
        assert list(long.covariates["TimeSinceAdjStopped"]) == [0, 0, 1, 1, 2]
        held = long.subset(long.subject_id == 8)
        assert list(held.interval_index) == [1, 2]
        assert list(held.covariates["Time"]) == [1, 2]
        assert (held.static_names, held.td_names) == (long.static_names, long.td_names)

    @pytest.mark.parametrize("rule", [
        TreatmentRule(duration=2.0),
        TreatmentRule(duration={11: 1.0, 13: 4.0}),
        TreatmentRule(duration=3.0, treated_covariate=None),
    ])
    def test_rows_of_many_subjects_stack_one_subject_rows(self, rule):
        statics = {"AdjTreatm": np.array([1.0, 0.0, 1.0, 1.0]),
                   "Size": np.array([5.0, 9.0, 7.5, 6.0])}
        sid = np.array([11, 12, 13, 14])
        k = np.array([4, 1, 5, 2])
        rows = rule.rows(statics, k, sid)
        singles = [rule.rows({name: float(col[i]) for name, col in statics.items()},
                             int(k[i]), int(sid[i])) for i in range(4)]
        assert list(rows) == list(singles[0])
        assert list(rows) == ["AdjTreatm", "Size", "Time", "AdjOn", "TimeSinceAdjStopped"]
        for name in rows:
            stacked = np.concatenate([s[name] for s in singles])
            assert rows[name].dtype == stacked.dtype
            assert np.array_equal(rows[name], stacked)
        # one scalar count for every subject, and no ids
        assert rule.rows(statics, 3)["Time"].tolist() == [1, 2, 3] * 4

    def test_censored_at_one_single_row(self):
        ds = make_dataset([1.0], ["right_censored"])
        long = expand_long(ds, TimeGrid(1.0, 5))
        assert long.n_rows == 1
        assert list(long.outcome) == [0]

    def test_event_year_two_no_treatment(self):
        # hand expansion: two rows, outcomes 0 then 1, never on treatment
        ds = make_dataset([2.0], ["event"], covariates={"AdjTreatm": [0.0]})
        long = expand_long(ds, TimeGrid(1.0, 5), TreatmentRule(duration=3))
        assert long.n_rows == 2
        assert list(long.outcome) == [0, 1]
        assert list(long.covariates["AdjOn"]) == [0, 0]

    def test_rejects_unsupported_status(self):
        ds = make_dataset([2.0], ["left_censored"])
        with pytest.raises(DataError, match="right-censored"):
            expand_long(ds, TimeGrid(1.0, 5))

    def test_rejects_grid_not_covering(self):
        ds = make_dataset([7.0], ["event"])
        with pytest.raises(DataError, match="cover"):
            expand_long(ds, TimeGrid(1.0, 5))

    def test_boundary_time_belongs_to_earlier_interval(self):
        grid = TimeGrid(1.0, 10)
        assert grid.interval_of(3.0) == 3
        assert grid.interval_of(3.0001) == 4
        assert grid.interval_of(0.5) == 1

    def test_long_invariants_on_random_datasets(self):
        rng = np.random.default_rng(11)
        grid = TimeGrid(1.0, 10)
        for _ in range(200):
            ds = random_dataset(rng)
            long = expand_long(ds, grid)
            assert validate_long(long) == []
            # rows per subject = interval containing the time
            for i in range(ds.n):
                rows = long.subject_id == ds.subject_id[i]
                assert rows.sum() == int(np.ceil(ds.time[i]))


class TestShortForm:
    def test_table_patient_60_round_trip(self):
        ds = make_dataset(
            [5.0], ["event"], ids=[60],
            covariates={"Size": [75.0], "AdjTreatm": [1.0]},
        )
        long = expand_long(ds, TimeGrid(1.0, 10), TreatmentRule(duration=3))
        short = to_short_form(long)
        assert short.subject_id[0] == 60
        assert short.time[0] == 5.0          # EventTime
        assert short.status[0] == "event"    # Censored = 0
        assert short.covariates["AdjTreatm"][0] == 1.0
        assert short.covariates["Size"][0] == 75.0

    def test_single_censored_row(self):
        ds = make_dataset([1.0], ["right_censored"])
        short = to_short_form(expand_long(ds, TimeGrid(1.0, 5)))
        assert short.time[0] == 1.0
        assert short.status[0] == "right_censored"

    def test_round_trip_recovers_event_times(self):
        rng = np.random.default_rng(5)
        grid = TimeGrid(1.0, 12)
        for _ in range(100):
            ds = random_dataset(rng, statuses=("event",))
            back = to_short_form(expand_long(ds, grid))
            assert np.array_equal(back.time, ds.time)
            assert np.array_equal(back.status, ds.status)

    def test_round_trip_censor_indicators_on_grid_times(self):
        rng = np.random.default_rng(6)
        grid = TimeGrid(1.0, 12)
        for _ in range(100):
            ds = random_dataset(rng)
            back = to_short_form(expand_long(ds, grid))
            assert np.array_equal(back.time, ds.time)
            assert np.array_equal(back.status, ds.status)


class TestRescale:
    def test_days_to_months(self):
        ds = make_dataset([60.0], ["event"], entries=[0.0])
        out = rescale_time(ds, 30.0)
        assert out.time[0] == 2.0

    def test_identity(self):
        ds = make_dataset([3.0, 4.0], ["event", "right_censored"])
        out = rescale_time(ds, 1.0)
        assert np.array_equal(out.time, ds.time)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(2)
        times = rng.uniform(0.5, 100, size=20)
        ds = make_dataset(times, ["event"] * 20, entries=rng.uniform(0, 0.4, size=20))
        back = rescale_time(rescale_time(ds, 30.0), 1 / 30.0)
        assert np.allclose(back.time, ds.time, rtol=1e-12)
        assert np.allclose(back.entry_time, ds.entry_time, rtol=1e-12, atol=1e-15)

    def test_rejects_nonpositive_factor(self):
        ds = make_dataset([1.0], ["event"])
        with pytest.raises(DataError):
            rescale_time(ds, 0.0)


class TestScaleCovariates:
    def test_mean_zero_sd_half(self):
        ds = make_dataset([1, 2, 3], ["event"] * 3, covariates={"x": [1.0, 2.0, 3.0]})
        out, record = scale_covariates(ds, ["x"])
        assert abs(out.covariates["x"].mean()) < 1e-10
        assert abs(out.covariates["x"].std(ddof=1) - 0.5) < 1e-10
        assert record.stats["x"] == (2.0, 1.0)

    def test_idempotent_on_scaled(self):
        rng = np.random.default_rng(3)
        x = rng.normal(5, 2, size=50)
        ds = make_dataset(np.ones(50), ["event"] * 50, covariates={"x": x})
        once, _ = scale_covariates(ds, ["x"])
        twice, _ = scale_covariates(once, ["x"])
        assert np.allclose(once.covariates["x"], twice.covariates["x"], atol=1e-12)

    def test_binary_covariate_still_transformed(self):
        z = np.array([0.0, 0.0, 1.0, 1.0])
        ds = make_dataset(np.ones(4), ["event"] * 4, covariates={"z": z})
        out, record = scale_covariates(ds, ["z"])
        mean, sd = record.stats["z"]
        expected = (z - mean) / sd * 0.5
        assert np.allclose(out.covariates["z"], expected)

    def test_zero_variance_rejected(self):
        ds = make_dataset([1, 2], ["event"] * 2, covariates={"c": [1.0, 1.0]})
        with pytest.raises(DataError, match="zero variance"):
            scale_covariates(ds, ["c"])

    def test_apply_to_new_values(self):
        ds = make_dataset([1, 2, 3], ["event"] * 3, covariates={"x": [10.0, 20.0, 30.0]})
        _, record = scale_covariates(ds, ["x"])
        new = record.apply({"x": 20.0, "other": 7.0})
        assert new["x"] == pytest.approx(0.0)
        assert new["other"] == 7.0
        assert record.invert("x", new["x"]) == pytest.approx(20.0)


class TestDrawsMatrix:
    def test_invariants(self):
        with pytest.raises(DataError):
            DrawsMatrix(np.array([[np.inf]]), ["a"])
        with pytest.raises(DataError):
            DrawsMatrix(np.ones((2, 2)), ["a", "a"])
        dm = DrawsMatrix(np.ones((3, 2)), ["a", "b"], chain_ids=[0, 0, 1])
        assert dm.n_draws == 3
        assert np.array_equal(dm.column("b"), np.ones(3))


class TestCsv:
    def test_short_round_trip(self, tmp_path):
        ds = SurvivalDataset(
            subject_id=[1, 2, 3],
            entry_time=[0.0, 0.5, 0.0],
            time=[2.0, 3.5, 4.0],
            status=["event", "right_censored", "interval_censored"],
            covariates={"Size": [10.0, 20.5, 30.0]},
            interval_bounds=[[np.nan, np.nan], [np.nan, np.nan], [3.0, 4.0]],
        )
        path = tmp_path / "short.csv"
        write_short_csv(ds, path)
        back = read_short_csv(path)
        assert np.array_equal(back.subject_id, ds.subject_id)
        assert np.allclose(back.time, ds.time)
        assert list(back.status) == list(ds.status)
        assert np.allclose(back.covariates["Size"], ds.covariates["Size"])
        assert np.allclose(back.interval_bounds[2], [3.0, 4.0])

    def test_status_codes(self):
        buf = io.StringIO("subject_id,entry_time,time,status,x\n1,0,2,rcens,0.5\n")
        ds = read_short_csv(buf)
        assert ds.status[0] == "right_censored"

    def test_header_required(self):
        with pytest.raises(DataError):
            read_short_csv(io.StringIO(""))

    def test_column_remap(self):
        buf = io.StringIO("id,t,stat\n4,2.5,event\n")
        ds = read_short_csv(buf, columns={"subject_id": "id", "time": "t", "status": "stat"})
        assert ds.subject_id[0] == 4
        assert ds.entry_time[0] == 0.0

    def test_long_round_trip(self, tmp_path):
        ds = make_dataset([2.0, 3.0], ["event", "right_censored"],
                          covariates={"AdjTreatm": [1.0, 0.0], "Size": [5.0, 9.0]})
        long = expand_long(ds, TimeGrid(1.0, 5), TreatmentRule(duration=2))
        path = tmp_path / "long.csv"
        write_long_csv(long, path)
        back = read_long_csv(path)
        assert np.array_equal(back.subject_id, long.subject_id)
        assert np.array_equal(back.outcome, long.outcome)
        assert np.allclose(back.covariates["AdjOn"], long.covariates["AdjOn"])
        assert "Size" in back.static_names

    def test_draws_round_trip(self, tmp_path):
        dm = DrawsMatrix(np.random.default_rng(0).normal(size=(5, 3)),
                         ["b_Intercept", "b_x", "alpha"], chain_ids=[0, 0, 0, 1, 1])
        path = tmp_path / "draws.csv"
        write_draws_csv(dm, path)
        back = read_draws_csv(path)
        assert back.parameter_names == dm.parameter_names
        assert np.array_equal(back.draws, dm.draws)
        assert np.array_equal(back.chain_ids, dm.chain_ids)
