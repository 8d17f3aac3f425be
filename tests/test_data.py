import io
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from survcheck.data import (
    STATUSES,
    DataError,
    DrawsMatrix,
    LongDataset,
    SurvivalDataset,
    TimeGrid,
    TreatmentRule,
    expand_long,
    read_draws_csv,
    read_long_csv,
    read_short_csv,
    require_valid,
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

    def test_every_problem_in_order(self):
        # one message per problem and row, each kind in turn; no bounds at all
        # reads as bounds that are all NaN
        kw = dict(subject_id=[1, 2, 3, 3], entry_time=[0.0, -1.0, 5.0, 0.0],
                  time=[2.0, -3.0, 4.0, 3.0],
                  status=["interval_censored", "event", "interval_censored", "event"],
                  covariates={"x": [np.nan, 1.0, np.inf, 0.0], "y": [0.0, np.nan, 0.0, 0.0]})
        common = ["subject 2: entry_time < time violated (-1.0 >= -3.0)",
                  "subject 3: entry_time < time violated (5.0 >= 4.0)",
                  "duplicate subject_id 3",
                  "subject 2: time must be positive",
                  "subject 2: entry_time must be non-negative",
                  "subject 1: covariate 'x' not finite",
                  "subject 3: covariate 'x' not finite",
                  "subject 2: covariate 'y' not finite",
                  "subject 1: interval-censored without bounds"]
        assert validate_dataset(SurvivalDataset(**kw)) == common + [
            "subject 3: interval-censored without bounds"]
        bounds = [[np.nan, 2.0], [0.0, 1.0], [3.0, 3.0], [1.0, 2.0]]
        assert validate_dataset(SurvivalDataset(**kw, interval_bounds=bounds)) == common + [
            "subject 2: bounds present but status is not icens",
            "subject 3: bounds present but status is not icens",
            "subject 3: interval bounds need a < b"]

    def test_long_outcome_must_be_zero_or_one(self):
        long = LongDataset([1, 2, 2], [1, 1, 2], [1, 0, 2])
        assert validate_long(long) == ["subject 2: outcome must be 0 or 1, got 2"]
        with pytest.raises(DataError, match="subject 2: outcome must be 0 or 1, got 2"):
            require_valid(long)


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

    def test_duration_by_treatment_and_subset(self):
        # the duration applies to the treated subject only; a subset keeps
        # its rows, intervals and static names
        ds = make_dataset([3.0, 2.0], ["event", "right_censored"], ids=[7, 8],
                          covariates={"AdjTreatm": [1.0, 0.0]})
        long = expand_long(ds, TimeGrid(1.0, 5), TreatmentRule(duration=2.0))
        assert list(long.subject_id) == [7, 7, 7, 8, 8]
        assert list(long.covariates["AdjOn"]) == [1, 1, 0, 0, 0]
        assert list(long.covariates["TimeSinceAdjStopped"]) == [0, 0, 1, 1, 2]
        held = long.subset(long.subject_id == 8)
        assert list(held.interval_index) == [1, 2]
        assert list(held.covariates["Time"]) == [1, 2]
        assert held.static_names == long.static_names == ("AdjTreatm",)

    @pytest.mark.parametrize("rule", [TreatmentRule(duration=2.0), TreatmentRule(duration=5.0)])
    def test_rows_of_many_subjects_stack_one_subject_rows(self, rule):
        statics = {"AdjTreatm": np.array([1.0, 0.0, 1.0, 1.0]),
                   "Size": np.array([5.0, 9.0, 7.5, 6.0])}
        k = np.array([4, 1, 5, 2])
        rows = rule.rows(statics, k)
        singles = [rule.rows({name: float(col[i]) for name, col in statics.items()}, int(k[i]))
                   for i in range(4)]
        assert list(rows) == list(singles[0])
        assert list(rows) == ["AdjTreatm", "Size", "Time", "AdjOn", "TimeSinceAdjStopped"]
        for name in rows:
            stacked = np.concatenate([s[name] for s in singles])
            assert rows[name].dtype == stacked.dtype
            assert np.array_equal(rows[name], stacked)
        # one scalar count for every subject
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

    def test_grid_rejects_bad_values(self):
        for length, n, message in ((np.nan, 10, "interval_length"), (np.inf, 10, "finite"),
                                   (-np.inf, 10, "finite"), (0.0, 10, "positive, got 0.0"),
                                   (-1.0, 10, "interval_length"), (1.0, 0, "n_intervals"),
                                   (1.0, 2.5, "integer, got 2.5"), (1.0, 10.0, "integer"),
                                   (1.0, True, "integer")):
            with pytest.raises(DataError, match=message):
                TimeGrid(length, n)

    def test_grid_bounds_refuse_intervals_it_does_not_have(self):
        # bounds(3) of a 2-interval grid was (2, 3], an interval the grid lacks
        grid = TimeGrid(1.5, 2)
        assert grid.bounds(2) == (1.5, 3.0)
        assert [b.tolist() for b in grid.bounds(np.array([1, 2]))] == [[0.0, 1.5], [1.5, 3.0]]
        for k in (0, 3, -1, np.array([1, 3])):
            with pytest.raises(DataError, match=re.escape("outside the grid's 1..2")):
                grid.bounds(k)

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

    def test_static_treatment_kept_under_a_per_subject_rule(self):
        # rows whose AdjOn is set subject by subject, against AdjTreatm:
        # subject 2 is treated but on for no interval, subject 4 untreated but
        # on for four.  The static column, not AdjOn, is what they recorded
        ds = make_dataset([2.0, 6.0, 2.0, 5.0, 4.0],
                          ["event", "right_censored", "right_censored", "event", "event"],
                          covariates={"z": [0.3, -1.2, 0.8, 0.0, 1.5],
                                      "AdjTreatm": [1.0, 1.0, 0.0, 0.0, 1.0]})
        long = expand_long(ds, TimeGrid(1.0, 6), TreatmentRule(duration=2.0))
        on = {1: 1.0, 4: 4.0, 5: 2.0}  # intervals on treatment; none for the others
        adj_on = np.array([float(k <= on.get(s, 0.0))
                           for s, k in zip(long.subject_id.tolist(),
                                           long.interval_index.tolist())])
        assert adj_on.tolist() != long.covariates["AdjOn"].tolist()
        long = replace(long, covariates={**long.covariates, "AdjOn": adj_on})
        short = to_short_form(long)
        assert short.covariates.keys() == ds.covariates.keys()
        for name, col in ds.covariates.items():
            assert short.covariates[name].tobytes() == col.tobytes()

    def test_treatment_derived_without_a_static_column(self):
        ds = make_dataset([3.0, 2.0], ["event", "event"], covariates={"AdjTreatm": [1.0, 0.0]})
        long = expand_long(ds, TimeGrid(1.0, 4), TreatmentRule(duration=2))
        long = replace(long, covariates={k: v for k, v in long.covariates.items()
                                         if k != "AdjTreatm"}, static_names=())
        assert to_short_form(long).covariates["AdjTreatm"].tolist() == [1.0, 0.0]

    def test_single_censored_row(self):
        ds = make_dataset([1.0], ["right_censored"])
        short = to_short_form(expand_long(ds, TimeGrid(1.0, 5)))
        assert short.time[0] == 1.0
        assert short.status[0] == "right_censored"

    def test_empty_long_data_refused(self):
        with pytest.raises(DataError, match="no rows"):
            to_short_form(LongDataset([], [], []))

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



@st.composite
def treated_cohorts(draw):
    """Long rows of up to 8 subjects followed 1..10 intervals, expanded under
    a duration of 1..6 intervals, with or without a static ``AdjTreatm``."""
    duration, follow_up = draw(st.integers(1, 6)), draw(st.integers(1, 10))
    n = draw(st.integers(1, 8))
    covariates = {"z": draw(_floats(n, st.floats(-5, 5)))}
    if draw(st.booleans()):
        covariates["AdjTreatm"] = draw(_floats(n, st.sampled_from([0.0, 1.0])))
    ds = make_dataset(draw(_floats(n, st.integers(1, follow_up).map(float))),
                      draw(st.lists(st.sampled_from(["event", "right_censored"]),
                                    min_size=n, max_size=n)),
                      covariates=covariates)
    grid = TimeGrid(1.0, follow_up)
    return expand_long(ds, grid, TreatmentRule(duration=float(duration))), grid


class TestRuleFromRows:
    # 300 examples of at most 80 rows each; no deadline
    @settings(max_examples=300, deadline=None)
    @given(cohort=treated_cohorts())
    def test_rule_read_from_the_rows_rebuilds_them(self, cohort):
        long, grid = cohort
        back = expand_long(to_short_form(long), grid, TreatmentRule.of(long))
        assert back.outcome.tobytes() == long.outcome.tobytes()
        for name, col in long.covariates.items():
            assert back.covariates[name].tobytes() == col.tobytes()

    def test_rows_showing_one_several_or_no_durations(self):
        ds = make_dataset([6.0, 6.0, 2.0], ["event", "right_censored", "event"],
                          covariates={"AdjTreatm": [1.0, 0.0, 1.0]})
        long = expand_long(ds, TimeGrid(1.0, 6), TreatmentRule(duration=4.0))
        assert TreatmentRule.of(long) == TreatmentRule(duration=4.0)
        # a second treated subject that stopped after 2 intervals: the default
        other = expand_long(make_dataset([5.0], ["event"], ids=[9],
                                         covariates={"AdjTreatm": [1.0]}),
                            TimeGrid(1.0, 6), TreatmentRule(duration=2.0))
        mixed = LongDataset(np.append(long.subject_id, other.subject_id),
                            np.append(long.interval_index, other.interval_index),
                            np.append(long.outcome, other.outcome),
                            {k: np.append(v, other.covariates[k])
                             for k, v in long.covariates.items()})
        assert TreatmentRule.of(mixed) == TreatmentRule()
        # treated through the whole follow-up: the longest treatment, or the
        # default when that is no longer than its duration
        for follow_up, duration in ((5, 5.0), (3, 3.0), (2, 3.0)):
            long = expand_long(make_dataset([float(follow_up)], ["event"],
                                            covariates={"AdjTreatm": [1.0]}),
                               TimeGrid(1.0, follow_up), TreatmentRule(duration=10.0))
            assert TreatmentRule.of(long) == TreatmentRule(duration=duration)
        # no treatment columns at all read as zeros: the default
        assert TreatmentRule.of(LongDataset([1, 1], [1, 2], [0, 1])) == TreatmentRule()

    @pytest.mark.parametrize("duration", [1.7, 2.5, -1.0, np.nan, np.inf])
    def test_duration_not_a_whole_number_refused(self, duration):
        # rows made under 1.7 would read back as several durations, then the default
        with pytest.raises(DataError, match="whole number"):
            TreatmentRule(duration=duration)

    def test_rows_showing_one_duration_not_a_whole_number_refused(self):
        long = expand_long(make_dataset([6.0], ["event"], covariates={"AdjTreatm": [1.0]}),
                           TimeGrid(1.0, 6), TreatmentRule(duration=2.0))
        # rows from elsewhere: TimeSinceAdjStopped half an interval short
        since = long.covariates["TimeSinceAdjStopped"]
        shifted = replace(long, covariates={**long.covariates,
                                            "TimeSinceAdjStopped": np.where(since > 0, since + 0.5,
                                                                            0.0)})
        with pytest.raises(DataError, match="got 1.5"):
            TreatmentRule.of(shifted)

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


class TestDrawsMatrix:
    def test_invariants(self):
        with pytest.raises(DataError):
            DrawsMatrix(np.array([[np.inf]]), ["a"])
        with pytest.raises(DataError):
            DrawsMatrix(np.ones((2, 2)), ["a", "a"])
        dm = DrawsMatrix(np.ones((3, 2)), ["a", "b"], chain_ids=[0, 0, 1])
        assert dm.n_draws == 3
        assert np.array_equal(dm.column("b"), np.ones(3))


def test_covariate_shape_named_by_both_datasets():
    for make, n in ((lambda cov: make_dataset([1.0, 2.0], ["event", "event"], covariates=cov), 2),
                    (lambda cov: LongDataset([1, 1], [1, 2], [0, 1], cov), 2)):
        with pytest.raises(DataError, match=re.escape(f"covariate 'x' must have shape ({n},), "
                                                      "got (3,)")):
            make({"x": [0.0, 1.0, 2.0]})


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

    def test_repeated_column_names_refused(self):
        # each reader kept the first of two same-named columns and dropped the other
        for read, text, names in (
                (read_short_csv, "subject_id,entry_time,time,status,Size,Size\n"
                 "1,0,2,event,5,9\n", ["Size"]),
                (read_short_csv, "subject_id,time,entry_time,time,status\n1,2,0,3,event\n",
                 ["time"]),
                (read_long_csv, "subject_id,interval_index,event,x,x,y,y\n1,1,0,1,2,3,4\n",
                 ["x", "y"]),
                (read_draws_csv, "chain,b_x,chain\n0,0.5,1\n", ["chain"])):
            with pytest.raises(DataError, match=re.escape(
                    f"CSV header repeats column names {names}")):
                read(io.StringIO(text))

    def test_first_bad_column_reported_whatever_the_header_order(self):
        # each reader converts its columns in a fixed order, not in header
        # order: short reads status codes, bounds, then subject_id; long reads
        # covariates, subject_id, event, then interval_index
        for read, text, bad in (
                (read_short_csv, "subject_id,time,status,interval_upper,x\n"
                 "a,b,nope,c,d\n", "unknown status code 'nope'"),
                (read_short_csv, "subject_id,time,status,interval_upper,x\n"
                 "a,b,event,c,d\n", "'c'"),
                (read_short_csv, "x,time,status,subject_id\nd,b,event,a\n", "'a'"),
                (read_long_csv, "event,interval_index,subject_id,x\nd,c,b,a\n", "'a'"),
                (read_long_csv, "event,interval_index,subject_id\nd,c,b\n", "'b'"),
                (read_long_csv, "event,interval_index,subject_id\nd,c,1\n", "'d'")):
            with pytest.raises(DataError, match=re.escape(bad)):
                read(io.StringIO(text))

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

    def test_long_event_must_be_a_whole_number(self):
        # read as int(float(cell)), an event of 0.5 was a silent 0
        for cell in ("0.5", "nan"):
            buf = io.StringIO(f"subject_id,interval_index,event\n1,1,1\n2,1,0\n2,2,{cell}\n")
            with pytest.raises(DataError, match=f"whole numbers: subject 2: {cell}"):
                read_long_csv(buf)
        back = read_long_csv(io.StringIO("subject_id,interval_index,event\n1,1,1.0\n2,1,0\n"))
        assert back.outcome.tolist() == [1, 0]

    def test_integer_cells_must_be_whole_numbers(self):
        # read as int(float(cell)), a subject id of 2.5 was subject 2
        for reader, header, row, column, cell in (
                (read_long_csv, "subject_id,interval_index,event", "{},1,0", "subject_id", "2.5"),
                (read_long_csv, "subject_id,interval_index,event", "2,{},0", "interval_index",
                 "1.5"),
                (read_short_csv, "subject_id,entry_time,time,status", "{},0,2,event",
                 "subject_id", "1e-3"),
                (read_draws_csv, "chain,b_x", "{},0.5", "chain", "0.5"),
                (read_draws_csv, "chain,b_x", "{},0.5", "chain", "1e300")):
            buf = io.StringIO(f"{header}\n{row.format(1)}\n{row.format(cell)}\n")
            with pytest.raises(DataError, match=re.escape(
                    f"{column} must hold whole numbers, got {float(cell)!r}")):
                reader(buf)
        back = read_long_csv(io.StringIO("subject_id,interval_index,event\n3.0,2.0,0\n"))
        assert back.subject_id.tolist() == [3] and back.interval_index.tolist() == [2]

    @pytest.mark.parametrize("field", ["subject_id", "interval_index", "outcome"])
    def test_long_dataset_refuses_fractions(self, field):
        # converted with dtype=int, an outcome of 0.5 was held as 0
        cols = {"subject_id": [1, 1], "interval_index": [1, 2], "outcome": [0, 1]}
        for value in (0.5, np.nan, np.inf):
            bad = {**cols, field: [cols[field][0], value]}
            with pytest.raises(DataError, match=f"{field} must hold whole numbers, got {value}"):
                LongDataset(**bad)
        assert LongDataset(**{**cols, field: np.array(cols[field], dtype=float)}) is not None

    def test_short_dataset_and_draws_refuse_fractional_ids(self):
        with pytest.raises(DataError, match="subject_id must hold whole numbers, got 1.5"):
            make_dataset([1.0, 2.0], ["event", "event"], ids=[1.5, 2.0])
        with pytest.raises(DataError, match="chain_ids must hold whole numbers, got 0.5"):
            DrawsMatrix(np.zeros((2, 1)), ["b_x"], chain_ids=[0.0, 0.5])

    def test_writer_bytes(self, tmp_path):
        # csv's dialect: CRLF line ends, a cell holding a comma quoted
        short = SurvivalDataset([1, 2], [0.0, 0.5], [2.0, 3.25], ["event", "interval_censored"],
                                {"x": [1.0, -0.1]}, [[np.nan, np.nan], [1.0, 3.25]])
        long = LongDataset([7, 7], [1, 2], [0, 1], {"AdjOn": [1.0, 0.0], "a,b": [0.25, 1e20]})
        draws = DrawsMatrix([[0.1, -2.0], [1e-20, 3.0]], ("a", "b"))
        cases = [
            (write_short_csv, short, b"subject_id,entry_time,time,status,interval_lower,"
             b"interval_upper,x\r\n1,0,2,event,,,1\r\n2,0.5,3.25,icens,1,3.25,-0.1\r\n"),
            (write_short_csv, replace(short, status=np.array(["event", "right_censored"]),
                                      interval_bounds=None),
             b"subject_id,entry_time,time,status,x\r\n1,0,2,event,1\r\n2,0.5,3.25,rcens,-0.1\r\n"),
            (write_long_csv, long,
             b'subject_id,interval_index,event,AdjOn,"a,b"\r\n7,1,0,1,0.25\r\n7,2,1,0,1e+20\r\n'),
            (write_draws_csv, draws, b"a,b\r\n0.1,-2.0\r\n1e-20,3.0\r\n"),
            (write_draws_csv, replace(draws, chain_ids=[0, 1]),
             b"chain,a,b\r\n0,0.1,-2.0\r\n1,1e-20,3.0\r\n"),
        ]
        for write, data, want in cases:
            path = tmp_path / "out.csv"
            write(data, path)
            assert path.read_bytes() == want

    def test_draws_round_trip(self, tmp_path):
        dm = DrawsMatrix(np.random.default_rng(0).normal(size=(5, 3)),
                         ["b_Intercept", "b_x", "alpha"], chain_ids=[0, 0, 0, 1, 1])
        path = tmp_path / "draws.csv"
        write_draws_csv(dm, path)
        back = read_draws_csv(path)
        assert back.parameter_names == dm.parameter_names
        assert np.array_equal(back.draws, dm.draws)
        assert np.array_equal(back.chain_ids, dm.chain_ids)


# any finite float64; subject ids stay exact through the readers' int(float(v))
FINITE = st.floats(allow_nan=False, allow_infinity=False)
IDS = st.integers(-2**53, 2**53)


def _floats(n, elements=FINITE):
    return hnp.arrays(np.float64, n, elements=elements)


def _round_trip(write, read, value):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        write(value, path)
        return read(path)


@st.composite
def short_datasets(draw):
    n = draw(st.integers(0, 6))
    bounds = draw(st.none() | _floats((n, 2), FINITE | st.just(np.nan)))
    return SurvivalDataset(
        draw(hnp.arrays(np.int64, n, elements=IDS)), draw(_floats(n)), draw(_floats(n)),
        draw(st.lists(st.sampled_from(STATUSES), min_size=n, max_size=n)),
        {f"x{j}": draw(_floats(n)) for j in range(draw(st.integers(0, 3)))}, bounds)


@st.composite
def long_datasets(draw):
    n = draw(st.integers(0, 6))
    ints = hnp.arrays(np.int64, n, elements=IDS)
    outcome = hnp.arrays(np.int64, n, elements=st.integers(0, 1))
    return LongDataset(draw(ints), draw(ints), draw(outcome),
                       {f"x{j}": draw(_floats(n)) for j in range(draw(st.integers(0, 3)))})


class TestCsvRoundTripProperty:
    """Each CSV writer's file read back holds the same values.

    Values are compared with ``np.array_equal``, not bytes: a float with an
    integer value is written without its fraction, so ``-0.0`` is written as
    ``0`` and read back as ``0.0``, which compares equal.
    """

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(ds=short_datasets())
    def test_short(self, ds):
        back = _round_trip(write_short_csv, read_short_csv, ds)
        for name in ("subject_id", "entry_time", "time"):
            assert np.array_equal(getattr(back, name), getattr(ds, name))
        assert list(back.status) == list(ds.status)
        assert back.covariates.keys() == ds.covariates.keys()
        assert all(np.array_equal(back.covariates[k], v) for k, v in ds.covariates.items())
        assert (back.interval_bounds is None) == (ds.interval_bounds is None)
        if ds.interval_bounds is not None:
            assert np.array_equal(back.interval_bounds, ds.interval_bounds, equal_nan=True)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(long=long_datasets())
    def test_long(self, long):
        back = _round_trip(write_long_csv, read_long_csv, long)
        for name in ("subject_id", "interval_index", "outcome"):
            assert np.array_equal(getattr(back, name), getattr(long, name))
        assert back.covariates.keys() == long.covariates.keys()
        assert all(np.array_equal(back.covariates[k], v) for k, v in long.covariates.items())

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(draws=hnp.arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 4)),
                            elements=FINITE),
           chains=st.booleans())
    def test_draws(self, draws, chains):
        dm = DrawsMatrix(draws, [f"p{j}" for j in range(draws.shape[1])],
                         np.arange(draws.shape[0]) % 2 if chains else None)
        back = _round_trip(write_draws_csv, read_draws_csv, dm)
        assert back.parameter_names == dm.parameter_names
        assert np.array_equal(back.draws, dm.draws)
        assert (back.chain_ids is None) == (not chains)
        if chains:
            assert np.array_equal(back.chain_ids, dm.chain_ids)
