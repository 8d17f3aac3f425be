"""The subject order of long-format rows: subjects by first appearance, each
subject's rows grouped.

``data._by_subject`` computes it, and ``to_short_form``, ``validate_long``,
the long reader and both Bernoulli scorers read it.  Each is checked here
against pure-Python references on random subject ids and row orders: the
Bernoulli subject columns must line up with the short-form rows, which is
what ``compare`` relies on when it sets the discrete-time model beside the
continuous ones.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survcheck import data as survcheck_data
from survcheck import loo as survcheck_loo
from survcheck.checks import dichotomize_outcomes
from survcheck.data import (
    DataError,
    EVENT,
    RIGHT_CENSORED,
    DrawsMatrix,
    _by_subject,
    apply_scaling,
    scale_covariates,
    to_short_form,
    validate_long,
)
from survcheck.loo import LooError, loglik_matrix
from survcheck.models import ModelDesign, get_preset
from survcheck.simulate import ScenarioConfig, simulate_scenario

HORIZON = 3.0
COHORT, _short = simulate_scenario(ScenarioConfig(n_subjects=12, seed=4))
COHORT = apply_scaling(COHORT, scale_covariates(_short, ("Size", "AgeAtSurg", "MitHPF"))[1])
SPEC = get_preset("bernoulli-gist")
DESIGN = ModelDesign(SPEC, COHORT.covariates)
_NAMES = DESIGN.parameter_names
DRAWS = DrawsMatrix(np.random.default_rng(9).normal(scale=0.3, size=(6, len(_NAMES))), _NAMES)


def reference_index(subject_id, within=None):
    """``_by_subject`` written out: first-appearance numbers, then a stable
    sort by (number, within)."""
    seen = list(dict.fromkeys(subject_id))
    rank = [seen.index(s) for s in subject_id]
    key = within if within is not None else [0] * len(rank)
    order = sorted(range(len(rank)), key=lambda i: (rank[i], key[i]))
    starts = [[rank[i] for i in order].index(r) for r in range(len(seen))]
    return rank, order, starts


def reference_short(long):
    """Subject id, last interval, status and first-row static covariates of
    each subject, subjects in first-appearance order."""
    out = []
    for s in dict.fromkeys(long.subject_id.tolist()):
        rows = sorted(np.flatnonzero(long.subject_id == s), key=lambda i: long.interval_index[i])
        last = rows[-1]
        out.append((s, float(long.interval_index[last]),
                    EVENT if long.outcome[last] == 1 else RIGHT_CENSORED,
                    [long.covariates[name][rows[0]] for name in long.static_names]))
    return out


def reference_messages(long):
    """``validate_long``'s messages: by subject id, then by interval."""
    sid, idx, out = (a.tolist() for a in (long.subject_id, long.interval_index, long.outcome))
    rows = sorted(range(len(sid)), key=lambda i: (sid[i], idx[i]))
    report = [f"subject {sid[i]}: outcome must be 0 or 1, got {out[i]}"
              for i in rows if out[i] not in (0, 1)]
    broken = []
    for s in sorted(set(sid)):
        if sorted(idx[i] for i in rows if sid[i] == s) != list(range(1, sid.count(s) + 1)):
            broken.append(s)
            report.append(f"subject {s}: interval_index not contiguous 1..K")
    for s in sorted(set(sid) - set(broken)):
        k = sid.count(s)
        if any(out[i] == 1 and idx[i] < k for i in rows if sid[i] == s):
            report.append(f"subject {s}: outcome=1 before the final interval")
    return report


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ids=st.lists(st.integers(-3, 3), max_size=30), data=st.data())
def test_index_matches_reference(ids, data):
    within = data.draw(st.lists(st.integers(0, 4), min_size=len(ids), max_size=len(ids)))
    for w in (None, within):
        rank, order, starts = _by_subject(np.array(ids, dtype=int),
                                          None if w is None else np.array(w, dtype=int))
        assert (rank.tolist(), order.tolist(), starts.tolist()) == reference_index(ids, w)


@st.composite
def mixed(draw):
    """``COHORT``'s rows of a subset of its subjects, relabeled with new ids
    in any order, the rows in any order."""
    _, subject = np.unique(COHORT.subject_id, return_inverse=True)
    n = int(subject.max()) + 1
    ids = draw(st.lists(st.integers(-10**9, 10**9), min_size=n, max_size=n, unique=True))
    kept = draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(any))
    rows = draw(st.permutations(np.flatnonzero(np.array(kept)[subject]).tolist()))
    return replace(COHORT, subject_id=np.array(ids)[subject]).subset(np.array(rows))


class TestSubjectOrder:
    """Random relabelings, subsets and row orders of one simulated cohort."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(long=mixed())
    def test_short_form_and_bernoulli_columns_in_first_appearance_order(self, long):
        short = to_short_form(long)
        assert list(short.covariates) == list(long.static_names)
        assert [(int(s), float(short.time[j]), short.status[j],
                 [col[j] for col in short.covariates.values()])
                for j, s in enumerate(short.subject_id)] == reference_short(long)
        raw = loglik_matrix(SPEC, DESIGN, DRAWS, long, mode="raw")
        assert raw.unit_ids == tuple(short.subject_id.tolist())
        _, keep, _ = dichotomize_outcomes(short, HORIZON)
        dich = loglik_matrix(SPEC, DESIGN, DRAWS, long, mode="dichotomized", horizon=HORIZON)
        assert dich.unit_ids == tuple(short.subject_id[keep].tolist())

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(long=mixed(), data=st.data())
    def test_validate_long_messages_of_a_shuffled_invalid_dataset(self, long, data):
        n = long.n_rows
        outcome = long.outcome.copy()
        outcome[data.draw(st.lists(st.integers(0, n - 1), max_size=3))] = 2
        outcome[data.draw(st.lists(st.integers(0, n - 1), max_size=3))] = 1
        dropped = data.draw(st.lists(st.integers(0, n - 1), max_size=2))
        broken = replace(long, outcome=outcome).subset(~np.isin(np.arange(n), dropped))
        assert validate_long(broken) == reference_messages(broken)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(long=mixed(), data=st.data())
    def test_rebuilt_rows_name_a_late_subjects_altered_covariate(self, long, data):
        short = to_short_form(long)
        _, keep, _ = dichotomize_outcomes(short, HORIZON)
        if keep.size == 0:
            return
        loglik_matrix(SPEC, DESIGN, DRAWS, long, mode="dichotomized",
                      horizon=HORIZON)  # the cohort's own rows pass
        late = short.subject_id[keep[-1]]
        row = data.draw(st.sampled_from(np.flatnonzero(
            (long.subject_id == late) & (long.interval_index <= HORIZON)).tolist()))
        on = long.covariates["AdjOn"].copy()
        on[row] = 1.0 - on[row]
        altered = replace(long, covariates={**long.covariates, "AdjOn": on})
        with pytest.raises(LooError, match="covariate 'AdjOn' of the observed rows differs"):
            loglik_matrix(SPEC, DESIGN, DRAWS, altered, mode="dichotomized", horizon=HORIZON)


def test_to_short_form_builds_one_subject_index(monkeypatch):
    # the validation reads the index the collapse uses; each built its own
    expected = to_short_form(COHORT)
    calls = []

    def counted(*args):
        calls.append(args)
        return _by_subject(*args)

    monkeypatch.setattr(survcheck_data, "_by_subject", counted)
    short = to_short_form(COHORT)
    assert len(calls) == 1
    for name in ("subject_id", "time", "status"):
        assert np.array_equal(getattr(short, name), getattr(expected, name))
    assert list(short.covariates) == list(expected.covariates)
    for name, col in expected.covariates.items():
        assert np.array_equal(short.covariates[name], col)
    outcome = COHORT.outcome.copy()
    outcome[[0, 5]] = 2
    with pytest.raises(DataError) as refusal:
        to_short_form(replace(COHORT, outcome=outcome))
    assert len(calls) == 2
    assert str(refusal.value) == "invalid long dataset: " + "; ".join(
        validate_long(replace(COHORT, outcome=outcome)))


def test_dichotomized_bernoulli_builds_one_subject_index(monkeypatch):
    # the check of the rebuilt rows reads the index the short form was
    # collapsed by; it built a second one
    expected = loglik_matrix(SPEC, DESIGN, DRAWS, COHORT, mode="dichotomized", horizon=HORIZON)
    calls = []

    def counted(*args):
        calls.append(args)
        return _by_subject(*args)

    monkeypatch.setattr(survcheck_data, "_by_subject", counted)
    monkeypatch.setattr(survcheck_loo, "_by_subject", counted)
    got = loglik_matrix(SPEC, DESIGN, DRAWS, COHORT, mode="dichotomized", horizon=HORIZON)
    assert len(calls) == 1
    assert got.unit_ids == expected.unit_ids
    assert got.values.tobytes() == expected.values.tobytes()
