"""Independent fits run in forked worker processes: same outputs, same
errors, and no process or thread left behind."""

import json
import multiprocessing
import os
import threading

import numpy as np
import pytest

from survcheck import experiments, loo, models, sampler
from survcheck.cli import main
from survcheck.data import (
    SurvivalDataset,
    TimeGrid,
    TreatmentRule,
    apply_scaling,
    expand_long,
    scale_covariates,
)
from survcheck.experiments import CONTINUOUS_COVARIATES, hazard_curves_experiment, run_pipeline
from survcheck.loo import LooError, exact_refit_loo
from survcheck.models import (
    ModelDesign,
    ModelSpec,
    get_preset,
    preset_exponential_gist,
    preset_weibull_gist,
)
from survcheck.sampler import SamplerConfig, SamplingError, _run_jobs, diagnose, fit
from survcheck.simulate import ScenarioConfig, simulate_scenario

PIPELINE = {
    "scenario": {"n_subjects": 50, "seed": 13},
    "sampler": {"n_chains": 2, "n_warmup": 150, "n_keep": 100, "seed": 9},
    "horizon": 5,
}
SMALL = SamplerConfig(n_chains=2, n_warmup=100, n_keep=60, seed=4)


@pytest.fixture
def leaves_nothing_running():
    """The test leaves no child process and no extra thread behind."""
    threads = threading.active_count()
    yield
    assert not multiprocessing.active_children()
    assert threading.active_count() == threads


def cohort(n_subjects=40, seed=3):
    long, short = simulate_scenario(ScenarioConfig(n_subjects=n_subjects, seed=seed))
    short, record = scale_covariates(short, CONTINUOUS_COVARIATES)
    return short, apply_scaling(long, record)


def _pid_and_nested(job):
    return os.getpid(), job, _run_jobs(_pid, [(1,), (2,)])


def _pid(job):
    return os.getpid()


def _raise_on_odd(job):
    if job % 2:
        raise SamplingError(f"job {job}", {"chain": job})
    return job


class TestRunJobs:
    def test_results_in_job_order_from_other_processes(self, leaves_nothing_running):
        results = _run_jobs(_pid_and_nested, [("a",), ("b",), ("c",)])
        assert [job for _, job, _ in results] == ["a", "b", "c"]
        assert os.getpid() not in {pid for pid, _, _ in results}
        # inside a worker the jobs run in that worker: pools never nest
        assert all(inner == [pid, pid] for pid, _, inner in results)

    def test_one_job_runs_here(self, leaves_nothing_running):
        assert _run_jobs(_pid, [(0,)]) == [os.getpid()]

    def test_first_failing_job_raised_with_its_attributes(self, leaves_nothing_running):
        with pytest.raises(SamplingError, match="job 1") as err:
            _run_jobs(_raise_on_odd, [(0,), (1,), (2,), (3,)])
        assert err.value.diagnostics == {"chain": 1}


class TestNothingLeftRunning:
    def test_run_pipeline(self, leaves_nothing_running):
        assert set(run_pipeline(PIPELINE)["diagnostics"]) == {
            "exponential-gist", "weibull-gist", "bernoulli-gist"}

    def test_hazard_curves_experiment(self, leaves_nothing_running):
        results = hazard_curves_experiment(ScenarioConfig(n_subjects=40, seed=5), SMALL)
        assert len(results["curves"]) == 6

    def test_refits_of_more_units_than_cpus(self, leaves_nothing_running):
        short, _ = cohort()
        units = [int(u) for u in short.subject_id[: sampler._usable_cpus() + 1]]
        refits = exact_refit_loo(get_preset("exponential-gist"), short, SMALL, units)
        assert list(refits["elpd"]) == units

    def test_worker_error_reaches_the_caller(self, leaves_nothing_running, monkeypatch):
        short = SurvivalDataset(
            [1, 2, 3, 4, 5], np.zeros(5), [2.0, 6.0, 2.0, 5.0, 4.0],
            ["event", "right_censored", "right_censored", "event", "event"],
            {"z": [0.3, -1.2, 0.8, 0.0, 1.5], "AdjTreatm": [1.0, 1.0, 0.0, 0.0, 1.0]})
        long = expand_long(short, TimeGrid(1.0, 6), TreatmentRule(duration=3))
        spec = ModelSpec(family="bernoulli_logit",
                         fixed=("z", "Time", "AdjOn", "TimeSinceAdjStopped"))
        monkeypatch.setattr(sampler, "_usable_cpus", lambda: 2)  # units 1 and 3 apart
        # subject 3 is censored before the horizon: not a dichotomized unit
        with pytest.raises(LooError, match="unit 3 is not a scoring unit"):
            exact_refit_loo(spec, long, SMALL, [1, 3], mode="dichotomized", horizon=4.0)

    def test_sampling_error_keeps_its_diagnostics(self, leaves_nothing_running, monkeypatch,
                                                  tmp_path, capsys):
        def weibull_fails(spec, data, config):
            if spec.name == "weibull-gist":
                raise SamplingError("no proposals accepted", {"chain": 1, "spec": spec.name})
            return fit(spec, data, config)

        monkeypatch.setattr(experiments, "fit", weibull_fails)
        with pytest.raises(SamplingError, match="no proposals accepted") as err:
            run_pipeline(PIPELINE)
        assert err.value.diagnostics == {"chain": 1, "spec": "weibull-gist"}
        path = tmp_path / "pipeline.json"
        path.write_text(json.dumps(PIPELINE))
        assert main(["run", "--pipeline", str(path), "--out", str(tmp_path / "run")]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "error": {"type": "SamplingError", "message": "no proposals accepted"}}


class TestWhereWorkRuns:
    def test_bernoulli_probabilities_stay_in_their_worker(self, leaves_nothing_running,
                                                          monkeypatch):
        # the Bernoulli worker sends back its rows' posterior means, so this
        # process builds no draws x rows probability matrix of its own
        bern, calls, real = get_preset("bernoulli-gist"), [], models.subject_params

        def recording(spec, *args, **kwargs):
            if multiprocessing.parent_process() is None:
                calls.append(spec)
            return real(spec, *args, **kwargs)

        for module in (models, experiments, loo):
            monkeypatch.setattr(module, "subject_params", recording)
        run_pipeline(PIPELINE)
        assert calls and bern not in calls


class TestSameOutputs:
    def test_refits_equal_one_unit_batches(self, leaves_nothing_running, monkeypatch):
        short, _ = cohort()
        spec = get_preset("weibull-gist")
        units = [int(u) for u in short.subject_id[3:8]]
        monkeypatch.setattr(sampler, "_usable_cpus", lambda: 2)  # sub-batches of 2 and 3
        split = exact_refit_loo(spec, short, SMALL, units)
        assert not split["failures"]
        for idx, uid in enumerate(units):
            design = ModelDesign(spec, short.subset(short.subject_id != uid).covariates)
            alone = loo._refit_units(spec, short, SMALL, [(idx, uid, design)], {"mode": "raw"})
            assert split["elpd"][uid] == alone[idx][1]
        monkeypatch.setattr(sampler, "_usable_cpus", lambda: 1)  # one batch, in this process
        assert exact_refit_loo(spec, short, SMALL, units) == split

    def test_pipeline_diagnostics_equal_fits_here(self):
        results = run_pipeline(PIPELINE)
        short, long = cohort(**PIPELINE["scenario"])
        config = SamplerConfig(**PIPELINE["sampler"])
        for spec, data in ((preset_exponential_gist(extra_fixed=("AdjTreatm",)), short),
                           (preset_weibull_gist(extra_fixed=("AdjTreatm",)), short),
                           (get_preset("bernoulli-gist"), long)):
            assert results["diagnostics"][spec.name] == diagnose(fit(spec, data, config))
