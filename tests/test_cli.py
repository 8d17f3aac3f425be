import json
import numpy as np
import pytest

from survcheck.cli import main
from survcheck.data import read_draws_csv, read_long_csv
from survcheck.experiments import calibration_inputs
from survcheck.models import ModelDesign, get_preset


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Small simulated cohort plus fitted exponential/weibull models."""
    root = tmp_path_factory.mktemp("cli")
    sim = root / "sim"
    assert main(["simulate", "--out", str(sim), "--seed", "21",
                 "--n-subjects", "80"]) == 0
    fits = {}
    for preset in ("exponential-gist", "weibull-gist"):
        out = root / f"fit_{preset}"
        code = main([
            "fit", "--data", str(sim / "short.csv"), "--model", preset,
            "--out", str(out), "--scale", "Size,AgeAtSurg,MitHPF",
            "--chains", "2", "--warmup", "300", "--keep", "200", "--seed", "5",
        ])
        assert code == 0
        fits[preset] = out
    return {"root": root, "sim": sim, "fits": fits}


def test_simulate_outputs(workspace):
    sim = workspace["sim"]
    for name in ("long.csv", "short.csv", "scenario.json", "report.json",
                 "manifest.json"):
        assert (sim / name).exists()
    manifest = json.loads((sim / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 21
    assert "short.csv" in manifest["artifacts"]


def test_simulate_rerun_byte_identical(workspace, tmp_path):
    again = tmp_path / "sim2"
    assert main(["simulate", "--out", str(again), "--seed", "21",
                 "--n-subjects", "80"]) == 0
    for name in ("long.csv", "short.csv", "scenario.json", "report.json"):
        assert (again / name).read_bytes() == (workspace["sim"] / name).read_bytes()


def test_fit_outputs(workspace):
    out = workspace["fits"]["exponential-gist"]
    diag = json.loads((out / "diagnostics.json").read_text())
    assert "rhat" in diag and "ess" in diag
    assert (out / "draws.csv").exists()
    assert (out / "scaling.json").exists()


def test_check_reuses_stored_scaling(workspace, tmp_path):
    # the fit ran on scaled covariates; --scaling re-applies the stored
    # record so knots and coefficients line up with the draws
    fitdir = workspace["fits"]["exponential-gist"]
    out = tmp_path / "km"
    code = main([
        "check", "km", "--data", str(workspace["sim"] / "short.csv"),
        "--model", "exponential-gist",
        "--draws", str(fitdir / "draws.csv"),
        "--scaling", str(fitdir / "scaling.json"),
        "--out", str(out), "--cutoff-factor", "1.2", "--impute", "3", "--svg",
    ])
    assert code == 0
    doc = json.loads((out / "km.json").read_text())
    assert doc["config"]["options"]["scaling"] == str(fitdir / "scaling.json")
    roles = {s["metadata"]["role"] for s in doc["series"]}
    assert {"observed", "predictive", "imputed"} <= roles


def test_check_km_on_unscaled_fit(tmp_path):
    # fit without scaling so the check consumes the same covariate scale
    sim = tmp_path / "sim"
    assert main(["simulate", "--out", str(sim), "--seed", "3",
                 "--n-subjects", "60"]) == 0
    fitdir = tmp_path / "fit"
    assert main(["fit", "--data", str(sim / "short.csv"), "--model",
                 "exponential-gist", "--out", str(fitdir),
                 "--chains", "2", "--warmup", "300", "--keep", "150",
                 "--seed", "2"]) == 0
    out = tmp_path / "km"
    assert main(["check", "km", "--data", str(sim / "short.csv"),
                 "--model", "exponential-gist",
                 "--draws", str(fitdir / "draws.csv"),
                 "--out", str(out), "--cutoff-factor", "1.2",
                 "--impute", "3", "--svg"]) == 0
    doc = json.loads((out / "km.json").read_text())
    short_times = [float(r.split(",")[2]) for r in
                   (sim / "short.csv").read_text().splitlines()[1:]]
    cutoff = 1.2 * max(short_times)
    roles = {s["metadata"]["role"] for s in doc["series"]}
    assert {"observed", "predictive", "imputed"} <= roles
    for s in doc["series"]:
        if s["metadata"]["role"] == "predictive":
            assert all(x <= cutoff + 1e-9 for x in s["data"]["x"])
            assert s["metadata"]["xmax"] == pytest.approx(cutoff)
    assert (out / "km.svg").read_text().startswith("<svg")

    # pit-ecdf with imputation on the same artifacts
    pit_out = tmp_path / "pit"
    assert main(["check", "pit-ecdf", "--data", str(sim / "short.csv"),
                 "--model", "exponential-gist",
                 "--draws", str(fitdir / "draws.csv"),
                 "--out", str(pit_out), "--impute", "1"]) == 0
    pit_doc = json.loads((pit_out / "pit_ecdf.json").read_text())
    assert "inside_band" in pit_doc

    # intervals
    int_out = tmp_path / "intervals"
    assert main(["check", "intervals", "--data", str(sim / "short.csv"),
                 "--model", "exponential-gist",
                 "--draws", str(fitdir / "draws.csv"),
                 "--out", str(int_out), "--impute", "1"]) == 0
    int_doc = json.loads((int_out / "intervals.json").read_text())
    assert int_doc["series"][0]["kind"] == "interval"

    # dichotomized calibration for a continuous model
    cal_out = tmp_path / "cal"
    assert main(["check", "calibration", "--data", str(sim / "short.csv"),
                 "--model", "exponential-gist",
                 "--draws", str(fitdir / "draws.csv"),
                 "--out", str(cal_out), "--horizon", "5"]) == 0
    cal_doc = json.loads((cal_out / "calibration.json").read_text())
    names = {s["name"] for s in cal_doc["series"]}
    assert "calibration_band" in names

    # per-interval binary calibration check
    cal2 = tmp_path / "cal_interval"
    assert main(["check", "calibration", "--data", str(sim / "short.csv"),
                 "--model", "exponential-gist",
                 "--draws", str(fitdir / "draws.csv"),
                 "--out", str(cal2), "--interval", "2",
                 "--grid-intervals", "10"]) == 0
    assert (cal2 / "calibration.json").exists()

    # imputation artifact: every imputed time > censor time
    imp_out = tmp_path / "imp"
    assert main(["impute", "--data", str(sim / "short.csv"),
                 "--model", "exponential-gist",
                 "--draws", str(fitdir / "draws.csv"),
                 "--out", str(imp_out), "--n-imputations", "4"]) == 0
    rows = (imp_out / "imputed.csv").read_text().splitlines()[1:]
    short_rows = (sim / "short.csv").read_text().splitlines()[1:]
    censor_time = {int(r.split(",")[0]): float(r.split(",")[2])
                   for r in short_rows if r.split(",")[3] == "rcens"}
    saw_censored = 0
    for r in rows:
        rep, sid, t, was_cens = r.split(",")
        if int(was_cens):
            saw_censored += 1
            assert float(t) > censor_time[int(sid)]
    assert saw_censored > 0

    # comparison: dichotomized task, schema of the report
    wei = tmp_path / "fit_wei"
    assert main(["fit", "--data", str(sim / "short.csv"), "--model",
                 "weibull-gist", "--out", str(wei),
                 "--chains", "2", "--warmup", "300", "--keep", "150",
                 "--seed", "2"]) == 0
    cmp_out = tmp_path / "cmp"
    assert main(["compare", "dichotomized", "--data", str(sim / "short.csv"),
                 "--model", "expo", "exponential-gist", str(fitdir / "draws.csv"),
                 "--model", "weib", "weibull-gist", str(wei / "draws.csv"),
                 "--out", str(cmp_out), "--horizon", "5"]) == 0
    rep = json.loads((cmp_out / "comparison.json").read_text())
    rows = rep["comparison"]
    assert rows[0]["delta_elpd"] == 0.0
    assert rows[0]["se_delta"] == 0.0
    assert {"model", "elpd", "se", "delta_elpd", "se_delta",
            "indistinguishable"} <= set(rows[0])
    assert rep["n_units"] <= 60

    # interval-mode comparison including the bernoulli model
    bern = tmp_path / "fit_bern"
    assert main(["fit", "--data", str(sim / "long.csv"), "--format", "long",
                 "--model", "bernoulli-gist", "--out", str(bern),
                 "--chains", "2", "--warmup", "400", "--keep", "150",
                 "--seed", "2"]) == 0
    cmp3 = tmp_path / "cmp3"
    assert main(["compare", "interval", "--data", str(sim / "short.csv"),
                 "--long-data", str(sim / "long.csv"),
                 "--model", "expo", "exponential-gist", str(fitdir / "draws.csv"),
                 "--model", "bern", "bernoulli-gist", str(bern / "draws.csv"),
                 "--out", str(cmp3), "--grid-length", "1", "--grid-intervals", "10",
                 "--save-loglik"]) == 0
    rep3 = json.loads((cmp3 / "comparison.json").read_text())
    assert len(rep3["comparison"]) == 2
    assert (cmp3 / "loglik_bern.csv").exists()


def test_experiment_timescale(tmp_path, capsys):
    out = tmp_path / "ts"
    assert main(["experiment", "timescale", "--out", str(out),
                 "--factor", "30", "--seed", "11"]) == 0
    doc = json.loads((out / "timescale.json").read_text())
    asserts = doc["assertions"]
    assert asserts["passed"]
    assert asserts["censored_max_abs_change"] <= 1e-10
    assert abs(asserts["log_factor"] - np.log(30)) < 1e-12
    printed = capsys.readouterr().out
    assert "censored_max_abs_change" in printed


def test_error_json_on_bad_input(tmp_path, capsys):
    code = main(["fit", "--data", str(tmp_path / "missing.csv"),
                 "--model", "exponential-gist", "--out", str(tmp_path / "x")])
    assert code == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "FileNotFoundError"

    code = main(["fit", "--data", str(tmp_path / "missing.csv"),
                 "--model", "nope", "--out", str(tmp_path / "x")])
    assert code == 1
    err = json.loads(capsys.readouterr().out)
    assert "preset" in err["error"]["message"]


def test_pipeline_run(tmp_path):
    cfg = {
        "scenario": {"n_subjects": 60, "seed": 13},
        "sampler": {"n_chains": 2, "n_warmup": 300, "n_keep": 150, "seed": 9},
        "horizon": 5,
    }
    cfg_path = tmp_path / "pipeline.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert main(["run", "--pipeline", str(cfg_path), "--out", str(out)]) == 0
    results = json.loads((out / "pipeline_results.json").read_text())
    assert "compare_interval" in results
    assert len(results["compare_interval"]["comparison"]) == 3
    assert "compare_dichotomized" in results
    assert (out / "km_overlay_exponential-gist.json").exists()
    assert (out / "calibration_bernoulli-gist.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["pipeline"] == cfg


def test_check_calibration_bernoulli_long(tmp_path):
    # both Bernoulli branches: every long-format row, and the rows of one interval
    sim = tmp_path / "sim"
    assert main(["simulate", "--out", str(sim), "--seed", "3",
                 "--n-subjects", "60"]) == 0
    fitdir = tmp_path / "fit"
    assert main(["fit", "--data", str(sim / "long.csv"), "--format", "long",
                 "--model", "bernoulli-gist", "--out", str(fitdir),
                 "--chains", "2", "--warmup", "200", "--keep", "100",
                 "--seed", "2"]) == 0
    long = read_long_csv(sim / "long.csv")
    spec = get_preset("bernoulli-gist")
    design = ModelDesign(spec, long.covariates)
    draws = read_draws_csv(fitdir / "draws.csv")
    for extra, n_rows in (([], long.n_rows),
                          (["--interval", "2"], int(np.sum(long.interval_index == 2)))):
        out = tmp_path / f"cal{len(extra)}"
        assert main(["check", "calibration", "--data", str(sim / "long.csv"),
                     "--format", "long", "--model", "bernoulli-gist",
                     "--draws", str(fitdir / "draws.csv"), "--out", str(out),
                     *extra]) == 0
        doc = json.loads((out / "calibration.json").read_text())
        assert isinstance(doc["inside_band"], bool)
        curve = next(s for s in doc["series"] if s["name"] == "calibration_curve")
        predictions, outcomes = calibration_inputs(
            spec, design, draws, long, interval=int(extra[1]) if extra else None)
        assert len(curve["data"]["x"]) == len(outcomes) == n_rows
        assert curve["data"]["x"] == np.sort(predictions).tolist()
