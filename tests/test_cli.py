import argparse
import json
from dataclasses import replace

import numpy as np
import pytest

from survcheck import experiments
from survcheck.cli import build_parser, main
from survcheck.data import DrawsMatrix, read_draws_csv, read_long_csv, write_draws_csv
from survcheck.data import write_long_csv
from survcheck.loo import bernoulli_dichotomized_loglik, elpd_loo, event_probabilities
from survcheck.models import ModelDesign, ModelSpec, get_preset
from survcheck.series import PlotSeries, bundle_to_json


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
    assert doc["config"]["options"] == {"cutoff_factor": 1.2, "n_pred_draws": 50, "impute": 3,
                                        "scaling": None, "svg": True}
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
    # the manifest records every option calibration reads, zoom and grid too
    options = json.loads((cal2 / "manifest.json").read_text())["config"]["options"]
    assert options == {"level": 0.95, "horizon": None, "interval": 2, "grid_length": 1.0,
                       "grid_intervals": 10, "zoom_mass": 0.9, "scaling": None, "svg": False}

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

    # raw-score comparison: its manifest holds no horizon or grid, which it never reads
    cmp_loo = tmp_path / "cmp_loo"
    assert main(["compare", "loo", "--data", str(sim / "short.csv"),
                 "--model", "expo", "exponential-gist", str(fitdir / "draws.csv"),
                 "--model", "weib", "weibull-gist", str(wei / "draws.csv"),
                 "--out", str(cmp_loo)]) == 0
    config = json.loads((cmp_loo / "manifest.json").read_text())["config"]
    assert config["command"] == "compare loo"
    assert not {"horizon", "grid_length", "grid_intervals"} & set(config)
    assert len(json.loads((cmp_loo / "comparison.json").read_text())["comparison"]) == 2

    # interval-mode comparison including the bernoulli model
    bern = tmp_path / "fit_bern"
    assert main(["fit", "--data", str(sim / "long.csv"),
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
    config = json.loads((cmp3 / "manifest.json").read_text())["config"]
    assert (config["grid_length"], config["grid_intervals"]) == (1.0, 10)
    assert "horizon" not in config and config["time_unit"] is None


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


def bernoulli_draws(long_csv, path) -> str:
    """Write zero draws of the Bernoulli preset on ``long_csv``'s rows to
    ``path``; return the path."""
    design = ModelDesign(get_preset("bernoulli-gist"), read_long_csv(long_csv).covariates)
    write_draws_csv(DrawsMatrix(np.zeros((4, len(design.parameter_names))),
                                design.parameter_names), path)
    return str(path)


def test_error_json_on_bad_input(workspace, tmp_path, capsys):
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

    # rejected when loaded: a non-numeric cell, a negative time that would
    # otherwise reach the sampler, a row narrower than the header, and a
    # header naming a column twice, whose second column was dropped unread
    for header, row, message in (
            ("x", "2,0,abc,rcens,0.1", "abc"),
            ("x", "2,0,-1.5,rcens,0.1", "time must be positive"),
            ("x", "2,0,1.5", "CSV line 3 has 3 cells, the header has 5"),
            ("time", "2,0,1.5,rcens,0.1", "CSV header repeats column names ['time']")):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"subject_id,entry_time,time,status,{header}\n"
                       f"1,0,2.0,event,0.5\n{row}\n3,0,1.0,event,-0.2\n")
        code = main(["fit", "--data", str(bad), "--model", "exponential-gist",
                     "--out", str(tmp_path / "x"), "--warmup", "10", "--keep", "10"])
        assert code == 1
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "DataError"
        assert message in err["error"]["message"]

    # bad settings: a count of zero, unknown keys, non-integer counts or
    # seeds and negative seeds in a pipeline config
    good = tmp_path / "good.csv"
    good.write_text("subject_id,entry_time,time,status,x\n"
                    "1,0,2.0,event,0.5\n2,0,1.5,rcens,0.1\n3,0,1.0,event,-0.2\n")
    cases = [
        (["fit", "--data", str(good), "--model", "exponential-gist",
          "--out", str(tmp_path / "x"), "--chains", "0"], "SamplerConfigError", "n_chains"),
        (["simulate", "--out", str(tmp_path / "x"), "--n-subjects", "0"],
         "SimulationError", "n_subjects"),
    ]

    def settings_file(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    # spec files: a misspelt key, an unknown prior slot, a smooth without a
    # name, a prior without params, and a model with no coefficient, which
    # ended in a reshape ValueError or an IndexError traceback
    spec = {"family": "exponential", "fixed": ["x"]}
    no_coefficient = "a model needs an intercept, a fixed effect or a smooth term"
    for n, (bad, message) in enumerate((
            ({"hierarchical_smooth": True}, "'hierarchical_smooth'"),
            ({"priors": {"slope": {"kind": "normal", "params": [0, 1]}}}, "'slope'"),
            ({"smooths": [{"degree": 3}]}, "'name'"),
            ({"priors": {"fixed": {"kind": "normal"}}}, "'params'"),
            *(({"family": family, "fixed": [], "intercept": False}, no_coefficient)
              for family in ("exponential", "bernoulli_logit", "weibull_aft")))):
        cases.append((["fit", "--data", str(good), "--out", str(tmp_path / "x"),
                       "--model", settings_file(f"spec_{n}.json", {**spec, **bad})],
                      "ModelError", message))
    # a prior parameter that is read as inf: it ended in a SamplingError at the
    # sampler's initial point
    path = tmp_path / "spec_overflow.json"
    path.write_text('{"family": "exponential", "fixed": ["x"],'
                    ' "priors": {"fixed": {"kind": "normal", "params": [0, 1e400]}}}')
    cases.append((["fit", "--data", str(good), "--out", str(tmp_path / "x"), "--model", str(path)],
                  "ModelError", "normal prior parameters must be finite, got (0.0, inf)"))
    # scenario files: a covariate generator without params, with too few, of
    # an unknown kind or with a probability outside [0, 1], and standardize
    # entries that are not finite (center, spread > 0) pairs
    for n, (bad, message) in enumerate((
            ({"covariates": {"Size": {"kind": "lognormal"}}}, "'params'"),
            ({"covariates": {"Size": {"kind": "normal", "params": [1]}}}, "'params', got [1]"),
            ({"covariates": {"Size": {"kind": "poisson", "params": [1]}}}, "'poisson'"),
            ({"covariates": {"Rupture": {"kind": "bernoulli", "params": [1.5]}}},
             "probability"),
            ({"standardize": {"Size": 5}}, "'standardize'"),
            ({"standardize": {"Size": [60]}}, "'standardize'"),
            ({"standardize": {"Size": [60, 0]}}, "'standardize'"))):
        cases.append((["simulate", "--out", str(tmp_path / "x"),
                       "--config", settings_file(f"scenario_{n}.json", bad)],
                      "SimulationError", message))
    # pipeline files: a misspelt top-level key, a list, a negative seed
    for n, (bad, message) in enumerate((({"samplr": {"n_chains": 1}}, "'samplr'"),
                                        ([1, 2], "got list"),
                                        ({"seed": -2}, "seed must be non-negative, got -2"))):
        cases.append((["run", "--out", str(tmp_path / "x"),
                       "--pipeline", settings_file(f"top_{n}.json", bad)], "DataError", message))

    # check options, draws of another model, a malformed --scaling file
    sim, fitdir = workspace["sim"], workspace["fits"]["exponential-gist"]
    check = ["--data", str(sim / "short.csv"), "--model", "exponential-gist",
             "--draws", str(fitdir / "draws.csv"), "--scaling", str(fitdir / "scaling.json"),
             "--out", str(tmp_path / "x")]
    cases += [
        (["check", "km", *check, "--cutoff-factor", "0.5"], "CheckError", "cutoff_factor"),
        (["check", "pit-ecdf", *check, "--level", "1.5"], "CheckError", "level"),
        (["check", "km", *check, "--n-pred-draws", "0"], "ModelError", "n_draws"),
        (["check", "km", *check, "--n-pred-draws", "-3"], "ModelError", "got -3"),
        (["check", "calibration", "--data", str(sim / "long.csv"),
          "--model", "bernoulli-gist", "--draws", str(fitdir / "draws.csv"),
          "--out", str(tmp_path / "x")], "ModelError", "'b_AdjOn'"),
        # the model picks the reader: a continuous model reads long rows as short
        (["check", "calibration", "--data", str(sim / "long.csv"),
          "--model", "exponential-gist", "--draws", str(fitdir / "draws.csv"),
          "--horizon", "5", "--out", str(tmp_path / "x")],
         "DataError", "missing required column 'time'"),
        # a horizon calibration would not use: with an interval, or for a
        # Bernoulli model, it was dropped and only recorded in the manifest
        (["check", "calibration", *check, "--interval", "2", "--horizon", "5"],
         "ModelError", "a horizon is only for a continuous model without an interval"),
        (["check", "calibration", "--data", str(sim / "long.csv"), "--model", "bernoulli-gist",
          "--draws", bernoulli_draws(sim / "long.csv", tmp_path / "bern_draws.csv"),
          "--horizon", "5", "--out", str(tmp_path / "x")],
         "ModelError", "a horizon is only for a continuous model"),
        # an interval the grid lacks: interval 3 of 2 was scored as (2, 3]
        (["check", "calibration", *check, "--interval", "3", "--grid-intervals", "2"],
         "DataError", "interval 3 outside the grid's 1..2"),
        (["check", "calibration", *check, "--interval", "0"],
         "DataError", "interval 0 outside the grid's 1..50"),
        (["impute", *check, "--n-imputations", "-1"], "ModelError", "at least 1, got -1"),
        (["impute", *check, "--n-imputations", "0"], "ModelError", "at least 1, got 0"),
        # non-finite float options, refused before they reach a bundle or a grid
        (["check", "km", *check, "--cutoff-factor", "nan"], "CliError",
         "--cutoff-factor must be finite, got nan"),
        (["check", "km", *check, "--cutoff-factor", "inf"], "CliError",
         "--cutoff-factor must be finite, got inf"),
        (["check", "calibration", *check, "--grid-length", "inf"], "CliError",
         "--grid-length must be finite, got inf"),
        (["check", "pit-ecdf", *check, "--level", "nan"], "CliError", "--level must be finite"),
        (["check", "calibration", *check, "--horizon=-inf"], "CliError", "--horizon"),
        (["check", "calibration", *check, "--horizon", "5", "--zoom-mass", "nan"],
         "CliError", "--zoom-mass"),
        (["compare", "interval", "--data", str(sim / "short.csv"), "--model", "expo",
          "exponential-gist", str(fitdir / "draws.csv"), "--grid-length", "nan",
          "--out", str(tmp_path / "x")], "CliError", "--grid-length must be finite, got nan"),
        (["experiment", "timescale", "--factor", "inf", "--out", str(tmp_path / "x")],
         "CliError", "--factor"),
        (["fit", "--data", str(good), "--model", "exponential-gist",
          "--out", str(tmp_path / "x"), "--scaling", settings_file("scaling.json", {"x": 5})],
         "DataError", "{'x': 5}"),
    ]
    # settings files holding the NaN, Infinity and -Infinity tokens, which are
    # not JSON: each of the five readers refuses them naming the file
    small = ["--warmup", "10", "--keep", "10"]
    for name, token, text, argv in (
            ("scenario_nan.json", "NaN", '{"tsa_scale": NaN, "n_subjects": 40}',
             ["simulate", "--out", str(tmp_path / "x"), "--config"]),
            ("pipeline_inf.json", "Infinity",
             '{"scenario": {"n_subjects": 30}, "horizon": Infinity,'
             ' "sampler": {"n_chains": 2, "n_warmup": 10, "n_keep": 10}}',
             ["run", "--out", str(tmp_path / "x"), "--pipeline"]),
            ("spec_inf.json", "-Infinity", '{"family": "exponential", "fixed": ["x"], "priors":'
             ' {"fixed": {"kind": "normal", "params": [-Infinity, 1]}}}',
             ["fit", "--data", str(good), "--out", str(tmp_path / "x"), *small, "--model"]),
            ("scaling_nan.json", "NaN", '{"x": [NaN, 1.0]}',
             ["fit", "--data", str(good), "--model", "exponential-gist",
              "--out", str(tmp_path / "x"), *small, "--scaling"]),
            ("curves_inf.json", "Infinity", '{"n_subjects": 30, "tsa_decay": Infinity}',
             ["experiment", "hazard-curves", "--out", str(tmp_path / "x"), *small,
              "--scenario"])):
        path = tmp_path / name
        path.write_text(text)
        cases.append(([*argv, str(path)], "CliError", f"{path}: {token} is not a JSON number"))
    # long-format events that are not whole numbers, or not 0 or 1: an event
    # of 0.5 was read as no event, an outcome of 2 was fitted
    rows = (sim / "long.csv").read_text().splitlines()
    event = rows[0].split(",").index("event")
    first = next(i for i, r in enumerate(rows) if r.split(",")[event] == "1")
    subject = rows[first].split(",")[0]
    for value, message in (("0.5", f"subject {subject}: 0.5"),
                           ("2", f"subject {subject}: outcome must be 0 or 1, got 2")):
        cells = rows[first].split(",")
        cells[event] = value
        bad = tmp_path / f"long_{value}.csv"
        bad.write_text("\n".join([*rows[:first], ",".join(cells), *rows[first + 1:]]) + "\n")
        cases.append((["fit", "--data", str(bad), "--model", "bernoulli-gist",
                       "--out", str(tmp_path / "x"), *small], "DataError", message))
    # integer cells that are not whole numbers: read as int(float(cell)), a
    # subject id of 2.5 was subject 2 and a chain of 0.5 was chain 0
    draws = workspace["fits"]["weibull-gist"] / "draws.csv"
    for path, column, value, argv in (
            (sim / "long.csv", "subject_id", "2.5", ["fit", "--model", "bernoulli-gist", *small]),
            (sim / "long.csv", "interval_index", "1.5",
             ["fit", "--model", "bernoulli-gist", *small]),
            (sim / "short.csv", "subject_id", "7.25",
             ["fit", "--model", "exponential-gist", *small]),
            (draws, "chain", "0.5",
             ["check", "km", "--data", str(sim / "short.csv"), "--model", "weibull-gist"])):
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[lines[0].split(",").index(column)] = value
        bad = tmp_path / f"bad_{column}_{path.name}"
        bad.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n")
        cases.append(([*argv, "--draws" if path == draws else "--data", str(bad),
                       "--out", str(tmp_path / "x")],
                      "DataError", f"{column} must hold whole numbers, got {value}"))
    for config, error, message in (
            ({"sampler": {"n_chains": 0}}, "SamplerConfigError", "n_chains"),
            ({"sampler": {"n_chain": 2}}, "SamplerConfigError", "'n_chain'"),
            ({"scenario": {"n_subject": 60}}, "SimulationError", "'n_subject'"),
            ({"sampler": {"n_chains": 2.5}}, "SamplerConfigError",
             "n_chains must be an integer, got 2.5"),
            ({"sampler": {"n_chains": "2"}}, "SamplerConfigError",
             "n_chains must be an integer, got '2'"),
            ({"sampler": {"n_chains": True}}, "SamplerConfigError",
             "n_chains must be an integer, got True"),
            ({"scenario": {"n_subjects": 20.5}}, "SimulationError",
             "n_subjects must be an integer, got 20.5"),
            ({"scenario": {"n_subjects": "20"}}, "SimulationError",
             "n_subjects must be an integer, got '20'"),
            ({"scenario": {"seed": "x"}}, "SimulationError", "seed must be an integer, got 'x'"),
            ({"scenario": {"n_subjects": 5, "seed": -3}}, "SimulationError",
             "seed must be non-negative, got -3"),
            ({"sampler": {"seed": -1}}, "SamplerConfigError",
             "seed must be non-negative, got -1")):
        path = tmp_path / f"pipeline_{len(cases)}.json"
        path.write_text(json.dumps(config))
        cases.append((["run", "--pipeline", str(path), "--out", str(tmp_path / "x")],
                      error, message))
    # a zoom mass outside (0, 1], which was clamped into [0, 1]
    for mass in ("-1", "0", "1.5"):
        cases.append((["check", "calibration", *check, "--horizon", "3", "--zoom-mass", mass],
                      "CheckError", f"zoom mass must be in (0, 1], got {float(mass)!r}"))
    # a model covariate that changes within a subject and is not one the
    # treatment rule makes: dichotomized scoring cannot rebuild its rows
    # (it ended in a KeyError traceback)
    long = read_long_csv(sim / "long.csv")
    long = replace(long, covariates={**long.covariates, "X": 0.5 * long.covariates["Time"]})
    write_long_csv(long, tmp_path / "long_x.csv")
    spec_x = {"family": "bernoulli_logit", "fixed": ["X", "AdjOn"]}
    names = ModelDesign(ModelSpec.from_dict(spec_x), long.covariates).parameter_names
    write_draws_csv(DrawsMatrix(np.zeros((4, len(names))), names), tmp_path / "draws_x.csv")
    cases.append((["compare", "dichotomized", "--long-data", str(tmp_path / "long_x.csv"),
                   "--model", "bx", settings_file("spec_x.json", spec_x),
                   str(tmp_path / "draws_x.csv"), "--horizon", "3", "--out", str(tmp_path / "x")],
                  "LooError", "covariates ['X'] of the model are neither static nor made by "
                  "the treatment rule"))
    # a draws file naming its chain column twice
    lines = draws.read_text().splitlines()
    bad = tmp_path / "draws_two_chains.csv"
    bad.write_text("\n".join(f"{line},{line.split(',')[0]}" for line in lines) + "\n")
    cases.append((["check", "km", "--data", str(sim / "short.csv"), "--model", "weibull-gist",
                   "--draws", str(bad), "--out", str(tmp_path / "x")],
                  "DataError", "CSV header repeats column names ['chain']"))
    for argv, error, message in cases:
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == error
        assert message in err["error"]["message"]


@pytest.mark.parametrize("horizon", ["-1", "0", "1e400"])
def test_pipeline_horizon_refused_before_simulating(tmp_path, capsys, monkeypatch, horizon):
    # a horizon of -1 simulated the cohort and ran the three fits before a
    # LooError; 1e400, read as inf, exited 0 with an all-zero dichotomized
    # comparison and a null horizon
    def not_run(*args, **kwargs):
        raise AssertionError("simulated or fitted before the horizon was refused")

    monkeypatch.setattr(experiments, "simulate_scenario", not_run)
    monkeypatch.setattr(experiments, "fit", not_run)
    path = tmp_path / "pipeline.json"
    path.write_text('{"scenario": {"n_subjects": 30}, "horizon": %s,'
                    ' "sampler": {"n_chains": 2, "n_warmup": 10, "n_keep": 10}}' % horizon)
    assert main(["run", "--pipeline", str(path), "--out", str(tmp_path / "x")]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "DataError"
    assert f"horizon must be finite and > 0, got {float(horizon)!r}" in err["message"]


@pytest.mark.parametrize("duration, follow_up", [(5, 5), (10, 10)])
def test_hazard_curves_scenario_refused_before_simulating(tmp_path, capsys, monkeypatch,
                                                         duration, follow_up):
    # treatment to the end of follow-up fitted all three models, then raised an
    # IndexError reading the year after treatment
    def not_run(*args, **kwargs):
        raise AssertionError("simulated or fitted before the scenario was refused")

    monkeypatch.setattr(experiments, "simulate_scenario", not_run)
    monkeypatch.setattr(experiments, "fit", not_run)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"n_subjects": 60, "treatment_duration": duration,
                                "max_follow_up": follow_up}))
    assert main(["experiment", "hazard-curves", "--scenario", str(path),
                 "--out", str(tmp_path / "x")]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "DataError"
    assert f"max_follow_up ({follow_up})" in err["message"]
    assert f"treatment_duration ({duration})" in err["message"]


def test_hazard_curves_short_follow_up_refused_before_simulating(tmp_path, capsys,
                                                                 monkeypatch):
    # four years of follow-up simulated the cohort, then failed the fits with
    # a ModelError, "need at least 5 distinct values, got 4", naming no setting
    def not_run(*args, **kwargs):
        raise AssertionError("simulated or fitted before the scenario was refused")

    monkeypatch.setattr(experiments, "simulate_scenario", not_run)
    monkeypatch.setattr(experiments, "fit", not_run)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"n_subjects": 60, "treatment_duration": 2, "max_follow_up": 4}))
    assert main(["experiment", "hazard-curves", "--scenario", str(path),
                 "--out", str(tmp_path / "x")]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "DataError"
    assert "max_follow_up (4)" in err["message"] and "5 distinct years" in err["message"]


@pytest.mark.parametrize("command, name, settings", [
    ("run", "pipeline.json", {"scenario": {"n_subjects": 30}, "horizon": -1}),
    ("experiment hazard-curves", "scenario.json",
     {"n_subjects": 60, "treatment_duration": 2, "max_follow_up": 4}),
])
def test_refused_command_leaves_no_directory(tmp_path, capsys, command, name, settings):
    # the output directory was made before the command's own refusals ran,
    # and a refused command left it behind, empty
    path = tmp_path / name
    path.write_text(json.dumps(settings))
    flag = "--pipeline" if command == "run" else "--scenario"
    assert main([*command.split(), flag, str(path), "--out", str(tmp_path / "out")]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "DataError"
    assert not (tmp_path / "out").exists()


def test_compare_refuses_a_repeated_name(workspace, tmp_path, capsys, monkeypatch):
    # two models named "a" ranked two rows "a", kept one in the elpd map and
    # wrote loglik_a.csv twice
    def not_read(*args, **kwargs):
        raise AssertionError("draws read before the names were checked")

    monkeypatch.setattr("survcheck.cli.read_draws_csv", not_read)
    fits, out = workspace["fits"], tmp_path / "cmp"
    assert main(["compare", "loo", "--data", str(workspace["sim"] / "short.csv"),
                 "--model", "a", "exponential-gist", str(fits["exponential-gist"] / "draws.csv"),
                 "--model", "b", "weibull-gist", str(fits["weibull-gist"] / "draws.csv"),
                 "--model", "a", "weibull-gist", str(fits["weibull-gist"] / "draws.csv"),
                 "--out", str(out), "--save-loglik"]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "CliError"
    assert "model names must be distinct" in err["message"]
    assert not out.exists()


def test_all_nan_khat_written_as_null(workspace, tmp_path):
    # 10 draws leave no tail to fit: every k-hat is NaN, and numpy's nanmax
    # warned "All-NaN slice encountered"
    short = workspace["sim"] / "short.csv"
    models = []
    for name in ("exponential-gist", "weibull-gist"):
        draws = read_draws_csv(workspace["fits"][name] / "draws.csv")
        path = tmp_path / f"{name}.csv"
        write_draws_csv(DrawsMatrix(draws.draws[:10], draws.parameter_names), path)
        models += ["--model", name, name, str(path)]
    out = tmp_path / "cmp"
    with pytest.warns(UserWarning, match="only 10 draws"):
        assert main(["compare", "interval", "--data", str(short), *models,
                     "--scaling", str(workspace["fits"]["weibull-gist"] / "scaling.json"),
                     "--out", str(out)]) == 0
    elpd = json.loads((out / "comparison.json").read_text())["elpd"]
    assert [r["khat_max"] for r in elpd.values()] == [None, None]


def test_one_chain_diagnostics_are_strict_json(workspace, tmp_path):
    # split-R-hat needs two chains; its NaN is written as null, not a bare NaN
    out = tmp_path / "one"
    assert main(["fit", "--data", str(workspace["sim"] / "short.csv"), "--model",
                 "exponential-gist", "--out", str(out), "--chains", "1", "--warmup", "50",
                 "--keep", "50"]) == 0

    def refuse(token):
        raise ValueError(f"non-JSON constant {token}")

    diag = json.loads((out / "diagnostics.json").read_text(), parse_constant=refuse)
    assert all(v is None for v in diag["rhat"].values())
    assert sorted(diag["flagged"]) == sorted(diag["rhat"]) and diag["ok"] is False


def test_fit_keeping_one_draw_is_not_ok(workspace, tmp_path):
    # one kept draw per chain leaves no split sequence to compare: every
    # R-hat is unavailable, so every parameter is flagged
    out = tmp_path / "keep1"
    assert main(["fit", "--data", str(workspace["sim"] / "short.csv"), "--model",
                 "exponential-gist", "--out", str(out), "--chains", "2", "--warmup", "50",
                 "--keep", "1"]) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["rhat"] and all(v is None for v in diag["rhat"].values())
    assert sorted(diag["flagged"]) == sorted(diag["rhat"])
    assert diag["ok"] is False


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
    assert (out / "calibration_bernoulli-gist.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["pipeline"] == cfg
    # each check's series are written with the bytes bundle_to_json gives them
    text = (out / "km_overlay_exponential-gist.json").read_text()
    doc = json.loads(text)
    assert text == bundle_to_json([PlotSeries(**d) for d in doc["series"]],
                                  {"config": results["config"]})


def test_compare_dichotomized_scores_data_of_another_treatment_rule(tmp_path, capsys):
    # a Bernoulli model's dichotomized scores rebuild each subject's rows
    # under the rule the rows show: a cohort treated for 2 intervals was
    # refused under the default 3-interval rule, and is now scored
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"n_subjects": 80, "seed": 3, "treatment_duration": 2}))
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", str(scenario), "--out", str(sim)]) == 0
    models = []
    for name, preset, data in (("expo", "exponential-gist", "short.csv"),
                               ("bern", "bernoulli-gist", "long.csv")):
        assert main(["fit", "--data", str(sim / data), "--model", preset, "--out",
                     str(tmp_path / name), "--chains", "2", "--warmup", "60", "--keep", "60",
                     "--seed", "1"]) == 0
        models += ["--model", name, preset, str(tmp_path / name / "draws.csv")]
    capsys.readouterr()
    out = tmp_path / "cmp"
    assert main(["compare", "dichotomized", "--data", str(sim / "short.csv"), "--long-data",
                 str(sim / "long.csv"), *models, "--out", str(out), "--horizon", "5"]) == 0
    assert capsys.readouterr().err == ""
    long = read_long_csv(sim / "long.csv")
    spec = get_preset("bernoulli-gist")
    report = elpd_loo(bernoulli_dichotomized_loglik(
        spec, ModelDesign(spec, long.covariates), read_draws_csv(tmp_path / "bern" / "draws.csv"),
        long, 5.0))
    doc = json.loads((out / "comparison.json").read_text())
    assert doc["elpd"]["bern"]["elpd"] == report.total


def test_check_calibration_bernoulli_long(tmp_path):
    # both Bernoulli branches: every long-format row, and the rows of one interval
    sim = tmp_path / "sim"
    assert main(["simulate", "--out", str(sim), "--seed", "3",
                 "--n-subjects", "60"]) == 0
    fitdir = tmp_path / "fit"
    assert main(["fit", "--data", str(sim / "long.csv"),
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
                     "--model", "bernoulli-gist",
                     "--draws", str(fitdir / "draws.csv"), "--out", str(out),
                     *extra]) == 0
        doc = json.loads((out / "calibration.json").read_text())
        assert isinstance(doc["inside_band"], bool)
        curve = next(s for s in doc["series"] if s["name"] == "calibration_curve")
        p, outcomes, _ = event_probabilities(
            spec, design, draws, long, interval=int(extra[1]) if extra else None)
        assert len(curve["data"]["x"]) == len(outcomes) == n_rows
        assert curve["data"]["x"] == np.sort(p.mean(axis=1)).tolist()


# the options each subcommand used to accept and ignore
IGNORED = {
    "check km": ["--time-unit", "--level", "--horizon", "--interval", "--grid-length",
                 "--grid-intervals", "--zoom-mass"],
    "check intervals": ["--time-unit", "--level", "--horizon", "--interval", "--grid-length",
                        "--grid-intervals", "--zoom-mass", "--cutoff-factor", "--n-pred-draws"],
    "check pit-ecdf": ["--time-unit", "--horizon", "--interval", "--grid-length",
                       "--grid-intervals", "--zoom-mass", "--cutoff-factor", "--n-pred-draws"],
    "check calibration": ["--time-unit", "--cutoff-factor", "--n-pred-draws", "--impute"],
    "fit": ["--time-unit"],
    "impute": ["--time-unit"],
    "compare loo": ["--horizon", "--grid-length", "--grid-intervals"],
    "compare interval": ["--horizon"],
    "compare dichotomized": ["--grid-length", "--grid-intervals"],
    "experiment timescale": ["--scenario", "--svg", "--chains", "--warmup", "--keep"],
    "experiment hazard-curves": ["--factor"],
}
FITTED = ["--data", "d.csv", "--model", "weibull-gist", "--draws", "draws.csv"]
INPUTS = {"check": FITTED, "impute": FITTED, "fit": FITTED[:4], "experiment": [],
          "compare": ["--data", "d.csv", "--model", "a", "weibull-gist", "draws.csv"]}


def _usage_cases():
    for command, options in IGNORED.items():
        for option in options:
            value = [] if option == "--svg" else ["2"]
            yield pytest.param([*command.split(), *INPUTS[command.split()[0]], option, *value],
                               option, id=f"{command} {option}")
    for kind in ("intervals", "pit-ecdf"):
        yield pytest.param(["check", kind, *FITTED, "--impute", "2"], "--impute",
                           id=f"check {kind} --impute 2")
    yield pytest.param(["fit", *FITTED[:4], "--chains", "two"], "--chains", id="fit --chains two")
    yield pytest.param(["fit", *FITTED[:4]], "--out", id="fit without --out")


@pytest.mark.parametrize("argv, option", _usage_cases())
def test_usage_error_is_error_json(tmp_path, capsys, argv, option):
    # an option the subcommand does not read is refused, not ignored
    if option != "--out":
        argv = [*argv, "--out", str(tmp_path / "x")]
    assert main(argv) == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "CliError"
    assert option in err["error"]["message"]
    assert not (tmp_path / "x").exists()


def test_help_lists_only_the_kinds_options(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["check", "km", "--help"])
    assert exit_.value.code == 0
    text = capsys.readouterr().out
    assert "--cutoff-factor" in text and "--level" not in text


def _parsers(parser):
    """The parser and every sub-parser below it."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                yield from _parsers(child)


def test_help_shows_every_default():
    options = 0
    for parser in _parsers(build_parser()):
        text = " ".join(parser.format_help().split())
        assert "(default: None)" not in text, parser.prog
        for action in parser._actions:
            if not action.option_strings or action.default is argparse.SUPPRESS:
                continue
            options += 1
            assert action.help, f"{parser.prog} {action.option_strings[0]}"
            if action.default is not None:
                assert f"{action.help} (default: {action.default})" in text, \
                    f"{parser.prog} {action.option_strings[0]}"
    assert options > 50
