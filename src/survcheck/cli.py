"""Command-line surface: simulate -> fit -> check -> impute -> compare.

Every subcommand writes its artifacts under a run directory together with a
manifest embedding the fully resolved configuration and seeds, so rerunning
with the same manifest inputs is byte-identical.  Failures, usage errors
among them, exit nonzero and print a machine-readable error JSON to stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import experiments
from .checks import (
    CheckError,
    calibration_check,
    intervals_data,
    km_overlay,
    pit_ecdf_check,
)
from .data import (
    DataError,
    ScalingRecord,
    SurvivalDataset,
    TimeGrid,
    apply_scaling,
    read_draws_csv,
    read_long_csv,
    read_short_csv,
    require_valid,
    scale_covariates,
    write_draws_csv,
    write_long_csv,
    write_short_csv,
)
from .loo import (
    LooError,
    compare,
    elpd_loo,
    loglik_matrix,
    write_loglik_csv,
)
from .models import (
    ModelDesign,
    ModelError,
    ModelSpec,
    PRESETS,
    get_preset,
    impute_censored,
    posterior_predictive_times,
)
from .sampler import SamplerConfig, SamplerConfigError, SamplingError, diagnose, fit
from .series import bundle_to_json, bundle_to_svg
from .simulate import ScenarioConfig, SimulationError, scenario_report, simulate_scenario


class CliError(ValueError):
    pass


def _json(payload) -> str:
    # strict JSON (RFC 8259) has no NaN or infinity: they are written as null
    payload = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    return json.dumps(payload, indent=1, sort_keys=True, allow_nan=False)


def _read_json(path):
    """A settings file's JSON.  The NaN, Infinity and -Infinity tokens that
    Python's reader accepts are not JSON (RFC 8259) and are refused."""
    def refuse(token):
        raise CliError(f"{path}: {token} is not a JSON number; settings must be finite")

    return json.loads(Path(path).read_text(), parse_constant=refuse)


class RunDir:
    """Output directory with a manifest of artifacts and resolved config."""

    def __init__(self, path, config: dict):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.manifest = {"config": config, "artifacts": []}

    def write_json(self, name: str, payload: dict):
        return self.write_text(name, _json(payload))

    def write_text(self, name: str, text: str):
        self.register(name).write_text(text)
        return self.path / name

    def register(self, name: str):
        self.manifest["artifacts"].append(name)
        return self.path / name

    def finish(self):
        (self.path / "manifest.json").write_text(_json(self.manifest))


def _load_model(spec_arg: str) -> ModelSpec:
    if spec_arg in PRESETS:
        return get_preset(spec_arg)
    path = Path(spec_arg)
    if not path.exists():
        raise CliError(f"model {spec_arg!r} is neither a preset {sorted(PRESETS)} "
                       "nor a spec file")
    return ModelSpec.from_dict(_read_json(path))


def _load_data(path, long_format: bool, scaling, time_unit=None):
    """Read a data CSV, reject it listing every problem, re-apply --scaling
    (the scaling.json of a `fit --scale` run)."""
    read = read_long_csv if long_format else read_short_csv
    data = read(path, time_unit=time_unit)
    require_valid(data, f"data in {path}")
    if not scaling:
        return data
    return apply_scaling(data, ScalingRecord(_read_json(scaling)))


def _options(args, *recorded) -> dict:
    """The options of the sub-parser that ran, less --out and the ``recorded``
    ones the manifest holds elsewhere."""
    skip = {"func", "command", "kind", "mode", "out", *recorded}
    return {k: v for k, v in vars(args).items() if k not in skip}


def _sampler_config(args) -> SamplerConfig:
    return SamplerConfig(
        n_chains=args.chains, n_warmup=args.warmup, n_keep=args.keep, seed=args.seed
    )


def _add_sampler_args(p, warmup=1000, keep=1000, seed=0):
    p.add_argument("--chains", type=int, default=4, help="number of chains")
    p.add_argument("--warmup", type=int, default=warmup, help="warmup iterations per chain")
    p.add_argument("--keep", type=int, default=keep, help="kept draws per chain")
    p.add_argument("--seed", type=int, default=seed, help="sampler seed")


OUT_HELP = "output directory"
LEVEL_HELP = "simultaneous band level"


def _add_grid_args(p):
    p.add_argument("--grid-length", type=float, default=1.0, help="length of a grid interval")
    p.add_argument("--grid-intervals", type=int, default=50, help="number of grid intervals")


def _add_inputs(p):
    p.add_argument("--data", required=True, help="input CSV, long format for bernoulli_logit")
    p.add_argument("--model", required=True,
                   help=f"preset {sorted(PRESETS)} or a model spec JSON file")
    p.add_argument("--scaling", default=None,
                   help="scaling.json from a `fit --scale` run, re-applied here")
    p.add_argument("--out", required=True, help=OUT_HELP)


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    scenario = (ScenarioConfig.from_dict(_read_json(args.config))
                if args.config else ScenarioConfig())
    overrides = {"seed": args.seed, "n_subjects": args.n_subjects}
    scenario = replace(scenario, **{k: v for k, v in overrides.items() if v is not None})
    run = RunDir(args.out, {"command": "simulate", "scenario": scenario.to_dict(),
                            "seed": scenario.seed})
    long, short = simulate_scenario(scenario)
    write_long_csv(long, run.register("long.csv"))
    write_short_csv(short, run.register("short.csv"))
    run.write_json("scenario.json", scenario.to_dict())
    run.write_json("report.json", scenario_report(short))
    run.finish()
    return 0


def cmd_fit(args) -> int:
    spec = _load_model(args.model)
    data = _load_data(args.data, spec.family == "bernoulli_logit", args.scaling)
    scaling = None
    if args.scale:
        if not isinstance(data, SurvivalDataset):
            raise CliError("--scale applies to short-format data")
        data, record = scale_covariates(data, args.scale.split(","))
        scaling = {k: list(v) for k, v in record.stats.items()}
    config = _sampler_config(args)
    run = RunDir(args.out, {
        "command": "fit", "model": spec.to_dict(), "sampler": asdict(config),
        "data": str(args.data), "scale": scaling, "seed": config.seed,
    })
    result = fit(spec, data, config)
    write_draws_csv(result.draws, run.register("draws.csv"))
    run.write_json("diagnostics.json", diagnose(result))
    run.write_json("model.json", spec.to_dict())
    if scaling:
        run.write_json("scaling.json", scaling)
    run.finish()
    return 0


def _predictive_setup(args):
    spec = _load_model(args.model)
    data = _load_data(args.data, spec.family == "bernoulli_logit", args.scaling)
    draws = read_draws_csv(args.draws)
    design = ModelDesign(spec, data.covariates)
    return spec, data, draws, design


def cmd_check(args) -> int:
    spec, data, draws, design = _predictive_setup(args)
    rng = np.random.default_rng(args.seed)
    run = RunDir(args.out, {
        "command": f"check {args.kind}", "model": spec.to_dict(),
        "data": str(args.data), "draws": str(args.draws), "seed": args.seed,
        "options": _options(args, "data", "model", "draws", "seed"),
    })
    inside, labels = None, {"title": args.kind}
    if args.kind == "km":
        sims = posterior_predictive_times(spec, design, draws, data, rng,
                                          n_draws=args.n_pred_draws)
        imputed = None
        if args.impute:
            imputed = impute_censored(spec, design, draws, data, rng, args.impute)
        series = km_overlay(data, sims, cutoff_factor=args.cutoff_factor, imputed=imputed)
        labels = {"title": "Kaplan-Meier overlay", "xlabel": "time", "ylabel": "S(t)"}
    elif args.kind in ("intervals", "pit-ecdf"):
        sims = posterior_predictive_times(spec, design, draws, data, rng)
        y = data.time.copy()
        flags = np.zeros(data.n, dtype=int)
        if args.impute:
            imputed = impute_censored(spec, design, draws, data, rng, 1)[0]
            flags = (data.status == "right_censored").astype(int)
            y = imputed.time
        if args.kind == "intervals":
            series = [intervals_data(y, sims, imputed_flags=flags)]
        else:
            series, inside = pit_ecdf_check(y, sims, level=args.level,
                                            seed=args.seed, imputed_flags=flags)
    else:  # calibration
        predictions, outcomes = experiments.calibration_inputs(
            spec, design, draws, data, horizon=args.horizon, interval=args.interval,
            grid=TimeGrid(args.grid_length, args.grid_intervals))
        series, inside = calibration_check(predictions, outcomes, level=args.level,
                                           seed=args.seed, zoom_mass=args.zoom_mass)
        labels = {"title": "PAV-adjusted calibration",
                  "xlabel": "predicted probability", "ylabel": "CEP"}
    name = args.kind.replace("-", "_")
    band = {} if args.kind == "km" else {"inside_band": inside}  # km.json has no band
    run.write_text(f"{name}.json", bundle_to_json(
        series, {"config": run.manifest["config"], **band}))
    if args.svg:
        run.write_text(f"{name}.svg", bundle_to_svg(series, **labels))
    run.finish()
    return 0


def cmd_impute(args) -> int:
    spec, data, draws, design = _predictive_setup(args)
    rng = np.random.default_rng(args.seed)
    run = RunDir(args.out, {
        "command": "impute", "model": spec.to_dict(), "data": str(args.data),
        "draws": str(args.draws), "n_imputations": args.n_imputations,
        "seed": args.seed,
    })
    imputed = impute_censored(spec, design, draws, data, rng, args.n_imputations)
    path = run.register("imputed.csv")
    with open(path, "w", newline="") as fh:
        fh.write("imputation,subject_id,time,was_censored\n")
        cens = data.status == "right_censored"
        for r, ds in enumerate(imputed):
            for i in range(ds.n):
                fh.write(f"{r},{int(ds.subject_id[i])},{float(ds.time[i])!r},{int(cens[i])}\n")
    run.finish()
    return 0


def cmd_compare(args) -> int:
    reports = []
    mode = "raw" if args.mode == "loo" else args.mode
    scoring = ({"grid": TimeGrid(args.grid_length, args.grid_intervals)} if mode == "interval"
               else {"horizon": args.horizon} if mode == "dichotomized" else {})
    long = (_load_data(args.long_data, True, args.scaling, args.time_unit)
            if args.long_data else None)
    short = _load_data(args.data, False, args.scaling, args.time_unit) if args.data else None
    run = RunDir(args.out, {
        "command": f"compare {args.mode}",
        "models": [{"name": n, "spec": s, "draws": d} for n, s, d in args.model],
        **_options(args, "model"),
    })
    for name, spec_arg, draws_path in args.model:
        spec = _load_model(spec_arg)
        draws = read_draws_csv(draws_path)
        if spec.family == "bernoulli_logit":
            data, missing = long, "a bernoulli model in the comparison needs --long-data"
        else:
            data, missing = short, "continuous models need --data (short format)"
        if data is None:
            raise CliError(missing)
        ll = loglik_matrix(spec, ModelDesign(spec, data.covariates), draws, data,
                           mode=mode, **scoring)
        if args.save_loglik:
            write_loglik_csv(ll, run.register(f"loglik_{name}.csv"))
        reports.append(elpd_loo(ll, name=name))
    report = compare(reports)
    payload = report.to_dict()
    payload["elpd"] = {r.name: r.to_dict() for r in reports}
    payload["config"] = run.manifest["config"]
    run.write_json("comparison.json", payload)
    run.finish()
    return 0


def cmd_timescale(args) -> int:
    run = RunDir(args.out, {"command": "experiment timescale",
                            "factor": args.factor, "seed": args.seed})
    result = experiments.timescale_experiment(factor=args.factor, seed=args.seed)
    result["config"] = run.manifest["config"]
    run.write_json("timescale.json", result)
    run.finish()
    if not result["assertions"]["passed"]:
        raise CliError("time-scale assertions failed: " + json.dumps(result["assertions"]))
    print(json.dumps(result["assertions"], indent=1, sort_keys=True))
    return 0


def cmd_hazard_curves(args) -> int:
    scenario = (ScenarioConfig.from_dict(_read_json(args.scenario))
                if args.scenario else ScenarioConfig())
    sampler = _sampler_config(args)
    run = RunDir(args.out, {"command": "experiment hazard-curves",
                            "scenario": scenario.to_dict(),
                            "sampler": asdict(sampler), "seed": args.seed})
    result = experiments.hazard_curves_experiment(scenario=scenario, sampler=sampler)
    result["config"] = run.manifest["config"]
    run.write_json("hazard_curves.json", result)
    if args.svg:
        for key, curve in result["curves"].items():
            series = experiments.curves_to_series({key: curve})
            run.write_text(f"{key}.svg", bundle_to_svg(
                series, title=curve["name"], xlabel="years after surgery"))
    run.finish()
    print(json.dumps(result["assertions"], indent=1, sort_keys=True))
    return 0


def cmd_run(args) -> int:
    config = _read_json(args.pipeline)
    run = RunDir(args.out, {"command": "run", "pipeline": config})
    result = experiments.run_pipeline(config)
    for key, series in result.get("checks", {}).items():
        if isinstance(series, list):
            run.write_json(f"{key}.json", {"series": series, "config": result["config"]})
            result["checks"][key] = f"{key}.json"
    run.write_json("pipeline_results.json", result)
    run.finish()
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a CliError, which `main` prints as the error JSON."""

    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


class _Help(argparse.ArgumentDefaultsHelpFormatter):
    """Appends an option's default to its help, unless the default is None."""

    def _get_help_string(self, action):
        return action.help if action.default is None else super()._get_help_string(action)


def _add_parser(sub, name, func, summary, parents=()):
    p = sub.add_parser(name, help=summary, parents=list(parents), formatter_class=_Help)
    p.set_defaults(func=func)
    return p


def _choices(sub, name, dest, summary):
    """A subcommand whose first argument picks the sub-parser: a check kind,
    comparison mode or experiment, each with only the options it reads."""
    return sub.add_parser(name, help=summary).add_subparsers(dest=dest, required=True)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="survcheck",
        description="Predictive checking and comparison of Bayesian survival models",
        formatter_class=_Help,
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = _add_parser(sub, "simulate", cmd_simulate, "generate a synthetic cohort")
    p.add_argument("--out", required=True, help=OUT_HELP)
    p.add_argument("--config", help="scenario JSON file; the default scenario when omitted")
    p.add_argument("--seed", type=int, default=None,
                   help="simulation seed, in place of the scenario's")
    p.add_argument("--n-subjects", type=int, default=None,
                   help="cohort size, in place of the scenario's")

    p = _add_parser(sub, "fit", cmd_fit, "sample a model posterior")
    _add_inputs(p)
    p.add_argument("--scale", help="comma-separated covariates to scale")
    _add_sampler_args(p)

    fitted = argparse.ArgumentParser(add_help=False)  # the inputs of impute and check
    _add_inputs(fitted)
    fitted.add_argument("--draws", required=True, help="draws CSV from `fit`")
    fitted.add_argument("--seed", type=int, default=0, help="seed of the predictive draws")
    p = _add_parser(sub, "impute", cmd_impute, "impute censored event times", [fitted])
    p.add_argument("--n-imputations", type=int, default=10, help="number of imputed data sets")

    checked = argparse.ArgumentParser(add_help=False, parents=[fitted])
    checked.add_argument("--svg", action="store_true", help="also render SVG")
    kinds = _choices(sub, "check", "kind", "predictive model checks")
    p = _add_parser(kinds, "km", cmd_check, "Kaplan-Meier overlay", [checked])
    p.add_argument("--cutoff-factor", type=float, default=1.2,
                   help="predictive curves end at this multiple of the largest observed time")
    p.add_argument("--n-pred-draws", type=int, default=50,
                   help="number of predictive replicates overlaid")
    p.add_argument("--impute", type=int, default=0, help="number of imputed replicates")
    intervals = _add_parser(kinds, "intervals", cmd_check, "predictive intervals", [checked])
    pit = _add_parser(kinds, "pit-ecdf", cmd_check, "PIT-ECDF band", [checked])
    for p in (intervals, pit):
        p.add_argument("--impute", type=int, choices=(0, 1), default=0,
                       help="1: censored times replaced by one imputed replicate")
    pit.add_argument("--level", type=float, default=0.95, help=LEVEL_HELP)
    p = _add_parser(kinds, "calibration", cmd_check, "PAV-adjusted calibration", [checked])
    p.add_argument("--level", type=float, default=0.95, help=LEVEL_HELP)
    p.add_argument("--horizon", type=float, default=None,
                   help="dichotomisation horizon for continuous calibration")
    p.add_argument("--interval", type=int, default=None,
                   help="per-interval binary calibration check (interval index)")
    _add_grid_args(p)
    p.add_argument("--zoom-mass", type=float, default=0.9,
                   help="share of the predictions the zoomed region holds, in (0, 1]")

    scored = argparse.ArgumentParser(add_help=False)  # the inputs of every comparison
    scored.add_argument("--data", help="short-format CSV")
    scored.add_argument("--long-data", help="long-format CSV (for bernoulli models)")
    scored.add_argument("--time-unit", default=None,
                        help="time unit label carried into the scores' metadata")
    scored.add_argument("--scaling", default=None,
                        help="scaling.json from a `fit --scale` run, re-applied here")
    scored.add_argument("--model", nargs=3, action="append", required=True,
                        metavar=("NAME", "SPEC", "DRAWS"),
                        help="repeatable: model name, preset/spec file, draws CSV")
    scored.add_argument("--out", required=True, help=OUT_HELP)
    scored.add_argument("--save-loglik", action="store_true",
                        help="also write each model's log-likelihood matrix CSV")
    modes = _choices(sub, "compare", "mode", "PSIS-LOO model comparison")
    _add_parser(modes, "loo", cmd_compare, "raw scores", [scored])
    p = _add_parser(modes, "interval", cmd_compare, "probabilities of grid intervals", [scored])
    _add_grid_args(p)
    p = _add_parser(modes, "dichotomized", cmd_compare, "event by the horizon", [scored])
    p.add_argument("--horizon", type=float, default=5.0, help="dichotomisation horizon")

    which = _choices(sub, "experiment", "which", "paper-style experiments")
    p = _add_parser(which, "timescale", cmd_timescale, "elpd invariance to the time unit")
    p.add_argument("--out", required=True, help=OUT_HELP)
    p.add_argument("--factor", type=float, default=30.0,
                   help="times are divided by this factor (days to months at 30)")
    p.add_argument("--seed", type=int, default=7, help="seed of the cohort and the fit")
    p = _add_parser(which, "hazard-curves", cmd_hazard_curves, "predicted hazard curves")
    p.add_argument("--out", required=True, help=OUT_HELP)
    p.add_argument("--scenario", help="scenario JSON file; the default scenario when omitted")
    p.add_argument("--svg", action="store_true", help="also render SVG")
    _add_sampler_args(p, warmup=2500, keep=750, seed=7)

    p = _add_parser(sub, "run", cmd_run, "drive a whole pipeline from one config")
    p.add_argument("--pipeline", required=True, help="pipeline config JSON")
    p.add_argument("--out", required=True, help=OUT_HELP)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise CliError(f"--{name.replace('_', '-')} must be finite, got {value}")
        return args.func(args)
    except (CheckError, CliError, DataError, LooError, ModelError, SamplerConfigError,
            SamplingError, SimulationError, FileNotFoundError, json.JSONDecodeError) as err:
        print(json.dumps({"error": {"type": type(err).__name__, "message": str(err)}}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
