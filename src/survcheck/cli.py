"""Command-line surface: simulate -> fit -> check -> impute -> compare.

Every subcommand writes its artifacts under a run directory together with a
manifest embedding the fully resolved configuration and seeds, so rerunning
with the same manifest inputs is byte-identical.  Failures exit nonzero and
print a machine-readable error JSON to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import experiments
from .checks import (
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
    scale_covariates,
    write_draws_csv,
    write_long_csv,
    write_short_csv,
)
from .loo import (
    LooError,
    compare,
    elpd_loo,
    group_long_by_subject,
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
from .sampler import SamplerConfig, SamplingError, diagnose, fit
from .series import PlotSeries, bundle_to_json, bundle_to_svg
from .simulate import ScenarioConfig, scenario_report, simulate_scenario


class CliError(ValueError):
    pass


class RunDir:
    """Output directory with a manifest of artifacts and resolved config."""

    def __init__(self, path, config: dict):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.manifest = {"config": config, "artifacts": []}

    def write_json(self, name: str, payload: dict):
        text = json.dumps(payload, indent=1, sort_keys=True)
        (self.path / name).write_text(text)
        self.manifest["artifacts"].append(name)
        return self.path / name

    def write_text(self, name: str, text: str):
        (self.path / name).write_text(text)
        self.manifest["artifacts"].append(name)
        return self.path / name

    def register(self, name: str):
        self.manifest["artifacts"].append(name)
        return self.path / name

    def finish(self):
        (self.path / "manifest.json").write_text(
            json.dumps(self.manifest, indent=1, sort_keys=True))


def _load_model(spec_arg: str) -> ModelSpec:
    if spec_arg in PRESETS:
        return get_preset(spec_arg)
    path = Path(spec_arg)
    if not path.exists():
        raise CliError(f"model {spec_arg!r} is neither a preset {sorted(PRESETS)} "
                       "nor a spec file")
    return ModelSpec.from_dict(json.loads(path.read_text()))


def _load_data(args) -> tuple:
    """Returns (short_or_none, long_or_none) per --format."""
    if args.format == "long":
        return None, _maybe_scale(read_long_csv(args.data, time_unit=args.time_unit), args)
    return _maybe_scale(read_short_csv(args.data, time_unit=args.time_unit), args), None


def _maybe_scale(data, args):
    """Re-apply a stored covariate scaling (from `fit --scale`) to new data."""
    path = getattr(args, "scaling", None)
    if not path:
        return data
    stats = json.loads(Path(path).read_text())
    record = ScalingRecord({k: tuple(v) for k, v in stats.items()})
    return apply_scaling(data, record)


def _sampler_config(args) -> SamplerConfig:
    return SamplerConfig(
        n_chains=args.chains, n_warmup=args.warmup, n_keep=args.keep, seed=args.seed
    )


def _add_sampler_args(p):
    p.add_argument("--chains", type=int, default=4)
    p.add_argument("--warmup", type=int, default=1000)
    p.add_argument("--keep", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)


def _add_data_args(p):
    p.add_argument("--data", required=True, help="input CSV")
    p.add_argument("--format", choices=("short", "long"), default="short")
    p.add_argument("--time-unit", default=None)
    p.add_argument("--scaling", default=None,
                   help="scaling.json from a `fit --scale` run, re-applied here")


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    if args.config:
        scenario = ScenarioConfig.from_dict(json.loads(Path(args.config).read_text()))
    else:
        scenario = ScenarioConfig()
    if args.seed is not None:
        scenario = ScenarioConfig.from_dict({**scenario.to_dict(), "seed": args.seed})
    if args.n_subjects is not None:
        scenario = ScenarioConfig.from_dict(
            {**scenario.to_dict(), "n_subjects": args.n_subjects})
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
    short, long = _load_data(args)
    data = long if long is not None else short
    scaling = None
    if args.scale:
        if short is None:
            raise CliError("--scale applies to short-format data")
        data, record = scale_covariates(short, args.scale.split(","))
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
    short, long = _load_data(args)
    data = long if long is not None else short
    draws = read_draws_csv(args.draws)
    design = ModelDesign(spec, data.covariates)
    return spec, data, draws, design


def cmd_check(args) -> int:
    spec, data, draws, design = _predictive_setup(args)
    rng = np.random.default_rng(args.seed)
    run = RunDir(args.out, {
        "command": f"check {args.kind}", "model": spec.to_dict(),
        "data": str(args.data), "draws": str(args.draws), "seed": args.seed,
        "options": {
            "cutoff_factor": args.cutoff_factor, "level": args.level,
            "n_pred_draws": args.n_pred_draws, "impute": args.impute,
            "horizon": args.horizon, "interval": args.interval,
            "scaling": args.scaling,
        },
    })
    common = {"config": run.manifest["config"]}

    if args.kind == "km":
        if not isinstance(data, SurvivalDataset):
            raise CliError("check km needs short-format data")
        sims = posterior_predictive_times(spec, design, draws, data, rng,
                                          n_draws=args.n_pred_draws)
        imputed = None
        if args.impute:
            imputed = impute_censored(spec, design, draws, data, rng, args.impute)
        bundle = km_overlay(data, sims, cutoff_factor=args.cutoff_factor,
                            imputed=imputed)
        run.write_text("km.json", bundle_to_json(bundle, common))
        if args.svg:
            run.write_text("km.svg", bundle_to_svg(
                bundle, title="Kaplan-Meier overlay", xlabel="time", ylabel="S(t)"))
    elif args.kind in ("intervals", "pit-ecdf"):
        if not isinstance(data, SurvivalDataset):
            raise CliError(f"check {args.kind} needs short-format data")
        sims = posterior_predictive_times(spec, design, draws, data, rng)
        y = data.time.copy()
        flags = np.zeros(data.n, dtype=int)
        if args.impute:
            imputed = impute_censored(spec, design, draws, data, rng, 1)[0]
            flags = (data.status == "right_censored").astype(int)
            y = imputed.time
        if args.kind == "intervals":
            series = [intervals_data(y, sims, imputed_flags=flags)]
            inside = None
        else:
            series, inside = pit_ecdf_check(y, sims, level=args.level,
                                            seed=args.seed, imputed_flags=flags)
        name = args.kind.replace("-", "_")
        run.write_text(f"{name}.json", bundle_to_json(
            series, {**common, "inside_band": inside}))
        if args.svg:
            run.write_text(f"{name}.svg", bundle_to_svg(series, title=args.kind))
    elif args.kind == "calibration":
        predictions, outcomes = experiments.calibration_inputs(
            spec, design, draws, data, horizon=args.horizon, interval=args.interval,
            grid=TimeGrid(args.grid_length, args.grid_intervals))
        series, inside = calibration_check(predictions, outcomes, level=args.level,
                                           seed=args.seed, zoom_mass=args.zoom_mass)
        run.write_text("calibration.json", bundle_to_json(
            series, {**common, "inside_band": inside}))
        if args.svg:
            run.write_text("calibration.svg", bundle_to_svg(
                series, title="PAV-adjusted calibration",
                xlabel="predicted probability", ylabel="CEP"))
    run.finish()
    return 0


def cmd_impute(args) -> int:
    spec, data, draws, design = _predictive_setup(args)
    if not isinstance(data, SurvivalDataset):
        raise CliError("impute needs short-format data")
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
    grid = TimeGrid(args.grid_length, args.grid_intervals) if args.mode == "interval" else None
    long = read_long_csv(args.long_data, time_unit=args.time_unit) if args.long_data else None
    short = read_short_csv(args.data, time_unit=args.time_unit) if args.data else None
    long = _maybe_scale(long, args) if long is not None else None
    short = _maybe_scale(short, args) if short is not None else None
    run = RunDir(args.out, {
        "command": f"compare {args.mode}",
        "models": [{"name": n, "spec": s, "draws": d} for n, s, d in args.model],
        "horizon": args.horizon, "grid_length": args.grid_length,
        "scaling": args.scaling, "seed": args.seed,
    })
    for name, spec_arg, draws_path in args.model:
        spec = _load_model(spec_arg)
        draws = read_draws_csv(draws_path)
        if spec.family == "bernoulli_logit":
            if long is None:
                raise CliError("a bernoulli model in the comparison needs --long-data")
            design = ModelDesign(spec, long.covariates)
            if args.mode == "dichotomized":
                from .loo import bernoulli_dichotomized_loglik

                ll = bernoulli_dichotomized_loglik(spec, design, draws, long,
                                                   args.horizon)
            else:
                ll = group_long_by_subject(
                    loglik_matrix(spec, design, draws, long, mode="raw"))
        else:
            if short is None:
                raise CliError("continuous models need --data (short format)")
            design = ModelDesign(spec, short.covariates)
            mode = {"loo": "raw", "interval": "interval", "dichotomized": "dichotomized"}
            ll = loglik_matrix(spec, design, draws, short, mode=mode[args.mode],
                               grid=grid, horizon=args.horizon)
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


def cmd_experiment(args) -> int:
    if args.which == "timescale":
        run = RunDir(args.out, {"command": "experiment timescale",
                                "factor": args.factor, "seed": args.seed})
        result = experiments.timescale_experiment(factor=args.factor, seed=args.seed)
        result["config"] = run.manifest["config"]
        run.write_json("timescale.json", result)
        run.finish()
        if not result["assertions"]["passed"]:
            raise CliError("time-scale assertions failed: "
                           + json.dumps(result["assertions"]))
        print(json.dumps(result["assertions"], indent=1, sort_keys=True))
        return 0
    # hazard-curves
    scenario = (ScenarioConfig.from_dict(json.loads(Path(args.scenario).read_text()))
                if args.scenario else ScenarioConfig())
    sampler = SamplerConfig(n_chains=args.chains, n_warmup=args.warmup,
                            n_keep=args.keep, seed=args.seed)
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
    config = json.loads(Path(args.pipeline).read_text())
    run = RunDir(args.out, {"command": "run", "pipeline": config})
    result = experiments.run_pipeline(config)
    for key in list(result.get("checks", {})):
        series = result["checks"][key]
        if isinstance(series, list):
            run.write_text(f"{key}.json", bundle_to_json(
                [PlotSeries.from_dict(d) for d in series], {"config": result["config"]}))
            result["checks"][key] = f"{key}.json"
    run.write_json("pipeline_results.json", result)
    run.finish()
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="survcheck",
        description="Predictive checking and comparison of Bayesian survival models",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic cohort",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="scenario JSON file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--n-subjects", type=int, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="sample a model posterior",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_data_args(p)
    p.add_argument("--model", required=True,
                   help=f"preset {sorted(PRESETS)} or a model spec JSON file")
    p.add_argument("--out", required=True)
    p.add_argument("--scale", help="comma-separated covariates to scale")
    _add_sampler_args(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("check", help="predictive model checks",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("kind", choices=("km", "intervals", "pit-ecdf", "calibration"))
    _add_data_args(p)
    p.add_argument("--model", required=True)
    p.add_argument("--draws", required=True, help="draws CSV from `fit`")
    p.add_argument("--out", required=True)
    p.add_argument("--svg", action="store_true", help="also render SVG")
    p.add_argument("--cutoff-factor", type=float, default=1.2)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--n-pred-draws", type=int, default=50)
    p.add_argument("--impute", type=int, default=0,
                   help="number of imputed replicates (km) / impute once (others)")
    p.add_argument("--horizon", type=float, default=None,
                   help="dichotomisation horizon for continuous calibration")
    p.add_argument("--interval", type=int, default=None,
                   help="per-interval binary calibration check (interval index)")
    p.add_argument("--grid-length", type=float, default=1.0)
    p.add_argument("--grid-intervals", type=int, default=50)
    p.add_argument("--zoom-mass", type=float, default=0.9)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("impute", help="impute censored event times",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_data_args(p)
    p.add_argument("--model", required=True)
    p.add_argument("--draws", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n-imputations", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_impute)

    p = sub.add_parser("compare", help="PSIS-LOO model comparison",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("mode", choices=("loo", "interval", "dichotomized"))
    p.add_argument("--data", help="short-format CSV")
    p.add_argument("--long-data", help="long-format CSV (for bernoulli models)")
    p.add_argument("--time-unit", default=None)
    p.add_argument("--scaling", default=None,
                   help="scaling.json from a `fit --scale` run, re-applied here")
    p.add_argument("--model", nargs=3, action="append", required=True,
                   metavar=("NAME", "SPEC", "DRAWS"),
                   help="repeatable: model name, preset/spec file, draws CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--horizon", type=float, default=5.0)
    p.add_argument("--grid-length", type=float, default=1.0)
    p.add_argument("--grid-intervals", type=int, default=50)
    p.add_argument("--save-loglik", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("experiment", help="paper-style experiments",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("which", choices=("timescale", "hazard-curves"))
    p.add_argument("--out", required=True)
    p.add_argument("--factor", type=float, default=30.0)
    p.add_argument("--scenario", help="scenario JSON for hazard-curves")
    p.add_argument("--svg", action="store_true")
    p.add_argument("--chains", type=int, default=4)
    p.add_argument("--warmup", type=int, default=2500)
    p.add_argument("--keep", type=int, default=750)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("run", help="drive a whole pipeline from one config",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--pipeline", required=True, help="pipeline config JSON")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, DataError, ModelError, LooError, SamplingError,
            FileNotFoundError, json.JSONDecodeError) as err:
        print(json.dumps({"error": {"type": type(err).__name__, "message": str(err)}}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
