"""Golden-output check: capture survcheck's outputs, then compare after a change.

    PYTHONPATH=<checkout>/src python tools/golden.py capture DIR
    PYTHONPATH=src python tools/golden.py compare DIR

``capture`` runs a fixed set of seeded workloads against the survcheck on
the import path and writes each output under DIR: arrays as ``.npy``
files, text artifacts and JSON-able values as bytes.  Run it at the commit
before a change.  ``compare`` runs the same workloads against the changed
code and reports every output whose bytes differ, with the largest
absolute and relative difference of a float array.  The sign bit of a NaN
is the one difference forgiven.  It exits 0 when every output matches.

The workloads cover:

* the simulated cohort, the design matrices and fits of the three presets,
  and ``spline_basis`` and ``logistic`` on edge-case inputs;
* fits the presets never reach: a Weibull fit with hierarchical smooths on
  data holding all four statuses, a one-chain fit, and fits whose warmup
  and kept lengths (150 / 70 and 1 / 30) end mid adaptation window.  Every
  fit saves its draws, log posterior, acceptance rates and adaptation
  record;
* ``loglik_matrix`` for every family and scoring mode, with PSIS (log
  weights, k-hat, ESS, degenerate flags) and elpd of each matrix.  A
  Bernoulli model is scored on its subjects: a checkout whose
  ``loglik_matrix`` scores Bernoulli rows in raw mode only is read through
  ``group_long_by_subject`` of the raw matrix (raw and interval) and
  ``bernoulli_dichotomized_loglik`` (dichotomized).  The long rows are
  scored as given and in a shuffled order;
* ``exact_refit_loo`` for the Weibull and Bernoulli presets in raw mode, the
  Weibull preset on data holding all four statuses in raw and interval
  modes (one held-out unit of each status), and the Bernoulli preset in
  dichotomized mode on five held-out subjects, and the Weibull preset with
  8 chains per held-out unit;
* the predictive checks on the Weibull and Bernoulli fits: ``km_overlay``
  with imputed replicates, ``intervals_data``, ``pit_ecdf_check``,
  ``calibration_check`` on horizon predictions and on Bernoulli rows, and
  ``simultaneous_envelope`` on a seeded matrix with ties.  Every numeric
  column of a series is saved as its own array (a CEP curve, a band
  bound), so ``compare`` reports its largest difference;
* PSIS on seeded edge-case matrices: tie-heavy matrices of 100, 1000 and
  4000 draws whose rows repeat as Metropolis draws do, and one with a
  constant column, a ``-inf`` entry, few distinct values, few distinct
  positive exceedances, ties at the tail cutoff, underflowing weights and
  a heavy tail;
* ``run_pipeline``, and the artifacts of ``survcheck simulate``, ``fit``,
  ``compare interval|dichotomized`` with a Bernoulli model, and ``run``;
* settings files read from disk: ``simulate --config`` with a scenario
  that sets every field, ``fit --model`` with a hierarchical-smooths
  Weibull spec whose priors use all four kinds, and ``run`` with a
  pipeline naming every top-level key;
* ``PosteriorModel.log_prior``, ``log_likelihood`` and ``log_posterior``
  called directly on seeded batches of 4 and 120 chains and on one vector,
  for the three presets, a hierarchical-smooths Weibull model on data
  holding all four statuses, and held-out batches of that model and of the
  Bernoulli preset.  The 120-chain batches hold rows a fit rarely visits:
  non-finite entries, an overflowing or vanishing mean, a huge or tiny
  Weibull shape and an overflowing smoothing scale.

Only numpy and the standard library are used besides survcheck itself.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

import survcheck as sc
from survcheck.cli import main as cli_main
from survcheck.loo import LooError, bernoulli_dichotomized_loglik

HORIZON = 5.0
PRESETS = ("exponential-gist", "weibull-gist", "bernoulli-gist")
SAMPLER = sc.SamplerConfig(n_chains=2, n_warmup=150, n_keep=120, seed=3)
REFIT_SAMPLER = sc.SamplerConfig(n_chains=2, n_warmup=100, n_keep=80, seed=4)
PIPELINE = {
    "scenario": {"n_subjects": 60, "seed": 13},
    "sampler": {"n_chains": 2, "n_warmup": 150, "n_keep": 100, "seed": 9},
    "horizon": 5,
}
CLI_SAMPLER = ["--chains", "2", "--warmup", "150", "--keep", "100"]
# settings files that set every field; integers where the readers take floats
SCENARIO = {
    "n_subjects": 70,
    "covariates": {
        "Size": {"kind": "lognormal", "params": [4.1, 0.5]},
        "AgeAtSurg": {"kind": "normal", "params": [60, 11]},
        "MitHPF": {"kind": "lognormal", "params": [1.5, 0.9]},
        "GenderMale": {"kind": "bernoulli", "params": [0.45]},
        "Rupture": {"kind": "bernoulli", "params": [0.2]},
        "Gastric": {"kind": "bernoulli", "params": [0.55]},
        "AdjTreatm": {"kind": "bernoulli", "params": [0.6]},
    },
    "coefficients": {"intercept": -2.8, "AdjOn": -1.4, "Rupture": 1, "Size": 0.5,
                     "MitHPF": 0.6},
    "tsa_scale": 1.1,
    "tsa_decay": 0.5,
    "standardize": {"Size": [60, 40], "AgeAtSurg": [60.0, 11.0], "MitHPF": [7, 9]},
    "treatment_duration": 2,
    "max_follow_up": 8,
    "seed": 19,
    "time_unit": "years",
}
SPEC = {
    "name": "weibull-custom",
    "family": "weibull_aft",
    "intercept": True,
    "fixed": ["GenderMale", "Rupture", "AdjTreatm"],
    "smooths": [{"name": "Size", "degree": 2, "n_knots": 3}, {"name": "MitHPF"},
                {"name": "AgeAtSurg", "n_knots": 4}],
    "hierarchical_smooths": True,
    "priors": {
        "intercept": {"kind": "student_t", "params": [3, 2.3, 2.5]},
        "fixed": {"kind": "normal", "params": [0, 1.5]},
        "smooth_coef": {"kind": "normal", "params": [0.0, 2]},
        "shape": {"kind": "gamma", "params": [2, 1]},
        "smooth_scale": {"kind": "half_student_t", "params": [3, 1]},
    },
}
FULL_PIPELINE = {
    "scenario": {**SCENARIO, "n_subjects": 60},
    "sampler": {"n_chains": 2, "n_warmup": 120, "n_keep": 80, "seed": 6},
    "horizon": 4,
    "seed": 23,
}


def _json(value) -> bytes:
    return json.dumps(value, sort_keys=True).encode()


def _loglik(prefix, ll):
    yield f"{prefix}.values", ll.values
    yield f"{prefix}.tags", _json(list(ll.tags))
    yield f"{prefix}.ids", _json([list(u) if isinstance(u, tuple) else u
                                  for u in ll.unit_ids])
    psis = sc.psis_smooth(ll)
    report = sc.elpd_loo(ll, psis)
    yield from _psis(prefix, psis)
    yield f"{prefix}.elpd_pointwise", report.pointwise
    yield f"{prefix}.elpd", _json([report.total, report.se])


def _psis(prefix, psis):
    yield f"{prefix}.psis_log_weights", psis.log_weights
    yield f"{prefix}.khat", psis.khat
    yield f"{prefix}.ess", psis.ess
    yield f"{prefix}.degenerate", psis.degenerate


def _bernoulli_subjects(spec, design, draws, long, mode):
    """One column per subject, through whichever API the checkout offers."""
    try:
        ll = sc.loglik_matrix(spec, design, draws, long, mode=mode, horizon=HORIZON)
    except LooError:
        if mode == "dichotomized":
            ll = bernoulli_dichotomized_loglik(spec, design, draws, long, HORIZON)
        else:
            ll = sc.loglik_matrix(spec, design, draws, long, mode="raw")
    return sc.group_long_by_subject(ll)


def _primitives():
    rng = np.random.default_rng(0)
    special = np.array([800.0, -800.0, 0.0, -0.0, np.inf, -np.inf, np.nan, 36.0, -36.0])
    yield "logistic", sc.models.logistic(np.concatenate([special, 50 * rng.normal(size=200)]))
    for name, x in (("normal", rng.normal(size=300)), ("uniform", rng.uniform(0, 5, 200)),
                    ("ties", np.repeat(np.arange(12.0), 7))):
        for degree in (1, 2, 3):
            for n_knots in (0, 3, 5, 8):
                knots = sc.spline_knots(x, n_knots, degree)
                pts = np.concatenate([x, knots, knots - 1e-9, knots + 1e-9,
                                      [knots[0] - 3.0, knots[-1] + 3.0]])
                yield f"spline.{name}.d{degree}.k{n_knots}", sc.spline_basis(pts, knots, degree)


def _refits(prefix, spec, data, units, config=REFIT_SAMPLER, **scoring):
    refits = sc.exact_refit_loo(spec, data, config, units, **scoring)
    yield prefix, _json({"elpd": [refits["elpd"].get(u) for u in units],
                         "failures": sorted(map(str, refits["failures"]))})


def _cohort():
    long, short = sc.simulate_scenario(sc.ScenarioConfig(n_subjects=90, seed=5))
    for name, col in short.covariates.items():
        yield f"cohort.short.{name}", col
    yield "cohort.short.time", short.time
    yield "cohort.short.status", _json(list(short.status))
    for name, col in long.covariates.items():
        yield f"cohort.long.{name}", col
    yield "cohort.long.outcome", long.outcome
    short_scaled, record = sc.scale_covariates(short, ("Size", "AgeAtSurg", "MitHPF"))
    long_scaled = sc.apply_scaling(long, record)
    grid = sc.TimeGrid(1.0, 10)
    fits = {}
    for name in PRESETS:
        spec = sc.get_preset(name)
        data = long_scaled if spec.family == "bernoulli_logit" else short_scaled
        design = sc.ModelDesign(spec, data.covariates)
        yield f"design.{name}", design.matrix(data.covariates)
        res = sc.fit(spec, data, SAMPLER)
        fits[name] = res
        yield from _fit(f"fit.{name}", res)
        for mode in ("raw", "interval", "dichotomized"):
            if spec.family == "bernoulli_logit":
                ll = _bernoulli_subjects(spec, design, res.draws, data, mode)
            else:
                ll = sc.loglik_matrix(spec, design, res.draws, data, mode=mode,
                                      grid=grid, horizon=HORIZON)
            yield from _loglik(f"loglik.{name}.{mode}", ll)

    bern = sc.get_preset("bernoulli-gist")
    order = np.random.default_rng(1).permutation(long_scaled.n_rows)
    shuffled = long_scaled.subset(order)
    design = sc.ModelDesign(bern, long_scaled.covariates)
    for mode in ("raw", "interval", "dichotomized"):
        ll = _bernoulli_subjects(bern, design, fits["bernoulli-gist"].draws, shuffled, mode)
        yield from _loglik(f"loglik.bernoulli-gist.shuffled.{mode}", ll)

    for name, data in (("weibull-gist", short_scaled), ("bernoulli-gist", long_scaled)):
        units = [int(s) for s in short_scaled.subject_id[:2]]
        yield from _refits(f"refit.{name}", sc.get_preset(name), data, units)


def _masked_refits():
    """Exact refits through every status and scoring mode."""
    _, short = sc.simulate_scenario(sc.ScenarioConfig(n_subjects=80, seed=7))
    short, _ = sc.scale_covariates(short, ("Size", "AgeAtSurg", "MitHPF"))
    statuses = _all_statuses(short)
    units = [int(s) for s in statuses.subject_id[:4]]  # one of each status
    grid = sc.TimeGrid(1.0, int(np.ceil(statuses.time.max())) + 1)
    for mode in ("raw", "interval"):
        yield from _refits(f"refit.weibull-gist.all-statuses.{mode}", sc.get_preset("weibull-gist"),
                           statuses, units, mode=mode, grid=grid)
    long, short = sc.simulate_scenario(sc.ScenarioConfig(n_subjects=60, seed=11))
    short, record = sc.scale_covariates(short, ("Size", "AgeAtSurg", "MitHPF"))
    long = sc.apply_scaling(long, record)
    scored = (short.status == sc.data.EVENT) | (short.time >= HORIZON)
    units = [int(s) for s in short.subject_id[scored][:5]]
    yield from _refits("refit.bernoulli-gist.dichotomized", sc.get_preset("bernoulli-gist"),
                       long, units, mode="dichotomized", horizon=HORIZON)
    yield from _refits("refit.weibull-gist.8-chains", sc.get_preset("weibull-gist"), short,
                       units[:3], replace(REFIT_SAMPLER, n_chains=8))


def _fit(prefix, res):
    yield f"{prefix}.draws", res.draws.draws
    yield f"{prefix}.log_post", res.log_post
    yield f"{prefix}.accept_rate", res.accept_rate
    yield f"{prefix}.rhat_ess", _json([res.rhat, res.ess])
    for c, log in enumerate(res.adaptation["chains"]):
        yield f"{prefix}.adaptation.{c}", _json([log["windows"], log["last_update_iteration"]])
        yield f"{prefix}.frozen_chol.{c}", log["frozen_proposal_chol"]


def _all_statuses(short):
    """``short`` with every status: cycling through them, a left-censored
    record is censored at 1.5 times its time, an interval-censored one gets
    the bounds (0.5 t, 1.5 t)."""
    status = np.array([sc.data.STATUSES[i % 4] for i in range(short.n)], dtype=object)
    time = short.time.copy()
    bounds = np.full((short.n, 2), np.nan)
    left = status == sc.data.LEFT_CENSORED
    time[left] *= 1.5
    icens = status == sc.data.INTERVAL_CENSORED
    bounds[icens] = np.column_stack([0.5 * time[icens], 1.5 * time[icens]])
    time[icens] *= 1.5
    return replace(short, time=time, status=status, interval_bounds=bounds)


def _uncommon_fits():
    _, short = sc.simulate_scenario(sc.ScenarioConfig(n_subjects=80, seed=7))
    short, _ = sc.scale_covariates(short, ("Size", "AgeAtSurg", "MitHPF"))
    spec = replace(sc.get_preset("weibull-gist"), hierarchical_smooths=True)
    yield from _fit("fit.weibull-hierarchical-all-statuses",
                    sc.fit(spec, _all_statuses(short), SAMPLER))
    yield from _fit("fit.exponential-one-chain",
                    sc.fit(sc.get_preset("exponential-gist"), short,
                           replace(SAMPLER, n_chains=1, seed=5)))
    # lengths that end mid adaptation window, and a warmup of one iteration
    for name, n_warmup, n_keep in (("weibull-gist", 150, 70), ("exponential-gist", 1, 30)):
        yield from _fit(f"fit.{name}.{n_warmup}-{n_keep}",
                        sc.fit(sc.get_preset(name), short,
                               replace(SAMPLER, n_warmup=n_warmup, n_keep=n_keep, seed=8)))


def _series(prefix, series):
    for s in series:
        for key, col in s.data.items():
            yield f"{prefix}.{s.name}.{key}", np.array(col, dtype=float)
        yield f"{prefix}.{s.name}.metadata", _json(s.metadata)


def _checks():
    long, short = sc.simulate_scenario(sc.ScenarioConfig(n_subjects=120, seed=8))
    short, record = sc.scale_covariates(short, ("Size", "AgeAtSurg", "MitHPF"))
    long = sc.apply_scaling(long, record)
    spec = sc.get_preset("weibull-gist")
    design = sc.ModelDesign(spec, short.covariates)
    draws = sc.fit(spec, short, SAMPLER).draws
    rng = np.random.default_rng(21)
    sims = sc.posterior_predictive_times(spec, design, draws, short, rng, n_draws=8)
    imputed = sc.impute_censored(spec, design, draws, short, rng, 3)
    yield from _series("checks.km", sc.km_overlay(short, sims, imputed=imputed))
    sims = sc.posterior_predictive_times(spec, design, draws, short, rng)
    yield from _series("checks.intervals", [sc.intervals_data(short.time, sims)])
    series, inside = sc.pit_ecdf_check(imputed[0].time, sims, seed=2, n_sim=300)
    yield from _series("checks.pit_ecdf", series)
    yield "checks.pit_ecdf.inside", _json(inside)

    p, z = sc.calibration_inputs(spec, design, draws, short, horizon=HORIZON)
    series, inside = sc.calibration_check(p, z, seed=3, n_sim=300, zoom_mass=0.9)
    yield from _series("checks.calibration.horizon", series)
    yield "checks.calibration.horizon.inside", _json(inside)
    bern = sc.get_preset("bernoulli-gist")
    bern_design = sc.ModelDesign(bern, long.covariates)
    p, z = sc.calibration_inputs(bern, bern_design, sc.fit(bern, long, SAMPLER).draws, long)
    series, inside = sc.calibration_check(p, z, seed=4, n_sim=300, zoom_mass=0.9)
    yield from _series("checks.calibration.bernoulli", series)
    yield "checks.calibration.bernoulli.inside", _json(inside)

    ties = np.random.default_rng(6).integers(0, 7, size=(400, 60)) / 6.0
    for level in (0.5, 0.9, 0.95, 0.999):
        lo, hi, gamma = sc.checks.simultaneous_envelope(ties, level)
        yield f"checks.envelope.{level}.lower", lo
        yield f"checks.envelope.{level}.upper", hi
        yield f"checks.envelope.{level}.gamma", _json(gamma)


def _psis_edge_cases():
    """PSIS on seeded matrices the fitted log-lik matrices rarely reach."""
    rng = np.random.default_rng(17)
    for n_draws in (100, 1000, 4000):
        # a Metropolis chain repeats its draw on every rejection: whole rows
        # recur, so each column ties within itself, often across the cutoff
        moves = np.where(rng.random(n_draws) < 0.3, np.arange(n_draws), 0)
        ties = rng.standard_t(8, size=(n_draws, 60)) * rng.uniform(0.1, 1.5, 60) - 2.0
        ties = ties[np.maximum.accumulate(moves)]
        yield from _psis(f"psis.ties.{n_draws}", sc.psis_smooth(sc.LogLikMatrix(
            ties, ("density",) * 60, tuple(range(60)))))

    odd = rng.normal(-1.0, 0.7, size=(400, 10))
    odd[:, 0] = -1.3                                    # constant
    odd[7, 1] = -np.inf                                 # an impossible draw
    odd[:, 2] = -rng.integers(1, 4, 400).astype(float)  # three distinct values
    odd[:, 3] = -1.0                                    # a flat tail but for
    odd[:4, 3] = [-2.0, -3.0, -4.0, -5.0]               # four distinct exceedances
    odd[:, 4] = -1.0
    odd[:5, 4] = [-2.0, -3.0, -4.0, -5.0, -6.0]         # five
    odd[:, 5] = np.round(odd[:, 5], 1)                  # ties at the cutoff
    odd[:, 6] = -30.0 * rng.exponential(size=400)       # exp(lw) underflows
    odd[:, 7] = -np.abs(rng.standard_cauchy(400))       # heavy tail, large k-hat
    yield from _psis("psis.odd_columns", sc.psis_smooth(sc.LogLikMatrix(
        odd, ("probability",) * 10, tuple(range(10)))))


def _special_rows(post, x):
    """Set rows of ``x`` to points outside or at the edge of the support."""
    specials = [(0, np.nan), (0, np.inf), (0, -np.inf), (0, 1e308), (0, 800.0),
                (0, -800.0), (1, 1e308), (-1, np.nan)]
    if post.spec.has_shape:
        specials += [(post.n_beta, v) for v in (800.0, -800.0, 30.0, -30.0, np.inf)]
    if post.spec.hierarchical_smooths:
        specials += [(post.dim - 1, v) for v in (800.0, -800.0, np.nan)]
    for i, (col, value) in enumerate(specials):
        x[5 * i + 3, col] = value
    return x


def _log_posterior():
    long, short = sc.simulate_scenario(sc.ScenarioConfig(n_subjects=90, seed=5))
    short, record = sc.scale_covariates(short, ("Size", "AgeAtSurg", "MitHPF"))
    long = sc.apply_scaling(long, record)
    statuses = _all_statuses(short)
    weibull = sc.get_preset("weibull-gist")
    hierarchical = replace(weibull, hierarchical_smooths=True)
    units = [int(s) for s in statuses.subject_id[:3]]
    models = [(name, sc.get_preset(name), long if name == "bernoulli-gist" else short, ())
              for name in PRESETS]
    models += [("weibull-hierarchical-all-statuses", hierarchical, statuses, ()),
               ("weibull-hierarchical-all-statuses.held-out", hierarchical, statuses, units),
               ("bernoulli-gist.held-out", sc.get_preset("bernoulli-gist"), long, units)]
    rng = np.random.default_rng(29)
    for name, spec, data, held_out in models:
        post = sc.PosteriorModel(spec, data, held_out)
        members = max(len(held_out), 1)
        for n_chains in (4, 120):
            x = post.init_point() + 0.4 * rng.standard_normal((members * n_chains, post.dim))
            if n_chains > 4:
                x = _special_rows(post, x)
            for method in ("log_prior", "log_likelihood", "log_posterior"):
                yield f"log_posterior.{name}.{n_chains}.{method}", getattr(post, method)(x)
        if not held_out:
            x = post.init_point() + 0.4 * rng.standard_normal(post.dim)
            yield f"log_posterior.{name}.vector", _json(
                [repr(getattr(post, m)(x)) for m in ("log_prior", "log_likelihood",
                                                    "log_posterior")])


def _pipeline():
    yield "run_pipeline", _json(sc.experiments.run_pipeline(PIPELINE))


def _cli_files(prefix, inputs, calls):
    """Run CLI ``calls`` in a scratch directory holding the JSON ``inputs``;
    yield each call's exit code and every file it wrote."""
    out = []
    # relative paths in a scratch directory keep the manifests independent
    # of where the check runs
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        os.chdir(tmp)
        try:
            for name, value in inputs.items():
                Path(name).write_text(json.dumps(value))
            for argv in calls:
                out.append((f"{prefix}.exit.{argv[argv.index('--out') + 1]}",
                            _json(cli_main(argv))))
            out += [(f"{prefix}.file.{path.as_posix()}", path.read_bytes())
                    for path in sorted(Path(".").rglob("*"))
                    if path.is_file() and path.name not in inputs]
        finally:
            os.chdir(cwd)
    return out


def _cli():
    return _cli_files("cli", {"pipeline.json": PIPELINE}, [
        ["simulate", "--out", "sim", "--seed", "3", "--n-subjects", "60"],
        ["fit", "--data", "sim/short.csv", "--model", "weibull-gist",
         "--out", "wei", *CLI_SAMPLER, "--seed", "1"],
        ["fit", "--data", "sim/short.csv", "--model", "exponential-gist",
         "--out", "exp", *CLI_SAMPLER, "--seed", "2"],
        ["fit", "--data", "sim/long.csv", "--format", "long", "--model",
         "bernoulli-gist", "--out", "bern", *CLI_SAMPLER, "--seed", "3"],
        *[["compare", mode, "--data", "sim/short.csv", "--long-data", "sim/long.csv",
           "--model", "wei", "weibull-gist", "wei/draws.csv",
           "--model", "exp", "exponential-gist", "exp/draws.csv",
           "--model", "bern", "bernoulli-gist", "bern/draws.csv",
           "--out", f"cmp_{mode}", "--grid-intervals", "10", "--save-loglik"]
          for mode in ("interval", "dichotomized")],
        ["run", "--pipeline", "pipeline.json", "--out", "run"],
    ])


def _settings():
    """Settings files read from disk: a scenario that sets every field, a
    spec with hierarchical smooths and custom priors of every kind, and a
    pipeline naming every top-level key."""
    return _cli_files("settings", {
        "scenario.json": SCENARIO, "spec.json": SPEC, "pipeline.json": FULL_PIPELINE,
    }, [
        ["simulate", "--config", "scenario.json", "--out", "sim"],
        ["fit", "--data", "sim/short.csv", "--model", "spec.json", "--out", "fit",
         "--scale", "Size,AgeAtSurg,MitHPF", *CLI_SAMPLER, "--seed", "4"],
        ["run", "--pipeline", "pipeline.json", "--out", "run"],
    ])


def outputs():
    for workload in (_primitives, _cohort, _uncommon_fits, _masked_refits, _checks,
                     _psis_edge_cases, _log_posterior, _pipeline, _cli, _settings):
        yield from workload()


def _file(root: Path, name: str, value) -> Path:
    stem = name.replace("/", "__")
    return root / (stem + (".npy" if isinstance(value, np.ndarray) else ".bin"))


def capture(root: Path) -> int:
    root.mkdir(parents=True, exist_ok=True)
    names = []
    for name, value in outputs():
        path = _file(root, name, value)
        if isinstance(value, np.ndarray):
            np.save(path, value, allow_pickle=False)
        else:
            path.write_bytes(value)
        names.append(name)
    (root / "index.json").write_text(json.dumps(names, indent=1))
    print(f"captured {len(names)} outputs in {root}")
    return 0


def _canonical(a: np.ndarray) -> np.ndarray:
    if a.dtype.kind in "fc":
        a = np.where(np.isnan(a), np.nan, a)
    return np.ascontiguousarray(a)


def _difference(old, new) -> str | None:
    if isinstance(old, bytes) or isinstance(new, bytes):
        return None if old == new else "bytes differ"
    if old.dtype != new.dtype or old.shape != new.shape:
        return f"{old.dtype}{old.shape} became {new.dtype}{new.shape}"
    if _canonical(old).tobytes() == _canonical(new).tobytes():
        return None
    if old.dtype.kind not in "fc":
        return "values differ"
    with np.errstate(invalid="ignore", divide="ignore"):
        diff = np.abs(new - old)
        rel = diff / np.abs(old)
    finite = np.isfinite(diff)
    return (f"max abs {np.max(diff[finite], initial=0.0):.3g}, "
            f"max rel {np.max(rel[np.isfinite(rel)], initial=0.0):.3g}, "
            f"{int(np.sum(~finite & ~(np.isnan(old) & np.isnan(new))))} non-finite mismatches")


def compare(root: Path) -> int:
    expected = json.loads((root / "index.json").read_text())
    seen, failures, matched = set(), [], 0
    for name, value in outputs():
        seen.add(name)
        path = _file(root, name, value)
        if not path.exists():
            failures.append(f"{name}: not in the capture")
            continue
        old = np.load(path, allow_pickle=False) if path.suffix == ".npy" else path.read_bytes()
        why = _difference(old, value)
        if why:
            failures.append(f"{name}: {why}")
        else:
            matched += 1
    failures += [f"{name}: captured but not produced" for name in expected if name not in seen]
    for line in failures:
        print(line)
    print(f"{matched} of {len(expected)} captured outputs byte-identical, "
          f"{len(failures)} problems")
    return 1 if failures else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("action", choices=("capture", "compare"))
    ap.add_argument("dir", type=Path, help="capture directory (not committed)")
    args = ap.parse_args(argv)
    return (capture if args.action == "capture" else compare)(args.dir.resolve())


if __name__ == "__main__":
    sys.exit(main())
