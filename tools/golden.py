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
  ``logistic`` on edge-case inputs, and ``spline_basis`` at degrees 1, 2,
  3 and 5 on normal, uniform, tied, 1e-3-scaled and rounded 1e3-scaled
  covariates, at every knot, 1e-9 either side of it, outside the knots
  and at ``-0.0``;
* fits the presets never reach: a Weibull fit with hierarchical smooths on
  data holding all four statuses, a one-chain fit, fits whose warmup
  and kept lengths (150 / 70 and 1 / 30) end mid adaptation window, and a
  Weibull fit on 2000 subjects, whose log-posterior calls are too large for
  the sampler to look ahead (``sampler.LOOK_AHEAD_MAX_WORK``).  Every fit
  saves its draws, log posterior, acceptance rates and adaptation record;
* ``loglik_matrix`` for every family and scoring mode, with PSIS (log
  weights, k-hat, ESS, degenerate flags) and elpd of each matrix.  A
  Bernoulli model is scored on its subjects (``group_long_by_subject``),
  with the long rows as given and in a shuffled order;
* ``simulate_scenario`` with a two-interval treatment and six years of
  follow-up, and with covariates lacking ``AdjTreatm``: every long and
  short column;
* a long cohort whose subject ids are out of order and whose rows are
  shuffled inside each subject: ``to_short_form``, the static names
  ``read_long_csv`` infers, ``validate_long`` of it and of a broken copy,
  the Bernoulli preset's raw and dichotomized ``loglik_matrix``, and the
  ``LooError`` of a late subject's row whose ``AdjOn`` contradicts the
  treatment rule;
* dichotomized Bernoulli scores of cohorts whose rows do not show one
  treatment duration: a model with fixed ``AdjOn`` and
  ``TimeSinceAdjStopped`` at horizon 2 on a cohort treated through its
  two-year follow-up, a cohort mixing durations 2 and 4 scored by a model
  of statics and ``Time``, and the Bernoulli preset's refusal of that cohort;
* ``exact_refit_loo`` for the Weibull and Bernoulli presets in raw mode, the
  Weibull preset on data holding all four statuses in raw and interval
  modes (one held-out unit of each status), and the Bernoulli preset in
  dichotomized mode on five held-out subjects, the Weibull preset with
  8 chains per held-out unit, and the Weibull preset on 5 and on 7 held-out
  units, more units than a machine has CPUs, so that a split of the units
  into sub-batches is uneven, and the exponential preset on 3 held-out
  units with odd warmup and kept lengths (151 / 77), so that windows end on
  a step the sampler takes alone;
* the predictive checks on the Weibull and Bernoulli fits: ``km_overlay``
  with imputed replicates, ``intervals_data``, ``pit_ecdf_check``,
  ``calibration_check`` on horizon predictions and on Bernoulli rows, and
  ``simultaneous_envelope`` on a seeded matrix with ties.  Every numeric
  column of a series is saved as its own array (a CEP curve, a band
  bound), so ``compare`` reports its largest difference;
* at the benchmark's post-fit scale (600 subjects, 4 x 250 kept draws),
  where each draws x rows array spans many 512 KiB blocks: the Bernoulli
  preset's raw ``loglik_matrix`` on its long rows as given and shuffled,
  its dichotomized one, ``calibration_check`` on its 4000-odd rows, and
  the Weibull preset's ``posterior_predictive_times`` with all draws,
  with the uniforms its generator gives next;
* the draw picks at their edges: ``posterior_predictive_times`` asking for
  more draws than the fit kept, and ``impute_censored`` with one
  imputation per kept draw;
* PSIS on seeded edge-case matrices: tie-heavy matrices of 100, 1000 and
  4000 draws whose rows repeat as Metropolis draws do, and one with a
  constant column, a ``-inf`` entry, few distinct values, few distinct
  positive exceedances, ties at the tail cutoff, underflowing weights and
  a heavy tail, and a 4000-draw matrix whose cutoff tie group straddles
  the tail boundary in most columns, with its elpd;
* ``km_estimate`` on 301 records with delayed entries, tied times and a
  record whose entry equals its event time;
* ``hazard_curves_experiment`` and ``timescale_experiment`` at small
  sampler settings;
* ``run_pipeline`` at small settings and on the README pipeline config
  (150 subjects, scenario seed 13, 4 x (1000 + 1000) draws, sampler seed
  9, horizon 5), and the artifacts of ``survcheck simulate``, ``fit``,
  ``check km|intervals|pit-ecdf|calibration`` on a Weibull fit,
  ``check calibration`` on a Bernoulli fit, ``impute``, ``compare loo`` of
  the two continuous models, ``compare interval|dichotomized`` with a
  Bernoulli model, ``experiment timescale``, ``experiment hazard-curves``
  on a small scenario file, and ``run``;
* settings files read from disk: ``simulate --config`` with a scenario
  that sets every field, ``fit --model`` with a hierarchical-smooths
  Weibull spec whose priors use all four kinds, and ``run`` with a
  pipeline naming every top-level key;
* ``PosteriorModel.log_prior``, ``log_likelihood`` and ``log_posterior``
  called directly on seeded batches of 4 and 120 chains and on one vector,
  for the three presets, a hierarchical-smooths Weibull model on data
  holding all four statuses, and held-out batches of that model and of the
  Bernoulli preset, each member's design built here on its training
  covariates as ``exact_refit_loo`` builds it.  The 120-chain batches hold
  rows a fit rarely visits:
  non-finite entries, an overflowing or vanishing mean, a huge or tiny
  Weibull shape and an overflowing smoothing scale;
* ``split_rhat`` and ``bulk_ess`` on seeded chain sets (autocorrelated,
  odd and short lengths, 1 to 8 chains, up to 50 parameters, 40 parameters
  of 4 x 1000 draws spanning several 512 KiB blocks, heavy ties,
  equal and disjoint constant chains, infinite and NaN draws), called on
  each parameter's (n_chains, n_iter) chains and on all parameters'
  (n_chains, n_iter, k) chains at once, and ``diagnose`` of every fit above
  and of ``survcheck fit --keep 1``.

``DECLARED`` names the outputs a change alters on purpose and the JSON keys
in them that may differ; ``compare`` reports those keys and requires every
other key to match.

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

HORIZON = 5.0
PRESETS = ("exponential-gist", "weibull-gist", "bernoulli-gist")
SAMPLER = sc.SamplerConfig(n_chains=2, n_warmup=150, n_keep=120, seed=3)
REFIT_SAMPLER = sc.SamplerConfig(n_chains=2, n_warmup=100, n_keep=80, seed=4)
EXPERIMENT_SAMPLER = sc.SamplerConfig(n_chains=2, n_warmup=200, n_keep=100, seed=5)
PIPELINE = {
    "scenario": {"n_subjects": 60, "seed": 13},
    "sampler": {"n_chains": 2, "n_warmup": 150, "n_keep": 100, "seed": 9},
    "horizon": 5,
}
README_PIPELINE = {
    "scenario": {"n_subjects": 150, "seed": 13},
    "sampler": {"n_chains": 4, "n_warmup": 1000, "n_keep": 1000, "seed": 9},
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
# outputs the change under test alters on purpose -> the JSON keys that may
# differ.  Empty it once the capture postdates that change.
DECLARED: dict[str, tuple[str, ...]] = {}
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
    """One column per subject."""
    return sc.group_long_by_subject(
        sc.loglik_matrix(spec, design, draws, long, mode=mode, horizon=HORIZON))


def _primitives():
    rng = np.random.default_rng(0)
    special = np.array([800.0, -800.0, 0.0, -0.0, np.inf, -np.inf, np.nan, 36.0, -36.0])
    yield "logistic", sc.models.logistic(np.concatenate([special, 50 * rng.normal(size=200)]))
    for name, x in (("normal", rng.normal(size=300)), ("uniform", rng.uniform(0, 5, 200)),
                    ("ties", np.repeat(np.arange(12.0), 7)),
                    ("milli", 1e-3 * rng.normal(size=200)),
                    ("kilo", 1e3 * np.round(rng.uniform(0, 5, 200), 1))):
        for degree in (1, 2, 3, 5):
            for n_knots in (0, 3, 5, 8):
                knots = sc.spline_knots(x, n_knots, degree)
                pts = np.concatenate([x, knots, knots - 1e-9, knots + 1e-9,
                                      [knots[0] - 3.0, knots[-1] + 3.0, -0.0]])
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


def _layouts():
    """``simulate_scenario`` beyond the default scenario: a two-interval
    treatment within six years of follow-up, and covariates without
    ``AdjTreatm``, whose short form derives it from ``AdjOn``."""
    untreated = {k: v for k, v in sc.ScenarioConfig().covariates.items()
                 if k != "AdjTreatm"}
    for label, config in (
            ("duration-2", sc.ScenarioConfig(n_subjects=70, seed=41, treatment_duration=2,
                                             max_follow_up=6)),
            ("untreated", sc.ScenarioConfig(n_subjects=70, seed=43, covariates=untreated))):
        long, short = sc.simulate_scenario(config)
        for name in ("subject_id", "interval_index", "outcome"):
            yield f"layout.{label}.long.{name}", getattr(long, name)
        for name, col in long.covariates.items():
            yield f"layout.{label}.long.{name}", col
        yield f"layout.{label}.long.meta", _json([list(long.static_names), long.time_unit])
        for name in ("subject_id", "entry_time", "time"):
            yield f"layout.{label}.short.{name}", getattr(short, name)
        yield f"layout.{label}.short.status", _json(list(short.status))
        for name, col in short.covariates.items():
            yield f"layout.{label}.short.{name}", col


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
    ids = [int(s) for s in short.subject_id]
    yield from _refits("refit.weibull-gist.5-units", sc.get_preset("weibull-gist"), short,
                       ids[10:15])
    yield from _refits("refit.weibull-gist.7-units", sc.get_preset("weibull-gist"), short,
                       ids[20:48:4])
    yield from _refits("refit.exponential-gist.151-77", sc.get_preset("exponential-gist"), short,
                       ids[30:33], replace(REFIT_SAMPLER, n_warmup=151, n_keep=77))


def _subject_index():
    """A long cohort whose subject ids are out of order and whose rows are
    shuffled inside each subject, through every reader of its subject order:
    ``to_short_form``, the long reader's static names, ``validate_long`` on
    it and on a broken copy, the Bernoulli preset's raw and dichotomized
    matrices, and the rebuilt-row refusal of a late subject's altered row."""
    long, short = sc.simulate_scenario(sc.ScenarioConfig(n_subjects=40, seed=29))
    short, record = sc.scale_covariates(short, ("Size", "AgeAtSurg", "MitHPF"))
    long = sc.apply_scaling(long, record)
    rng = np.random.default_rng(37)
    _, subject = np.unique(long.subject_id, return_inverse=True)
    rows = np.concatenate([rng.permutation(np.flatnonzero(subject == s))
                           for s in rng.permutation(subject.max() + 1)])
    mixed = replace(long, subject_id=rng.permutation(1000)[subject]).subset(rows)
    back = sc.to_short_form(mixed)
    yield "index.short.subject_id", back.subject_id
    yield "index.short.time", back.time
    yield "index.short.status", _json(list(back.status))
    for name, col in back.covariates.items():
        yield f"index.short.{name}", col
    with tempfile.TemporaryDirectory() as tmp:
        sc.write_long_csv(mixed, Path(tmp) / "long.csv")
        yield "index.read_long_csv.static_names", _json(
            list(sc.read_long_csv(Path(tmp) / "long.csv").static_names))
    outcome = mixed.outcome.copy()
    outcome[rng.choice(mixed.n_rows, 4, replace=False)] = 2
    outcome[np.flatnonzero(mixed.interval_index == 1)[-3:]] = 1
    broken = replace(mixed, outcome=outcome).subset(
        np.arange(mixed.n_rows) != np.flatnonzero(mixed.interval_index == 2)[-1])
    yield "index.validate_long", _json([sc.validate_long(mixed), sc.validate_long(broken)])
    bern = sc.get_preset("bernoulli-gist")
    design = sc.ModelDesign(bern, mixed.covariates)
    draws = sc.fit(bern, mixed, SAMPLER).draws
    for mode in ("raw", "dichotomized"):
        ll = sc.loglik_matrix(bern, design, draws, mixed, mode=mode, horizon=HORIZON)
        yield f"index.loglik.{mode}", ll.values
        yield f"index.loglik.{mode}.unit_ids", _json(list(ll.unit_ids))
    _, keep, _ = sc.dichotomize_outcomes(back, HORIZON)
    row = np.flatnonzero((mixed.subject_id == back.subject_id[keep[-1]])
                         & (mixed.interval_index <= HORIZON))[-1]
    on = mixed.covariates["AdjOn"].copy()
    on[row] = 1.0 - on[row]
    altered = replace(mixed, covariates={**mixed.covariates, "AdjOn": on})
    yield "index.rebuilt_rows", _refusal(lambda: sc.loglik_matrix(
        bern, design, draws, altered, mode="dichotomized", horizon=HORIZON))


def _refusal(call) -> bytes:
    """The text of the ``LooError`` ``call()`` raises, or null if it returns."""
    try:
        call()
    except sc.loo.LooError as err:
        return _json(str(err))
    return _json(None)


def _treatment_rules():
    """Dichotomized Bernoulli scores of cohorts whose rows show no end of
    treatment or several treatment durations: a spec with fixed ``AdjOn`` and
    ``TimeSinceAdjStopped`` at horizon 2 on a cohort treated through its
    whole two-year follow-up, and a cohort mixing durations 2 and 4 scored
    by a spec of statics and ``Time``, with the preset's refusal of it."""
    long, _ = sc.simulate_scenario(sc.ScenarioConfig(n_subjects=60, seed=31, treatment_duration=2,
                                                     max_follow_up=2))
    spec = sc.ModelSpec("bernoulli_logit", fixed=("AdjOn", "TimeSinceAdjStopped", "GenderMale"))
    design = sc.ModelDesign(spec, long.covariates)
    ll = sc.loglik_matrix(spec, design, sc.fit(spec, long, SAMPLER).draws, long,
                          mode="dichotomized", horizon=2.0)
    yield "rules.treated-throughout.loglik", ll.values
    yield "rules.treated-throughout.unit_ids", _json(list(ll.unit_ids))

    parts = [sc.simulate_scenario(sc.ScenarioConfig(n_subjects=40, seed=seed,
                                                    treatment_duration=duration))[0]
             for seed, duration in ((33, 2), (35, 4))]
    mixed = sc.LongDataset(
        np.concatenate([parts[0].subject_id, parts[1].subject_id + 1000]),
        np.concatenate([p.interval_index for p in parts]),
        np.concatenate([p.outcome for p in parts]),
        {name: np.concatenate([p.covariates[name] for p in parts])
         for name in parts[0].covariates},
        parts[0].static_names, parts[0].time_unit)
    spec = sc.ModelSpec("bernoulli_logit", fixed=("AdjTreatm", "GenderMale"),
                        smooths=(sc.SmoothSpec("Time"), sc.SmoothSpec("Size")))
    design = sc.ModelDesign(spec, mixed.covariates)
    ll = sc.loglik_matrix(spec, design, sc.fit(spec, mixed, SAMPLER).draws, mixed,
                          mode="dichotomized", horizon=HORIZON)
    yield "rules.mixed.statics.loglik", ll.values
    yield "rules.mixed.statics.unit_ids", _json(list(ll.unit_ids))
    bern = sc.get_preset("bernoulli-gist")
    design = sc.ModelDesign(bern, mixed.covariates)
    draws = sc.fit(bern, mixed, SAMPLER).draws
    yield "rules.mixed.preset.refusal", _refusal(lambda: sc.loglik_matrix(
        bern, design, draws, mixed, mode="dichotomized", horizon=HORIZON))


def _fit(prefix, res):
    yield f"{prefix}.draws", res.draws.draws
    yield f"{prefix}.log_post", res.log_post
    yield f"{prefix}.accept_rate", res.accept_rate
    yield f"{prefix}.rhat_ess", _json([res.rhat, res.ess])
    yield f"{prefix}.diagnose", _json(sc.diagnose(res))
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
    # 4 chains x 2000 rows x 31 coefficients per call: no look-ahead
    _, large = sc.simulate_scenario(sc.ScenarioConfig(n_subjects=2000, seed=37))
    large, _ = sc.scale_covariates(large, ("Size", "AgeAtSurg", "MitHPF"))
    yield from _fit("fit.weibull-gist.2000-subjects",
                    sc.fit(sc.get_preset("weibull-gist"), large,
                           replace(SAMPLER, n_chains=4, n_warmup=150, n_keep=70, seed=12)))


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

    p, z, _ = sc.event_probabilities(spec, design, draws, short, horizon=HORIZON)
    series, inside = sc.calibration_check(p.mean(axis=1), z, seed=3, n_sim=300, zoom_mass=0.9)
    yield from _series("checks.calibration.horizon", series)
    yield "checks.calibration.horizon.inside", _json(inside)
    bern = sc.get_preset("bernoulli-gist")
    bern_design = sc.ModelDesign(bern, long.covariates)
    p, z, _ = sc.event_probabilities(bern, bern_design, sc.fit(bern, long, SAMPLER).draws, long)
    series, inside = sc.calibration_check(p.mean(axis=1), z, seed=4, n_sim=300, zoom_mass=0.9)
    yield from _series("checks.calibration.bernoulli", series)
    yield "checks.calibration.bernoulli.inside", _json(inside)

    ties = np.random.default_rng(6).integers(0, 7, size=(400, 60)) / 6.0
    for level in (0.5, 0.9, 0.95, 0.999):
        lo, hi, gamma = sc.checks.simultaneous_envelope(ties, level)
        yield f"checks.envelope.{level}.lower", lo
        yield f"checks.envelope.{level}.upper", hi
        yield f"checks.envelope.{level}.gamma", _json(gamma)

    # draw picks at their edges: more predictive draws than the S = 240 kept
    # (every draw), and one imputation per kept draw
    rng = np.random.default_rng(22)
    yield "checks.predictive.more-than-draws", sc.posterior_predictive_times(
        spec, design, draws, short, rng, n_draws=300)
    imputed = sc.impute_censored(spec, design, draws, short, rng, draws.n_draws)
    yield "checks.impute.every-draw.time", np.array([d.time for d in imputed])
    yield "checks.impute.every-draw.status", _json([list(d.status) for d in imputed])
    yield "checks.impute.every-draw.next_uniforms", rng.random(8)


def _many_blocks():
    """Outputs of the benchmark's post-fit scale, 600 subjects and 4 x 250 kept
    draws, whose draws x rows arrays each span many 512 KiB blocks."""
    long, short = sc.simulate_scenario(sc.ScenarioConfig(n_subjects=600, seed=13))
    short, record = sc.scale_covariates(short, ("Size", "AgeAtSurg", "MitHPF"))
    long = sc.apply_scaling(long, record)
    config = sc.SamplerConfig(n_chains=4, n_warmup=250, n_keep=250, seed=11)
    bern = sc.get_preset("bernoulli-gist")
    design = sc.ModelDesign(bern, long.covariates)
    draws = sc.fit(bern, long, config).draws
    shuffled = long.subset(np.random.default_rng(2).permutation(long.n_rows))
    for name, data, mode in (("raw", long, "raw"), ("shuffled.raw", shuffled, "raw"),
                             ("dichotomized", long, "dichotomized")):
        ll = sc.loglik_matrix(bern, design, draws, data, mode=mode, horizon=HORIZON)
        yield f"blocks.loglik.bernoulli-gist.{name}", ll.values
        yield f"blocks.loglik.bernoulli-gist.{name}.unit_ids", _json(list(ll.unit_ids))
    p, z, _ = sc.event_probabilities(bern, design, draws, long)
    series, inside = sc.calibration_check(p.mean(axis=1), z, seed=5, zoom_mass=0.9)
    yield from _series("blocks.calibration.bernoulli", series)
    yield "blocks.calibration.bernoulli.inside", _json(inside)
    spec = sc.get_preset("weibull-gist")
    draws = sc.fit(spec, short, config).draws
    rng = np.random.default_rng(23)
    yield "blocks.posterior_predictive_times", sc.posterior_predictive_times(
        spec, sc.ModelDesign(spec, short.covariates), draws, short, rng)
    yield "blocks.posterior_predictive_times.next_uniforms", rng.random(8)


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

    # 4000 draws of a chain accepting one move in five: the cutoff's tie
    # group straddles the tail boundary in most columns
    moves = np.where(rng.random(4000) < 0.2, np.arange(4000), 0)
    split = rng.standard_t(6, size=(4000, 80)) * rng.uniform(0.1, 2.0, 80) - 1.5
    ll = sc.LogLikMatrix(split[np.maximum.accumulate(moves)], ("density",) * 80,
                         tuple(range(80)))
    psis = sc.psis_smooth(ll)
    yield from _psis("psis.split_ties.4000", psis)
    yield "psis.split_ties.4000.elpd", sc.elpd_loo(ll, psis).pointwise


def _kaplan_meier():
    """``km_estimate`` of records with delayed entries, tied event and
    censoring times, an odd count and a record entering at its own time."""
    rng = np.random.default_rng(29)
    n = 301
    time = np.round(rng.exponential(3.0, n), 1) + 0.1
    entry = np.where(rng.random(n) < 0.4, np.round(rng.uniform(0.0, 2.0, n), 1), 0.0)
    entry[5] = time[5]  # enters at its event time: never at risk
    status = np.where(rng.random(n) < 0.6, "event", "right_censored")
    status[5] = "event"
    km = sc.km_estimate(sc.SurvivalDataset(np.arange(n), entry, time, status))
    yield "km.delayed_ties.times", km.times
    yield "km.delayed_ties.values", km.values


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

    def designs(spec, data):  # each held-out unit's design, on its training covariates
        return {u: sc.ModelDesign(spec, {k: v[data.subject_id != u]
                                         for k, v in data.covariates.items()})
                for u in units}

    models = [(name, sc.get_preset(name), long if name == "bernoulli-gist" else short, {})
              for name in PRESETS]
    models += [("weibull-hierarchical-all-statuses", hierarchical, statuses, {}),
               ("weibull-hierarchical-all-statuses.held-out", hierarchical, statuses,
                designs(hierarchical, statuses)),
               ("bernoulli-gist.held-out", sc.get_preset("bernoulli-gist"), long,
                designs(sc.get_preset("bernoulli-gist"), long))]
    rng = np.random.default_rng(29)
    for name, spec, data, held_out in models:
        post = (sc.PosteriorModel(spec, data, held_out) if held_out
                else sc.PosteriorModel(spec, data))
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


def _chain_sets():
    """Seeded (n_chains, n_iter, k) chains for the convergence diagnostics."""
    rng = np.random.default_rng(31)

    def ar1(n_chains, n_iter, k, phi):
        x = rng.standard_normal((n_chains, n_iter, k))
        for t in range(1, n_iter):
            x[:, t] += phi * x[:, t - 1]
        return x

    # a Metropolis chain repeats its state on every rejection
    moves = rng.standard_normal((4, 400, 8)) * (rng.random((4, 400, 1)) < 0.2)
    special = rng.standard_normal((4, 100, 7))
    special[:, :, 0] = 1.5                      # equal constant chains: NaN
    special[:, :, 1] = np.arange(4.0)[:, None]  # disjoint constant chains: inf
    special[2, 10, 2] = np.inf
    special[1, 50:, 3] = -np.inf
    special[0, 7, 4] = np.nan
    special[:, :, 5] = np.round(special[:, :, 5])
    special[:, :, 6] = np.where(special[:, :, 6] > 0, -0.0, 0.0)  # signed zeros
    return {
        "ar1": ar1(4, 1000, 6, 0.9) + 0.1 * np.arange(6),
        "separated": ar1(4, 300, 3, 0.5) + np.arange(4.0)[:, None, None],
        "odd": ar1(3, 601, 4, 0.5),
        "eight-chains": rng.standard_normal((8, 200, 50)),
        "one-chain": ar1(1, 301, 3, 0.9),
        "rounded": np.round(ar1(4, 151, 5, 0.7), 1),
        "metropolis": np.cumsum(moves, axis=1),
        "special": special,
        **{f"length-{n}": rng.standard_normal((2, n, 3)) for n in (1, 2, 3, 4, 5, 7)},
        # 2 halves x 4 chains x a 1024-point FFT x 40 parameters: several 512 KiB blocks
        "many-blocks": ar1(4, 1000, 40, 0.6),
    }


def _diagnostics():
    for name, chains in _chain_sets().items():
        for stat in (sc.sampler.split_rhat, sc.sampler.bulk_ess):
            prefix = f"diagnostics.{name}.{stat.__name__}"
            with np.errstate(all="ignore"):
                alone = [stat(chains[:, :, j]) for j in range(chains.shape[2])]
                together = stat(chains)
            yield f"{prefix}.per-parameter", _json([repr(v) for v in alone])
            yield f"{prefix}.all-parameters", together
    yield from _cli_files("diagnose", {}, [
        ["simulate", "--out", "sim", "--seed", "3", "--n-subjects", "40"],
        ["fit", "--data", "sim/short.csv", "--model", "exponential-gist", "--out", "keep-1",
         "--chains", "2", "--warmup", "150", "--keep", "1", "--seed", "2"],
    ])


def _pipeline():
    yield "run_pipeline", _json(sc.experiments.run_pipeline(PIPELINE))
    yield "run_pipeline.readme", _json(sc.experiments.run_pipeline(README_PIPELINE))


def _experiments():
    yield "hazard_curves_experiment", _json(sc.experiments.hazard_curves_experiment(
        sc.ScenarioConfig(n_subjects=60, seed=17), EXPERIMENT_SAMPLER))
    yield "timescale_experiment", _json(sc.experiments.timescale_experiment(
        n_subjects=60, seed=19, sampler=EXPERIMENT_SAMPLER))


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
    long = ["--data", "sim/long.csv"]
    wei = ["--data", "sim/short.csv", "--model", "weibull-gist", "--draws", "wei/draws.csv"]
    bern = [*long, "--model", "bernoulli-gist", "--draws", "bern/draws.csv"]
    continuous = ["--data", "sim/short.csv", "--model", "wei", "weibull-gist", "wei/draws.csv",
                  "--model", "exp", "exponential-gist", "exp/draws.csv"]
    return _cli_files("cli", {"pipeline.json": PIPELINE,
                              "cohort.json": {"n_subjects": 60, "seed": 17}}, [
        ["simulate", "--out", "sim", "--seed", "3", "--n-subjects", "60"],
        ["fit", "--data", "sim/short.csv", "--model", "weibull-gist",
         "--out", "wei", *CLI_SAMPLER, "--seed", "1"],
        ["fit", "--data", "sim/short.csv", "--model", "exponential-gist",
         "--out", "exp", *CLI_SAMPLER, "--seed", "2"],
        ["fit", *long, "--model", "bernoulli-gist", "--out", "bern", *CLI_SAMPLER,
         "--seed", "3"],
        ["check", "km", *wei, "--out", "km", "--impute", "3", "--n-pred-draws", "20",
         "--svg", "--seed", "4"],
        ["check", "intervals", *wei, "--out", "intervals", "--impute", "1", "--svg"],
        ["check", "pit-ecdf", *wei, "--out", "pit", "--level", "0.9", "--svg", "--seed", "5"],
        ["check", "calibration", *wei, "--out", "cal_horizon", "--horizon", "4", "--svg"],
        ["check", "calibration", *wei, "--out", "cal_interval", "--interval", "2",
         "--grid-length", "1.5", "--grid-intervals", "8", "--seed", "6"],
        ["check", "calibration", *bern, "--out", "cal_bern", "--seed", "7"],
        ["check", "calibration", *bern, "--out", "cal_bern_interval", "--interval", "2"],
        ["impute", *wei, "--out", "imp", "--n-imputations", "3", "--seed", "8"],
        ["compare", "loo", *continuous, "--out", "cmp_loo", "--save-loglik"],
        *[["compare", mode, *continuous, "--long-data", "sim/long.csv",
           "--model", "bern", "bernoulli-gist", "bern/draws.csv",
           "--out", f"cmp_{mode}", *extra, "--save-loglik"]
          for mode, extra in (("interval", ["--grid-intervals", "10"]),
                              ("dichotomized", ["--horizon", "4"]))],
        ["experiment", "timescale", "--out", "ts", "--factor", "20", "--seed", "3"],
        ["experiment", "hazard-curves", "--out", "curves", "--scenario", "cohort.json",
         *CLI_SAMPLER, "--seed", "4", "--svg"],
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
    for workload in (_primitives, _cohort, _layouts, _subject_index, _treatment_rules,
                     _uncommon_fits, _masked_refits,
                     _checks, _many_blocks, _psis_edge_cases, _kaplan_meier, _log_posterior, _diagnostics,
                     _pipeline, _experiments, _cli, _settings):
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


def _declared(name, old: bytes, new: bytes) -> str | None:
    """How JSON output ``name`` differs in its declared keys, or None if it
    differs elsewhere too."""
    keys = DECLARED[name]
    old, new = json.loads(old), json.loads(new)
    if {k: v for k, v in old.items() if k not in keys} != {
            k: v for k, v in new.items() if k not in keys}:
        return None
    return "; ".join(f"{k}: {old.get(k)!r} became {new.get(k)!r}"
                     for k in keys if old.get(k) != new.get(k))


def compare(root: Path) -> int:
    expected = json.loads((root / "index.json").read_text())
    seen, failures, declared, matched = set(), [], [], 0
    for name, value in outputs():
        seen.add(name)
        path = _file(root, name, value)
        if not path.exists():
            failures.append(f"{name}: not in the capture")
            continue
        old = np.load(path, allow_pickle=False) if path.suffix == ".npy" else path.read_bytes()
        why = _difference(old, value)
        if why and name in DECLARED and (change := _declared(name, old, value)):
            declared.append(f"{name}: declared change, {change}")
        elif why:
            failures.append(f"{name}: {why}")
        else:
            matched += 1
    failures += [f"{name}: captured but not produced" for name in expected if name not in seen]
    for line in declared + failures:
        print(line)
    print(f"{matched} of {len(expected)} captured outputs byte-identical, "
          f"{len(declared)} declared changes, {len(failures)} problems")
    return 1 if failures else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("action", choices=("capture", "compare"))
    ap.add_argument("dir", type=Path, help="capture directory (not committed)")
    args = ap.parse_args(argv)
    return (capture if args.action == "capture" else compare)(args.dir.resolve())


if __name__ == "__main__":
    sys.exit(main())
