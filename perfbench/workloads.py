"""The benchmark's workloads, driven through survcheck's public API.

Each workload builds its inputs from the workload seed in `setup`, runs one
timed pass in `iterate`, and checks that pass's outputs in `verify`, which
also returns a digest of them: every iteration of a run uses the same
inputs and seeds, so consecutive digests must match.

* casestudy: `survcheck run` in-process on the README pipeline config, the
  workflow users run.  About 60% of it is the three fits.
* posthoc: post-fit scoring and checks on a 600-subject cohort, with the
  draws fitted in set-up, so the sampler is off the timed path and the
  per-record and per-replicate Python loops of models/loo/checks dominate.
* refit-loo: exact leave-one-out refits on the case-study cohort: many
  fits on fresh subsets, each rebuilding the model design, so work moved
  into per-fit preparation shows here.

Library functions are looked up on the package at call time (``sc.fit``,
``sc.loo.loglik_matrix``), never bound at import, so the instrumentation's
wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np

CONTINUOUS_COVARIATES = ("Size", "AgeAtSurg", "MitHPF")
CONTINUOUS = ("exponential-gist", "weibull-gist")
BERNOULLI = "bernoulli-gist"
HORIZON = 5.0
# --seed 0 reproduces the README pipeline config exactly (scenario seed 13,
# sampler seed 9); seed n shifts both by n.
README_SCENARIO_SEED = 13
README_SAMPLER_SEED = 9
SLACK = 1e-12


class OperationFailed(Exception):
    """A library call raised; the iteration stops there."""


class Ops:
    """Operations attempted in one iteration and the failures among them."""

    def __init__(self):
        self.attempted = 0
        self.failures: dict[str, list[str]] = {}

    def call(self, label, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as err:  # any raise is a failed operation, reported
            self.fail(label, f"raised {type(err).__name__}: {err}")
            raise OperationFailed(label) from err

    def check(self, label: str, ok: bool, what: str):
        if not ok:
            self.fail(label, what)

    def fail(self, label: str, what: str):
        self.failures.setdefault(label, []).append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)


class Digest:
    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *items):
        for item in items:
            if isinstance(item, np.ndarray):
                self._h.update(str(item.dtype).encode())
                self._h.update(np.ascontiguousarray(item).tobytes()
                               if item.dtype != object else repr(item.tolist()).encode())
            elif isinstance(item, (bytes, bytearray)):
                self._h.update(item)
            else:
                self._h.update(json.dumps(item, sort_keys=True, default=repr).encode())
        return self

    def hexdigest(self) -> str:
        return self._h.hexdigest()


# ---------------------------------------------------------------------------
# output checks shared by the workloads


def check_steps(ops, label, series_dicts):
    """KM and predictive step curves stay in [0, 1] and never increase."""
    for s in series_dicts:
        if s["kind"] != "step":
            continue
        y = np.concatenate([[s["data"]["y0"]], np.asarray(s["data"]["y"], dtype=float)])
        ops.check(label, bool(np.all((y >= -SLACK) & (y <= 1 + SLACK))),
                  f"{s['name']}: step curve leaves [0, 1]")
        ops.check(label, bool(np.all(np.diff(y) <= SLACK)),
                  f"{s['name']}: step curve increases")


def check_bands(ops, label, series_dicts):
    """Every band and interval series has lower <= upper."""
    for s in series_dicts:
        d = s["data"]
        if s["kind"] == "band":
            pairs = [("lower", "upper")]
        elif s["kind"] == "interval":
            pairs = [("lower", "inner_lower"), ("inner_lower", "median"),
                     ("median", "inner_upper"), ("inner_upper", "upper")]
        else:
            continue
        for lo, hi in pairs:
            ok = np.all(np.asarray(d[lo], dtype=float) <= np.asarray(d[hi], dtype=float) + SLACK)
            ops.check(label, bool(ok), f"{s['name']}: {lo} exceeds {hi}")


def check_comparison(ops, label, rows, n_models):
    ops.check(label, len(rows) == n_models,
              f"compare returned {len(rows)} rows for {n_models} models")
    for row in rows:
        ops.check(label, math.isfinite(row["elpd"]), f"{row['model']}: elpd not finite")


def series_dicts(bundle):
    return [s.to_dict() for s in bundle]


# ---------------------------------------------------------------------------


class Workload:
    """Base of the workloads: `setup()` builds the inputs, `state_digest()`
    hashes them, `iterate(ops)` is the timed pass and returns its outputs,
    and `verify(outputs, ops)` checks them and returns their digest."""

    name = ""
    fit_phase = "iter"  # whose fits' draws the timed pass uses

    def __init__(self, sc, seed: int, smoke: bool, tmp_root: Path):
        self.sc = sc
        self.seed = seed
        self.smoke = smoke
        self.tmp_root = tmp_root

    def _cohort(self, n_subjects: int):
        """Simulated cohort with the continuous covariates scaled (both forms)."""
        sc = self.sc
        scenario = sc.ScenarioConfig(n_subjects=n_subjects,
                                     seed=README_SCENARIO_SEED + self.seed)
        long, short = sc.simulate_scenario(scenario)
        short_scaled, record = sc.scale_covariates(short, CONTINUOUS_COVARIATES)
        return scenario, short_scaled, sc.apply_scaling(long, record)


class CaseStudy(Workload):
    """`survcheck run` on the README pipeline config, artifacts to a temp dir."""

    name = "casestudy"

    def setup(self):
        n = 40 if self.smoke else 150
        sampler = ({"n_chains": 2, "n_warmup": 60, "n_keep": 60} if self.smoke
                   else {"n_chains": 4, "n_warmup": 1000, "n_keep": 1000})
        scenario, self.short, self.long = self._cohort(n)
        self.config = {
            "scenario": {"n_subjects": n, "seed": scenario.seed},
            "sampler": {**sampler, "seed": README_SAMPLER_SEED + self.seed},
            "horizon": HORIZON,
        }
        # the pipeline's observed KM curve must equal this one
        self.observed_km = self.sc.km_estimate(self.short)
        self.config_path = self.tmp_root / "pipeline.json"
        self.config_path.write_text(json.dumps(self.config))

    def state_digest(self):
        return Digest().add(self.config, self.short.time, self.short.status,
                            self.long.outcome, self.observed_km.values).hexdigest()

    def iterate(self, ops):
        out = Path(tempfile.mkdtemp(dir=self.tmp_root))
        code = ops.call("cli run", self.sc.cli.main,
                        ["run", "--pipeline", str(self.config_path), "--out", str(out)])
        return out, code

    def verify(self, outputs, ops):
        out, code = outputs
        label = "cli run"
        try:
            ops.check(label, code == 0, f"exit code {code}")
            if code != 0:
                return None
            results = json.loads((out / "pipeline_results.json").read_text())
            check_comparison(ops, label, results["compare_interval"]["comparison"], 3)
            check_comparison(ops, label, results["compare_dichotomized"]["comparison"], 2)
            for name in CONTINUOUS:
                bundle = json.loads((out / f"km_overlay_{name}.json").read_text())["series"]
                check_steps(ops, label, bundle)
                observed = next(s for s in bundle if s["name"] == "observed")["data"]
                ops.check(label, np.array_equal(observed["y"], self.observed_km.values),
                          f"km_overlay_{name}: observed curve differs from km_estimate")
            calibration = json.loads(
                (out / f"calibration_{BERNOULLI}.json").read_text())["series"]
            check_bands(ops, label, calibration)
            digest = Digest()
            for path in sorted(out.iterdir()):
                digest.add(path.name, path.read_bytes())
            return digest.hexdigest()
        finally:
            shutil.rmtree(out, ignore_errors=True)


class PostHoc(Workload):
    """Scoring, PSIS-LOO, predictive checks and calibration on fixed draws."""

    name = "posthoc"
    fit_phase = "setup"

    def setup(self):
        sc = self.sc
        n = 60 if self.smoke else 600
        config = (sc.SamplerConfig(n_chains=2, n_warmup=60, n_keep=60, seed=11)
                  if self.smoke else
                  sc.SamplerConfig(n_chains=4, n_warmup=250, n_keep=250, seed=11))
        scenario, self.short, self.long = self._cohort(n)
        self.grid = sc.TimeGrid(1.0, scenario.max_follow_up)
        self.specs = {name: sc.get_preset(name) for name in (*CONTINUOUS, BERNOULLI)}
        self.draws = {
            name: sc.fit(spec, self.long if name == BERNOULLI else self.short, config).draws
            for name, spec in self.specs.items()
        }

    def state_digest(self):
        d = Digest().add(self.short.time, self.short.status, self.long.outcome)
        for name in sorted(self.draws):
            d.add(self.draws[name].draws)
        return d.hexdigest()

    def _score(self, ops, out, label, ll, reports, model):
        sc = self.sc
        psis = ops.call(f"psis_smooth {label}", sc.psis_smooth, ll)
        report = ops.call(f"elpd_loo {label}", sc.elpd_loo, ll, psis, name=model)
        out["psis"][label] = psis
        out["elpd"][label] = report
        reports.append(report)

    def iterate(self, ops):
        sc, short, long = self.sc, self.short, self.long
        rng = np.random.default_rng(self.seed)
        out = {"psis": {}, "elpd": {}, "compare": {}, "bundles": {}}
        reports = {"raw": [], "interval": [], "dichotomized": []}
        designs = {}
        for name in CONTINUOUS:
            spec = self.specs[name]
            designs[name] = ops.call(f"ModelDesign {name}", sc.ModelDesign, spec,
                                     short.covariates)
            for mode in reports:
                ll = ops.call(f"loglik_matrix {name} {mode}", sc.loglik_matrix, spec,
                              designs[name], self.draws[name], short, mode=mode,
                              grid=self.grid, horizon=HORIZON)
                self._score(ops, out, f"{name} {mode}", ll, reports[mode], name)

        bern, draws_b = self.specs[BERNOULLI], self.draws[BERNOULLI]
        design_b = ops.call("ModelDesign bernoulli-gist", sc.ModelDesign, bern, long.covariates)
        raw = ops.call("loglik_matrix bernoulli-gist raw", sc.loglik_matrix, bern, design_b,
                       draws_b, long, mode="raw")
        grouped = ops.call("group_long_by_subject", sc.group_long_by_subject, raw)
        del raw
        # whole-subject joint scores are probabilities: comparable with interval mode
        self._score(ops, out, "bernoulli-gist subjects", grouped, reports["interval"], BERNOULLI)
        dich = ops.call("bernoulli_dichotomized_loglik", sc.loo.bernoulli_dichotomized_loglik,
                        bern, design_b, draws_b, long, HORIZON)
        self._score(ops, out, "bernoulli-gist dichotomized", dich, reports["dichotomized"],
                    BERNOULLI)
        for mode, reps in reports.items():
            out["compare"][mode] = (ops.call(f"compare {mode}", sc.compare, reps), len(reps))

        for name in CONTINUOUS:
            spec, draws = self.specs[name], self.draws[name]
            sims = ops.call(f"posterior_predictive_times {name}", sc.posterior_predictive_times,
                            spec, designs[name], draws, short, rng, n_draws=50)
            imputed = ops.call(f"impute_censored {name}", sc.impute_censored, spec,
                               designs[name], draws, short, rng, 10)
            out["bundles"][f"km_overlay {name}"] = ops.call(
                f"km_overlay {name}", sc.km_overlay, short, sims, cutoff_factor=1.2,
                imputed=imputed)

        name = "weibull-gist"
        spec, draws, design = self.specs[name], self.draws[name], designs[name]
        sims = ops.call("posterior_predictive_times all draws", sc.posterior_predictive_times,
                        spec, design, draws, short, rng)
        imputed = ops.call("impute_censored once", sc.impute_censored, spec, design, draws,
                           short, rng, 1)[0]
        flags = (short.status == "right_censored").astype(int)
        out["bundles"]["pit_ecdf_check"] = ops.call(
            "pit_ecdf_check", sc.pit_ecdf_check, imputed.time, sims, seed=self.seed,
            imputed_flags=flags)[0]
        out["bundles"]["intervals_data"] = [ops.call(
            "intervals_data", sc.intervals_data, imputed.time, sims, imputed_flags=flags)]

        z, keep, _ = ops.call("dichotomize_outcomes", sc.dichotomize_outcomes, short, HORIZON)
        params = ops.call("subject_params", sc.models.subject_params, spec, design, draws,
                          short.covariates, n_rows=short.n)
        p_horizon = ops.call("cdf", sc.cdf, spec.family, params, HORIZON)[keep].mean(axis=1)
        out["bundles"]["calibration_check horizon"] = ops.call(
            "calibration_check horizon", sc.calibration_check, p_horizon, z,
            seed=self.seed, zoom_mass=0.9)[0]
        beta = np.column_stack([draws_b.column(nm) for nm in design_b.parameter_names])
        x_b = ops.call("ModelDesign.matrix bernoulli-gist", design_b.matrix, long.covariates)
        p_rows = sc.models.logistic(x_b @ beta.T).mean(axis=1)
        out["bundles"]["calibration_check bernoulli rows"] = ops.call(
            "calibration_check bernoulli rows", sc.calibration_check, p_rows, long.outcome,
            seed=self.seed, zoom_mass=0.9)[0]
        return out

    def verify(self, out, ops):
        digest = Digest()
        for label, psis in out["psis"].items():
            sums = np.exp(psis.log_weights).sum(axis=0)
            ops.check(f"psis_smooth {label}", bool(np.all(np.abs(sums - 1.0) <= 1e-9)),
                      "PSIS weight columns do not sum to 1")
            digest.add(label, psis.log_weights, psis.khat)
        for label, report in out["elpd"].items():
            ops.check(f"elpd_loo {label}", math.isfinite(report.total), "elpd not finite")
            digest.add(label, report.pointwise)
        for mode, (report, n_models) in out["compare"].items():
            check_comparison(ops, f"compare {mode}", report.rows, n_models)
            digest.add(mode, report.to_dict())
        for label, bundle in out["bundles"].items():
            dicts = series_dicts(bundle)
            check_steps(ops, label, dicts)
            check_bands(ops, label, dicts)
            digest.add(label, self.sc.series.bundle_to_json(bundle))
        return digest.hexdigest()


class RefitLoo(Workload):
    """Exact leave-one-out refits of two presets for a few held-out subjects."""

    name = "refit-loo"

    def setup(self):
        sc = self.sc
        _, self.short, self.long = self._cohort(40 if self.smoke else 150)
        rng = np.random.default_rng(self.seed)
        n_units = 1 if self.smoke else 2
        self.units = sorted(int(u) for u in rng.choice(self.short.subject_id, n_units,
                                                       replace=False))
        self.config = (sc.SamplerConfig(n_chains=2, n_warmup=60, n_keep=60) if self.smoke
                       else sc.SamplerConfig())
        self.cases = (("weibull-gist", self.short), (BERNOULLI, self.long))

    def state_digest(self):
        return Digest().add(self.short.time, self.short.status, self.long.outcome,
                            self.units).hexdigest()

    def iterate(self, ops):
        sc = self.sc
        return {name: ops.call(f"exact_refit_loo {name}", sc.exact_refit_loo,
                               sc.get_preset(name), data, self.config, self.units, mode="raw")
                for name, data in self.cases}

    def verify(self, out, ops):
        digest = Digest()
        for name, result in out.items():
            label = f"exact_refit_loo {name}"
            ops.check(label, not result["failures"], f"refit failures: {result['failures']}")
            ops.check(label, sorted(result["elpd"]) == self.units,
                      "not one score per held-out unit")
            ops.check(label, all(math.isfinite(v) for v in result["elpd"].values()),
                      "elpd not finite")
            digest.add(name, sorted((k, repr(v)) for k, v in result["elpd"].items()))
        return digest.hexdigest()


WORKLOADS = {w.name: w for w in (CaseStudy, PostHoc, RefitLoo)}
