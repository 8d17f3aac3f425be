"""Synthetic tumour-recurrence data generator.

Reproduces the case-study pipeline: seven baseline covariates, a yearly
discrete-time recurrence process driven by a Bernoulli-logit hazard with a
treatment indicator and a decaying time-since-treatment-stopped effect, and
administrative censoring at the end of follow-up.

The default coefficients are documented stand-ins chosen so the treatment
effect is clearly time-dependent (low hazard while treatment is on, a jump
right after it stops, then decay); they are not fitted to any real data.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .data import EVENT, ON_NAME, RIGHT_CENSORED, SINCE_NAME, require_counts, settings
from .data import DataError, LongDataset, ScalingRecord, SurvivalDataset, TimeGrid
from .data import TreatmentRule, expand_long, to_short_form
from .models import logistic


class SimulationError(ValueError):
    pass


_N_PARAMS = {"lognormal": 2, "normal": 2, "bernoulli": 1}


@dataclass(frozen=True)
class CovariateGen:
    """Marginal generator: lognormal / normal for continuous, bernoulli for binary."""

    kind: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in _N_PARAMS:
            raise SimulationError(f"unknown covariate generator {self.kind!r}")
        if len(self.params) != _N_PARAMS[self.kind]:
            raise SimulationError(f"a {self.kind} generator needs {_N_PARAMS[self.kind]} "
                                  f"'params', got {list(self.params)}")
        if self.kind == "bernoulli" and not 0 <= self.params[0] <= 1:
            raise SimulationError("bernoulli probability must be in [0, 1]")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "lognormal":
            mu, sigma = self.params
            return rng.lognormal(mu, sigma, size=n)
        if self.kind == "normal":
            mu, sigma = self.params
            return rng.normal(mu, sigma, size=n)
        (p,) = self.params
        return (rng.random(n) < p).astype(float)


def _default_covariates() -> dict[str, CovariateGen]:
    return {
        "Size": CovariateGen("lognormal", (4.0, 0.6)),        # tumour size, mm
        "AgeAtSurg": CovariateGen("normal", (62.0, 12.0)),
        "MitHPF": CovariateGen("lognormal", (1.6, 1.0)),      # mitotic count
        "GenderMale": CovariateGen("bernoulli", (0.5,)),
        "Rupture": CovariateGen("bernoulli", (0.12,)),
        "Gastric": CovariateGen("bernoulli", (0.6,)),
        "AdjTreatm": CovariateGen("bernoulli", (0.5,)),
    }


def _default_coefficients() -> dict[str, float]:
    # effects of standardized continuous covariates / raw binaries on the
    # yearly recurrence logit
    return {
        "intercept": -3.1,
        "AdjOn": -1.6,
        "GenderMale": 0.15,
        "Rupture": 0.9,
        "Gastric": -0.4,
        "Size": 0.6,
        "MitHPF": 0.7,
        "AgeAtSurg": 0.1,
    }


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to regenerate a synthetic cohort exactly."""

    n_subjects: int = 250
    covariates: dict = field(default_factory=_default_covariates)
    coefficients: dict = field(default_factory=_default_coefficients)
    # eta += tsa_scale * exp(-tsa_decay * (TSA - 1)) once treatment has stopped
    tsa_scale: float = 1.3
    tsa_decay: float = 0.4
    # continuous covariates enter standardized by these fixed (center, spread)
    standardize: dict = field(default_factory=lambda: {
        "Size": (66.0, 44.0), "AgeAtSurg": (62.0, 12.0), "MitHPF": (8.0, 10.0)})
    treatment_duration: int = 3
    max_follow_up: int = 10
    seed: int = 2024
    time_unit: str = "years"

    def __post_init__(self):
        require_counts(self, SimulationError, ("n_subjects",),
                       ("treatment_duration", "max_follow_up", "seed"))
        if self.treatment_duration < 1 or self.max_follow_up < self.treatment_duration:
            raise SimulationError("follow-up must cover the treatment duration")
        try:  # the rule of a ScalingRecord: finite (center, spread > 0) pairs
            ScalingRecord(self.standardize)
        except DataError as err:
            raise SimulationError(f"bad 'standardize': {err}") from None

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d) -> "ScenarioConfig":
        def gen(g):
            return settings(CovariateGen, g, SimulationError, params=tuple)
        return settings(ScenarioConfig, d, SimulationError,
                        covariates=lambda gens: {k: gen(g) for k, g in gens.items()},
                        standardize=lambda pairs: {k: tuple(v) for k, v in pairs.items()})


def gen_covariates(config: ScenarioConfig, rng: np.random.Generator) -> dict:
    """Draw the baseline covariate table (name -> array of n_subjects)."""
    return {name: gen.sample(config.n_subjects, rng)
            for name, gen in config.covariates.items()}


def hazard_logit(config: ScenarioConfig, covariates: dict, adj_on, tsa) -> np.ndarray:
    """True yearly recurrence logit for given time-dependent values."""
    co = config.coefficients
    adj_on = np.asarray(adj_on, dtype=float)
    tsa = np.asarray(tsa, dtype=float)
    eta = co.get("intercept", 0.0) + co.get("AdjOn", 0.0) * adj_on
    eta = eta + np.where(tsa >= 1, config.tsa_scale * np.exp(-config.tsa_decay * (tsa - 1.0)), 0.0)
    for name, col in covariates.items():
        if name in ("AdjTreatm",):
            continue
        coef = co.get(name, 0.0)
        if coef == 0.0:
            continue
        x = np.asarray(col, dtype=float)
        if name in config.standardize:
            center, spread = config.standardize[name]
            x = (x - center) / spread
        eta = eta + coef * x
    return eta


def gen_events(covariates: dict, config: ScenarioConfig, rng: np.random.Generator) -> LongDataset:
    """Simulate the yearly recurrence process.

    Each subject is followed year by year; a Bernoulli draw against the
    model hazard decides recurrence; subjects without recurrence by the end
    of follow-up are administratively censored there.  Subject i consumes
    row i of a pre-drawn uniform matrix, so the stream is per-subject and
    the output is reproducible from (config, seed) alone.
    """
    n, k_max = config.n_subjects, config.max_follow_up
    rule = TreatmentRule(duration=float(config.treatment_duration))
    # the treatment columns of every subject's years 1..k_max, for the hazard
    full = rule.rows(covariates, np.full(n, k_max))
    adj_on = full[ON_NAME].reshape(n, k_max)
    tsa = full[SINCE_NAME].reshape(n, k_max)
    u = rng.random((n, k_max))
    event_year = np.zeros(n, dtype=int)  # 0 = censored at follow-up end
    for k in range(1, k_max + 1):
        p = logistic(hazard_logit(config, covariates, adj_on[:, k - 1], tsa[:, k - 1]))
        hit = (u[:, k - 1] < p) & (event_year == 0)
        event_year[hit] = k
    last = np.where(event_year > 0, event_year, k_max)
    short = SurvivalDataset(np.arange(1, n + 1), np.zeros(n), last,
                            np.where(event_year > 0, EVENT, RIGHT_CENSORED),
                            covariates, time_unit=config.time_unit)
    return expand_long(short, TimeGrid(1.0, k_max), rule)


def simulate_scenario(config: ScenarioConfig) -> tuple[LongDataset, SurvivalDataset]:
    """Full generation: covariates, events, and the collapsed short form."""
    rng = np.random.default_rng(config.seed)
    covs = gen_covariates(config, rng)
    long = gen_events(covs, config, rng)
    return long, to_short_form(long)


def scenario_report(dataset: SurvivalDataset) -> dict:
    """Marginal summaries and the censoring fraction, ready for JSON."""
    if dataset.n == 0:
        raise SimulationError("empty dataset")
    out = {"n_subjects": int(dataset.n)}
    out["censoring_fraction"] = float(np.mean(dataset.status != "event"))
    out["event_time"] = _summary(dataset.time)
    covs = {}
    for name, col in dataset.covariates.items():
        vals = np.unique(col)
        if set(vals) <= {0.0, 1.0}:
            covs[name] = {"type": "binary", "mean": float(np.mean(col))}
        else:
            covs[name] = {"type": "continuous", **_summary(col)}
    out["covariates"] = covs
    return out


def _summary(x) -> dict:
    q = np.quantile(x, [0.05, 0.25, 0.5, 0.75, 0.95])
    return {
        "mean": float(np.mean(x)),
        "sd": float(np.std(x, ddof=1)) if len(x) > 1 else 0.0,
        "q05": float(q[0]), "q25": float(q[1]), "median": float(q[2]),
        "q75": float(q[3]), "q95": float(q[4]),
    }
