"""Predictive checks when no event time is censored.

With fully observed event times the generative model is available and the
three standard diagnostics all apply directly: the intervals plot, the
PIT-ECDF plot with simultaneous bands, and the Kaplan-Meier overlay.
Here we simulate Weibull data, fit the matching model, and run all three.
"""

from pathlib import Path

import numpy as np

from survcheck import (
    ModelSpec,
    SamplerConfig,
    SurvivalDataset,
    bundle_to_json,
    bundle_to_svg,
    fit,
    intervals_data,
    km_overlay,
    pit_ecdf_check,
    posterior_predictive_times,
)

out = Path(__file__).parent / "output" / "01_checks_without_censoring"
out.mkdir(parents=True, exist_ok=True)
rng = np.random.default_rng(42)

# fully observed Weibull event times with one covariate
n = 120
x = rng.normal(size=n)
times = rng.weibull(1.6, size=n) * 3.0 * np.exp(0.4 * x)
data = SurvivalDataset(np.arange(1, n + 1), np.zeros(n), times,
                       ["event"] * n, {"x": x})

spec = ModelSpec(family="weibull_aft", fixed=("x",))
result = fit(spec, data, SamplerConfig(n_warmup=1500, n_keep=800, seed=1))
print("posterior shape alpha:",
      f"{result.draws.column('alpha').mean():.2f}",
      f"(rhat {result.rhat['alpha']:.3f})")

sims = posterior_predictive_times(spec, result.design, result.draws, data, rng)

series = [intervals_data(data.time, sims)]
(out / "intervals.svg").write_text(bundle_to_svg(series, title="Intervals plot"))

pit_series, inside = pit_ecdf_check(data.time, sims, seed=2)
print("PIT-ECDF inside 95% simultaneous band:", inside)
(out / "pit_ecdf.svg").write_text(bundle_to_svg(pit_series, title="PIT-ECDF"))

overlay = km_overlay(data, sims[:50], cutoff_factor=1.2)
(out / "km_overlay.svg").write_text(
    bundle_to_svg(overlay, title="Kaplan-Meier overlay", xlabel="time", ylabel="S(t)"))
(out / "km_overlay.json").write_text(bundle_to_json(overlay))

print("wrote", sorted(p.name for p in out.iterdir()))
