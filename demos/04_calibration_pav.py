"""PAV-adjusted calibration for the discrete-time (binary-outcome) model.

Bar plots are useless for binary outcomes: even an intercept-only model
matches the outcome frequencies.  The recommended check compares the
isotonic (PAV) conditional event probabilities against the predicted
probabilities, with a consistency band simulated under perfect
calibration.  Most recurrence probabilities are near zero, so we also zoom
into the region holding 90% of the predictions.
"""

from pathlib import Path

from survcheck import (
    SamplerConfig,
    apply_scaling,
    bundle_to_svg,
    calibration_check,
    calibration_inputs,
    fit,
    get_preset,
    scale_covariates,
    zoom_region,
)
from survcheck.simulate import ScenarioConfig, simulate_scenario

out = Path(__file__).parent / "output" / "04_calibration_pav"
out.mkdir(parents=True, exist_ok=True)

long, short = simulate_scenario(ScenarioConfig(n_subjects=150, seed=19))
short_scaled, record = scale_covariates(short, ("Size", "AgeAtSurg", "MitHPF"))
long_scaled = apply_scaling(long, record)

spec = get_preset("bernoulli-gist")
result = fit(spec, long_scaled, SamplerConfig(n_warmup=1500, n_keep=500, seed=20))
# posterior-mean recurrence probability of every subject-year row
p_mean, outcomes = calibration_inputs(spec, result.design, result.draws, long_scaled)

series, inside = calibration_check(p_mean, outcomes, seed=21, zoom_mass=0.9)
print("calibration curve inside 95% consistency band:", inside)
lo, hi = zoom_region(p_mean, 0.9)
print(f"90% of predicted probabilities lie in [{lo:.2f}, {hi:.2f}]")
(out / "calibration.svg").write_text(bundle_to_svg(
    series, title="PAV-adjusted calibration",
    xlabel="predicted probability", ylabel="CEP"))

# zoomed variant: rerun the check on the dense region only
dense = p_mean <= hi
series_zoom, _ = calibration_check(p_mean[dense], outcomes[dense], seed=22)
(out / "calibration_zoom.svg").write_text(bundle_to_svg(
    series_zoom, title=f"Zoom: predictions in [0, {hi:.2f}]",
    xlabel="predicted probability", ylabel="CEP"))
print("wrote", sorted(p.name for p in out.iterdir()))
