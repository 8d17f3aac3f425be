"""Delayed entry and the Kaplan-Meier risk set.

A subject who enters the study late was never at risk before entering:
counting them in earlier risk sets inflates the denominators and
overestimates early survival.  This script shows the mistake and the fix
on a small cohort with staggered entry.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np

from survcheck import SurvivalDataset, bundle_to_svg, km_estimate

out = Path(__file__).parent / "output" / "03_km_left_truncation"
out.mkdir(parents=True, exist_ok=True)
rng = np.random.default_rng(11)

# half the subjects enter the study some time after the clock starts
n = 200
entries = np.where(rng.random(n) < 0.5, rng.uniform(0.5, 3.0, size=n), 0.0)
times = entries + rng.exponential(2.0, size=n)
data = SurvivalDataset(np.arange(1, n + 1), entries, times, ["event"] * n, {})

honored = km_estimate(data)
naive = km_estimate(replace(data, entry_time=np.zeros(n)))  # every entry at 0: ignored

print("survival estimates at early times (naive counts late entrants too soon):")
print(f"{'t':>5} {'honored':>9} {'naive':>7}")
for t in (0.5, 1.0, 1.5, 2.0, 3.0):
    print(f"{t:5.1f} {honored(t):9.3f} {naive(t):7.3f}")

series = [
    honored.to_series("entry honored", "observed"),
    naive.to_series("entry ignored", "predictive", hint_color="#d95f02"),
]
(out / "km_truncation.svg").write_text(bundle_to_svg(
    series, title="Delayed entry: honored vs ignored", xlabel="time", ylabel="S(t)"))
print("wrote", sorted(p.name for p in out.iterdir()))
