"""Loop forms of three predictive-check primitives, the reference for the tests.

``km_estimate`` walks the distinct event times, counting each risk set
afresh; ``simulate_pit_ecdfs`` sorts each replicate's PIT values and
searches the grid in them; ``empirical_ccdf`` counts one sample's distinct
values with ``np.unique``.  ``checks.km_estimate`` (a cumulative product
over sorted searches), ``checks.simulate_pit_ecdfs`` (one histogram and
cumulative sum for a block of replicates) and ``checks.empirical_ccdf``
(every sample sorted at once) must match them bit for bit.
"""

from __future__ import annotations

import numpy as np

from survcheck.checks import StepFunction
from survcheck.data import EVENT


def km_estimate(data) -> StepFunction:
    """Product-limit estimate; a subject is at risk at t when entry < t <= time."""
    is_event = data.status == EVENT
    event_times = np.unique(data.time[is_event])
    surv = 1.0
    values = np.empty(event_times.size)
    for j, t in enumerate(event_times):
        at_risk = (data.time >= t) & (data.entry_time < t)
        n_i = int(np.count_nonzero(at_risk))
        d_i = int(np.count_nonzero(is_event & (data.time == t)))
        if n_i > 0:
            surv *= 1.0 - d_i / n_i
        values[j] = surv
    return StepFunction(event_times, values)


def simulate_pit_ecdfs(n: int, n_draws: int, n_sim: int, rng) -> np.ndarray:
    """ECDFs on the grid {1/n, ..., 1} of n_sim replicates of n PIT values
    uniform on the lattice {0, 1/S, ..., 1}."""
    grid = np.arange(1, n + 1) / n
    sims = np.empty((n_sim, n))
    for r in range(n_sim):
        pit = np.sort(rng.integers(0, n_draws + 1, size=n) / n_draws)
        sims[r] = np.searchsorted(pit, grid, side="right") / n
    return sims


def empirical_ccdf(times) -> StepFunction:
    """1 - empirical CDF of one sample, stepping at its distinct values."""
    times = np.sort(np.asarray(times, dtype=float))
    uniq, counts = np.unique(times, return_counts=True)
    return StepFunction(uniq, 1.0 - np.cumsum(counts) / times.size)
