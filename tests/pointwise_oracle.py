"""Scalar pointwise log-likelihood oracle for the tests.

``log_lik_point`` scores one short-format record through the family
functions directly, one record at a time, independently of the vectorized
kernel (``models.score_groups`` and ``models.group_log_scores``) that the
sampler's likelihood and the LOO matrices use.  ``log_interval_prob`` is
the interval-censored score built from two public ``log_survival`` calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from survcheck.data import (
    EVENT,
    INTERVAL_CENSORED,
    LEFT_CENSORED,
    RIGHT_CENSORED,
    SurvivalDataset,
)
from survcheck.models import (
    DENSITY,
    PROBABILITY,
    ModelError,
    cdf,
    log_density,
    log_survival,
)


def log_interval_prob(family: str, params, a, b) -> np.ndarray:
    """log(F(b) - F(a)) = log(S(a) - S(b)), stable for short intervals."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(a >= b):
        raise ModelError("interval bounds need a < b")
    ls_a = log_survival(family, params, a)
    ls_b = log_survival(family, params, b)
    with np.errstate(divide="ignore"):
        return ls_a + np.log(-np.expm1(np.minimum(ls_b - ls_a, 0.0)))


@dataclass(frozen=True)
class Record:
    subject_id: int
    entry_time: float
    time: float
    status: str
    bounds: tuple[float, float] | None
    covariates: dict[str, float]


def row(data: SurvivalDataset, i: int) -> Record:
    """Record ``i`` of a short-format dataset."""
    bounds = None
    if data.interval_bounds is not None and data.status[i] == INTERVAL_CENSORED:
        bounds = (float(data.interval_bounds[i, 0]), float(data.interval_bounds[i, 1]))
    return Record(
        subject_id=int(data.subject_id[i]),
        entry_time=float(data.entry_time[i]),
        time=float(data.time[i]),
        status=str(data.status[i]),
        bounds=bounds,
        covariates={k: float(v[i]) for k, v in data.covariates.items()},
    )


def log_lik_point(family: str, params, record: Record) -> tuple[float, str]:
    """Pointwise log score of one short-format record, with its tag.

    Events score the log density (tag ``density``); every censored record
    scores a log probability (tag ``probability``): survival beyond the
    censor time, CDF below it, or the CDF difference over the bounds.
    """
    if record.status == EVENT:
        return float(log_density(family, params, record.time)), DENSITY
    if record.status == RIGHT_CENSORED:
        return float(log_survival(family, params, record.time)), PROBABILITY
    if record.status == LEFT_CENSORED:
        with np.errstate(divide="ignore"):
            return float(np.log(cdf(family, params, record.time))), PROBABILITY
    if record.status == INTERVAL_CENSORED:
        if record.bounds is None:
            raise ModelError("interval-censored record without bounds")
        a, b = record.bounds
        return float(log_interval_prob(family, params, a, b)), PROBABILITY
    raise ModelError(f"unknown status {record.status!r}")
