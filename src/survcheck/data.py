"""Survival data containers, validation, and long/short format transforms.

The short format holds one record per subject (entry time, event or censor
time, status, static covariates).  The long format holds one record per
subject-interval with a binary outcome and time-dependent covariates, which
is what the discrete-time Bernoulli hazard model consumes.

Time intervals are right-closed: a time falling exactly on a grid boundary
belongs to the earlier interval, so interval probabilities F(b) - F(a) stay
exhaustive.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Mapping
from dataclasses import dataclass, field, replace

import numpy as np

EVENT = "event"
RIGHT_CENSORED = "right_censored"
LEFT_CENSORED = "left_censored"
INTERVAL_CENSORED = "interval_censored"

STATUSES = (EVENT, RIGHT_CENSORED, LEFT_CENSORED, INTERVAL_CENSORED)

# compact status codes used in the CSV interface
_STATUS_TO_CSV = {
    EVENT: "event",
    RIGHT_CENSORED: "rcens",
    LEFT_CENSORED: "lcens",
    INTERVAL_CENSORED: "icens",
}
_CSV_TO_STATUS = {v: k for k, v in _STATUS_TO_CSV.items()}
_CSV_TO_STATUS.update({s: s for s in STATUSES})


class DataError(ValueError):
    """Malformed dataset or transform precondition failure."""


def _freeze(a):
    a = np.asarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SurvivalDataset:
    """Short-format survival data: one record per subject.

    Parameters
    ----------
    subject_id : int array (n,)
    entry_time : float array (n,), study entry (delayed entry / left truncation)
    time : float array (n,), event or censoring time
    status : str array (n,), one of ``STATUSES``
    covariates : mapping name -> float array (n,)
    interval_bounds : optional (n, 2) array, (a, b) for interval-censored rows
        and NaN elsewhere
    time_unit : optional label ("days", "years", ...) carried into scoring
        metadata so comparisons across time scales can be warned about
    """

    subject_id: np.ndarray
    entry_time: np.ndarray
    time: np.ndarray
    status: np.ndarray
    covariates: Mapping[str, np.ndarray] = field(default_factory=dict)
    interval_bounds: np.ndarray | None = None
    time_unit: str | None = None

    def __post_init__(self):
        sid = _freeze(np.asarray(self.subject_id, dtype=int))
        n = sid.shape[0]
        object.__setattr__(self, "subject_id", sid)
        for name in ("entry_time", "time"):
            a = _freeze(np.asarray(getattr(self, name), dtype=float))
            if a.shape != (n,):
                raise DataError(f"{name} must have shape ({n},), got {a.shape}")
            object.__setattr__(self, name, a)
        st = np.asarray(self.status, dtype=object)
        if st.shape != (n,):
            raise DataError(f"status must have shape ({n},), got {st.shape}")
        bad = [s for s in st if s not in STATUSES]
        if bad:
            raise DataError(f"unknown status values: {sorted(set(bad))}")
        object.__setattr__(self, "status", _freeze(st))
        cov = {k: _freeze(np.asarray(v, dtype=float)) for k, v in self.covariates.items()}
        for k, v in cov.items():
            if v.shape != (n,):
                raise DataError(f"covariate {k!r} must have shape ({n},), got {v.shape}")
        object.__setattr__(self, "covariates", cov)
        if self.interval_bounds is not None:
            ib = _freeze(np.asarray(self.interval_bounds, dtype=float))
            if ib.shape != (n, 2):
                raise DataError(f"interval_bounds must have shape ({n}, 2)")
            object.__setattr__(self, "interval_bounds", ib)

    @property
    def n(self) -> int:
        return self.subject_id.shape[0]

    @property
    def covariate_names(self) -> tuple[str, ...]:
        return tuple(self.covariates)

    def row(self, i: int):
        """One record as a plain namespace-like dict (used by log_lik_point)."""
        bounds = None
        if self.interval_bounds is not None and self.status[i] == INTERVAL_CENSORED:
            bounds = (float(self.interval_bounds[i, 0]), float(self.interval_bounds[i, 1]))
        return Record(
            subject_id=int(self.subject_id[i]),
            entry_time=float(self.entry_time[i]),
            time=float(self.time[i]),
            status=str(self.status[i]),
            bounds=bounds,
            covariates={k: float(v[i]) for k, v in self.covariates.items()},
        )

    def subset(self, mask) -> "SurvivalDataset":
        mask = np.asarray(mask)
        ib = self.interval_bounds[mask] if self.interval_bounds is not None else None
        return replace(
            self,
            subject_id=self.subject_id[mask],
            entry_time=self.entry_time[mask],
            time=self.time[mask],
            status=self.status[mask],
            covariates={k: v[mask] for k, v in self.covariates.items()},
            interval_bounds=ib,
        )

    def replace_times(self, time, status) -> "SurvivalDataset":
        """Copy with new times/statuses (used by imputation)."""
        return replace(self, time=time, status=status)


@dataclass(frozen=True)
class Record:
    subject_id: int
    entry_time: float
    time: float
    status: str
    bounds: tuple[float, float] | None
    covariates: dict[str, float]


@dataclass(frozen=True)
class LongDataset:
    """Long-format data: one record per subject-interval.

    ``covariates`` holds both static and time-dependent columns;
    ``static_names`` / ``td_names`` record which is which.
    """

    subject_id: np.ndarray
    interval_index: np.ndarray
    outcome: np.ndarray
    covariates: Mapping[str, np.ndarray] = field(default_factory=dict)
    static_names: tuple[str, ...] = ()
    td_names: tuple[str, ...] = ()
    time_unit: str | None = None

    def __post_init__(self):
        sid = _freeze(np.asarray(self.subject_id, dtype=int))
        n = sid.shape[0]
        object.__setattr__(self, "subject_id", sid)
        ii = _freeze(np.asarray(self.interval_index, dtype=int))
        out = _freeze(np.asarray(self.outcome, dtype=int))
        if ii.shape != (n,) or out.shape != (n,):
            raise DataError("interval_index and outcome must match subject_id length")
        object.__setattr__(self, "interval_index", ii)
        object.__setattr__(self, "outcome", out)
        cov = {k: _freeze(np.asarray(v, dtype=float)) for k, v in self.covariates.items()}
        for k, v in cov.items():
            if v.shape != (n,):
                raise DataError(f"covariate {k!r} must have shape ({n},)")
        object.__setattr__(self, "covariates", cov)
        object.__setattr__(self, "static_names", tuple(self.static_names))
        object.__setattr__(self, "td_names", tuple(self.td_names))

    @property
    def n_rows(self) -> int:
        return self.subject_id.shape[0]

    @property
    def subject_ids(self) -> np.ndarray:
        """Distinct subjects in first-appearance order."""
        _, idx = np.unique(self.subject_id, return_index=True)
        return self.subject_id[np.sort(idx)]

    def subset(self, mask) -> "LongDataset":
        mask = np.asarray(mask)
        return replace(
            self,
            subject_id=self.subject_id[mask],
            interval_index=self.interval_index[mask],
            outcome=self.outcome[mask],
            covariates={k: v[mask] for k, v in self.covariates.items()},
        )


@dataclass(frozen=True)
class DrawsMatrix:
    """S posterior draws x P parameters, with parameter names."""

    draws: np.ndarray
    parameter_names: tuple[str, ...]
    chain_ids: np.ndarray | None = None

    def __post_init__(self):
        d = _freeze(np.asarray(self.draws, dtype=float))
        if d.ndim != 2 or d.shape[0] < 1:
            raise DataError("draws must be a (S >= 1, P) matrix")
        if not np.all(np.isfinite(d)):
            raise DataError("draws must be finite")
        names = tuple(self.parameter_names)
        if len(names) != d.shape[1]:
            raise DataError("parameter_names length must match draws columns")
        if len(set(names)) != len(names):
            raise DataError("parameter_names must be unique")
        object.__setattr__(self, "draws", d)
        object.__setattr__(self, "parameter_names", names)
        if self.chain_ids is not None:
            c = _freeze(np.asarray(self.chain_ids, dtype=int))
            if c.shape != (d.shape[0],):
                raise DataError("chain_ids must have one entry per draw")
            object.__setattr__(self, "chain_ids", c)

    @property
    def n_draws(self) -> int:
        return self.draws.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.draws[:, self.parameter_names.index(name)]

    def with_column(self, name: str, values) -> "DrawsMatrix":
        """Copy with one parameter column replaced."""
        j = self.parameter_names.index(name)
        d = self.draws.copy()
        d[:, j] = values
        return DrawsMatrix(d, self.parameter_names, self.chain_ids)


@dataclass(frozen=True)
class TimeGrid:
    """Regular discretization grid with right-closed intervals (a, b]."""

    interval_length: float
    n_intervals: int
    origin: float = 0.0

    # relative snap tolerance: times this close to a boundary count as on it
    _SNAP = 1e-9

    def __post_init__(self):
        if self.interval_length <= 0:
            raise DataError("interval_length must be positive")
        if self.n_intervals < 1:
            raise DataError("n_intervals must be positive")

    @property
    def boundaries(self) -> np.ndarray:
        return self.origin + self.interval_length * np.arange(self.n_intervals + 1)

    def covers(self, t) -> bool:
        tmax = self.origin + self.interval_length * self.n_intervals
        return bool(np.all(np.asarray(t) <= tmax * (1 + self._SNAP) + self._SNAP))

    def interval_of(self, t):
        """1-based index of the right-closed interval containing t."""
        r = (np.asarray(t, dtype=float) - self.origin) / self.interval_length
        k = np.ceil(r - self._SNAP).astype(int)
        if np.any(k < 1) or np.any(k > self.n_intervals):
            raise DataError("time outside grid")
        return k if np.ndim(t) else int(k)

    def bounds(self, k):
        """(a, b) bounds of interval k (1-based)."""
        k = np.asarray(k)
        a = self.origin + self.interval_length * (k - 1)
        return a, a + self.interval_length

    def scaled(self, c: float) -> "TimeGrid":
        return TimeGrid(self.interval_length / c, self.n_intervals, self.origin / c)


# ---------------------------------------------------------------------------
# validation


def validate_dataset(data: SurvivalDataset) -> list[str]:
    """Check semantic invariants; returns a list of violation messages.

    An empty list means the dataset is valid.  This never raises: it exists
    so that malformed inputs can be reported in full rather than rejected at
    the first problem.
    """
    report = []
    bad = np.nonzero(~(data.entry_time < data.time))[0]
    for i in bad:
        report.append(
            f"subject {data.subject_id[i]}: entry_time < time violated "
            f"({data.entry_time[i]} >= {data.time[i]})"
        )
    ids, counts = np.unique(data.subject_id, return_counts=True)
    for sid in ids[counts > 1]:
        report.append(f"duplicate subject_id {sid}")
    if np.any(data.time <= 0):
        for i in np.nonzero(data.time <= 0)[0]:
            report.append(f"subject {data.subject_id[i]}: time must be positive")
    if np.any(data.entry_time < 0):
        for i in np.nonzero(data.entry_time < 0)[0]:
            report.append(f"subject {data.subject_id[i]}: entry_time must be non-negative")
    for name, col in data.covariates.items():
        if not np.all(np.isfinite(col)):
            for i in np.nonzero(~np.isfinite(col))[0]:
                report.append(f"subject {data.subject_id[i]}: covariate {name!r} not finite")
    is_icens = data.status == INTERVAL_CENSORED
    if data.interval_bounds is None:
        for i in np.nonzero(is_icens)[0]:
            report.append(f"subject {data.subject_id[i]}: interval-censored without bounds")
    else:
        has_bounds = np.all(np.isfinite(data.interval_bounds), axis=1)
        for i in np.nonzero(is_icens & ~has_bounds)[0]:
            report.append(f"subject {data.subject_id[i]}: interval-censored without bounds")
        for i in np.nonzero(~is_icens & has_bounds)[0]:
            report.append(f"subject {data.subject_id[i]}: bounds present but status is not icens")
        ok = is_icens & has_bounds
        bad_order = ok & ~(data.interval_bounds[:, 0] < data.interval_bounds[:, 1])
        for i in np.nonzero(bad_order)[0]:
            report.append(f"subject {data.subject_id[i]}: interval bounds need a < b")
    return report


def _long_groups(long: LongDataset):
    """Row order grouped by subject (interval ascending) and group starts."""
    order = np.lexsort((long.interval_index, long.subject_id))
    sid = long.subject_id[order]
    starts = np.concatenate([[0], np.nonzero(np.diff(sid))[0] + 1])
    return order, starts


def validate_long(long: LongDataset) -> list[str]:
    """Check long-format invariants: contiguous 1..K intervals, outcome placement."""
    if long.n_rows == 0:
        return []
    report = []
    order, starts = _long_groups(long)
    sid = long.subject_id[order]
    idx = long.interval_index[order]
    out = long.outcome[order]
    lengths = np.diff(np.concatenate([starts, [long.n_rows]]))
    expected = np.arange(long.n_rows) - np.repeat(starts, lengths) + 1
    bad_contig = idx != expected
    is_last = np.zeros(long.n_rows, dtype=bool)
    is_last[starts + lengths - 1] = True
    bad_outcome = (out == 1) & ~is_last
    for s in np.unique(sid[bad_contig]):
        report.append(f"subject {s}: interval_index not contiguous 1..K")
    for s in np.unique(sid[bad_outcome & ~np.isin(sid, sid[bad_contig])]):
        report.append(f"subject {s}: outcome=1 before the final interval")
    return report


# ---------------------------------------------------------------------------
# transforms


@dataclass(frozen=True)
class TreatmentRule:
    """Declarative time-dependent covariate rule for treatment episodes.

    A subject on treatment for ``duration`` leading intervals gets
    ``on_name`` = 1 while the interval index is <= duration, and
    ``since_name`` = max(0, interval_index - duration).  The interval index
    itself is emitted under ``time_name``.  ``duration`` may be a scalar
    gated on a binary covariate (``treated_covariate``), or an explicit
    mapping subject_id -> duration.
    """

    duration: float | Mapping[int, float] = 3.0
    treated_covariate: str | None = "AdjTreatm"
    on_name: str = "AdjOn"
    since_name: str = "TimeSinceAdjStopped"
    time_name: str = "Time"

    def duration_for(self, sid, statics: Mapping[str, np.ndarray]) -> np.ndarray:
        """Treatment duration of each subject, broadcastable to the (n,) ids.

        A mapping is looked up by subject id (absent ids, and a missing
        ``sid``, get 0); a scalar applies to every subject, or only to
        those whose ``treated_covariate`` is nonzero.
        """
        if isinstance(self.duration, Mapping):
            return np.array([self.duration.get(s, 0.0) for s in np.atleast_1d(sid).tolist()],
                            dtype=float)
        if self.treated_covariate is None:
            return np.asarray(float(self.duration))
        treated = np.asarray(statics.get(self.treated_covariate, 0.0))
        return np.where(treated != 0, float(self.duration), 0.0)

    def rows(self, statics: Mapping[str, np.ndarray], n_intervals,
             sid=None) -> dict[str, np.ndarray]:
        """Covariate columns of n subjects' long-format rows 1..n_intervals.

        ``statics`` maps names to (n,) arrays (scalars make one subject),
        ``n_intervals`` is a scalar or one count per subject and ``sid`` the
        optional (n,) subject ids.  Rows are ordered by subject, then by
        interval: the static covariates are repeated on each of a subject's
        rows, followed by the time, on-treatment and time-since-stopped
        columns.
        """
        statics = {name: np.atleast_1d(np.asarray(v, dtype=float)) for name, v in statics.items()}
        (n,) = np.broadcast_shapes((1,), np.shape(n_intervals), np.shape(sid),
                                   *(v.shape for v in statics.values()))
        counts = np.broadcast_to(np.asarray(n_intervals, dtype=int), (n,))
        starts = np.cumsum(counts) - counts
        k = (np.arange(counts.sum()) - np.repeat(starts, counts) + 1).astype(float)
        dur = np.repeat(np.broadcast_to(self.duration_for(sid, statics), (n,)), counts)
        return {**{name: np.repeat(np.broadcast_to(v, (n,)), counts)
                   for name, v in statics.items()},
                self.time_name: k, self.on_name: (k <= dur).astype(float),
                self.since_name: np.maximum(0.0, k - dur)}


def expand_long(
    data: SurvivalDataset,
    grid: TimeGrid,
    td_rules: TreatmentRule | None = None,
) -> LongDataset:
    """Expand short-format data to one row per subject-interval.

    Each subject contributes rows for intervals 1..K where K is the interval
    containing its event or censoring time; the final row has outcome 1 iff
    the subject had the event.  Intervals after the event or censoring are
    excluded.  Only event and right-censored records are supported.
    """
    problems = validate_dataset(data)
    if problems:
        raise DataError("invalid dataset: " + "; ".join(problems))
    if not set(data.status) <= {EVENT, RIGHT_CENSORED}:
        raise DataError("long format supports event and right-censored records only")
    if not grid.covers(data.time):
        raise DataError("grid does not cover the largest observed time")
    rules = td_rules if td_rules is not None else TreatmentRule()

    k_last = grid.interval_of(data.time)
    covariates = rules.rows(data.covariates, k_last, data.subject_id)
    interval_index = covariates[rules.time_name].astype(int)
    is_event = np.repeat(data.status == EVENT, k_last)
    return LongDataset(
        subject_id=np.repeat(data.subject_id, k_last),
        interval_index=interval_index,
        outcome=((interval_index == np.repeat(k_last, k_last)) & is_event).astype(int),
        covariates=covariates,
        static_names=tuple(data.covariates),
        td_names=(rules.time_name, rules.on_name, rules.since_name),
        time_unit=data.time_unit,
    )


def to_short_form(
    long: LongDataset,
    treatment_name: str = "AdjTreatm",
    on_name: str = "AdjOn",
) -> SurvivalDataset:
    """Collapse long-format data to one record per subject.

    The event/censor time is the last interval index; the subject is an
    event iff the final outcome is 1.  Treatment receipt is summarized as a
    single binary covariate (any interval with ``on_name`` active).
    """
    problems = validate_long(long)
    if problems:
        raise DataError("invalid long dataset: " + "; ".join(problems))
    order, starts = _long_groups(long)
    lengths = np.diff(np.concatenate([starts, [long.n_rows]]))
    lasts = order[starts + lengths - 1]
    firsts = order[starts]
    group_sids = long.subject_id[firsts]
    time = long.interval_index[lasts].astype(float)
    status = np.where(long.outcome[lasts] == 1, EVENT, RIGHT_CENSORED).astype(object)
    covs = {name: long.covariates[name][firsts].copy() for name in long.static_names}
    if on_name in long.covariates:
        active = long.covariates[on_name][order] != 0
        covs[treatment_name] = np.array(
            [1.0 if active[s : s + w].any() else 0.0 for s, w in zip(starts, lengths)]
        )
    # back to first-appearance order
    _, first_pos = np.unique(long.subject_id, return_index=True)
    appearance = long.subject_id[np.sort(first_pos)]
    pos = {s: j for j, s in enumerate(group_sids)}
    take = np.array([pos[s] for s in appearance])
    return SurvivalDataset(
        subject_id=appearance,
        entry_time=np.zeros(len(appearance)),
        time=time[take],
        status=status[take],
        covariates={k: v[take] for k, v in covs.items()},
        time_unit=long.time_unit,
    )


def rescale_time(data: SurvivalDataset, c: float, time_unit: str | None = None) -> SurvivalDataset:
    """Divide all times (entry, event/censor, interval bounds) by c > 0."""
    if not c > 0:
        raise DataError("rescale factor must be positive")
    ib = data.interval_bounds / c if data.interval_bounds is not None else None
    return replace(data, entry_time=data.entry_time / c, time=data.time / c,
                   interval_bounds=ib,
                   time_unit=time_unit if time_unit is not None else data.time_unit)


@dataclass(frozen=True)
class ScalingRecord:
    """Per-covariate (mean, sd) used by scale_covariates, for inverse/apply."""

    stats: Mapping[str, tuple[float, float]]
    target_sd: float = 0.5

    def apply(self, covariates: Mapping[str, float | np.ndarray]) -> dict:
        """Scale a covariate dict (e.g. a new patient) with the stored stats."""
        out = {}
        for name, value in covariates.items():
            if name in self.stats:
                mean, sd = self.stats[name]
                out[name] = (np.asarray(value, dtype=float) - mean) / sd * self.target_sd
            else:
                out[name] = np.asarray(value, dtype=float)
        return out

    def invert(self, name: str, scaled) -> np.ndarray:
        mean, sd = self.stats[name]
        return np.asarray(scaled) / self.target_sd * sd + mean


def apply_scaling(data, record: ScalingRecord):
    """Apply a stored scaling record to a short- or long-format dataset."""
    return replace(data, covariates=record.apply(data.covariates))


def scale_covariates(
    data: SurvivalDataset, names, target_sd: float = 0.5
) -> tuple[SurvivalDataset, ScalingRecord]:
    """Rescale the named covariates to sample mean 0 and sd ``target_sd``.

    Returns the transformed dataset and a ScalingRecord carrying the
    original (mean, sd) per covariate so new inputs can be mapped the same
    way and fits can be interpreted on the original scale.
    """
    stats = {}
    covs = dict(data.covariates)
    for name in names:
        if name not in covs:
            raise DataError(f"unknown covariate {name!r}")
        x = covs[name]
        mean = float(np.mean(x))
        sd = float(np.std(x, ddof=1))
        if sd == 0 or not np.isfinite(sd):
            raise DataError(f"covariate {name!r} has zero variance")
        stats[name] = (mean, sd)
        covs[name] = (x - mean) / sd * target_sd
    return replace(data, covariates=covs), ScalingRecord(stats, target_sd=target_sd)


# ---------------------------------------------------------------------------
# CSV interface
#
# Short format: subject_id, entry_time, time, status, <covariates...>
#   with status in {event, rcens, lcens, icens}; interval-censored rows use
#   the optional interval_lower / interval_upper columns.
# Long format: subject_id, interval_index, event, <covariates...>.
# Draws: header of parameter names, one row per draw, optional chain column.
# A header row is required everywhere; column roles are remapped via the
# ``columns`` argument, never by position.

_SHORT_ROLES = ("subject_id", "entry_time", "time", "status")
_RESERVED_SHORT = set(_SHORT_ROLES) | {"interval_lower", "interval_upper"}


def read_short_csv(path_or_buf, columns: Mapping[str, str] | None = None,
                   time_unit: str | None = None) -> SurvivalDataset:
    """Read a short-format CSV.  ``columns`` remaps role -> column name."""
    colmap = {r: r for r in _SHORT_ROLES}
    colmap.update(columns or {})
    rows = _read_rows(path_or_buf)
    header = rows[0]
    for role in ("subject_id", "time", "status"):
        if colmap[role] not in header:
            raise DataError(f"missing required column {colmap[role]!r}")
    idx = {name: header.index(name) for name in header}
    body = rows[1:]

    def col(name, default=None):
        if name not in idx:
            return [default] * len(body)
        return [r[idx[name]] for r in body]

    status = []
    for s in col(colmap["status"]):
        key = s.strip()
        if key not in _CSV_TO_STATUS:
            raise DataError(f"unknown status code {key!r}")
        status.append(_CSV_TO_STATUS[key])
    mapped = set(colmap.values()) | {"interval_lower", "interval_upper"}
    cov_names = [h for h in header if h not in mapped]
    bounds = None
    if "interval_lower" in idx or "interval_upper" in idx:
        lo = [float(v) if v not in ("", None) else np.nan for v in col("interval_lower", "")]
        hi = [float(v) if v not in ("", None) else np.nan for v in col("interval_upper", "")]
        bounds = np.column_stack([lo, hi])
    return SurvivalDataset(
        subject_id=[int(float(v)) for v in col(colmap["subject_id"])],
        entry_time=[float(v) if v not in ("", None) else 0.0 for v in col(colmap["entry_time"], "")],
        time=[float(v) for v in col(colmap["time"])],
        status=status,
        covariates={name: [float(v) for v in col(name)] for name in cov_names},
        interval_bounds=bounds,
        time_unit=time_unit,
    )


def write_short_csv(data: SurvivalDataset, path) -> None:
    header = list(_SHORT_ROLES)
    has_bounds = data.interval_bounds is not None
    if has_bounds:
        header += ["interval_lower", "interval_upper"]
    header += list(data.covariates)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i in range(data.n):
            row = [
                int(data.subject_id[i]),
                _fmt(data.entry_time[i]),
                _fmt(data.time[i]),
                _STATUS_TO_CSV[data.status[i]],
            ]
            if has_bounds:
                a, b = data.interval_bounds[i]
                row += ["" if np.isnan(a) else _fmt(a), "" if np.isnan(b) else _fmt(b)]
            row += [_fmt(data.covariates[name][i]) for name in data.covariates]
            w.writerow(row)


def read_long_csv(path_or_buf, columns: Mapping[str, str] | None = None,
                  time_unit: str | None = None) -> LongDataset:
    colmap = {"subject_id": "subject_id", "interval_index": "interval_index", "event": "event"}
    colmap.update(columns or {})
    rows = _read_rows(path_or_buf)
    header = rows[0]
    for role, name in colmap.items():
        if name not in header:
            raise DataError(f"missing required column {name!r}")
    idx = {name: header.index(name) for name in header}
    body = rows[1:]
    cov_names = [h for h in header if h not in set(colmap.values())]
    covariates = {n: np.array([float(r[idx[n]]) for r in body]) for n in cov_names}
    subject_id = np.array([int(float(r[idx[colmap["subject_id"]]])) for r in body])
    long = LongDataset(
        subject_id=subject_id,
        interval_index=[int(float(r[idx[colmap["interval_index"]]])) for r in body],
        outcome=[int(float(r[idx[colmap["event"]]])) for r in body],
        covariates=covariates,
        static_names=_infer_static(subject_id, covariates),
        td_names=(),
        time_unit=time_unit,
    )
    td = tuple(n for n in cov_names if n not in long.static_names)
    object.__setattr__(long, "td_names", td)
    return long


def _infer_static(subject_id, covariates) -> tuple[str, ...]:
    static = []
    for name, col in covariates.items():
        ok = True
        for sid in np.unique(subject_id):
            vals = col[subject_id == sid]
            if not np.all(vals == vals[0]):
                ok = False
                break
        if ok:
            static.append(name)
    return tuple(static)


def write_long_csv(long: LongDataset, path) -> None:
    header = ["subject_id", "interval_index", "event"] + list(long.covariates)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i in range(long.n_rows):
            w.writerow(
                [int(long.subject_id[i]), int(long.interval_index[i]), int(long.outcome[i])]
                + [_fmt(long.covariates[n][i]) for n in long.covariates]
            )


def read_draws_csv(path_or_buf) -> DrawsMatrix:
    rows = _read_rows(path_or_buf)
    header = rows[0]
    chain_idx = header.index("chain") if "chain" in header else None
    names = [h for h in header if h != "chain"]
    cols = [j for j, h in enumerate(header) if h != "chain"]
    draws = np.array([[float(r[j]) for j in cols] for r in rows[1:]])
    chains = None
    if chain_idx is not None:
        chains = np.array([int(float(r[chain_idx])) for r in rows[1:]])
    return DrawsMatrix(draws, names, chains)


def write_draws_csv(draws: DrawsMatrix, path) -> None:
    header = list(draws.parameter_names)
    if draws.chain_ids is not None:
        header = ["chain"] + header
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i in range(draws.n_draws):
            row = [repr(float(v)) for v in draws.draws[i]]
            if draws.chain_ids is not None:
                row = [int(draws.chain_ids[i])] + row
            w.writerow(row)


def _read_rows(path_or_buf) -> list[list[str]]:
    if isinstance(path_or_buf, io.TextIOBase):
        rows = list(csv.reader(path_or_buf))
    else:
        with open(path_or_buf, newline="") as fh:
            rows = list(csv.reader(fh))
    rows = [r for r in rows if r]
    if not rows:
        raise DataError("empty CSV (header row required)")
    return rows


def _fmt(x: float) -> str:
    # repr round-trips float64 exactly and keeps integers short
    x = float(x)
    return repr(int(x)) if x.is_integer() and abs(x) < 1e15 else repr(x)
