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
import functools
import io
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace

import numpy as np

EVENT = "event"
RIGHT_CENSORED = "right_censored"
LEFT_CENSORED = "left_censored"
INTERVAL_CENSORED = "interval_censored"

STATUSES = (EVENT, RIGHT_CENSORED, LEFT_CENSORED, INTERVAL_CENSORED)

# the treatment indicator of the short form; the long form's treatment-rule columns
TREATMENT_NAME = "AdjTreatm"
TIME_NAME = "Time"
ON_NAME = "AdjOn"
SINCE_NAME = "TimeSinceAdjStopped"

# scale_covariates maps each named covariate to this sample sd
SCALED_SD = 0.5

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


def settings(cls, d, error, **build):
    """Dataclass ``cls`` from the JSON object ``d``, ``build`` giving each field's
    builder.  A non-object, unknown key or plain Type/ValueError (a missing key,
    a wrong type) raises ``error``; the package's own errors pass unchanged."""
    name, key, kwargs = cls.__name__, None, {}
    if not isinstance(d, dict):
        raise error(f"{name} settings must be a JSON object, got {type(d).__name__}")
    known = [f.name for f in fields(cls)]
    unknown = sorted(set(d) - set(known))
    if unknown:
        raise error(f"unknown {name} settings {unknown}; known: {known}")
    try:
        for key, value in d.items():
            kwargs[key] = build[key](value) if key in build else value
        key = None
        return cls(**kwargs)
    except (AttributeError, TypeError, ValueError) as err:
        if type(err) not in (AttributeError, TypeError, ValueError):
            raise
        raise error(f"bad {name} setting{'s' if key is None else f' {key!r}'}: {err}") from None


def require_counts(obj, error, positive, non_negative=()):
    """Raise ``error`` unless the named fields of ``obj`` are integers, at
    least 1 for those in ``positive`` and at least 0 for ``non_negative``."""
    for name in (*positive, *non_negative):
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise error(f"{name} must be an integer, got {value!r}")
        if value < 1 and name in positive:
            raise error(f"{name} must be positive, got {value!r}")
        if value < 0:
            raise error(f"{name} must be non-negative, got {value!r}")


def _freeze(a):
    a = np.asarray(a)
    a.setflags(write=False)
    return a


def _whole_numbers(values, name: str) -> np.ndarray:
    """``values`` as an int array; a float that is not a whole number in 64
    bits, which the cast would truncate or wrap, is a DataError naming it."""
    a = np.asarray(values)
    if a.dtype.kind == "f":
        whole = np.isfinite(a) & (np.trunc(a) == a) & (np.abs(a) < 2.0**63)
        if not whole.all():
            raise DataError(f"{name} must hold whole numbers, got {a[~whole][0].item()!r}")
    return np.asarray(a, dtype=int)


def _columns(covariates, n: int) -> dict[str, np.ndarray]:
    """The covariate columns frozen as float arrays, each of shape (n,)."""
    cov = {k: _freeze(np.asarray(v, dtype=float)) for k, v in covariates.items()}
    for k, v in cov.items():
        if v.shape != (n,):
            raise DataError(f"covariate {k!r} must have shape ({n},), got {v.shape}")
    return cov


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
        sid = _freeze(_whole_numbers(self.subject_id, "subject_id"))
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
        object.__setattr__(self, "covariates", _columns(self.covariates, n))
        if self.interval_bounds is not None:
            ib = _freeze(np.asarray(self.interval_bounds, dtype=float))
            if ib.shape != (n, 2):
                raise DataError(f"interval_bounds must have shape ({n}, 2)")
            object.__setattr__(self, "interval_bounds", ib)

    @property
    def n(self) -> int:
        return self.subject_id.shape[0]

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


@dataclass(frozen=True)
class LongDataset:
    """Long-format data: one record per subject-interval.

    ``covariates`` holds both static and time-dependent columns;
    ``static_names`` records which are static.
    """

    subject_id: np.ndarray
    interval_index: np.ndarray
    outcome: np.ndarray
    covariates: Mapping[str, np.ndarray] = field(default_factory=dict)
    static_names: tuple[str, ...] = ()
    time_unit: str | None = None

    def __post_init__(self):
        sid = _freeze(_whole_numbers(self.subject_id, "subject_id"))
        n = sid.shape[0]
        object.__setattr__(self, "subject_id", sid)
        ii = _freeze(_whole_numbers(self.interval_index, "interval_index"))
        out = _freeze(_whole_numbers(self.outcome, "outcome"))
        if ii.shape != (n,) or out.shape != (n,):
            raise DataError("interval_index and outcome must match subject_id length")
        object.__setattr__(self, "interval_index", ii)
        object.__setattr__(self, "outcome", out)
        object.__setattr__(self, "covariates", _columns(self.covariates, n))
        object.__setattr__(self, "static_names", tuple(self.static_names))

    @property
    def n_rows(self) -> int:
        return self.subject_id.shape[0]

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
            c = _freeze(_whole_numbers(self.chain_ids, "chain_ids"))
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

    # relative snap tolerance: times this close to a boundary count as on it
    _SNAP = 1e-9

    def __post_init__(self):
        if not (np.isfinite(self.interval_length) and self.interval_length > 0):
            raise DataError(f"interval_length must be finite and positive, "
                            f"got {self.interval_length!r}")
        require_counts(self, DataError, ("n_intervals",))

    def covers(self, t) -> bool:
        tmax = self.interval_length * self.n_intervals
        return bool(np.all(np.asarray(t) <= tmax * (1 + self._SNAP) + self._SNAP))

    def interval_of(self, t):
        """1-based index of the right-closed interval containing t."""
        r = np.asarray(t, dtype=float) / self.interval_length
        k = np.ceil(r - self._SNAP).astype(int)
        if np.any(k < 1) or np.any(k > self.n_intervals):
            raise DataError("time outside grid")
        return k if np.ndim(t) else int(k)

    def bounds(self, k):
        """(a, b) bounds of interval k (1-based)."""
        k = np.asarray(k)
        if np.any(k < 1) or np.any(k > self.n_intervals):
            raise DataError(f"interval {k} outside the grid's 1..{self.n_intervals}")
        a = self.interval_length * (k - 1)
        return a, a + self.interval_length

    def scaled(self, c: float) -> "TimeGrid":
        return TimeGrid(self.interval_length / c, self.n_intervals)


# ---------------------------------------------------------------------------
# validation


def validate_dataset(data: SurvivalDataset) -> list[str]:
    """Check semantic invariants; returns a list of violation messages.

    An empty list means the dataset is valid.  This never raises: it exists
    so that malformed inputs can be reported in full rather than rejected at
    the first problem.
    """
    report = []

    def each(mask, problem):
        """One message per row of ``mask``: ``problem``, or ``problem(i)`` of row i."""
        for i in np.flatnonzero(mask):
            report.append(f"subject {data.subject_id[i]}: "
                          f"{problem(i) if callable(problem) else problem}")

    each(~(data.entry_time < data.time),
         lambda i: f"entry_time < time violated ({data.entry_time[i]} >= {data.time[i]})")
    ids, counts = np.unique(data.subject_id, return_counts=True)
    report += [f"duplicate subject_id {sid}" for sid in ids[counts > 1]]
    each(data.time <= 0, "time must be positive")
    each(data.entry_time < 0, "entry_time must be non-negative")
    for name, col in data.covariates.items():
        each(~np.isfinite(col), f"covariate {name!r} not finite")
    is_icens = data.status == INTERVAL_CENSORED
    bounds = (np.full((data.n, 2), np.nan) if data.interval_bounds is None
              else data.interval_bounds)
    has_bounds = np.all(np.isfinite(bounds), axis=1)
    each(is_icens & ~has_bounds, "interval-censored without bounds")
    each(~is_icens & has_bounds, "bounds present but status is not icens")
    each(is_icens & has_bounds & ~(bounds[:, 0] < bounds[:, 1]), "interval bounds need a < b")
    return report


def require_valid(data, name: str | None = None) -> None:
    """Raise one DataError listing every problem ``validate_dataset`` (short
    format) or ``validate_long`` finds; ``name`` labels the data."""
    long = isinstance(data, LongDataset)
    _refuse(validate_long(data) if long else validate_dataset(data),
            name or ("long dataset" if long else "dataset"))


def _refuse(problems: list[str], label: str) -> None:
    if problems:
        raise DataError(f"invalid {label}: " + "; ".join(problems))


def _by_subject(subject_id, within=None):
    """(rank, order, starts) of long-format rows: each row's subject number,
    subjects numbered by first appearance; the rows grouped by subject, in
    ``within`` order inside a subject (row order when None; the sort is
    stable); and each subject's first position in ``order``."""
    _, first, inverse = np.unique(subject_id, return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first))[inverse]
    order = np.lexsort((rank,) if within is None else (within, rank))
    counts = np.bincount(rank, minlength=first.size)
    return rank, order, np.cumsum(counts) - counts


def validate_long(long: LongDataset) -> list[str]:
    """Check long-format invariants: 0/1 outcomes, contiguous 1..K intervals,
    outcome placement."""
    return _long_report(long, *_by_subject(long.subject_id, long.interval_index)[1:])


def _long_report(long: LongDataset, order, starts) -> list[str]:
    """``validate_long``'s messages, from the rows grouped by subject."""
    report = []
    sid = long.subject_id[order]
    idx = long.interval_index[order]
    out = long.outcome[order]
    lengths = np.diff(np.append(starts, long.n_rows))
    expected = np.arange(long.n_rows) - np.repeat(starts, lengths) + 1
    bad_contig = idx != expected
    is_last = np.zeros(long.n_rows, dtype=bool)
    is_last[starts + lengths - 1] = True
    bad_outcome = (out == 1) & ~is_last
    bad = np.flatnonzero((out != 0) & (out != 1))
    for i in bad[np.argsort(sid[bad], kind="stable")]:  # by subject id, then interval
        report.append(f"subject {sid[i]}: outcome must be 0 or 1, got {out[i]}")
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

    A subject whose ``TREATMENT_NAME`` covariate is nonzero is on treatment
    for ``duration`` leading intervals (an untreated one for none): it gets
    ``ON_NAME`` = 1 while the interval index is <= duration, and
    ``SINCE_NAME`` = max(0, interval_index - duration).  The interval index
    itself is emitted under ``TIME_NAME``.  The duration is a whole number
    of intervals, >= 0: rows made under any other could not be read back
    as one duration (``of``), so it is a DataError.
    """

    duration: float = 3.0

    def __post_init__(self):
        if not (self.duration >= 0 and float(self.duration).is_integer()):
            raise DataError("treatment duration must be a whole number of intervals >= 0, "
                            f"got {self.duration!r}")

    @classmethod
    def of(cls, long: LongDataset) -> "TreatmentRule":
        """The rule ``long``'s rows show (``_treatment_shown``): the one duration
        shown, the default if several are, and with none the longest
        treatment if the default's duration is shorter, else the default.
        One duration shown that is not a whole number is a DataError."""
        shown, longest = _treatment_shown(long)
        if shown.size == 1:
            return cls(float(shown[0]))
        return cls() if shown.size or longest <= cls().duration else cls(float(longest))

    def rows(self, statics: Mapping[str, np.ndarray], n_intervals) -> dict[str, np.ndarray]:
        """Covariate columns of n subjects' long-format rows 1..n_intervals.

        ``statics`` maps names to (n,) arrays (scalars make one subject) and
        ``n_intervals`` is a scalar or one count per subject.  Rows are
        ordered by subject, then by interval: the static covariates are
        repeated on each of a subject's rows, followed by the time,
        on-treatment and time-since-stopped columns.
        """
        statics = {name: np.atleast_1d(np.asarray(v, dtype=float)) for name, v in statics.items()}
        (n,) = np.broadcast_shapes((1,), np.shape(n_intervals),
                                   *(v.shape for v in statics.values()))
        counts = np.broadcast_to(np.asarray(n_intervals, dtype=int), (n,))
        starts = np.cumsum(counts) - counts
        k = (np.arange(counts.sum()) - np.repeat(starts, counts) + 1).astype(float)
        treated = np.broadcast_to(statics.get(TREATMENT_NAME, 0.0), (n,)) != 0
        dur = np.repeat(np.where(treated, float(self.duration), 0.0), counts)
        return {**{name: np.repeat(np.broadcast_to(v, (n,)), counts)
                   for name, v in statics.items()},
                TIME_NAME: k, ON_NAME: (k <= dur).astype(float),
                SINCE_NAME: np.maximum(0.0, k - dur)}


def _treatment_shown(long: LongDataset) -> tuple[np.ndarray, float]:
    """The durations ``long``'s rows show, interval_index - ``SINCE_NAME`` where
    0 < ``SINCE_NAME`` < interval_index, and their longest treatment: the last
    interval with ``ON_NAME`` nonzero, or 0 (a missing column reads as zeros)."""
    k, zeros = long.interval_index.astype(float), np.zeros(long.n_rows)
    since = long.covariates.get(SINCE_NAME, zeros)
    return (np.unique((k - since)[(since > 0) & (since < k)]),
            float(k[long.covariates.get(ON_NAME, zeros) != 0].max(initial=0.0)))


def expand_long(
    data: SurvivalDataset,
    grid: TimeGrid,
    td_rules: TreatmentRule | None = None,
) -> LongDataset:
    """Expand short-format data to one row per subject-interval.

    Each subject contributes rows for intervals 1..K where K is the interval
    containing its event or censoring time; the final row has outcome 1 iff
    the subject had the event.  Intervals after the event or censoring are
    excluded.  Only event and right-censored records are supported, and the
    treatment columns are those of ``td_rules`` (``TreatmentRule()`` if None).
    """
    require_valid(data)
    if not set(data.status) <= {EVENT, RIGHT_CENSORED}:
        raise DataError("long format supports event and right-censored records only")
    if not grid.covers(data.time):
        raise DataError("grid does not cover the largest observed time")
    k_last = grid.interval_of(data.time)
    covariates = (td_rules or TreatmentRule()).rows(data.covariates, k_last)
    interval_index = covariates[TIME_NAME].astype(int)
    is_event = np.repeat(data.status == EVENT, k_last)
    return LongDataset(
        subject_id=np.repeat(data.subject_id, k_last),
        interval_index=interval_index,
        outcome=((interval_index == np.repeat(k_last, k_last)) & is_event).astype(int),
        covariates=covariates,
        static_names=tuple(data.covariates),
        time_unit=data.time_unit,
    )


def to_short_form(long: LongDataset) -> SurvivalDataset:
    """Collapse long-format data to one record per subject.

    The event/censor time is the last interval index; the subject is an
    event iff the final outcome is 1.  Static covariates keep their values,
    a static ``TREATMENT_NAME`` column included.  Long data without one get
    it derived as a binary covariate: any interval with ``ON_NAME`` active.
    """
    return _short_form(long)[0]


def _short_form(long: LongDataset) -> tuple:
    """(``to_short_form`` of ``long``, the ``_by_subject`` index of its rows
    in interval order that the collapse read)."""
    if long.n_rows == 0:
        raise DataError("long data have no rows")
    index = _, order, starts = _by_subject(long.subject_id, long.interval_index)
    _refuse(_long_report(long, order, starts), "long dataset")
    firsts, lasts = order[starts], order[np.append(starts[1:], long.n_rows) - 1]
    covs = {name: long.covariates[name][firsts] for name in long.static_names}
    if ON_NAME in long.covariates and TREATMENT_NAME not in covs:
        active = long.covariates[ON_NAME][order] != 0
        covs[TREATMENT_NAME] = np.logical_or.reduceat(active, starts).astype(float)
    return SurvivalDataset(
        subject_id=long.subject_id[firsts],
        entry_time=np.zeros(starts.size),
        time=long.interval_index[lasts].astype(float),
        status=np.where(long.outcome[lasts] == 1, EVENT, RIGHT_CENSORED).astype(object),
        covariates=covs,
        time_unit=long.time_unit,
    ), index


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
    """Per-covariate (mean, sd) used by scale_covariates, to apply to new data."""

    stats: Mapping[str, tuple[float, float]]

    def __post_init__(self):
        try:
            ok = all(np.isfinite([mean, sd]).all() and sd > 0 for mean, sd in self.stats.values())
        except (AttributeError, TypeError, ValueError):
            ok = False
        if not ok:
            raise DataError(f"scaling needs finite (mean, sd > 0) pairs, got {self.stats!r}")

    def apply(self, covariates: Mapping[str, float | np.ndarray]) -> dict:
        """Scale a covariate dict (e.g. a new patient) with the stored stats."""
        out = {}
        for name, value in covariates.items():
            if name in self.stats:
                mean, sd = self.stats[name]
                out[name] = (np.asarray(value, dtype=float) - mean) / sd * SCALED_SD
            else:
                out[name] = np.asarray(value, dtype=float)
        return out


def apply_scaling(data, record: ScalingRecord):
    """Apply a stored scaling record to a short- or long-format dataset."""
    return replace(data, covariates=record.apply(data.covariates))


def scale_covariates(data: SurvivalDataset, names) -> tuple[SurvivalDataset, ScalingRecord]:
    """Rescale the named covariates to sample mean 0 and sd ``SCALED_SD``.

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
        covs[name] = (x - mean) / sd * SCALED_SD
    return replace(data, covariates=covs), ScalingRecord(stats)


# ---------------------------------------------------------------------------
# CSV interface
#
# Short format: subject_id, entry_time, time, status, <covariates...>
#   with status in {event, rcens, lcens, icens}; interval-censored rows use
#   the optional interval_lower / interval_upper columns.
# Long format: subject_id, interval_index, event, <covariates...>; an event
#   cell that is not a whole number is a DataError, and ``validate_long``
#   refuses an outcome other than 0 or 1.
# Draws: header of parameter names, one row per draw, optional chain column.
# Long-format columns that are constant within every subject are read as
# static covariates, the others as time-dependent.
# A header row is required everywhere and columns are found by name, never
# by position.  Every reader takes its rows from ``_read_rows``, and a header
# that repeats a name, a row of the wrong width, a cell that is not a number,
# or a subject_id, interval_index or chain cell that is not a whole number is
# a DataError.

def _csv_reader(read):
    """Report a cell that does not parse as a number as a DataError."""
    @functools.wraps(read)
    def wrapped(path_or_buf, *args, **kwargs):
        try:
            return read(path_or_buf, *args, **kwargs)
        except DataError:
            raise
        except (ValueError, OverflowError) as err:
            raise DataError(f"malformed CSV value: {err}") from None

    return wrapped


_SHORT_ROLES = ("subject_id", "entry_time", "time", "status")
_RESERVED_SHORT = set(_SHORT_ROLES) | {"interval_lower", "interval_upper"}
_LONG_ROLES = ("subject_id", "interval_index", "event")


@_csv_reader
def read_short_csv(path_or_buf, time_unit: str | None = None) -> SurvivalDataset:
    """Read a short-format CSV."""
    cols = _read_columns(path_or_buf, ("subject_id", "time", "status"))
    blank = [""] * len(cols["subject_id"])  # an absent optional column reads as empty cells
    status = []
    for s in cols["status"]:
        key = s.strip()
        if key not in _CSV_TO_STATUS:
            raise DataError(f"unknown status code {key!r}")
        status.append(_CSV_TO_STATUS[key])
    bounds = None
    if "interval_lower" in cols or "interval_upper" in cols:
        bounds = np.column_stack([[float(v) if v != "" else np.nan for v in cols.get(name, blank)]
                                  for name in ("interval_lower", "interval_upper")])
    return SurvivalDataset(
        subject_id=_whole_numbers([float(v) for v in cols["subject_id"]], "subject_id"),
        entry_time=[float(v) if v != "" else 0.0 for v in cols.get("entry_time", blank)],
        time=[float(v) for v in cols["time"]],
        status=status,
        covariates={name: [float(v) for v in col] for name, col in cols.items()
                    if name not in _RESERVED_SHORT},
        interval_bounds=bounds,
        time_unit=time_unit,
    )


def write_short_csv(data: SurvivalDataset, path) -> None:
    bounds = data.interval_bounds
    header = [*_SHORT_ROLES, *([] if bounds is None else ["interval_lower", "interval_upper"]),
              *data.covariates]
    _write_csv(path, header, (
        [int(data.subject_id[i]), _fmt(data.entry_time[i]), _fmt(data.time[i]),
         _STATUS_TO_CSV[data.status[i]]]
        + ([] if bounds is None else ["" if np.isnan(v) else _fmt(v) for v in bounds[i]])
        + [_fmt(col[i]) for col in data.covariates.values()]
        for i in range(data.n)))


@_csv_reader
def read_long_csv(path_or_buf, time_unit: str | None = None) -> LongDataset:
    cols = _read_columns(path_or_buf, _LONG_ROLES)
    covariates = {name: np.array([float(v) for v in col]) for name, col in cols.items()
                  if name not in _LONG_ROLES}
    subject_id = _whole_numbers([float(v) for v in cols["subject_id"]], "subject_id")
    event = np.array([float(v) for v in cols["event"]])
    partial = ~(event % 1 == 0)
    if partial.any():
        raise DataError("event cells must be whole numbers: " + "; ".join(
            f"subject {s}: {e!r}" for s, e in zip(subject_id[partial].tolist(),
                                                  event[partial].tolist())))
    return LongDataset(
        subject_id=subject_id,
        interval_index=_whole_numbers([float(v) for v in cols["interval_index"]],
                                      "interval_index"),
        outcome=[int(e) for e in event.tolist()],
        covariates=covariates,
        static_names=_infer_static(subject_id, covariates),
        time_unit=time_unit,
    )


def _infer_static(subject_id, covariates) -> tuple[str, ...]:
    """Names of the covariates constant on every subject's rows."""
    rank, order, starts = _by_subject(subject_id)
    first = order[starts][rank]  # each row's subject's first row
    return tuple(name for name, col in covariates.items() if np.all(col == col[first]))


def write_long_csv(long: LongDataset, path) -> None:
    _write_csv(path, [*_LONG_ROLES, *long.covariates], (
        [int(long.subject_id[i]), int(long.interval_index[i]), int(long.outcome[i])]
        + [_fmt(col[i]) for col in long.covariates.values()]
        for i in range(long.n_rows)))


@_csv_reader
def read_draws_csv(path_or_buf) -> DrawsMatrix:
    rows = _read_rows(path_or_buf)
    header = rows[0]
    chain_idx = header.index("chain") if "chain" in header else None
    names = [h for h in header if h != "chain"]
    cols = [j for j, h in enumerate(header) if h != "chain"]
    draws = np.array([[float(r[j]) for j in cols] for r in rows[1:]])
    chains = None
    if chain_idx is not None:
        chains = _whole_numbers([float(r[chain_idx]) for r in rows[1:]], "chain")
    return DrawsMatrix(draws, names, chains)


def write_draws_csv(draws: DrawsMatrix, path) -> None:
    ids = draws.chain_ids
    _write_csv(path, ([] if ids is None else ["chain"]) + list(draws.parameter_names), (
        ([] if ids is None else [int(ids[i])]) + [repr(float(v)) for v in row]
        for i, row in enumerate(draws.draws)))


def _write_csv(path, header, rows) -> None:
    """Write the ``header`` row, then each row ``rows`` yields, one at a time."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _read_rows(path_or_buf) -> list[list[str]]:
    """The non-empty rows of a CSV, each as wide as the header."""
    if not isinstance(path_or_buf, io.TextIOBase):
        with open(path_or_buf, newline="") as fh:
            return _read_rows(fh)
    reader = csv.reader(path_or_buf)
    rows = []
    for row in filter(None, reader):
        if rows and len(row) != len(rows[0]):
            raise DataError(f"CSV line {reader.line_num} has {len(row)} cells, "
                            f"the header has {len(rows[0])}")
        rows.append(row)
    if not rows:
        raise DataError("empty CSV (header row required)")
    if len(set(rows[0])) < len(rows[0]):
        raise DataError(f"CSV header repeats column names "
                        f"{sorted({h for h in rows[0] if rows[0].count(h) > 1})}")
    return rows


def _read_columns(path_or_buf, required) -> dict[str, list[str]]:
    """A CSV's columns of cells by header name, in header order; a
    ``required`` name the header lacks is a DataError."""
    header, *body = _read_rows(path_or_buf)
    for name in required:
        if name not in header:
            raise DataError(f"missing required column {name!r}")
    return {name: [row[j] for row in body] for j, name in enumerate(header)}


def _fmt(x: float) -> str:
    # repr round-trips float64 exactly and keeps integers short
    x = float(x)
    return repr(int(x)) if x.is_integer() and abs(x) < 1e15 else repr(x)
