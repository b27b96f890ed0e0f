"""Fitting area-specific power-law performance curves from cohort data.

A cohort's citation curves are summarized by the model x_i = q / i**b:
on log-log axes each author's record is a line with slope -b, fitted by
ordinary least squares.  The cohort average of the fitted exponents
then fixes the calibrated performance family q / x**beta_bar, whose
index (the calibrated phi-index) has the closed form
min over ranks of x_i * i**beta_bar.

The fits of a cohort are computed in blocks of records, as the closed
forms of the engine are, each block into its own rows, so the
temporaries stay small and the bits do not depend on the block size.
A profile stores and reads the fits as columns (:class:`CohortProfile`).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from itertools import compress
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from .cohort import Cohort, json_bytes
from .curves import CitationCurve, SrmValue, checked_number
from .engine import IndexSpec, segment_blocks, segment_counts, srm_closed_form
from .errors import InsufficientDataError, UnsupportedOperationError, ValidationError, reading

#: Published reference exponent for senior mathematical-finance cohorts.
#: A convenience preset only: it is a reported value, not reproducible
#: from data shipped with this package.
MATH_FINANCE_SENIOR_BETA = 1.62

PROFILE_VERSION = 2


@dataclass(frozen=True)
class CalibrationFit:
    """One author's log-log least-squares fit of x_i = q / i**b, as
    :func:`fit_author` returns it.

    ``n_points`` counts the publications used (those with at least one
    citation); ``n_excluded`` flags how many fell below 1 citation and
    were left out of the fit rather than clamped.
    """

    beta_hat: float
    q_hat: float
    r2: float
    n_points: int
    n_excluded: int


#: The fit columns of a profile after ``author_id``, and their dtypes.
_FIT_COLUMNS = {"beta_hat": float, "q_hat": float, "r2": float, "n_points": np.int64,
                "n_excluded": np.int64}
#: The JSON types each field of a profile's fit may take, and their name.
_FIT_TYPES = {"author_id": ((str,), "a string"), "beta_hat": ((int, float), "a number"),
              "q_hat": ((int, float), "a number"), "r2": ((int, float), "a number"),
              "n_points": ((int,), "an integer"), "n_excluded": ((int,), "an integer")}


@dataclass(frozen=True, eq=False)
class CohortProfile:
    """Calibration output: the cohort exponent and its per-author fits.

    The fits are columns: row k is the fit of author ``author_id[k]``,
    with the fields of a :class:`CalibrationFit` in the read-only arrays
    ``beta_hat``, ``q_hat``, ``r2`` (float64), ``n_points`` and
    ``n_excluded`` (int64).  The arrays are taken over, not copied.
    Its JSON (format version 2) holds ``fits`` as one object of the six
    arrays, ``author_id`` and these five, each on one line.

    :meth:`from_json` accepts only what :func:`calibrate_cohort` can
    write: the keys ``beta_bar``, ``cohort_size`` (which may be left out,
    else the integer number of fits), ``fits``, ``metadata`` (an object)
    and ``version``, and no other key or fit column; at least one fit,
    each with a unique ``author_id``, a finite ``beta_hat``, a positive
    finite ``q_hat``, ``0 <= r2 <= 1``, ``n_points >= 2`` and
    ``n_excluded >= 0``; and a ``beta_bar`` bit for bit equal to
    ``float(beta_hat.mean())`` of the fits, as :func:`calibrate_cohort`
    writes it.  A version-1 profile is not read; ``srm calibrate`` writes
    it again.
    """

    beta_bar: float
    author_id: Tuple[str, ...]
    beta_hat: np.ndarray
    q_hat: np.ndarray
    r2: np.ndarray
    n_points: np.ndarray
    n_excluded: np.ndarray
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        for name in _FIT_COLUMNS:
            getattr(self, name).setflags(write=False)

    @property
    def cohort_size(self) -> int:
        return len(self.author_id)

    def to_json(self) -> bytes:
        head = json_bytes({"version": PROFILE_VERSION, "beta_bar": self.beta_bar,
                           "cohort_size": self.cohort_size, "metadata": self.metadata,
                           "fits": dict.fromkeys(_FIT_TYPES, "\0")}).decode("utf-8")
        # only numbers come before the fits, so the first six marks "\0" are
        # its columns in key order; each column is one line of the C encoder
        parts = iter(head.split('"\\u0000"', len(_FIT_TYPES)))
        lines = [next(parts) + json.dumps(getattr(self, name), default=np.ndarray.tolist)
                 for name in sorted(_FIT_TYPES)]
        return "".join([*lines, next(parts)]).encode("utf-8")

    @classmethod
    @reading("profile")
    def from_json(cls, data: Union[str, bytes]) -> "CohortProfile":
        try:
            doc = json.loads(data)
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"profile is not valid JSON: {exc}") from None
        version = doc.get("version") if isinstance(doc, dict) else None
        if version == 1 and type(version) is int:
            raise ValidationError("profile format version 1 is no longer read; run"
                                  f" `srm calibrate` again to write version {PROFILE_VERSION}")
        if version != PROFILE_VERSION or type(version) is not int:  # 2.0 equals 2 as well
            raise ValidationError(f"malformed profile: version must be {PROFILE_VERSION},"
                                  f" not {version!r}")
        extra = sorted(doc.keys() - {"beta_bar", "cohort_size", "fits", "metadata", "version"})
        if extra:
            raise ValidationError(f"malformed profile: unknown key {extra[0]!r}")
        ids, *arrays = _fit_columns(doc.get("fits", dict.fromkeys(_FIT_TYPES, [])))
        size = doc.get("cohort_size", len(ids))
        if type(size) is not int or size != len(ids):
            raise ValidationError(f"malformed profile: cohort_size must be the number of fits,"
                                  f" {len(ids)}, not {size!r}")
        metadata = doc.get("metadata", {})
        if type(metadata) is not dict:
            raise ValidationError(f"malformed profile: metadata must be an object,"
                                  f" not {metadata!r}")
        if not ids:  # calibrate_cohort raises rather than write a profile of no fits
            raise ValidationError("malformed profile: fits must hold at least one fit")
        beta_bar, mean = doc["beta_bar"], float(arrays[0].mean())
        # float() would take a str or a bool; bit for bit, so not 0.0 for -0.0
        if type(beta_bar) not in (int, float) or float(beta_bar).hex() != mean.hex():
            raise ValidationError(f"malformed profile: beta_bar must be the mean of the fits'"
                                  f" beta_hat, {mean!r}, not {beta_bar!r}")
        return cls(mean, ids, *arrays, metadata)


def _check_fit(row: tuple, seen: set) -> None:
    """Raise the error of one fit of a profile, its fields in
    :data:`_FIT_TYPES` order, if it has one; ``seen`` holds the ids of
    the fits before it, and gains this one's."""
    # a null, and an integer field's inf or nan, fail in these conversions
    converted = (row[0], *map(float, row[1:4]), *map(int, row[4:]))
    for (name, (types, kind)), value in zip(_FIT_TYPES.items(), row):
        if type(value) not in types:  # not isinstance: a bool is an int
            raise ValidationError(f"malformed profile: {name} must be {kind}, not {value!r}")
    if converted[4] < 2:
        raise ValidationError("a fit needs at least 2 points")
    if not 0.0 <= converted[3] <= 1.0:
        raise ValidationError(f"r2 must lie in [0, 1], got {converted[3]!r}")
    if not math.isfinite(converted[1]):
        raise ValidationError(f"beta_hat must be finite, got {converted[1]!r}")
    if not 0.0 < converted[2] < math.inf:
        raise ValidationError(f"q_hat must be positive and finite, got {converted[2]!r}")
    if converted[5] < 0:
        raise ValidationError(f"n_excluded must be nonnegative, got {converted[5]!r}")
    if row[0] in seen:
        raise ValidationError(f"duplicate author_id {row[0]!r}")
    seen.add(row[0])
    np.array(converted[4:], dtype=np.int64)  # an integer beyond int64 fails here


def _fit_columns(fits: dict) -> list:
    """A profile's ``fits``, six lists of one length, as the ids tuple and
    the arrays of :data:`_FIT_COLUMNS`.  Each column is screened whole,
    its JSON types and the ids by a set, the ranges by numpy (which a nan
    fails); only when a screen fails are the fits checked one by one, to
    raise the first bad one's error."""
    if type(fits) is not dict:
        raise ValidationError(f"malformed profile: fits must be an object, not {fits!r}")
    extra = sorted(fits.keys() - _FIT_TYPES.keys())
    if extra:
        raise ValidationError(f"malformed profile: unknown fit column {extra[0]!r}")
    columns = [fits[name] for name in _FIT_TYPES]  # a missing column is a KeyError
    for name, column in zip(_FIT_TYPES, columns):  # author_id first
        if type(column) is not list:
            raise ValidationError(f"malformed profile: fits' {name} must be a list, not {column!r}")
        if len(column) != len(columns[0]):
            raise ValidationError(f"malformed profile: fits' {name} holds {len(column)} values,"
                                  f" its author_id {len(columns[0])}")
    try:  # the types first, as np.array would take a str or a bool
        if all(set(map(type, c)) <= set(t) for c, (t, _) in zip(columns, _FIT_TYPES.values())):
            ids, beta_hat, q_hat, r2, n_points, n_excluded = arrays = [
                tuple(columns[0]), *map(np.array, columns[1:], _FIT_COLUMNS.values())]
            if ((n_points >= 2).all() and ((r2 >= 0.0) & (r2 <= 1.0)).all()
                    and np.isfinite(beta_hat).all() and ((q_hat > 0.0) & (q_hat < math.inf)).all()
                    and (n_excluded >= 0).all() and len(set(ids)) == len(ids)):
                return arrays
    except OverflowError:  # an integer beyond its column's dtype
        pass
    seen: set = set()
    for row in zip(*columns):
        _check_fit(row, seen)
    raise AssertionError("a profile's fits failed a screen but passed every fit check")


def _fit_segments(
    values: np.ndarray, offsets: np.ndarray, ids: Sequence[str]
) -> Tuple[Dict[str, object], List[str]]:
    """OLS fits of every segment of CSR records, as the columns of a
    :class:`CohortProfile` keyed by field name, and the ids of the
    authors with fewer than 2 usable points.

    Segment k holds author ``ids[k]``'s values, sorted nonincreasing, so
    the values >= 1 are a prefix of it.  The ranks, logarithms and
    centred products of a block's fitted authors are built in a padded
    layout, one leading slot per author before its prefix, and every sum
    is one ``np.add.reduceat`` from those slots once they are zeroed,
    with the means taken first and the products centred on them: the
    arithmetic of a per-author fit with ``np.mean`` and ``np.sum``.
    A q_hat beyond the float range is an error naming its author, unless
    the id is empty.
    """
    n = np.zeros(len(ids), dtype=np.int64)
    beta_hat, intercept, r2 = np.empty((3, len(ids)))
    for lo, hi in segment_blocks(offsets):  # fill the block's n and its fitted rows (n >= 2)
        bounds = offsets[lo:hi + 1] - offsets[lo]
        block = values[offsets[lo]:offsets[hi]]
        n[lo:hi] = segment_counts(block >= 1.0, bounds)
        fitted = n[lo:hi] >= 2
        if not fitted.any():
            continue
        rows = lo + np.flatnonzero(fitted)
        m = n[rows]
        # np.add.reduceat sums a segment as its first value plus the pairwise
        # sum of the rest; a leading 0 per segment makes it the pairwise sum
        # of the whole segment, which is what np.sum and np.mean compute
        heads = np.cumsum(m + 1) - (m + 1)
        seg = np.repeat(np.arange(m.size), m + 1)
        ranks = np.arange(seg.size) - heads[seg]  # 0 at each head, then 1..m
        ranks[heads] = 1  # a head reads the segment's first value; sums() zeroes it

        def sums(x: np.ndarray) -> np.ndarray:
            x[heads] = 0.0
            return np.add.reduceat(x, heads)

        lx = np.log(ranks.astype(float))
        ly = np.log(block[np.repeat(bounds[:-1][fitted], m + 1) + ranks - 1])
        lx_mean = sums(lx) / m
        ly_mean = sums(ly) / m
        dx = lx - lx_mean[seg]
        dy = ly - ly_mean[seg]
        slope = sums(dx * dy) / sums(dx**2)
        b = ly_mean - slope * lx_mean
        residuals = ly - (b[seg] + slope[seg] * lx)
        ss_res = sums(residuals**2)
        ss_tot = sums(dy**2)
        flat = ss_tot == 0.0
        fit_r2 = 1.0 - ss_res / np.where(flat, 1.0, ss_tot)
        fit_r2[flat] = 1.0
        beta_hat[rows], intercept[rows], r2[rows] = -slope, b, np.clip(fit_r2, 0.0, 1.0)
    fitted = n >= 2
    fit_ids = tuple(compress(ids, fitted.tolist()))
    intercepts = intercept[fitted]
    huge = np.flatnonzero(intercepts > math.log(sys.float_info.max))  # math.exp would overflow
    if huge.size:
        author_id, b = fit_ids[huge[0]], intercepts[huge[0]].item()
        where = f"author {author_id!r}: " if author_id else ""
        raise UnsupportedOperationError(
            f"{where}the fitted q_hat, exp({b!r}), is beyond the float range")
    columns = {
        "author_id": fit_ids,
        "beta_hat": beta_hat[fitted],
        # math.exp, not np.exp: the two differ in the last bit on some intercepts
        "q_hat": np.array(list(map(math.exp, intercepts.tolist()))),
        "r2": r2[fitted],
        "n_points": n[fitted],
        "n_excluded": np.diff(offsets)[fitted] - n[fitted],
    }
    return columns, list(compress(ids, (~fitted).tolist()))


def fit_author(curve: CitationCurve) -> CalibrationFit:
    """OLS fit of ln(x_i) on ln(i) over ranks with x_i >= 1.

    beta_hat is the negated slope, q_hat the exponential of the
    intercept.  Publications with fewer than 1 citation are excluded
    (their logarithm would flip sign conventions) and counted in
    ``n_excluded``; fewer than 2 usable points is an error, and so are a
    positive tail, which the power-law model has no term for, and a
    q_hat beyond the float range.
    """
    if curve.tail > 0:
        raise UnsupportedOperationError("calibration is defined for curves with tail 0")
    columns, _ = _fit_segments(curve.values, np.array([0, curve.p]), [""])
    if not columns["author_id"]:
        n = int(np.sum(curve.values >= 1.0))
        raise InsufficientDataError(f"{n} publication(s) with >= 1 citation; need 2")
    return CalibrationFit(*(columns[name][0].item() for name in _FIT_COLUMNS))


def phi_index(curve: CitationCurve, beta_bar: float) -> SrmValue:
    """Calibrated index: min over ranks of x_i * i**beta_bar.

    The author's curve dominates q / x**beta_bar at every publication
    rank exactly for q up to this minimum, which is attained.  An empty
    record scores 0.
    """
    beta_bar = checked_number(beta_bar, "beta_bar")
    if beta_bar == 0.0:
        raise ValidationError("beta_bar must be strictly positive")
    if curve.tail > 0:
        raise UnsupportedOperationError("the calibrated index is defined for curves with tail 0")
    return srm_closed_form(curve, IndexSpec("phi", beta_bar))


def calibrate_cohort(cohort: Cohort) -> CohortProfile:
    """Fit every author and average the exponents.

    ``beta_bar`` is the plain arithmetic mean of the ``beta_hat``.
    Authors whose records cannot be fitted (fewer than 2 publications
    with a citation) are skipped and listed under ``skipped`` in the
    profile metadata.  A cohort's records have tail 0 (:class:`Cohort`);
    a q_hat beyond the float range is an error naming the first such
    author.
    """
    if not len(cohort):
        raise ValidationError("cannot calibrate an empty cohort")
    columns, skipped = _fit_segments(cohort.values, cohort.offsets, cohort.ids)
    if not columns["author_id"]:
        raise InsufficientDataError("no author in the cohort had enough data to fit")
    return CohortProfile(beta_bar=float(columns["beta_hat"].mean()), **columns,
                         metadata={"skipped": skipped} if skipped else {})
