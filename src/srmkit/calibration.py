"""Fitting area-specific power-law performance curves from cohort data.

A cohort's citation curves are summarized by the model x_i = q / i**b:
on log-log axes each author's record is a line with slope -b, fitted by
ordinary least squares.  The cohort average of the fitted exponents
then fixes the calibrated performance family q / x**beta_bar, whose
index (the calibrated phi-index) has the closed form
min over ranks of x_i * i**beta_bar.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .cohort import Cohort
from .curves import CitationCurve, SrmValue, checked_number
from .engine import segment_blocks, segment_counts, segment_ranks
from .errors import InsufficientDataError, UnsupportedOperationError, ValidationError, reading

#: Published reference exponent for senior mathematical-finance cohorts.
#: A convenience preset only: it is a reported value, not reproducible
#: from data shipped with this package.
MATH_FINANCE_SENIOR_BETA = 1.62

PROFILE_VERSION = 1


@dataclass(frozen=True)
class CalibrationFit:
    """Per-author log-log least-squares fit of x_i = q / i**b.

    ``n_points`` counts the publications used (those with at least one
    citation); ``n_excluded`` flags how many fell below 1 citation and
    were left out of the fit rather than clamped.
    """

    author_id: str
    beta_hat: float
    q_hat: float
    r2: float
    n_points: int
    n_excluded: int = 0

    def __post_init__(self):
        if self.n_points < 2:
            raise ValidationError("a fit needs at least 2 points")
        if not (0.0 <= self.r2 <= 1.0):
            raise ValidationError(f"r2 must lie in [0, 1], got {self.r2!r}")

    def to_dict(self) -> dict:
        return {
            "author_id": self.author_id,
            "beta_hat": self.beta_hat,
            "q_hat": self.q_hat,
            "r2": self.r2,
            "n_points": self.n_points,
            "n_excluded": self.n_excluded,
        }


@dataclass(frozen=True)
class CohortProfile:
    """Calibration output: the cohort exponent and its per-author fits."""

    beta_bar: float
    fits: Tuple[CalibrationFit, ...]
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def cohort_size(self) -> int:
        return len(self.fits)

    def to_json(self) -> str:
        doc = {
            "version": PROFILE_VERSION,
            "beta_bar": self.beta_bar,
            "cohort_size": self.cohort_size,
            "fits": [f.to_dict() for f in self.fits],
            "metadata": self.metadata,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    @reading("profile")
    def from_json(cls, data: Union[str, bytes]) -> "CohortProfile":
        try:
            doc = json.loads(data)
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"profile is not valid JSON: {exc}") from None
        if not isinstance(doc, dict) or doc.get("version") != PROFILE_VERSION:
            raise ValidationError(f"expected a profile document with version {PROFILE_VERSION}")
        fits = tuple(
            CalibrationFit(
                author_id=str(f["author_id"]),
                beta_hat=float(f["beta_hat"]),
                q_hat=float(f["q_hat"]),
                r2=float(f["r2"]),
                n_points=int(f["n_points"]),
                n_excluded=int(f.get("n_excluded", 0)),
            )
            for f in doc.get("fits", [])
        )
        return cls(
            beta_bar=float(doc["beta_bar"]),
            fits=fits,
            metadata=dict(doc.get("metadata", {})),
        )


def _fit_segments(
    values: np.ndarray, offsets: np.ndarray, ids: Sequence[str]
) -> Tuple[List[CalibrationFit], List[str]]:
    """OLS fits of every segment of CSR records, and the ids of the
    authors with fewer than 2 usable points.

    Segment k holds author ``ids[k]``'s values, sorted nonincreasing, so
    the values >= 1 are a prefix of it.  Every sum is one
    ``np.add.reduceat`` over the prefixes of the fitted authors of a
    block, with the means taken first and the products centred on them:
    the arithmetic of a per-author fit with ``np.mean`` and ``np.sum``.
    """
    fits: List[CalibrationFit] = []
    skipped: List[str] = []
    for lo, hi in segment_blocks(offsets):
        bounds = offsets[lo:hi + 1] - offsets[lo]
        block = values[offsets[lo]:offsets[hi]]
        n = segment_counts(block >= 1.0, bounds)
        fitted = n >= 2
        block_ids = list(zip(ids[lo:hi], fitted.tolist()))
        skipped.extend(a for a, ok in block_ids if not ok)
        if not fitted.any():
            continue
        m = n[fitted]
        firsts = np.zeros(m.size + 1, dtype=np.int64)
        np.cumsum(m, out=firsts[1:])
        ranks = segment_ranks(firsts)
        seg = np.repeat(np.arange(m.size), m)
        # np.add.reduceat sums a segment as its first value plus the pairwise
        # sum of the rest; a leading 0 per segment makes it the pairwise sum
        # of the whole segment, which is what np.sum and np.mean compute
        padded = np.zeros(firsts[-1] + m.size)
        slots = np.arange(firsts[-1]) + seg + 1
        heads = firsts[:-1] + np.arange(m.size)

        def sums(x: np.ndarray) -> np.ndarray:
            padded[slots] = x
            return np.add.reduceat(padded, heads)

        lx = np.log(ranks)
        ly = np.log(block[np.repeat(bounds[:-1][fitted], m) + ranks.astype(np.int64) - 1])
        lx_mean = sums(lx) / m
        ly_mean = sums(ly) / m
        dx = lx - lx_mean[seg]
        dy = ly - ly_mean[seg]
        slope = sums(dx * dy) / sums(dx**2)
        intercept = ly_mean - slope * lx_mean
        residuals = ly - (intercept[seg] + slope[seg] * lx)
        ss_res = sums(residuals**2)
        ss_tot = sums(dy**2)
        flat = ss_tot == 0.0
        r2 = 1.0 - ss_res / np.where(flat, 1.0, ss_tot)
        r2[flat] = 1.0
        fit_ids = [a for a, ok in block_ids if ok]
        fits.extend(
            CalibrationFit(
                author_id=author_id,
                beta_hat=-b,
                q_hat=math.exp(c),
                r2=min(max(r, 0.0), 1.0),
                n_points=k,
                n_excluded=total - k,
            )
            for author_id, b, c, r, k, total in zip(
                fit_ids, slope.tolist(), intercept.tolist(), r2.tolist(), m.tolist(),
                np.diff(bounds)[fitted].tolist(),
            )
        )
    return fits, skipped


def fit_author(curve: CitationCurve, author_id: str = "") -> CalibrationFit:
    """OLS fit of ln(x_i) on ln(i) over ranks with x_i >= 1.

    beta_hat is the negated slope, q_hat the exponential of the
    intercept.  Publications with fewer than 1 citation are excluded
    (their logarithm would flip sign conventions) and counted in
    ``n_excluded``; fewer than 2 usable points is an error.
    """
    fits, _ = _fit_segments(curve.values, np.array([0, curve.p]), [author_id])
    if not fits:
        n = int(np.sum(curve.values >= 1.0))
        raise InsufficientDataError(
            f"author {author_id or '?'}: {n} publication(s) with >= 1 citation; need 2"
        )
    return fits[0]


def aggregate_beta(
    fits: Sequence[CalibrationFit],
    weight_by: Optional[str] = None,
    metadata: Optional[dict] = None,
) -> CohortProfile:
    """Average the fitted exponents into a cohort profile.

    The default is the plain arithmetic mean.  ``weight_by`` may name
    "n_points" or "r2" for a weighted mean; the choice is recorded in
    the profile metadata.
    """
    if not fits:
        raise ValidationError("cannot aggregate an empty list of fits")
    betas = np.array([f.beta_hat for f in fits])
    meta = dict(metadata or {})
    if weight_by is None:
        beta_bar = float(betas.mean())
    else:
        if weight_by not in ("n_points", "r2"):
            raise ValidationError(f"unknown weighting {weight_by!r}; use 'n_points' or 'r2'")
        weights = np.array([float(getattr(f, weight_by)) for f in fits])
        if weights.sum() <= 0:
            raise ValidationError("weights sum to zero; cannot form a weighted mean")
        beta_bar = float(np.average(betas, weights=weights))
        meta["weight_by"] = weight_by
    return CohortProfile(beta_bar=beta_bar, fits=tuple(fits), metadata=meta)


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
    if curve.p == 0:
        return SrmValue(0.0)
    ranks = np.arange(1, curve.p + 1, dtype=float)
    with np.errstate(over="ignore"):  # x_i * i**beta may overflow to inf, never the minimum
        return SrmValue(float(np.min(curve.values * ranks**beta_bar)))


def calibrate_cohort(
    curves: Union[Cohort, Sequence[CitationCurve]],
    ids: Optional[Sequence[str]] = None,
    metadata: Optional[dict] = None,
    weight_by: Optional[str] = None,
) -> CohortProfile:
    """Fit every author and average the exponents.

    ``curves`` is a :class:`Cohort`, which carries its ids, or a list of
    citation curves with their ``ids``.  Authors whose records cannot
    be fitted (fewer than 2 publications with a citation) are skipped
    and listed in the profile metadata.
    """
    if isinstance(curves, Cohort):
        cohort = curves
    else:
        cohort = Cohort.from_curves(() if ids is None else ids, curves)
    if not len(cohort):
        raise ValidationError("cannot calibrate an empty cohort")
    fits, skipped = _fit_segments(cohort.values, cohort.offsets, cohort.ids)
    if not fits:
        raise InsufficientDataError("no author in the cohort had enough data to fit")
    meta = dict(metadata or {})
    if skipped:
        meta["skipped"] = skipped
    return aggregate_beta(fits, weight_by=weight_by, metadata=meta)
