"""Index computation: monotone feasibility search plus catalog closed forms.

The generic path evaluates an index as the largest level q whose
performance curve the author's citation curve dominates.  Dominance is
checked at integer publication ranks, the discretization that
reproduces the classical integer values of every catalog index (see the
staircase index, whose rank-sampled constraints are strictly weaker
than pointwise comparison on the open rank intervals).  Each catalog
index also ships a closed form, so every value can be computed by two
independent routes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from .curves import (
    AUTHOR_SUPPORT_ONLY,
    INTEGER_LEVELS,
    POWER,
    REAL_LEVELS,
    RECTANGLE,
    STAIRCASE,
    CitationCurve,
    LevelRule,
    PerformanceFamily,
    SrmValue,
    power_family,
    rectangle_family,
    staircase_family,
    support_bound,
)
from .errors import UnknownIndexError, UnsupportedOperationError


def dominates(curve: CitationCurve, family: PerformanceFamily, q: float) -> bool:
    """True iff the curve sits on or above f_q at every checked rank.

    The family's policy names the checked ranks: ``all-positive-ranks``
    checks every rank in the support of f_q (the tail standing in
    beyond the author's own publications), ``author-support-only``
    ranks 1..p.  Ranks past the support of f_q face a zero constraint
    and are skipped (curve values are nonnegative).  Past rank p the
    curve equals its tail, and f_q at integer ranks never rises with
    the rank, so ranks beyond p+1 decide nothing and are skipped too.
    """
    if q <= 0:
        return True
    if family.policy == AUTHOR_SUPPORT_ONLY:
        ranks = np.arange(1, curve.p + 1, dtype=float)
        return bool(np.all(curve.values >= q * ranks ** (-family.beta)))
    if math.isinf(q) and math.isinf(support_bound(family, q)):
        raise UnsupportedOperationError(
            f"family {family.name!r} has unbounded support at level {q!r}; "
            "all positive ranks cannot be checked"
        )
    if family.shape == RECTANGLE:
        h = family.height.value(q)
        k = int(min(family.width.value(q), curve.p + 1)) if h > 0 else 0
        return k <= 0 or bool(np.all(curve.rank_values(k) >= h))
    k = int(min(q, curve.p + 1))
    fv = (q + 1.0) - np.arange(1, k + 1, dtype=float)
    return k <= 0 or bool(np.all(curve.rank_values(k) >= fv))


_MAX_FLOAT = sys.float_info.max
#: The largest integer level; the search counts every level above it as
#: infeasible, because no float names it.
_MAX_INT_LEVEL = int(_MAX_FLOAT)


def level_ceiling(curve: CitationCurve, family: PerformanceFamily) -> float:
    """A level U beyond which dominance certifiably fails (inf if none).

    Per shape, with x1 the curve's value on (0, 1]:

    * a rectangle family that ``vanishes`` (a zero height or width
      coefficient): f_q is 0, so every level is feasible and U is
      infinity;
    * rectangle, increasing height: levels whose height exceeds x1 fail
      at rank 1, so U = max(width^{-1}(1), height^{-1}(x1));
    * rectangle, constant height c: ranks beyond p carry the tail, so
      U = width^{-1}(p+1) when tail < c, and infinity when tail >= c
      (every level is feasible);
    * staircase: f_q(1) = q for q >= 1, so U = max(1, x1);
    * power: the rank-1 constraint gives U = x1 (infinity for a curve
      that is a positive constant everywhere, which dominates every
      level on its empty support).

    The zero curve has ceiling 0 for every family that does not
    vanish.  A bound that overflows is the largest float: no level
    beyond it is feasible, since its reference height overflows too.
    """
    p, tail = curve.p, curve.tail
    x1 = curve.first_value
    if family.vanishes:
        return math.inf
    if p == 0 and tail == 0:
        return 0.0
    if family.shape == POWER:
        return float(x1) if p else math.inf
    if family.shape == STAIRCASE:
        return max(1.0, x1)
    h, w = family.height, family.width
    if h.kind == "const" and tail >= h.coeff:
        return math.inf
    if h.kind == "const":  # the width grows: a constant one would make f_0 nonzero
        bound = w.inverse_sup(p + 1)
    elif w.kind == "const":
        if w.coeff < 1:
            return math.inf
        bound = h.inverse_sup(x1)
    else:
        bound = max(w.inverse_sup(1.0), h.inverse_sup(x1))
    return min(bound, _MAX_FLOAT)


def _tail_rank_bound(curve: CitationCurve, family: PerformanceFamily) -> float:
    """A level beyond which f_q reaches rank p+1 above the tail (inf if none).

    Rank p+1 carries the tail, and the dominance check reaches it for
    a rectangle of growing width and for the staircase: past
    width^{-1}(p+1) and height^{-1}(tail), or past p + max(1, tail)
    for the staircase, dominance fails there.  Unlike ``level_ceiling``
    this ignores x1, so a huge first value costs no long search.
    """
    p, tail = curve.p, curve.tail
    if family.shape == STAIRCASE:
        return p + max(1.0, tail)
    if family.shape == RECTANGLE and family.width.kind != "const":
        return max(family.width.inverse_sup(p + 1), family.height.inverse_sup(tail))
    return math.inf


def srm_generic(curve: CitationCurve, family: PerformanceFamily) -> SrmValue:
    """sup{q in the level set : curve dominates f_q}, by monotone search.

    Feasible levels form a down-set (the family rises in q), so integer
    levels are found by binary search and real levels by bisection run
    to floating-point resolution.  The supremum is approached from the
    feasible side; an unbounded feasible set yields level +inf, attained
    False.
    """
    ceiling = level_ceiling(curve, family)
    if math.isinf(ceiling):
        return SrmValue(math.inf, attained=False)
    if family.levels == INTEGER_LEVELS:
        # any infeasible start gives the same level; real levels bisect
        # from the ceiling, so their start stays where it was
        hi = int(math.floor(min(ceiling, _tail_rank_bound(curve, family)))) + 1
        while hi <= _MAX_INT_LEVEL and dominates(curve, family, hi):
            hi = hi * 2 + 1  # ceiling off by float dust
        hi = min(hi, _MAX_INT_LEVEL + 1)
        lo = 0
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if dominates(curve, family, mid):
                lo = mid
            else:
                hi = mid
        return SrmValue(float(lo), attained=True)
    if dominates(curve, family, ceiling):
        return SrmValue(float(ceiling), attained=True)
    return SrmValue(_bisect(lambda q: dominates(curve, family, q), 0.0, float(ceiling)),
                    attained=True)


def _bisect(feasible: Callable[[float], bool], lo: float, hi: float) -> float:
    """The last feasible float of a down-set, between a feasible lo and an
    infeasible hi: bisection run until no float lies between them.
    """
    while hi - lo > 0:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# index catalog
# ---------------------------------------------------------------------------

CATALOG_NAMES = ("c_max", "pubs", "h", "h2", "h_alpha", "w", "h_r", "phi")
# the indices that take a parameter, and the error when it is missing
_PARAMETRIC = {
    "h_alpha": "index 'h_alpha' needs an alpha, e.g. h_alpha:2",
    "phi": "index 'phi' needs a beta, e.g. phi:1.62",
}


@dataclass(frozen=True)
class IndexSpec:
    """A catalog index name with its optional inline parameter."""

    name: str
    param: Optional[float] = None

    @property
    def label(self) -> str:
        return self.name if self.param is None else f"{self.name}:{self.param:g}"


def parse_index(text: Union[str, IndexSpec]) -> IndexSpec:
    """Parse an index spec like "h", "h-alpha:2" or "phi:1.62"."""
    if isinstance(text, IndexSpec):
        spec = text
    else:
        raw = text.strip()
        name, _, param_text = raw.partition(":")
        name = name.strip().lower().replace("-", "_").replace("^", "")
        param = None
        if param_text:
            try:
                param = float(param_text)
            except ValueError:
                raise UnknownIndexError(f"bad parameter in index spec {raw!r}") from None
        spec = IndexSpec(name, param)
    if spec.name not in CATALOG_NAMES:
        raise UnknownIndexError(
            f"unknown index {spec.name!r}; known: {', '.join(CATALOG_NAMES)}"
        )
    if spec.param is not None and spec.name not in _PARAMETRIC:
        raise UnknownIndexError(f"index {spec.name!r} takes no parameter")
    if spec.param is not None and not (math.isfinite(spec.param) and spec.param > 0):
        raise UnknownIndexError(f"parameter for {spec.name!r} must be a positive number")
    return spec


def _with_param(spec: IndexSpec) -> IndexSpec:
    """``spec``, checked to have the parameter its index needs."""
    if spec.param is None and spec.name in _PARAMETRIC:
        raise UnknownIndexError(_PARAMETRIC[spec.name])
    return spec


def family_for(index: Union[str, IndexSpec]) -> PerformanceFamily:
    """The performance family whose SRM is the named catalog index."""
    spec = _with_param(parse_index(index))
    name = spec.name
    if name == "c_max":
        return rectangle_family(spec.label, LevelRule("linear", 1.0), LevelRule("const", 1.0))
    if name == "pubs":
        return rectangle_family(spec.label, LevelRule("const", 1.0), LevelRule("linear", 1.0))
    if name == "h":
        return rectangle_family(spec.label, LevelRule("linear", 1.0), LevelRule("linear", 1.0))
    if name == "h2":
        return rectangle_family(spec.label, LevelRule("square", 1.0), LevelRule("linear", 1.0))
    if name == "h_alpha":
        return rectangle_family(spec.label, LevelRule("linear", spec.param), LevelRule("linear", 1.0))
    if name == "w":
        return staircase_family(spec.label)
    if name == "h_r":
        return rectangle_family(
            spec.label,
            LevelRule("linear", 1.0),
            LevelRule("linear", 1.0),
            levels=REAL_LEVELS,
        )
    return power_family(spec.param, name=spec.label)


def _h_like(values: np.ndarray, thresholds: np.ndarray) -> int:
    # values nonincreasing, thresholds nondecreasing: the feasible ranks form a prefix
    return int(np.sum(values >= thresholds))


def srm_closed_form(curve: CitationCurve, index: Union[str, IndexSpec]) -> SrmValue:
    """Catalog index values by their classical closed forms.

    With x_i the sorted values and p their count: c_max = x1; pubs = p;
    h = max{i : x_i >= i}; h2 = max{i : x_i >= i^2}; h_alpha = max{i :
    x_i >= alpha*i}; w = max{q <= p : x_i >= q-i+1 for i <= q}; h_r =
    min(x_h, h+1) (0 when h = 0); phi = min_i x_i * i^beta.  The
    formulas presume a finite-support record, so a curve with a
    positive tail falls back to the generic search.
    """
    spec = _with_param(parse_index(index))
    if curve.tail > 0:
        return srm_generic(curve, family_for(spec))
    vals = curve.values
    p = curve.p
    name = spec.name
    if name == "c_max":
        return SrmValue(float(vals[0]) if p else 0.0)
    if name == "pubs":
        return SrmValue(float(p))
    ranks = np.arange(1, p + 1, dtype=float)
    if name == "h":
        return SrmValue(float(_h_like(vals, ranks)))
    if name == "h2":
        return SrmValue(float(_h_like(vals, ranks * ranks)))
    if name == "h_alpha":
        return SrmValue(float(_h_like(vals, spec.param * ranks)))
    if name == "w":
        if p == 0:
            return SrmValue(0.0)
        prefix_min = np.minimum.accumulate(vals + ranks - 1.0)
        return SrmValue(float(np.sum(prefix_min >= ranks)))
    if name == "h_r":
        h = _h_like(vals, ranks)
        if h == 0:
            return SrmValue(0.0)
        x_h = float(vals[h - 1])
        return SrmValue(min(x_h, h + 1.0), attained=x_h < h + 1.0)
    if p == 0:
        return SrmValue(0.0)
    with np.errstate(over="ignore"):  # x_i * i**beta may overflow to inf, never the minimum
        return SrmValue(float(np.min(vals * ranks ** spec.param)))


#: Records are evaluated in blocks of about this many citations, so the
#: temporaries of a batch pass stay small however large the cohort.
BLOCK_VALUES = 1 << 16


def segment_blocks(offsets: np.ndarray) -> Iterator[Tuple[int, int]]:
    """Consecutive segment ranges [lo, hi) holding at most BLOCK_VALUES
    values each, or one segment when that segment alone is longer.
    """
    n = offsets.size - 1
    lo = 0
    while lo < n:
        hi = int(np.searchsorted(offsets, offsets[lo] + BLOCK_VALUES, side="right")) - 1
        hi = min(max(hi, lo + 1), n)
        yield lo, hi
        lo = hi


def segment_counts(mask: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Number of true entries of ``mask`` in every segment of ``offsets``."""
    counts = np.zeros(offsets.size - 1, dtype=np.int64)
    nonempty = offsets[1:] > offsets[:-1]
    if nonempty.any():
        # reduceat sums from each start to the next one, across the empty
        # segments between, which hold nothing; the last runs to offsets[-1]
        counts[nonempty] = np.add.reduceat(mask[:offsets[-1]], offsets[:-1][nonempty],
                                           dtype=np.int64)
    return counts


def _segment_min(x: np.ndarray, offsets: np.ndarray, nonempty: np.ndarray) -> np.ndarray:
    out = np.zeros(offsets.size - 1)
    if x.size:
        out[nonempty] = np.minimum.reduceat(x, offsets[:-1][nonempty])
    return out


def segment_ranks(offsets: np.ndarray) -> np.ndarray:
    """Rank 1, 2, ... of every value within its segment (offsets from 0), as floats."""
    ranks = np.arange(1, offsets[-1] + 1) - np.repeat(offsets[:-1], np.diff(offsets))
    return ranks.astype(float)


def srm_closed_form_batch(
    values: np.ndarray,
    offsets: np.ndarray,
    indices: Sequence[Union[str, IndexSpec]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Catalog closed forms for many records at once.

    Record k is ``values[offsets[k]:offsets[k+1]]``: positive citation
    counts sorted nonincreasing, with tail 0 (the canonical values of a
    :class:`CitationCurve`).  Returns ``(levels, attained)``, arrays of
    shape (records, indices), equal bit for bit to
    :func:`srm_closed_form` on each record.  Each index costs a few
    passes over all citations: h-like counts are segment counts of
    ``x_i >= threshold(i)``, phi a segment minimum of x_i * i**beta,
    and w is min(p, floor(min_i(x_i + i - 1))), which equals the count
    of ranks where the prefix minimum reaches the rank because
    x_i + i - 1 >= i - 1 for every i.  The records go in blocks of about
    BLOCK_VALUES citations, so the temporaries stay small; each block
    writes its own rows.
    """
    specs = [_with_param(parse_index(ix)) for ix in indices]
    values = np.asarray(values, dtype=float)
    offsets = np.asarray(offsets, dtype=np.int64)
    n = offsets.size - 1
    levels = np.zeros((n, len(specs)))
    attained = np.ones((n, len(specs)), dtype=bool)
    for lo, hi in segment_blocks(offsets):
        _closed_forms(values[offsets[lo]:offsets[hi]], offsets[lo:hi + 1] - offsets[lo], specs,
                      levels[lo:hi], attained[lo:hi])
    return levels, attained


def _closed_forms(values, offsets, specs, levels, attained) -> None:
    starts = offsets[:-1]
    p = np.diff(offsets)
    nonempty = p > 0
    ranks = segment_ranks(offsets)
    if {"h", "h_r"} & {spec.name for spec in specs}:  # one count serves both
        h = segment_counts(values >= ranks, offsets)
    for col, spec in enumerate(specs):
        name = spec.name
        if name == "c_max":
            levels[nonempty, col] = values[starts[nonempty]]
        elif name == "pubs":
            levels[:, col] = p
        elif name == "h":
            levels[:, col] = h
        elif name == "h_r":
            has = h > 0
            x_h = values[starts[has] + h[has] - 1]
            levels[has, col] = np.minimum(x_h, h[has] + 1.0)
            attained[has, col] = x_h < h[has] + 1.0
        elif name == "h2":
            levels[:, col] = segment_counts(values >= ranks * ranks, offsets)
        elif name == "h_alpha":
            levels[:, col] = segment_counts(values >= spec.param * ranks, offsets)
        elif name == "w":
            reach = _segment_min(values + ranks - 1.0, offsets, nonempty)
            levels[:, col] = np.minimum(p, np.floor(reach))
        else:
            with np.errstate(over="ignore"):  # x_i * i**beta may overflow to inf, never the minimum
                levels[:, col] = _segment_min(values * ranks ** spec.param, offsets, nonempty)
