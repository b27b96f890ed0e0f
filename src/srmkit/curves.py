"""Citation curves and parametric families of performance curves.

A citation record is modelled as a nonincreasing step function on the
positive half line: the i-th most cited publication carries its citation
count on the rank interval (i-1, i].  Beyond the listed publications the
curve takes a constant ``tail`` value (0 for ordinary records, positive
for uniformly shifted ones), and it vanishes for x <= 0.

A performance family is a one-parameter family of reference curves
f_q, nondecreasing in the level q, used as the yardstick an author's
curve must dominate to certify performance level q.  Three shapes cover
the built-in index catalog:

  rectangle  f_q(x) = height(q) on (0, width(q)]
  staircase  f_q(x) = q - x + 1 on (0, q]
  power      f_q(x) = q / x**beta on (0, oo)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import UnsupportedOperationError, ValidationError

RECTANGLE = "rectangle"
STAIRCASE = "staircase"
POWER = "power"

ALL_POSITIVE_RANKS = "all-positive-ranks"
AUTHOR_SUPPORT_ONLY = "author-support-only"

INTEGER_LEVELS = "integer"
REAL_LEVELS = "real"


def checked_number(x, what: str) -> float:
    """Coerce to float and check that it is finite and nonnegative."""
    try:
        value = float(x)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be a number, got {x!r}") from None
    if not math.isfinite(value) or value < 0:
        raise ValidationError(f"{what} must be finite and >= 0, got {x!r}")
    return value


class CitationCurve:
    """Nonincreasing step curve of citations per publication rank.

    Instances are immutable values, equal by ``==`` but not hashable;
    every entry is finite, nonnegative and at least ``tail``, and
    trailing entries equal to ``tail`` are folded into the tail so the
    effective publication count ``p`` is well defined.  Use
    :func:`construct_curve` to build one from raw, unsorted citation
    counts.
    """

    __slots__ = ("_values", "_tail")

    def __init__(self, values: Sequence[float] = (), tail: float = 0.0):
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1:
            raise ValidationError("citation values must be a one-dimensional sequence")
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValidationError("citation values must be finite")
        if arr.size and np.any(arr < 0):
            raise ValidationError("citation values must be nonnegative")
        tail = checked_number(tail, "tail")
        if arr.size and np.any(arr[1:] > arr[:-1]):
            raise ValidationError("citation values must be nonincreasing; use construct_curve to sort")
        if arr.size and arr[-1] < tail:
            raise ValidationError(
                f"citation value {arr[-1]} is below the tail {tail}; every value must be >= tail"
            )
        # canonical form: entries equal to the tail belong to the tail
        keep = int(np.sum(arr > tail))
        arr = arr[:keep].copy()
        arr.setflags(write=False)
        self._values = arr
        self._tail = float(tail)

    @property
    def values(self) -> np.ndarray:
        """Read-only array of citation counts, sorted nonincreasing."""
        return self._values

    @property
    def tail(self) -> float:
        return self._tail

    @property
    def p(self) -> int:
        """Effective publication count (entries strictly above the tail)."""
        return int(self._values.size)

    @property
    def first_value(self) -> float:
        """Value of the curve on (0, 1]."""
        return float(self._values[0]) if self.p else self._tail

    def rank_values(self, n: int) -> np.ndarray:
        """Curve values at ranks 1..n (the tail fills ranks beyond p)."""
        if n <= self.p:
            return self._values[:n]
        out = np.full(n, self._tail)
        out[: self.p] = self._values
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, CitationCurve):
            return NotImplemented
        return self._tail == other._tail and np.array_equal(self._values, other._values)

    def __repr__(self) -> str:
        body = ", ".join(f"{v:g}" for v in self._values[:8])
        if self.p > 8:
            body += ", ..."
        tail = f", tail={self._tail:g}" if self._tail else ""
        return f"CitationCurve([{body}]{tail})"


def checked_citations(raw: Sequence[float]) -> list:
    """Validate raw citation counts and return them as floats, in input order.

    Entries must be numbers but not booleans, finite and nonnegative; an
    integer too large for a float counts as infinite.  The first bad
    entry is reported by its position.
    """
    cleaned = []
    for pos, v in enumerate(raw):
        # identity tests find the same values as isinstance(v, bool), which
        # cannot be subclassed, at less cost per citation
        if v is True or v is False:
            raise ValidationError(f"citation at position {pos} is {v!r}, not a number")
        try:
            x = float(v)
        except OverflowError:
            x = math.inf
        except (TypeError, ValueError):
            raise ValidationError(f"citation at position {pos} is not a number: {v!r}") from None
        if not 0 <= x < math.inf:
            raise ValidationError(
                f"citation at position {pos} is {v!r}; citations must be finite and >= 0"
            )
        cleaned.append(x)
    return cleaned


def construct_curve(raw: Sequence[float]) -> CitationCurve:
    """Build a canonical citation curve, with tail 0, from raw citation counts.

    Entries are validated by :func:`checked_citations` and sorted
    nonincreasing; zeros fold into the tail.  A record with a positive
    tail is a :class:`CitationCurve` built directly, or a
    :func:`shift_citations` of one.
    """
    cleaned = checked_citations(raw)
    cleaned.sort(reverse=True)
    return CitationCurve(cleaned)


def shift_citations(curve: CitationCurve, m: float) -> CitationCurve:
    """Add m citations to every publication (and to the tail)."""
    m = checked_number(m, "shift")
    return CitationCurve(curve.values + m, curve.tail + m)


def append_publication(curve: CitationCurve) -> CitationCurve:
    """Append one new publication with exactly 1 citation at rank p+1.

    Defined only for finite-support curves (tail 0) whose last listed
    value is at least 1, so the result is still nonincreasing.
    """
    if curve.tail != 0:
        raise UnsupportedOperationError("append_publication requires a curve with tail 0")
    if curve.p and curve.values[-1] < 1.0:
        raise ValidationError(
            "appending a 1-citation publication would break the nonincreasing order"
        )
    return CitationCurve(np.concatenate([curve.values, [1.0]]))


def mix(x1: CitationCurve, x2: CitationCurve, lam: float) -> CitationCurve:
    """Pointwise convex combination lam*x1 + (1-lam)*x2 of two records."""
    lam = checked_number(lam, "mixing weight")
    if lam > 1.0:
        raise ValidationError(f"mixing weight must lie in [0, 1], got {lam!r}")
    if x1.tail != 0 or x2.tail != 0:
        raise ValidationError("mix is defined for curves with tail 0")
    n = max(x1.p, x2.p)
    combined = lam * x1.rank_values(n) + (1.0 - lam) * x2.rank_values(n)
    return CitationCurve(combined)


@dataclass(frozen=True)
class LevelRule:
    """Maps a performance level q to a rectangle height or width.

    kind "const" gives coeff, "linear" gives coeff*q, "square" gives
    coeff*q**2.  Coefficients are nonnegative so the rule is
    nondecreasing in q.  ``inverse_sup`` is the one inverse of a rule:
    the level search, the level ceiling and both dual routes read it.
    """

    kind: str
    coeff: float = 1.0

    def __post_init__(self):
        if self.kind not in ("const", "linear", "square"):
            raise ValidationError(f"unknown level rule kind {self.kind!r}")
        if not math.isfinite(self.coeff) or self.coeff < 0:
            raise ValidationError("level rule coefficient must be finite and >= 0")

    def value(self, q: float) -> float:
        if self.kind == "const":
            return self.coeff
        if self.kind == "linear":
            return self.coeff * q
        return self.coeff * q * q

    def inverse_sup(self, v):
        """sup{q >= 0 : value(q) <= v}; inf when the rule never exceeds v.

        ``v`` is a float or an array, taken entrywise; a float in gives
        a float out.
        """
        a = np.asarray(v, dtype=float)
        # v / coeff may overflow to inf; the sqrt of a v < 0 is replaced below
        with np.errstate(invalid="ignore", over="ignore"):
            if self.kind == "const":
                out = np.where(self.coeff <= a, math.inf, 0.0)
            elif self.coeff == 0:
                out = np.full(a.shape, math.inf)
            elif self.kind == "linear":
                out = a / self.coeff
            else:
                out = np.sqrt(a / self.coeff)
        out = np.where(a < 0, 0.0, out)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class PerformanceFamily:
    """A family of reference citation curves f_q, nondecreasing in q.

    Each f_q is left continuous in x, vanishes for x <= 0, and f_0 is
    identically zero; the family is also left continuous in q except at
    the moving support boundary (a null set under the reference
    measure).  ``levels`` is the level set searched, INTEGER_LEVELS or
    REAL_LEVELS; level 0 always belongs to it.
    """

    name: str
    shape: str
    levels: str
    height: Optional[LevelRule] = None
    width: Optional[LevelRule] = None
    beta: Optional[float] = None

    def __post_init__(self):
        if self.shape not in (RECTANGLE, STAIRCASE, POWER):
            raise ValidationError(f"unknown family shape {self.shape!r}")
        if self.levels not in (INTEGER_LEVELS, REAL_LEVELS):
            raise ValidationError(f"unknown level set kind {self.levels!r}")
        if self.shape == RECTANGLE:
            if self.height is None or self.width is None:
                raise ValidationError("rectangle families need height and width rules")
            if self.height.value(0) > 0 and self.width.value(0) > 0:
                raise ValidationError("f_0 must vanish: height(0) and width(0) cannot both be positive")
        elif self.shape == POWER:
            if self.beta is None or not math.isfinite(self.beta) or self.beta <= 0:
                raise ValidationError("power families need a finite exponent beta > 0")

    @property
    def policy(self) -> str:
        """The dominance domain, fixed by the shape.

        A power curve has unbounded support, so only the author's own
        ranks can be checked; every other shape checks its whole support.
        """
        return AUTHOR_SUPPORT_ONLY if self.shape == POWER else ALL_POSITIVE_RANKS

    @property
    def vanishes(self) -> bool:
        """True for a rectangle with a zero height or width coefficient,
        whose f_q is identically 0: every level is feasible."""
        return self.shape == RECTANGLE and (self.height.coeff == 0 or self.width.coeff == 0)


def rectangle_family(
    name: str,
    height: LevelRule,
    width: LevelRule,
    levels: str = INTEGER_LEVELS,
) -> PerformanceFamily:
    return PerformanceFamily(name=name, shape=RECTANGLE, levels=levels, height=height, width=width)


def staircase_family(name: str = "w") -> PerformanceFamily:
    return PerformanceFamily(name=name, shape=STAIRCASE, levels=INTEGER_LEVELS)


def power_family(beta: float, name: str = "") -> PerformanceFamily:
    return PerformanceFamily(
        name=name or f"power:{beta:g}", shape=POWER, levels=REAL_LEVELS, beta=beta
    )


def support_bound(family: PerformanceFamily, q: float) -> float:
    """Supremum of the support of f_q (inf for the power shape, q > 0)."""
    if q <= 0:
        return 0.0
    if family.shape == RECTANGLE:
        return family.width.value(q) if family.height.value(q) > 0 else 0.0
    if family.shape == STAIRCASE:
        return q
    return math.inf


def evaluate_family(family: PerformanceFamily, q: float, x: float) -> float:
    """Value of the performance curve f_q at the point x."""
    if not math.isfinite(q) or q < 0:
        raise ValidationError(f"performance level must be finite and >= 0, got {q!r}")
    if x <= 0 or q == 0:
        return 0.0
    if family.shape == RECTANGLE:
        return family.height.value(q) if x <= family.width.value(q) else 0.0
    if family.shape == STAIRCASE:
        return q - x + 1.0 if x <= q else 0.0
    return q / x ** family.beta


@dataclass(frozen=True)
class SrmValue:
    """A computed index level.

    ``attained`` records whether the reported level itself is feasible;
    a supremum may only be approached from below, in which case the
    search reports the best feasible level it certified.
    """

    level: float
    attained: bool = True

    def __post_init__(self):
        if math.isnan(self.level) or self.level < 0:
            raise ValidationError(f"index level must be >= 0 or +inf, got {self.level!r}")
