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
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import UnsupportedOperationError, ValidationError

RECTANGLE = "rectangle"
STAIRCASE = "staircase"
POWER = "power"

ALL_POSITIVE_RANKS = "all-positive-ranks"
AUTHOR_SUPPORT_ONLY = "author-support-only"

INTEGER_LEVELS = "integer"
REAL_LEVELS = "real"


def checked_number(x, what: str, minimum: float = 0.0) -> float:
    """Coerce to float and validate finiteness and the lower bound."""
    try:
        value = float(x)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be a number, got {x!r}") from None
    if not math.isfinite(value) or value < minimum:
        raise ValidationError(f"{what} must be finite and >= {minimum:g}, got {x!r}")
    return value


class CitationCurve:
    """Nonincreasing step curve of citations per publication rank.

    Instances are immutable values; every entry is finite, nonnegative
    and at least ``tail``, and trailing entries equal to ``tail`` are
    folded into the tail so the effective publication count ``p`` is
    well defined.  Use :func:`construct_curve` to build one from raw,
    unsorted citation counts.
    """

    __slots__ = ("_values", "_tail", "_hash")

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
        self._hash = hash((self._tail, arr.tobytes()))

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

    def value_at(self, x: float) -> float:
        """Pointwise value of the step function at x."""
        if x <= 0:
            return 0.0
        i = math.ceil(x)
        if i <= self.p:
            return float(self._values[i - 1])
        return self._tail

    def as_list(self) -> list:
        return [float(v) for v in self._values]

    def __eq__(self, other) -> bool:
        if not isinstance(other, CitationCurve):
            return NotImplemented
        return self._tail == other._tail and np.array_equal(self._values, other._values)

    def __hash__(self):
        return self._hash

    def __repr__(self) -> str:
        body = ", ".join(f"{v:g}" for v in self._values[:8])
        if self.p > 8:
            body += ", ..."
        tail = f", tail={self._tail:g}" if self._tail else ""
        return f"CitationCurve([{body}]{tail})"


def checked_citations(raw: Sequence[float], tail: float = 0.0) -> list:
    """Validate raw citation counts and return them as floats, in input order.

    Entries must be numbers but not booleans, finite, and at least
    ``tail`` (itself already validated); an integer too large for a
    float counts as infinite.  The first bad entry is reported by its
    position.
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
        if not tail <= x < math.inf:
            if 0 <= x < math.inf:
                raise ValidationError(
                    f"citation {x:g} at position {pos} is below the tail {tail:g}"
                )
            raise ValidationError(
                f"citation at position {pos} is {v!r}; citations must be finite and >= 0"
            )
        cleaned.append(x)
    return cleaned


def construct_curve(raw: Sequence[float], tail: float = 0.0) -> CitationCurve:
    """Build a canonical citation curve from raw citation counts.

    Entries are validated by :func:`checked_citations`, sorted
    nonincreasing, and trailing entries equal to ``tail`` are folded
    into the tail.  An entry strictly below ``tail`` is rejected.
    """
    tail = checked_number(tail, "tail")
    cleaned = checked_citations(raw, tail)
    cleaned.sort(reverse=True)
    return CitationCurve(cleaned, tail)


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
    nondecreasing in q.
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

    def inverse_sup(self, v: float) -> float:
        """sup{q >= 0 : value(q) <= v}; inf when the rule never exceeds v."""
        if v < 0:
            return 0.0
        if self.kind == "const":
            return math.inf if self.coeff <= v else 0.0
        if self.coeff == 0:
            return math.inf
        if self.kind == "linear":
            return v / self.coeff
        return math.sqrt(v / self.coeff)


@dataclass(frozen=True)
class IndexLevelSet:
    """Candidate performance levels: nonnegative integers or reals.

    Level 0 always belongs to the set and the set is totally ordered.
    ``ceiling`` may name a custom search bound, a function of the
    citation curve beyond which dominance is known to fail; when absent
    the engine derives a bound from the family shape.
    """

    kind: str = INTEGER_LEVELS
    ceiling: Optional[Callable[[object], float]] = None

    def __post_init__(self):
        if self.kind not in (INTEGER_LEVELS, REAL_LEVELS):
            raise ValidationError(f"unknown level set kind {self.kind!r}")
        if self.ceiling is not None and not callable(self.ceiling):
            raise ValidationError("the level-set ceiling must be callable")


@dataclass(frozen=True)
class PerformanceFamily:
    """A family of reference citation curves f_q, nondecreasing in q.

    Each f_q is left continuous in x, vanishes for x <= 0, and f_0 is
    identically zero; the family is also left continuous in q except at
    the moving support boundary (a null set under the reference
    measure).  ``policy`` names the default dominance domain; the power
    shape has unbounded support and therefore requires the
    author-support-only policy.
    """

    name: str
    shape: str
    levels: IndexLevelSet
    policy: str = ALL_POSITIVE_RANKS
    height: Optional[LevelRule] = None
    width: Optional[LevelRule] = None
    beta: Optional[float] = None

    def __post_init__(self):
        if self.shape not in (RECTANGLE, STAIRCASE, POWER):
            raise ValidationError(f"unknown family shape {self.shape!r}")
        if self.policy not in (ALL_POSITIVE_RANKS, AUTHOR_SUPPORT_ONLY):
            raise ValidationError(f"unknown dominance policy {self.policy!r}")
        if self.shape == RECTANGLE:
            if self.height is None or self.width is None:
                raise ValidationError("rectangle families need height and width rules")
            if self.height.value(0) > 0 and self.width.value(0) > 0:
                raise ValidationError("f_0 must vanish: height(0) and width(0) cannot both be positive")
        elif self.shape == POWER:
            if self.beta is None or not math.isfinite(self.beta) or self.beta <= 0:
                raise ValidationError("power families need a finite exponent beta > 0")
            if self.policy != AUTHOR_SUPPORT_ONLY:
                raise ValidationError(
                    "power families have unbounded support and require the author-support-only policy"
                )


def rectangle_family(
    name: str,
    height: LevelRule,
    width: LevelRule,
    levels: IndexLevelSet = IndexLevelSet(INTEGER_LEVELS),
    policy: str = ALL_POSITIVE_RANKS,
) -> PerformanceFamily:
    return PerformanceFamily(name=name, shape=RECTANGLE, levels=levels, policy=policy,
                             height=height, width=width)


def staircase_family(
    name: str = "w",
    levels: IndexLevelSet = IndexLevelSet(INTEGER_LEVELS),
    policy: str = ALL_POSITIVE_RANKS,
) -> PerformanceFamily:
    return PerformanceFamily(name=name, shape=STAIRCASE, levels=levels, policy=policy)


def power_family(
    beta: float,
    name: str = "",
    levels: IndexLevelSet = IndexLevelSet(REAL_LEVELS),
) -> PerformanceFamily:
    return PerformanceFamily(
        name=name or f"power:{beta:g}",
        shape=POWER,
        levels=levels,
        policy=AUTHOR_SUPPORT_ONLY,
        beta=beta,
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


@lru_cache(maxsize=256)
def _rank_powers(beta: float, n: int) -> np.ndarray:
    out = np.arange(1, n + 1, dtype=float) ** (-beta)
    out.setflags(write=False)
    return out


def family_rank_values(family: PerformanceFamily, q: float, n: int) -> np.ndarray:
    """Vector of f_q evaluated at integer ranks 1..n."""
    if n <= 0:
        return np.empty(0)
    if q <= 0:
        return np.zeros(n)
    ranks = np.arange(1, n + 1, dtype=float)
    if family.shape == RECTANGLE:
        h = family.height.value(q)
        return np.where(ranks <= family.width.value(q), h, 0.0)
    if family.shape == STAIRCASE:
        return np.where(ranks <= q, q - ranks + 1.0, 0.0)
    return q * _rank_powers(family.beta, n)


_DEFAULT_Q_GRID = tuple(range(0, 9))
_DEFAULT_M_GRID = (1, 2, 3, 4)
_DEFAULT_X_GRID = tuple(range(1, 13))


def family_slope_class(
    family: PerformanceFamily,
    q_grid: Sequence[float] = _DEFAULT_Q_GRID,
    m_grid: Sequence[float] = _DEFAULT_M_GRID,
    x_grid: Sequence[float] = _DEFAULT_X_GRID,
    tol: float = 1e-12,
) -> str:
    """Classify how fast the family rises in q, on a finite grid.

    Checks f_{q+m}(x) - f_q(x) against m over the grid product and
    returns the strongest label consistent with every sampled point:
    "linear" (difference always equals m), "slowly" (always <= m),
    "fast" (always >= m), or "neither".  This is a refutation test, not
    a proof: the defining inequalities quantify over all m and x, so a
    grid can only rule classes out.  The defaults are rank-aligned
    integer grids, matching the integer-rank dominance convention.
    """
    if not len(q_grid) or not len(m_grid) or not len(x_grid):
        raise ValidationError("slope classification grids must be nonempty")
    slowly = True
    fast = True
    for q in q_grid:
        for m in m_grid:
            if m < 0:
                raise ValidationError("slope increments must be nonnegative")
            for x in x_grid:
                diff = evaluate_family(family, q + m, x) - evaluate_family(family, q, x)
                if diff > m + tol:
                    slowly = False
                if diff < m - tol:
                    fast = False
            if not slowly and not fast:
                return "neither"
    if slowly and fast:
        return "linear"
    return "slowly" if slowly else "fast"


def left_continuity_check(
    family: PerformanceFamily, q: float, x: float, epsilons: Sequence[float]
) -> float:
    """Residual f_q(x) - f_{q-eps}(x) at the smallest probe eps.

    For every built-in shape the residual tends to 0 as eps does,
    provided x is not pinned to the moving support boundary (a null set
    under the reference measure).
    """
    if not len(epsilons):
        raise ValidationError("need at least one epsilon to probe left continuity")
    eps = min(epsilons)
    if eps <= 0:
        raise ValidationError("epsilons must be positive")
    if q - eps < 0:
        raise ValidationError("q - eps must stay inside the level set")
    return evaluate_family(family, q, x) - evaluate_family(family, q - eps, x)


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

    @property
    def finite(self) -> bool:
        return math.isfinite(self.level)
