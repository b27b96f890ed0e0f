"""Dual evaluation of research measures on discrete instances.

The reference measure is uniform on (0, N].  A dual density Z is a
nonnegative piecewise-constant journal weight with unit mass under that
measure; E[ZX] is then a weighted average of the author's citations.
For a performance family {f_q}, gamma(Z, q) = E[Z f_q] is the smallest
weighted average needed to certify level q, its right inverse
H+(Z, t) = sup{q : gamma(Z, q) <= t} is the best level reachable with
average t under the weighting Z, and min over densities of
H+(Z, E[ZX]) upper-bounds the primal index.

``gamma`` and ``h_plus`` integrate the true curves f_q, which is what
the constructed minimizing densities are tuned to (their dual values
close onto the primal index).  ``weak_duality_margin`` integrates the
rank-sampled step version of f_q instead (constant on each
publication-rank interval, equal to f_q at the rank).  That is the exact
dual counterpart of the engine's integer-rank dominance check: whenever
the curve dominates f_q at the checked ranks it dominates the step
version everywhere mass can sit, so weak duality against the engine's
index holds with the rank-step transform for every density supported on
the dominance domain, while with the true curves it can fail for the
staircase and power shapes (whose rank samples sit strictly below the
curve on the interior of rank intervals).  Both routes invert level
rules by ``LevelRule.inverse_sup``, ask ``PerformanceFamily.vanishes``
whether f_q is 0, and bisect with the engine's float bisection.

Rank-step evaluation is batch-first.  A density enters it as the row of
its unit rank-cell masses m_1..m_ceil(N), so K densities are one
K x ceil(N) matrix; ``random_simplex_candidates`` returns such a matrix,
and ``weak_duality_margin`` weighs every row in a few numpy passes over
the row-wise prefix sums of m_i and i * m_i.  A single ``DualDensity``
is the one-row matrix ``z.rank_mass[None]``, which ``expected_value``
weighs with the same code.  Each row is built with DualDensity's own
arithmetic and searched with numpy's own bisection, so a matrix row
gives the same bits as the density it stands for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from .curves import (
    POWER,
    RECTANGLE,
    STAIRCASE,
    CitationCurve,
    PerformanceFamily,
    checked_number,
)
from .engine import IndexSpec, _bisect, parse_index, srm_closed_form, srm_generic
from .errors import TableEntryError, UnknownIndexError, ValidationError

_MASS_TOL = 1e-9

#: Random densities are drawn and weighed in blocks of about this many
#: rank cells, so the matrices stay small however many are asked for.
BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class ReferenceMeasure:
    """Uniform probability measure on (0, extent]."""

    extent: float

    def __post_init__(self):
        extent = checked_number(self.extent, "measure extent")
        if extent == 0.0:
            raise ValidationError("measure extent must be strictly positive")
        object.__setattr__(self, "extent", extent)


@dataclass(frozen=True, eq=False)
class DualDensity:
    """Nonnegative piecewise-constant density with unit mass.

    ``heights[j]`` is the density value on the half-open cell
    (breakpoints[j], breakpoints[j+1]]; breakpoints run from 0 to the
    measure extent.  Unit mass means (1/N) * sum(height * length) = 1.

    Both are read-only float64 arrays.  Construction also fixes, once,
    the integrals every dual evaluation reads: ``cum_mass`` and
    ``cum_moment``, (1/N) times the integrals of Z and x*Z up to each
    breakpoint, and ``rank_mass``, the mass of each unit rank cell
    (i-1, i].
    """

    breakpoints: np.ndarray
    heights: np.ndarray
    cum_mass: np.ndarray = field(init=False, repr=False)
    cum_moment: np.ndarray = field(init=False, repr=False)
    rank_mass: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        bp = np.array(self.breakpoints, dtype=float)
        hs = np.array(self.heights, dtype=float)
        if bp.ndim != 1 or bp.size < 2 or hs.shape != (bp.size - 1,):
            raise ValidationError("need k+1 breakpoints for k cells")
        if bp[0] != 0.0:
            raise ValidationError("breakpoints must start at 0")
        # from 0, strictly increasing up to a finite end means finite throughout
        if not (math.isfinite(bp[-1]) and (bp[1:] > bp[:-1]).all()):
            raise ValidationError("breakpoints must be finite and strictly increasing")
        if not ((hs >= 0).all() and np.isfinite(hs).all()):
            raise ValidationError("density heights must be finite and >= 0")
        n = bp[-1]
        cum_m = np.concatenate(([0.0], np.cumsum(hs * (bp[1:] - bp[:-1]) / n)))
        mass = float(cum_m[-1])
        if abs(mass - 1.0) > _MASS_TOL:
            raise ValidationError(f"density mass is {mass!r}, must equal 1")
        cum_v = np.concatenate(([0.0], np.cumsum(hs * (bp[1:] ** 2 - bp[:-1] ** 2) / (2.0 * n))))
        for name, a in (("breakpoints", bp), ("heights", hs), ("cum_mass", cum_m),
                        ("cum_moment", cum_v)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        masses = np.diff(_mass_at(self, np.arange(1, math.ceil(n) + 1, dtype=float)), prepend=0.0)
        masses.setflags(write=False)
        object.__setattr__(self, "rank_mass", masses)

    @property
    def extent(self) -> float:
        return float(self.breakpoints[-1])

    @classmethod
    def indicator(cls, lo: float, hi: float, extent: float) -> "DualDensity":
        """Normalized indicator density on the cell (lo, hi]."""
        if not (0 <= lo < hi <= extent):
            raise ValidationError(f"need 0 <= lo < hi <= extent, got ({lo}, {hi}] in (0, {extent}]")
        # sorted distinct breakpoints; np.unique would load numpy.ma on first use
        bp = np.array(sorted({0.0, float(lo), float(hi), float(extent)}))
        inside = (bp[:-1] >= lo) & (bp[1:] <= hi)
        return cls(bp, np.where(inside, extent / (hi - lo), 0.0))

    @classmethod
    def from_weights(cls, weights: Sequence[float], extent: float) -> "DualDensity":
        """Density proportional to ``weights`` on unit cells (i-1, i]."""
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValidationError("weights must be a nonempty one-dimensional sequence")
        if np.any(~np.isfinite(w)) or np.any(w < 0):
            raise ValidationError("weights must be finite and >= 0")
        if w.size > extent:
            raise ValidationError("more weight cells than the measure extent allows")
        total = float(w.sum())
        if total <= 0:
            raise ValidationError("weights must have positive total")
        bp = np.arange(w.size + 1, dtype=float)
        hs = extent * w / total
        if extent > w.size:
            bp = np.append(bp, float(extent))
            hs = np.append(hs, 0.0)
        return cls(bp, hs)


def _cell(z: DualDensity, ys):
    """Each y clipped to [0, N], and the index j of its cell (b_j, b_j+1]."""
    y = np.clip(np.asarray(ys, dtype=float), 0.0, z.extent)
    return y, np.clip(np.searchsorted(z.breakpoints, y, side="left"), 1, len(z.heights)) - 1


def _mass_at(z: DualDensity, ys) -> np.ndarray:
    """(1/N) * integral of Z over (0, y] for each y (exact)."""
    y, j = _cell(z, ys)
    return z.cum_mass[j] + z.heights[j] * (y - z.breakpoints[j]) / z.extent


def _moment_at(z: DualDensity, ys) -> np.ndarray:
    """(1/N) * integral of x*Z(x) over (0, y] for each y (exact)."""
    y, j = _cell(z, ys)
    return z.cum_moment[j] + z.heights[j] * (y * y - z.breakpoints[j] ** 2) / (2.0 * z.extent)


def _power_coeff(z: DualDensity, beta: float) -> float:
    """(1/N) * integral of x**(-beta) * Z(x) over (0, N]; inf if divergent."""
    n = z.extent
    total = 0.0
    for a, b, h in zip(z.breakpoints[:-1], z.breakpoints[1:], z.heights):
        if h == 0.0:
            continue
        if a == 0.0 and beta >= 1.0:
            return math.inf
        if beta == 1.0:
            total += h * math.log(b / a) / n
        else:
            total += h * (b ** (1.0 - beta) - a ** (1.0 - beta)) / ((1.0 - beta) * n)
    return float(total)


def _check_measure(z: DualDensity, measure: ReferenceMeasure) -> None:
    if z.extent != measure.extent:
        raise ValidationError(
            f"density extent {z.extent} does not match measure extent {measure.extent}"
        )


def expected_value(z: DualDensity, curve: CitationCurve, measure: ReferenceMeasure) -> float:
    """E[Z X]: exact integral of the weighted citation curve.

    The curve is constant on unit rank cells, so the integral is the
    dot product of its values with the density's rank-cell masses (the
    tail weighting whatever mass lies past the record).
    """
    _check_measure(z, measure)
    masses = z.rank_mass[None]
    return float(_expected_values(masses, _prefix_sums(masses), curve, measure)[0])


def _prefix_sums(masses: np.ndarray) -> np.ndarray:
    """Row-wise prefix sums of a matrix of rank-cell masses, each from 0."""
    cum = np.zeros((len(masses), masses.shape[1] + 1))
    np.cumsum(masses, axis=1, out=cum[:, 1:])
    return cum


def _expected_values(
    masses: np.ndarray, cum: np.ndarray, curve: CitationCurve, measure: ReferenceMeasure
) -> np.ndarray:
    """E[Z X] for every row of rank-cell masses; ``cum`` holds their prefix sums."""
    p = curve.p
    if p > measure.extent:
        raise ValidationError(
            f"curve has {p} publications but the measure extends only to {measure.extent}"
        )
    if p == 0:
        return curve.tail * cum[:, -1]
    # one dot per row: a matrix-vector product sums in another order
    out = np.array([np.dot(curve.values, row[:p]) for row in masses])
    if curve.tail:
        out += curve.tail * (cum[:, -1] - cum[:, p])
    return out


def gamma(z: DualDensity, q: float, family: PerformanceFamily, measure: ReferenceMeasure) -> float:
    """E[Z f_q], the smallest Z-average of citations certifying level q.

    Exact closed-form integration per shape; a divergent power-shape
    integral (beta >= 1 with mass touching 0) is reported as +inf.
    """
    _check_measure(z, measure)
    if not (q >= 0):
        raise ValidationError(f"performance level must be >= 0, got {q!r}")
    if q == 0:
        return 0.0
    n = measure.extent
    if family.shape == RECTANGLE:
        w = min(family.width.value(q), n)
        return family.height.value(q) * float(_mass_at(z, w))
    if family.shape == STAIRCASE:
        m = min(q, n)
        return (q + 1.0) * float(_mass_at(z, m)) - float(_moment_at(z, m))
    coeff = _power_coeff(z, family.beta)
    return math.inf if math.isinf(coeff) else q * coeff


def _mass_inverse_sup(z: DualDensity, tau: float) -> float:
    """sup{y in [0, N] : mass(y) <= tau}; inf when mass never exceeds tau."""
    if tau < 0:
        return 0.0
    cum_m = z.cum_mass
    if cum_m[-1] <= tau:
        return math.inf
    j = int(np.searchsorted(cum_m, tau, side="right")) - 1
    return float(z.breakpoints[j] + (tau - cum_m[j]) * z.extent / z.heights[j])


def _h_plus_true(z: DualDensity, t: float, family: PerformanceFamily, n: float) -> float:
    bp, hs, cum_m, cum_v = z.breakpoints, z.heights, z.cum_mass, z.cum_moment
    total = cum_m[-1]
    if family.vanishes:
        return math.inf
    if family.shape == POWER:
        coeff = _power_coeff(z, family.beta)
        if math.isinf(coeff):
            return 0.0
        return t / coeff
    if family.shape == RECTANGLE:
        h_rule, w_rule = family.height, family.width
        if w_rule.kind == "const":
            # the height grows: a constant one would make f_0 nonzero
            m = float(_mass_at(z, min(w_rule.coeff, n)))
            if m == 0.0:
                return math.inf
            return h_rule.inverse_sup(t / m)
        if h_rule.kind == "const":
            return w_rule.inverse_sup(_mass_inverse_sup(z, t / h_rule.coeff))
        # increasing height, widening support: walk the density knots
        knots = w_rule.inverse_sup(bp).tolist()
        for j in range(len(knots) - 1):
            q0, q1 = knots[j], knots[j + 1]
            g1 = h_rule.value(q1) * float(cum_m[j + 1])
            if g1 <= t:
                continue
            m0 = float(cum_m[j])
            if h_rule.kind == w_rule.kind == "linear":
                slope = hs[j] * w_rule.coeff / n
                a = h_rule.coeff
                qa, qb = a * slope, a * (m0 - slope * q0)
                if qa == 0.0:
                    q = q1 if qb == 0.0 else t / qb
                else:
                    q = (-qb + math.sqrt(max(qb * qb + 4.0 * qa * t, 0.0))) / (2.0 * qa)
                return min(max(q, q0), q1)
            s, y0 = hs[j] / n, bp[j]
            return _bisect(lambda q: h_rule.value(q) * (m0 + s * (w_rule.value(q) - y0)) <= t,
                           q0, q1)
        # feasible through the last knot: only the height keeps growing
        return h_rule.inverse_sup(t / total)
    # staircase
    for j in range(len(bp) - 1):
        y0, y1 = float(bp[j]), float(bp[j + 1])
        g1 = (y1 + 1.0) * float(cum_m[j + 1]) - float(cum_v[j + 1])
        if g1 <= t:
            continue
        m0, v0 = float(cum_m[j]), float(cum_v[j])
        s = hs[j] / n
        qa = 0.5 * s
        qb = m0 + s * (1.0 - y0)
        qc = m0 - s * y0 - v0 + 0.5 * s * y0 * y0 - t
        if qa == 0.0:
            q = y1 if qb == 0.0 else -qc / qb
        else:
            q = (-qb + math.sqrt(max(qb * qb - 4.0 * qa * qc, 0.0))) / (2.0 * qa)
        return min(max(q, y0), y1)
    return (t + float(cum_v[-1])) / total - 1.0


def _search_right(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """np.searchsorted(a[r], t[r], side="right") for every row r.

    numpy's own bisection, stepped on all rows at once, so a row that is
    not sorted in floating point still gets the index numpy gives it.
    """
    n = a.shape[1]
    rows = np.arange(len(t))
    lo = np.zeros(len(t), dtype=np.intp)
    hi = np.full(len(t), n, dtype=np.intp)
    for _ in range(n.bit_length()):
        mid = (lo + hi) >> 1
        right = a[rows, np.minimum(mid, n - 1)] <= t
        live = lo < hi
        lo = np.where(live & right, mid + 1, lo)
        hi = np.where(live & ~right, mid, hi)
    return lo


def _h_plus_rows(
    masses: np.ndarray, cum: np.ndarray, t: np.ndarray, family: PerformanceFamily
) -> np.ndarray:
    """Rank-step H+(Z, t[r]) for the density of every row r of rank-cell masses.

    ``cum`` holds the row prefix sums of the masses, from 0.  Rank-step
    gamma is piecewise in q between the levels where f_q reaches a new
    rank, so each row's level is found by searching its gamma at those
    levels for t, then solving inside the segment found.
    """
    if np.isnan(t).any():
        raise ValidationError("threshold must not be NaN")
    k = masses.shape[1]
    rows = np.arange(len(t))
    ranks = np.arange(k + 1, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # t / coeff may overflow to inf
        if family.shape == POWER:
            decay = np.arange(1, k + 1, dtype=float) ** (-family.beta)
            coeff = np.array([np.dot(row, decay) for row in masses])
            out = np.where(coeff <= 0.0, math.inf, t / coeff)
        elif family.vanishes:
            out = np.full(len(t), math.inf)
        elif family.shape == RECTANGLE:
            h_rule, w_rule = family.height, family.width
            if w_rule.kind == "const":
                m = cum[:, min(int(math.floor(w_rule.coeff)), k)]
                out = np.where(m == 0.0, math.inf, h_rule.inverse_sup(t / m))
            elif h_rule.kind == "const":
                tau = t / h_rule.coeff
                j = _search_right(cum, tau) - 1
                out = np.where(cum[:, k] <= tau, math.inf, w_rule.inverse_sup(j + 1.0))
            else:
                # gamma at the level where f_q first reaches rank j
                grid = w_rule.inverse_sup(ranks)
                starts = h_rule.value(grid) * cum
                j = _search_right(starts, t) - 1
                c = cum[rows, j]
                level = h_rule.inverse_sup(t / c)
                end = w_rule.inverse_sup(j + 1.0)
                out = np.where(j >= k, level, np.where(c == 0.0, end, np.minimum(level, end)))
        else:
            cim = np.zeros_like(cum)
            np.cumsum(masses * ranks[1:], axis=1, out=cim[:, 1:])
            starts = (ranks + 1.0) * cum - cim
            j = _search_right(starts, t) - 1
            c = cum[rows, j]
            level = (t + cim[rows, j]) / c - 1.0
            out = np.where(j >= k, level, np.where(c == 0.0, j + 1.0, np.minimum(j + 1.0, level)))
    out = np.where(t < 0, 0.0, out)
    return np.where(out < 0.0, 0.0, out)


def h_plus(z: DualDensity, t: float, family: PerformanceFamily, measure: ReferenceMeasure) -> float:
    """sup{q >= 0 : gamma(Z, q) <= t}, the right inverse of gamma.

    The supremum runs over real q regardless of the family's own level
    set, gamma being nondecreasing in q.  Piecewise closed forms make
    the knot-exact cases (constant-height saturation, indicator
    densities) land exactly.  A constant height or width leaves the
    other rule to invert, which ``LevelRule.inverse_sup`` does.  Between
    density knots the crossing solves a linear or quadratic equation
    for the staircase and for a linear height over a linear width;
    every other pair of rules bisects gamma inside the segment
    (``engine._bisect``).  Returns +inf when gamma stays below t for
    every level (a family that ``vanishes``, or saturation of the mass
    term), and 0 when no positive level is feasible.
    """
    _check_measure(z, measure)
    if math.isnan(t):
        raise ValidationError("threshold must not be NaN")
    if t < 0:
        return 0.0
    return float(max(_h_plus_true(z, t, family, measure.extent), 0.0))


def dual_value(
    curve: CitationCurve,
    family: PerformanceFamily,
    candidates: Sequence[DualDensity],
    measure: ReferenceMeasure,
) -> float:
    """min over candidate densities of H+(Z, E[ZX]).

    An upper bound on the infimum over all densities; it closes onto
    the primal index exactly when a minimizing density is among the
    candidates.
    """
    if not candidates:
        raise ValidationError("need at least one candidate density")
    return min(
        h_plus(z, expected_value(z, curve, measure), family, measure) for z in candidates
    )


def weak_duality_margin(
    curve: CitationCurve,
    family: PerformanceFamily,
    masses: np.ndarray,
    measure: ReferenceMeasure,
) -> float:
    """min over densities of H+(Z, E[ZX]) - srm_generic(X), rank-step semantics.

    ``masses`` is a matrix with one density per row, the masses of its
    ceil(N) unit rank cells: rows drawn by ``random_simplex_candidates``,
    or ``z.rank_mass[None]`` for one ``DualDensity``.  Every row is
    weighed at once.

    Nonnegative for every density supported on the dominance domain of
    the family's policy: rank dominance at the engine's level means the
    curve sits above the rank-step f_q wherever such a density has
    mass, so E[ZX] >= gamma(Z, q) there.  Both sides +inf count as a
    zero margin.
    """
    if masses.ndim != 2 or len(masses) == 0:
        raise ValidationError("need at least one density")
    cells = math.ceil(measure.extent)
    if masses.shape[1] != cells:
        raise ValidationError(
            f"densities have {masses.shape[1]} rank cells but the measure extent "
            f"{measure.extent} has {cells}"
        )
    cum = _prefix_sums(masses)
    t = _expected_values(masses, cum, curve, measure)
    hp = min(_h_plus_rows(masses, cum, t, family).tolist())
    phi = srm_generic(curve, family).level
    if math.isinf(hp) and math.isinf(phi):
        return 0.0
    return hp - phi


def constructed_minimizer(
    index: Union[str, IndexSpec],
    curve: CitationCurve,
    delta: float,
    measure: ReferenceMeasure,
) -> DualDensity:
    """The known minimizing density for c_max, pubs or h.

    c_max: the normalized indicator of (0, 1] (the only weighted
    publication); pubs: of (p, p+delta] (mass just past the record,
    where the curve vanishes); h: of (h, h+delta] (mass just past the
    h-core, where the curve first drops below the level).
    """
    spec = parse_index(index)
    if spec.name not in ("c_max", "pubs", "h"):
        raise UnknownIndexError(
            f"no constructed minimizer for index {spec.name!r}; supported: c_max, pubs, h"
        )
    n = measure.extent
    if spec.name == "c_max":
        if n < 1:
            raise ValidationError("measure extent must be at least 1")
        return DualDensity.indicator(0.0, 1.0, n)
    if not (delta > 0):
        raise ValidationError("delta must be positive")
    anchor = curve.p if spec.name == "pubs" else srm_closed_form(curve, "h").level
    if anchor + delta > n:
        raise ValidationError(
            f"interval ({anchor:g}, {anchor + delta:g}] exceeds the measure extent {n:g}"
        )
    return DualDensity.indicator(float(anchor), float(anchor) + delta, n)


def random_simplex_candidates(
    measure: ReferenceMeasure,
    count: int,
    seed: Union[int, np.random.Generator],
    upto: Optional[float] = None,
) -> np.ndarray:
    """Seeded random unit-mass densities on the unit cells (0, upto].

    Returns a read-only (count, ceil(N)) matrix: row r holds the rank
    cell masses of ``DualDensity.from_weights(w_r, N)``, bit for bit,
    where w_r is the r-th flat Dirichlet draw.  ``seed`` is an integer,
    or a Generator whose stream the draws continue.
    """
    k = int(math.floor(min(upto, measure.extent) if upto is not None else measure.extent))
    if k < 1:
        raise ValidationError("need at least one whole cell to sample densities")
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(k), size=count)
    n = measure.extent
    # from_weights' heights, then the mass up to every rank-cell edge as
    # DualDensity computes it: the heights' prefix sums, flat past cell k
    edges = np.cumsum(n * w / w.sum(axis=1, keepdims=True) / n, axis=1)
    edges = np.pad(edges, ((0, 0), (0, math.ceil(n) - k)), mode="edge")
    masses = np.diff(edges, axis=1, prepend=0.0)
    masses.setflags(write=False)
    return masses


def density_blocks(
    measure: ReferenceMeasure,
    count: int,
    seed: int,
    upto: Optional[float] = None,
) -> Iterator[np.ndarray]:
    """``random_simplex_candidates(measure, count, seed, upto)`` in row blocks.

    Each block holds about BLOCK_CELLS rank cells (at least one row);
    the blocks continue one stream, so together they are the same rows.
    """
    rng = np.random.default_rng(seed)
    rows = max(1, BLOCK_CELLS // math.ceil(measure.extent))
    for start in range(0, count, rows):
        yield random_simplex_candidates(measure, min(rows, count - start), rng, upto)


# ---------------------------------------------------------------------------
# dual-first construction from an exogenous journal-weight table
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GammaTable:
    """Level thresholds gamma_beta(Q) per candidate weighting Q.

    ``columns[cid][i]`` is the smallest Q-average of citations needed
    to reach quality level ``betas[i]`` under the weighting named
    ``cid``.  Each column must be nondecreasing in beta.  The grid and
    every column are stored as read-only float64 arrays.
    """

    betas: np.ndarray
    columns: Dict[str, np.ndarray]

    def __post_init__(self):
        betas = np.array(self.betas, dtype=float)
        if (betas.ndim != 1 or not betas.size or not np.isfinite(betas).all()
                or (betas[1:] <= betas[:-1]).any()):
            raise ValidationError("beta grid must be nonempty, finite and strictly increasing")
        betas.setflags(write=False)
        object.__setattr__(self, "betas", betas)
        cols = {}
        for cid, col in self.columns.items():
            col = np.array(col, dtype=float)
            if col.shape != betas.shape:
                raise TableEntryError(
                    f"candidate {cid!r} covers {col.size} levels, expected {betas.size}"
                )
            if not (col >= 0).all():  # nan fails the comparison too
                raise ValidationError(f"gamma values for {cid!r} must be >= 0 (or +inf)")
            if (col[1:] < col[:-1]).any():
                raise ValidationError(f"gamma column for {cid!r} must be nondecreasing in beta")
            col.setflags(write=False)
            cols[cid] = col
        object.__setattr__(self, "columns", cols)


def robust_dual_srm(
    curve: CitationCurve,
    table: GammaTable,
    candidates: Mapping[str, DualDensity],
    measure: ReferenceMeasure,
) -> float:
    """Prudential index from an exogenous journal-weight table.

    For each candidate weighting Q: the largest grid level beta with
    E_Q[X] >= gamma_beta(Q) (-inf when no level is reachable), then the
    minimum across candidates.  The construction is monotone and
    quasi-concave in the citation record by design.
    """
    if not candidates:
        raise ValidationError("need at least one candidate weighting")
    result = math.inf
    for cid in candidates:
        if cid not in table.columns:
            raise TableEntryError(f"candidate {cid!r} has no gamma column in the table")
    for cid, z in candidates.items():
        t = expected_value(z, curve, measure)
        j = int(np.searchsorted(table.columns[cid], t, side="right")) - 1
        value = -math.inf if j < 0 else float(table.betas[j])
        result = min(result, value)
    return result
