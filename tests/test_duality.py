import math

import numpy as np
import pytest

from srmkit import (
    CitationCurve,
    DualDensity,
    GammaTable,
    ReferenceMeasure,
    TableEntryError,
    UnknownIndexError,
    ValidationError,
    constructed_minimizer,
    construct_curve,
    dual_value,
    expected_value,
    family_for,
    gamma,
    h_plus,
    robust_dual_srm,
    srm_closed_form,
    srm_generic,
    weak_duality_margin,
)
from srmkit.curves import (
    AUTHOR_SUPPORT_ONLY,
    RECTANGLE,
    STAIRCASE,
    LevelRule,
    evaluate_family,
    rectangle_family,
)
from srmkit import duality
from srmkit.duality import (
    BLOCK_CELLS,
    _expected_values,
    _h_plus_rows,
    _mass_at,
    _prefix_sums,
    _row_dots,
    _search_right,
    density_blocks,
    random_simplex_candidates,
)

from conftest import random_curve, value_at

N = 16.0
MU = ReferenceMeasure(N)
X = construct_curve([8, 6, 4, 2])
UNIFORM = DualDensity((0.0, N), (1.0,))

SHAPES = ("c_max", "pubs", "h", "h2", "h_alpha:2", "w")
CATALOG = ("c_max", "pubs", "h", "h2", "h_alpha:0.5", "h_alpha:1", "h_alpha:2", "h_alpha:3",
           "w", "h_r", "phi:0.8", "phi:1.62", "phi:2.5")


# rectangle families whose f_q is 0: a zero height or width coefficient
VANISHING = (
    rectangle_family("linear/zero", LevelRule("linear", 1.0), LevelRule("linear", 0.0)),
    rectangle_family("square/zero", LevelRule("square", 1.0), LevelRule("square", 0.0)),
    rectangle_family("zero/linear", LevelRule("linear", 0.0), LevelRule("linear", 1.0)),
    rectangle_family("const-zero/square", LevelRule("const", 0.0), LevelRule("square", 1.0)),
    rectangle_family("linear/const-zero", LevelRule("linear", 1.0), LevelRule("const", 0.0)),
)
# rectangle families beyond the catalog's: square widths, and the vanishing ones
RULE_PAIRS = (
    rectangle_family("const/square", LevelRule("const", 1.0), LevelRule("square", 1.0)),
    rectangle_family("linear/square", LevelRule("linear", 1.0), LevelRule("square", 0.5)),
    rectangle_family("square/square", LevelRule("square", 2.0), LevelRule("square", 0.5)),
) + VANISHING


def random_density(rng, measure, cells=None):
    k = int(cells if cells is not None else math.floor(measure.extent))
    return DualDensity.from_weights(rng.dirichlet(np.ones(k)), measure.extent)


def rank_step_gamma(masses, q, family):
    """E[Z f_q] with f_q sampled at the publication ranks and held on
    each rank cell; ``masses`` are one density's rank-cell masses.  The
    scalar formula that the batch ``_h_plus_rows`` is held to."""
    if q == 0:
        return 0.0
    k = len(masses)
    cum_m = np.concatenate(([0.0], np.cumsum(masses)))
    cum_im = np.concatenate(([0.0], np.cumsum(masses * np.arange(1, k + 1, dtype=float))))
    if family.shape == RECTANGLE:
        kk = min(int(math.floor(family.width.value(q))), k)
        return family.height.value(q) * float(cum_m[kk])
    if family.shape == STAIRCASE:
        kk = min(int(math.floor(q)), k)
        return (q + 1.0) * float(cum_m[kk]) - float(cum_im[kk])
    return q * float(np.dot(masses, np.arange(1, k + 1, dtype=float) ** (-family.beta)))


def rank_step_h_plus(z, t, family):
    """Rank-step H+(Z, t) of one density: ``_h_plus_rows`` on its one row."""
    masses = z.rank_mass[None]
    return float(_h_plus_rows(masses, _prefix_sums(masses), np.array([float(t)]), family)[0])


class TestDualDensity:
    def test_mass_must_be_one(self):
        with pytest.raises(ValidationError, match="mass"):
            DualDensity((0.0, N), (0.5,))

    def test_breakpoints_validated(self):
        with pytest.raises(ValidationError):
            DualDensity((1.0, N), (1.0,))
        with pytest.raises(ValidationError):
            DualDensity((0.0, 5.0, 5.0, N), (1.0, 1.0, 1.0))
        with pytest.raises(ValidationError):
            DualDensity((0.0, N), (-1.0,))

    def test_indicator_height(self):
        z = DualDensity.indicator(0, 1, N)
        assert tuple(z.breakpoints) == (0.0, 1.0, N)
        assert tuple(z.heights) == (N, 0.0)

    def test_arrays_are_read_only(self):
        z = DualDensity.from_weights([1, 3], N)
        for name in ("breakpoints", "heights", "cum_mass", "cum_moment", "rank_mass"):
            arr = getattr(z, name)
            assert arr.dtype == np.float64
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_rank_cells_match_mass_at(self, rng):
        # the construction reads _mass_at at the rank-cell edges; same bits
        for extent in (N, 10.5):
            for _ in range(20):
                cuts = np.unique(rng.uniform(0, extent, size=5))
                bp = np.concatenate([[0.0], cuts, [extent]])
                hs = rng.uniform(0, 1, size=bp.size - 1)
                z = DualDensity(bp, hs * extent / np.dot(hs, np.diff(bp)))
                edges = np.minimum(np.arange(1, math.ceil(extent) + 1), extent)
                masses = np.diff(np.concatenate([[0.0], _mass_at(z, edges)]))
                assert np.array_equal(z.rank_mass, masses)
                assert np.array_equal(_prefix_sums(z.rank_mass[None])[0, 1:], np.cumsum(masses))

    def test_construction_copies_its_input(self):
        bp, hs = np.array([0.0, N]), np.array([1.0])
        z = DualDensity(bp, hs)
        hs[0] = 2.0
        assert z.heights[0] == 1.0

    def test_from_weights_normalizes(self):
        z = DualDensity.from_weights([1, 3], N)
        assert z.heights[0] == pytest.approx(N / 4)
        assert z.heights[1] == pytest.approx(3 * N / 4)


class TestExpectedValue:
    def test_uniform_weight_gives_mean(self):
        mu10 = ReferenceMeasure(10.0)
        z = DualDensity((0.0, 10.0), (1.0,))
        assert expected_value(z, X, mu10) == pytest.approx(2.0)

    def test_first_cell_indicator_reads_top_paper(self):
        z = DualDensity.indicator(0, 1, N)
        assert expected_value(z, X, MU) == 8.0

    def test_mass_past_the_record_reads_zero(self):
        z = DualDensity.indicator(4, 4.5, N)
        assert expected_value(z, X, MU) == 0.0

    def test_against_riemann_sum(self, rng):
        xs = (np.arange(200_000) + 0.5) * (N / 200_000)
        for _ in range(10):
            z = random_density(rng, MU)
            curve = random_curve(rng, max_p=12, max_c=40)
            zv = np.array(z.heights)[np.searchsorted(z.breakpoints, xs, side="left") - 1]
            xv = np.array([value_at(curve, x) for x in np.ceil(xs)])
            approx = float(np.dot(zv, xv)) / 200_000
            assert expected_value(z, curve, MU) == pytest.approx(approx, abs=1e-9)

    def test_curve_must_fit_measure(self):
        small = ReferenceMeasure(2.0)
        with pytest.raises(ValidationError):
            expected_value(DualDensity((0.0, 2.0), (1.0,)), X, small)


class TestGamma:
    def test_h_family_first_cell(self):
        mu10 = ReferenceMeasure(10.0)
        z = DualDensity.indicator(0, 1, 10.0)
        for q in (1.0, 2.0, 7.5):
            assert gamma(z, q, family_for("h"), mu10) == pytest.approx(q)

    def test_staircase_uniform_trapezoid(self):
        mu10 = ReferenceMeasure(10.0)
        z = DualDensity((0.0, 10.0), (1.0,))
        assert gamma(z, 4, family_for("w"), mu10) == pytest.approx(1.2)

    def test_level_zero(self, rng):
        z = random_density(rng, MU)
        for label in SHAPES + ("phi:1.62",):
            assert gamma(z, 0, family_for(label), MU) == 0.0

    def test_monotone_in_level(self, rng):
        for label in SHAPES + ("phi:0.8",):
            fam = family_for(label)
            for _ in range(40):
                z = random_density(rng, MU)
                q1, q2 = sorted(rng.uniform(0, 14, size=2))
                assert gamma(z, q1, fam, MU) <= gamma(z, q2, fam, MU) + 1e-12

    def test_power_divergence_reported_as_inf(self):
        fam = family_for("phi:1.62")
        assert math.isinf(gamma(UNIFORM, 3, fam, MU))
        away = DualDensity.indicator(1, 2, N)
        assert math.isfinite(gamma(away, 3, fam, MU))

    def test_power_against_log_grid_quadrature(self):
        # geometric midpoint rule; the truncated sliver below b*2**-200
        # contributes less than 1e-11 for beta <= 0.9
        def log_riemann(a, b, beta, cells=2_000_000):
            lo = b * 2.0**-200 if a == 0.0 else a
            edges = np.exp(np.linspace(np.log(lo), np.log(b), cells + 1))
            mids = np.sqrt(edges[:-1] * edges[1:])
            return float(np.dot(mids ** (-beta), np.diff(edges)))

        for beta, z in [
            (0.8, UNIFORM),  # integrable singularity at 0
            (1.62, DualDensity.indicator(1, 2, N)),
            (1.0, DualDensity.indicator(2, 5, N)),
        ]:
            fam = family_for(f"phi:{beta}")
            q = 3.5
            expected = sum(
                height * q * log_riemann(a, b, beta) / N
                for a, b, height in zip(z.breakpoints, z.breakpoints[1:], z.heights)
                if height > 0.0
            )
            assert gamma(z, q, fam, MU) == pytest.approx(expected, abs=1e-6)

    def test_square_width_against_riemann_sum(self, rng):
        # midpoint rule on evaluate_family; the densities are constant on
        # unit cells, so only the cell holding the width W(q) is misread,
        # by at most height * Z / points
        fam = rectangle_family("linear/square", LevelRule("linear", 1.0), LevelRule("square", 0.5))
        points = 50_000
        xs = (np.arange(points) + 0.5) * (N / points)
        for _ in range(10):
            z = random_density(rng, MU)
            q = float(rng.uniform(0, 6))
            zv = np.array(z.heights)[np.searchsorted(z.breakpoints, xs, side="left") - 1]
            fv = np.array([evaluate_family(fam, q, x) for x in xs])
            approx = float(np.dot(zv, fv)) / points
            bound = fam.height.value(q) * float(z.heights.max()) / points
            assert gamma(z, q, fam, MU) == pytest.approx(approx, abs=bound + 1e-12)

    def test_rank_step_matches_direct_sum(self, rng):
        for label in SHAPES + ("phi:1.62",):
            fam = family_for(label)
            for _ in range(25):
                z = random_density(rng, MU)
                q = float(rng.uniform(0, 14))
                bp_lo = np.array(z.breakpoints[:-1])
                bp_hi = np.array(z.breakpoints[1:])
                heights = np.array(z.heights)
                cum = [
                    float(np.dot(heights, np.minimum(bp_hi, i) - np.minimum(bp_lo, i))) / N
                    for i in range(1, int(N) + 1)
                ]
                masses = np.diff([0.0] + cum)
                f_q = [evaluate_family(fam, q, i) for i in range(1, int(N) + 1)]
                direct = float(np.dot(masses, f_q))
                assert rank_step_gamma(z.rank_mass, q, fam) == pytest.approx(direct, abs=1e-10)


class TestHPlus:
    def test_cmax_transform_is_identity(self, rng):
        z = DualDensity.indicator(0, 1, N)
        fam = family_for("c_max")
        for t in (0.0, 1.7, 8.0, 55.5):
            assert h_plus(z, t, fam, MU) == pytest.approx(t, abs=1e-12)

    def test_pubs_minimizer_pins_the_count(self):
        fam = family_for("pubs")
        for delta in (0.5, 1.0, 4.0):
            z = DualDensity.indicator(4, 4 + delta, N)
            assert h_plus(z, 0.0, fam, MU) == 4.0

    def test_negative_threshold_floors_at_zero(self, rng):
        for label in SHAPES:
            assert h_plus(random_density(rng, MU), -0.5, family_for(label), MU) == 0.0

    def test_saturation_is_reported_as_inf(self):
        fam = family_for("pubs")
        assert math.isinf(h_plus(UNIFORM, 1.5, fam, MU))

    def test_matches_direct_bisection_on_gamma(self, rng):
        for fam in [family_for(label) for label in SHAPES + ("phi:0.8",)] + list(RULE_PAIRS):
            for _ in range(25):
                z = random_density(rng, MU)
                t = float(rng.uniform(0, 6))
                got = h_plus(z, t, fam, MU)
                if math.isinf(got):
                    assert gamma(z, 1e6, fam, MU) <= t + 1e-12
                    continue
                lo, hi = 0.0, 1.0
                while gamma(z, hi, fam, MU) <= t and hi < 1e9:
                    hi *= 2
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    if gamma(z, mid, fam, MU) <= t:
                        lo = mid
                    else:
                        hi = mid
                assert got == pytest.approx(lo, abs=1e-6)


    def test_public_results_are_floats(self, rng):
        for label in CATALOG:
            fam = family_for(label)
            for z in (random_density(rng, MU), DualDensity.indicator(2, 3.5, N)):
                t = expected_value(z, X, MU)
                for value in (gamma(z, 2.5, fam, MU), h_plus(z, t, fam, MU),
                              dual_value(X, fam, [z], MU)):
                    assert type(value) is float, (label, value)


UNIT_CELLS = [DualDensity.indicator(i - 1.0, float(i), N) for i in range(1, 17)]


class TestDualValue:
    def test_cmax_infimum_attained_at_first_cell(self):
        fam = family_for("c_max")
        candidates = UNIT_CELLS + [constructed_minimizer("c_max", X, 0.0, MU)]
        assert dual_value(X, fam, candidates, MU) == 8.0

    def test_pubs_exact_for_every_delta(self):
        fam = family_for("pubs")
        for delta in (1.0, 0.1, 0.01):
            candidates = [constructed_minimizer("pubs", X, delta, MU)]
            assert dual_value(X, fam, candidates, MU) == 4.0

    def test_h_gap_bounded_and_shrinking(self):
        fam = family_for("h")
        gaps = []
        for delta in (1.0, 0.1, 0.01):
            z = constructed_minimizer("h", X, delta, MU)
            value = dual_value(X, fam, UNIT_CELLS + [z], MU)
            gap = value - 3.0
            assert 0.0 <= gap <= delta * 2.0 / 3.0
            # fine-grid feasibility scan as an independent bound
            grid = np.arange(3.0, 4.0, 1e-4)
            feasible = grid[[gamma(z, q, fam, MU) <= expected_value(z, X, MU) for q in grid]]
            assert value == pytest.approx(feasible.max(), abs=1e-3)
            gaps.append(gap)
        assert gaps[0] > gaps[1] > gaps[2] > 0

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValidationError):
            dual_value(X, family_for("h"), [], MU)


class TestWeakDuality:
    def test_h_family_margins_never_negative(self, rng):
        fam = family_for("h")
        for _ in range(300):
            curve = random_curve(rng, max_p=14, max_c=60)
            z = random_density(rng, MU)
            assert weak_duality_margin(curve, fam, z.rank_mass[None], MU) >= -1e-9

    def test_cmax_minimizer_margin_zero(self):
        z = constructed_minimizer("c_max", X, 0.0, MU)
        assert weak_duality_margin(X, family_for("c_max"), z.rank_mass[None], MU) == 0.0

    def test_zero_curve_margin_nonnegative(self, rng):
        zero = construct_curve([])
        for label in SHAPES:
            z = random_density(rng, MU)
            assert weak_duality_margin(zero, family_for(label), z.rank_mass[None], MU) >= 0.0

    def test_rank_step_semantics_is_what_makes_it_hold(self):
        # The engine checks dominance at integer ranks, so the staircase
        # index of [4,2,2,2,2] is 3 even though the curve dips below the
        # true staircase line inside the rank-2 interval.  A density
        # concentrated there prices that dip: the true-curve transform
        # falls below the index and only the rank-step transform keeps
        # the duality inequality.
        curve = construct_curve([4, 2, 2, 2, 2])
        fam = family_for("w")
        z = DualDensity.indicator(1, 2, N)
        t = expected_value(z, curve, MU)
        assert srm_generic(curve, fam).level == 3.0
        assert h_plus(z, t, fam, MU) == pytest.approx(2.5)  # below the index
        assert rank_step_h_plus(z, t, fam) >= 3.0
        assert weak_duality_margin(curve, fam, z.rank_mass[None], MU) >= 0.0

    def test_support_restricted_margins_for_power(self, rng):
        fam = family_for("phi:1.62")
        for _ in range(200):
            curve = random_curve(rng, min_p=1, max_p=14, max_c=60)
            z = random_density(rng, MU, cells=curve.p)
            assert weak_duality_margin(curve, fam, z.rank_mass[None], MU) >= -1e-9

    def test_margin_is_min_over_densities_of_per_density_margins(self, rng):
        shapes = ("c_max", "pubs", "h", "h2", "h_alpha:2", "w", "h_r", "phi:0.8", "phi:1.62")
        for label in shapes:
            fam = family_for(label)
            restricted = fam.policy == AUTHOR_SUPPORT_ONLY
            for _ in range(40):
                curve = random_curve(rng, min_p=1 if restricted else 0, max_p=14, max_c=60)
                if not restricted and rng.random() < 0.2:
                    curve = CitationCurve(curve.values, 1.0)  # some unbounded levels
                cells = curve.p if restricted else None
                zs = [random_density(rng, MU, cells=cells) for _ in range(int(rng.integers(1, 8)))]
                hp = min(rank_step_h_plus(z, expected_value(z, curve, MU), fam) for z in zs)
                phi = srm_generic(curve, fam).level
                want = 0.0 if math.isinf(hp) and math.isinf(phi) else hp - phi
                masses = np.array([z.rank_mass for z in zs])
                assert weak_duality_margin(curve, fam, masses, MU) == want

    def test_vanishing_family_margin_is_zero(self, rng):
        # f_q = 0 for every q: the index and rank-step H+ are both +inf
        masses = random_simplex_candidates(MU, 5, seed=3)
        for fam in VANISHING:
            for curve in (X, construct_curve([]), CitationCurve([8, 6], 2)):
                assert weak_duality_margin(curve, fam, masses, MU) == 0.0

    def test_staircase_level_lands_on_the_rank_it_reaches(self):
        # gamma at rank j is the running sum of the mass prefix sums; as
        # (j+1) C_j - M_j it could land an ulp above an equal E[ZX] and
        # solve a level just below j
        mu = ReferenceMeasure(216.0)
        curve = construct_curve([2, 1])
        masses = random_simplex_candidates(mu, 100, 700031)
        fam = family_for("w")
        assert weak_duality_margin(curve, fam, masses, mu) == 0.0
        assert all(weak_duality_margin(curve, fam, masses[r:r + 1], mu) >= 0.0
                   for r in range(len(masses)))

    @pytest.mark.parametrize("row", [[math.inf, 0, 0, 0], [math.nan, 1, 0, 0],
                                     [1.5, -0.5, 0, 0], [-0.0, 1, 0, -1e-300]])
    @pytest.mark.parametrize("label", ["h", "w", "phi:1.62"])
    def test_rows_with_a_negative_or_nonfinite_mass_are_rejected(self, row, label):
        masses = np.array([[0.25] * 4, row])
        with pytest.raises(ValidationError, match="finite masses >= 0"):
            weak_duality_margin(construct_curve([3, 2, 1]), family_for(label), masses,
                                ReferenceMeasure(4.0))

    @pytest.mark.parametrize("row, mass", [([2, 0, 0, 0], "2.0"), ([0, 0, 0, 0], "0.0"),
                                           ([0.5, 0.5, 2e-9, 0], "1.000000002")])
    @pytest.mark.parametrize("label", ["h", "w", "phi:1.62"])
    def test_rows_off_unit_mass_are_rejected(self, row, mass, label):
        masses = np.array([[0.25] * 4, [0.5, 0.5 + 1e-10, 0, 0], row])
        with pytest.raises(ValidationError, match=f"density row 2 has mass {mass}, must equal 1"):
            weak_duality_margin(construct_curve([3, 2, 1]), family_for(label), masses,
                                ReferenceMeasure(4.0))

    def test_margin_needs_a_density(self):
        with pytest.raises(ValidationError):
            weak_duality_margin(X, family_for("h"), np.empty((0, int(N))), MU)

    def test_both_sides_infinite_count_as_zero(self):
        shifted = CitationCurve([8, 6], 2)
        z = DualDensity.indicator(0, 1, N)
        assert weak_duality_margin(shifted, family_for("pubs"), z.rank_mass[None], MU) == 0.0


class TestConstructedMinimizers:
    def test_cmax_is_first_cell(self):
        z = constructed_minimizer("c_max", X, 0.0, MU)
        assert tuple(z.breakpoints[:2]) == (0.0, 1.0)
        assert z.heights[0] == N

    def test_pubs_interval_past_the_record(self):
        z = constructed_minimizer("pubs", X, 0.5, MU)
        assert (z.breakpoints[1], z.breakpoints[2]) == (4.0, 4.5)
        assert z.heights[1] == pytest.approx(N / 0.5)

    def test_h_interval_past_the_core(self):
        z = constructed_minimizer("h", X, 0.1, MU)
        assert (z.breakpoints[1], z.breakpoints[2]) == (3.0, 3.1)

    def test_unsupported_index(self):
        with pytest.raises(UnknownIndexError):
            constructed_minimizer("w", X, 0.1, MU)

    def test_interval_must_fit_measure(self):
        small = ReferenceMeasure(4.0)
        with pytest.raises(ValidationError):
            constructed_minimizer("pubs", X, 0.5, small)


class TestRobustDual:
    def test_identity_gamma_table(self):
        betas = [float(b) / 4 for b in range(0, 17)]
        table = GammaTable(tuple(betas), {"q": tuple(betas)})
        z = DualDensity.indicator(0, 1, N)
        value = robust_dual_srm(construct_curve([2, 1]), table, {"q": z}, MU)
        assert value == 2.0  # E_Q[X] = 2.0, largest grid level below it

    def test_unreachable_candidate_propagates_minus_inf(self):
        table = GammaTable((1.0, 2.0), {"hard": (5.0, 9.0)})
        z = DualDensity.indicator(4, 5, N)  # reads past the record: average 0
        assert robust_dual_srm(X, table, {"hard": z}, MU) == -math.inf

    def test_missing_candidate_column(self):
        table = GammaTable((1.0,), {"a": (0.5,)})
        with pytest.raises(TableEntryError):
            robust_dual_srm(X, table, {"b": UNIFORM}, MU)

    def test_short_column_rejected(self):
        with pytest.raises(TableEntryError, match="ifB"):
            GammaTable((1.0, 2.0), {"ifA": (0.5, 1.5), "ifB": (0.2,)})

    def test_non_monotone_column_rejected(self):
        with pytest.raises(ValidationError, match="nondecreasing"):
            GammaTable((1.0, 2.0), {"bad": (1.0, 0.5)})

    @pytest.mark.parametrize("value", [-1.0, math.nan])
    def test_negative_or_nan_gamma_rejected(self, value):
        with pytest.raises(ValidationError, match=r">= 0 \(or \+inf\)"):
            GammaTable((1.0, 2.0), {"bad": (value, 3.0)})

    def test_columns_are_read_only_arrays(self):
        table = GammaTable((1.0, 2.0), {"a": (0.5, math.inf)})
        for arr in (table.betas, table.columns["a"]):
            assert arr.dtype == np.float64 and not arr.flags.writeable

    @pytest.mark.parametrize("beta", ["nan", "inf", "-inf"])
    def test_nonfinite_beta_rejected(self, beta):
        with pytest.raises(ValidationError, match="finite"):
            GammaTable((float(beta),), {"a": (1.0,)})


class TestCandidateGenerators:
    def test_random_candidates_are_seed_deterministic(self):
        a = random_simplex_candidates(MU, 5, seed=7)
        b = random_simplex_candidates(MU, 5, seed=7)
        assert np.array_equal(a, b)
        c = random_simplex_candidates(MU, 5, seed=8)
        assert not np.array_equal(a, c)


class TestBatchDualLayer:
    """Densities as rows of rank-cell masses, against the one-density forms."""

    @pytest.mark.parametrize("extent, upto", [(16.0, None), (16.0, 5), (10.5, None),
                                              (10.5, 7.5), (202.0, None), (52.0, 3)])
    def test_rows_are_from_weights_rank_arrays(self, extent, upto):
        measure = ReferenceMeasure(extent)
        k = int(math.floor(min(upto, extent) if upto is not None else extent))
        masses = random_simplex_candidates(measure, 40, seed=11, upto=upto)
        weights = np.random.default_rng(11).dirichlet(np.ones(k), size=40)
        assert masses.shape == (40, math.ceil(extent)) and not masses.flags.writeable
        cum = _prefix_sums(masses)
        moment = np.cumsum(masses * np.arange(1, masses.shape[1] + 1), axis=1)
        for r, w in enumerate(weights):
            z = DualDensity.from_weights(w, extent)
            assert np.array_equal(masses[r], z.rank_mass)
            # the one-density prefix sums expected_value and rank_step_gamma build
            assert np.array_equal(cum[r], np.concatenate(([0.0], np.cumsum(z.rank_mass))))
            assert np.array_equal(moment[r], np.cumsum(z.rank_mass * np.arange(1, cum.shape[1])))

    def test_blocks_continue_one_stream(self):
        measure = ReferenceMeasure(2000.0)
        blocks = list(density_blocks(measure, 70, seed=5, upto=300))
        assert len(blocks) > 1 and all(b.size <= BLOCK_CELLS for b in blocks)
        whole = random_simplex_candidates(measure, 70, seed=5, upto=300)
        assert np.array_equal(np.concatenate(blocks), whole)
        assert list(density_blocks(measure, 0, seed=5)) == []

    @pytest.mark.parametrize("width", [1, 2, 31, 32, 33, 64, 129, 203, 5001])
    def test_row_products_keep_the_bits_of_one_dot_per_row(self, width):
        """E[ZX] and the power coefficient equal the per-row np.dot list:
        the stacked products run one BLAS dot per row, while a
        matrix-vector product would sum in another order."""
        rng = np.random.default_rng(width)
        masses = rng.dirichlet(np.ones(width), size=6)
        masses[1, ::3] = 0.0
        masses[2, width // 2:] = 0.0
        masses[3] = 0.0
        measure = ReferenceMeasure(float(width))
        cum = _prefix_sums(masses)
        ps = range(1, width + 1)
        if width > 1000:
            ps = sorted({1, 2, 3, 31, 32, 33, 64, 129, 203, width - 1, width}
                        | set(rng.integers(1, width + 1, size=60).tolist()))
        decay = np.arange(1, width + 1, dtype=float) ** -1.62
        for scale in (1e-300, 1.0, 1e300):
            values = np.sort(rng.uniform(0.0, 100.0, size=width))[::-1] * scale
            scaled = masses * scale
            for p in ps:
                curve = CitationCurve(values[:p])
                assert np.array_equal(_expected_values(masses, cum, curve, measure),
                                      [np.dot(curve.values, row[:p]) for row in masses])
                rows = np.ascontiguousarray(scaled[:, :p])
                assert np.array_equal(_row_dots(rows, decay[:p]),
                                      [np.dot(row, decay[:p]) for row in rows])
        t = rng.uniform(0.0, 10.0, size=len(masses))
        coeff = np.array([np.dot(row, decay) for row in masses])
        with np.errstate(divide="ignore"):
            want = np.where(coeff <= 0.0, math.inf, t / coeff)
        assert np.array_equal(_h_plus_rows(masses, cum, t, family_for("phi:1.62")), want)

    def test_search_is_numpys_on_sorted_rows(self, rng):
        for n in (1, 2, 7, 203):
            # sorted rows with ties, searched at a tied entry, below the first
            # entry, above the last and at +-inf
            a = np.sort(np.round(rng.normal(size=(300, n))), axis=1)
            t = a[np.arange(300), rng.integers(0, n, size=300)]
            t[::5] = a[::5, 0] - 0.5
            t[1::5] = a[1::5, -1] + 0.5
            t[2::5] = -np.inf
            t[3::5] = np.inf
            want = [np.searchsorted(row, x, side="right") for row, x in zip(a, t)]
            assert _search_right(a, t).tolist() == want

    def test_every_searched_row_is_nondecreasing(self, rng, monkeypatch):
        """The counted search is numpy's index only on sorted rows; every
        row that rank-step H+ searches is sorted by construction."""
        searched = []
        search = duality._search_right

        def spy(a, t):
            searched.append(a)
            return search(a, t)

        monkeypatch.setattr(duality, "_search_right", spy)
        families = [family_for(label) for label in CATALOG] + list(RULE_PAIRS)
        for trial in range(20):
            curve = random_curve(rng, min_p=1, max_p=14, max_c=60)
            zs = self._edge_densities(rng, curve.p)
            sparse = rng.dirichlet(np.full(int(N), 0.01), size=12)
            masses = np.concatenate([[z.rank_mass for z in zs], sparse])
            cum = _prefix_sums(masses)
            t_ex = _expected_values(masses, cum, curve, MU)
            for t in (np.zeros(len(masses)), t_ex, rng.uniform(0, 60, size=len(masses))):
                for fam in families:
                    _h_plus_rows(masses, cum, t, fam)
        assert searched
        for a in searched:
            assert (a[:, 1:] >= a[:, :-1]).all()

    @staticmethod
    def _edge_densities(rng, p):
        """Random densities, some with no mass in cell 1 or none up to p."""
        out = []
        for kind in range(12):
            w = rng.dirichlet(np.ones(int(N)))
            if kind % 3 == 1:
                w[0] = 0.0
            elif kind % 3 == 2 and p < N:
                w[:p] = 0.0
            out.append(DualDensity.from_weights(w, N))
        return out

    @pytest.mark.parametrize("label", CATALOG + ("square-width",))
    def test_batch_h_plus_is_the_right_inverse_of_rank_step_gamma(self, label, rng):
        if label == "square-width":
            fam = rectangle_family(label, LevelRule("linear", 1.0), LevelRule("square", 0.5))
        else:
            fam = family_for(label)
        for trial in range(30):
            curve = random_curve(rng, min_p=1, max_p=12, max_c=60)
            if trial % 3 == 0:
                curve = CitationCurve(curve.values + 1.0, float(rng.integers(1, 4)))
            zs = self._edge_densities(rng, curve.p)
            masses = np.array([z.rank_mass for z in zs])
            t = np.array([expected_value(z, curve, MU) for z in zs])
            t[::4] = rng.uniform(0, 40, size=t[::4].size)
            t[1] = 0.0
            out = _h_plus_rows(masses, _prefix_sums(masses), t, fam)
            for z, level, tr in zip(zs, out.tolist(), t.tolist()):
                assert level == rank_step_h_plus(z, tr, fam)
                if math.isinf(level):
                    assert rank_step_gamma(z.rank_mass, 1e9, fam) <= tr
                    continue
                step = 1e-9 * max(1.0, level)
                if level > 0:
                    assert rank_step_gamma(z.rank_mass, max(level - step, 0.0), fam) <= tr
                assert rank_step_gamma(z.rank_mass, level + step, fam) > tr

    @pytest.mark.parametrize("label", CATALOG)
    def test_matrix_margin_is_the_least_row_margin(self, label, rng):
        fam = family_for(label)
        restricted = fam.policy == AUTHOR_SUPPORT_ONLY
        for trial in range(10):
            curve = random_curve(rng, min_p=1 if restricted else 0, max_p=14, max_c=60)
            if not restricted and trial % 4 == 0:
                curve = CitationCurve(curve.values, 1.0)
            upto = curve.p if restricted else None
            masses = random_simplex_candidates(MU, 25, seed=trial, upto=upto)
            weights = np.random.default_rng(trial).dirichlet(np.ones(upto or int(N)), size=25)
            zs = [DualDensity.from_weights(w, N) for w in weights]
            rows = [weak_duality_margin(curve, fam, masses[r:r + 1], MU) for r in range(25)]
            got = weak_duality_margin(curve, fam, masses, MU)
            stacked = np.array([z.rank_mass for z in zs])
            assert got == min(rows) == weak_duality_margin(curve, fam, stacked, MU)
            assert rows == [weak_duality_margin(curve, fam, z.rank_mass[None], MU) for z in zs]

    def test_matrix_must_match_the_measure(self):
        masses = random_simplex_candidates(MU, 3, seed=1)
        with pytest.raises(ValidationError, match="rank cells"):
            weak_duality_margin(X, family_for("h"), masses, ReferenceMeasure(20.0))
        with pytest.raises(ValidationError, match="at least one density"):
            weak_duality_margin(X, family_for("h"), masses[:0], MU)
