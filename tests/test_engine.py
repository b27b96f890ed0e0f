import math
import warnings

import numpy as np
import pytest

from srmkit import (
    DominancePolicy,
    UnknownIndexError,
    UnsupportedOperationError,
    append_publication,
    construct_curve,
    dominates,
    family_for,
    level_ceiling,
    mix,
    parse_index,
    shift_citations,
    srm_closed_form,
    srm_generic,
)
from srmkit.calibration import phi_index
from srmkit.curves import evaluate_family

from conftest import dominating_pair, random_curve

X1 = construct_curve([8, 6, 4, 2])
X2 = construct_curve([4, 2, 2, 2, 2])
XMIX = mix(X1, X2, 0.5)

INTEGER_INDICES = ("c_max", "pubs", "h", "h2", "h_alpha:0.5", "h_alpha:1",
                   "h_alpha:2", "h_alpha:3", "w")
REAL_INDICES = ("h_r", "phi:0.8", "phi:1.62", "phi:2.5")


def brute_integer_srm(curve, label, q_max=1100):
    """Independent oracle: scan every integer level, checking ranks directly."""
    spec = parse_index(label)
    fam = family_for(spec)
    best = 0
    for q in range(0, q_max + 1):
        n = curve.p if fam.policy == "author-support-only" else int(
            math.floor(q if fam.shape != "rectangle" else fam.width.value(q))
        )
        ok = all(
            curve.value_at(i) >= evaluate_family(fam, q, i) for i in range(1, n + 1)
        )
        if ok:
            best = q
    return float(best)


class TestDominates:
    def test_staircase_fixture(self):
        w = family_for("w")
        assert dominates(X1, w, 4)
        assert not dominates(X1, w, 5)
        assert dominates(X2, w, 3)
        assert not dominates(X2, w, 4)

    def test_level_zero_always_dominated(self, rng):
        for label in INTEGER_INDICES + REAL_INDICES:
            fam = family_for(label)
            assert dominates(random_curve(rng, max_p=10), fam, 0)

    def test_unbounded_support_needs_author_policy(self):
        fam = family_for("phi:1.62")
        with pytest.raises(UnsupportedOperationError):
            dominates(X1, fam, 2, DominancePolicy(mode="all-positive-ranks"))

    def test_feasible_set_is_downward_closed(self, rng):
        for label in ("h", "w", "phi:1.62", "h_r"):
            fam = family_for(label)
            for _ in range(50):
                curve = random_curve(rng, max_p=15, max_c=60)
                q = float(rng.uniform(0, 20))
                if dominates(curve, fam, q):
                    assert dominates(curve, fam, float(rng.uniform(0, q)))


class TestGenericSearch:
    def test_staircase_paper_values(self):
        w = family_for("w")
        assert srm_generic(X1, w).level == 4
        assert srm_generic(X2, w).level == 3
        assert srm_generic(XMIX, w).level == 5

    def test_h_fixture_matches_brute_scan(self):
        assert srm_generic(X1, family_for("h")).level == 3
        assert brute_integer_srm(X1, "h") == 3

    def test_power_author_support(self):
        value = srm_generic(X1, family_for("phi:1.62")).level
        candidates = [x * (i + 1) ** 1.62 for i, x in enumerate([8, 6, 4, 2])]
        assert value == pytest.approx(min(candidates), abs=1e-12)
        assert value == 8.0

    def test_zero_curve_scores_zero_everywhere(self):
        zero = construct_curve([])
        for label in INTEGER_INDICES + REAL_INDICES:
            out = srm_generic(zero, family_for(label))
            assert out.level == 0.0
            assert out.attained

    def test_tailed_curve_pubs_is_unbounded(self):
        shifted = shift_citations(construct_curve([8, 6]), 2)
        out = srm_generic(shifted, family_for("pubs"))
        assert math.isinf(out.level)
        assert not out.attained

    def test_constant_curve_without_support(self):
        shifted = shift_citations(construct_curve([]), 2)
        assert srm_generic(shifted, family_for("h")).level == 2
        assert srm_generic(shifted, family_for("c_max")).level == 2


class TestClosedForms:
    def test_staircase_fixture(self):
        assert srm_closed_form(X1, "w").level == 4
        assert srm_closed_form(X2, "w").level == 3
        assert srm_closed_form(XMIX, "w").level == 5

    def test_h_squared_example(self):
        curve = construct_curve([10, 9, 5, 2])
        assert srm_closed_form(curve, "h2").level == 2
        assert brute_integer_srm(curve, "h2") == 2

    def test_h_r_single_paper(self):
        assert srm_closed_form(construct_curve([10]), "h_r").level == 2

    def test_h_r_against_dense_grid(self, rng):
        fam = family_for("h_r")
        for _ in range(40):
            curve = random_curve(rng, min_p=1, max_p=12, max_c=40)
            # dense grid over real levels, constraints written out directly
            grid = np.arange(0, curve.first_value + 1.0, 1 / 512)
            feasible = [
                q
                for q in grid
                if all(curve.value_at(i) >= q for i in range(1, int(math.floor(q)) + 1))
            ]
            oracle = max(feasible)
            assert srm_closed_form(curve, "h_r").level == pytest.approx(oracle, abs=1 / 256)

    def test_catalog_basics(self):
        assert srm_closed_form(X1, "c_max").level == 8
        assert srm_closed_form(X2, "pubs").level == 5
        assert srm_closed_form(X1, "h_alpha:2").level == 2
        assert srm_closed_form(X1, "h_alpha:0.5").level == 4

    def test_empty_curve(self):
        zero = construct_curve([])
        for label in INTEGER_INDICES + REAL_INDICES:
            assert srm_closed_form(zero, label).level == 0

    def test_positive_tail_falls_back_to_generic(self):
        shifted = shift_citations(X1, 3)
        for label in ("c_max", "h", "w"):
            closed = srm_closed_form(shifted, label)
            generic = srm_generic(shifted, family_for(label))
            assert closed.level == generic.level

    def test_matches_generic_on_random_curves(self, rng):
        families = {label: family_for(label) for label in INTEGER_INDICES + REAL_INDICES}
        for _ in range(300):
            curve = random_curve(rng, max_p=25, max_c=300)
            for label in INTEGER_INDICES:
                assert (
                    srm_generic(curve, families[label]).level
                    == srm_closed_form(curve, label).level
                )
            for label in REAL_INDICES:
                diff = srm_generic(curve, families[label]).level - srm_closed_form(
                    curve, label
                ).level
                assert abs(diff) <= 1e-9


class TestLevelCeiling:
    def test_h_ceiling_certifies_infeasibility(self):
        fam = family_for("h")
        ceiling = level_ceiling(X1, fam)
        assert ceiling >= 4
        for q in range(int(ceiling) + 1, int(ceiling) + 12):
            assert not dominates(X1, fam, q)

    def test_cmax_ceiling_exactly_feasible(self):
        fam = family_for("c_max")
        assert level_ceiling(X1, fam) == 8
        assert dominates(X1, fam, 8)
        assert not dominates(X1, fam, 9)

    def test_zero_curve(self):
        zero = construct_curve([])
        for label in INTEGER_INDICES + REAL_INDICES:
            assert level_ceiling(zero, family_for(label)) == 0

    def test_custom_ceiling_rule_wins(self):
        from dataclasses import replace

        from srmkit import IndexLevelSet

        fam = family_for("h")
        custom = replace(fam, levels=IndexLevelSet("integer", ceiling=lambda c: 1000.0))
        assert level_ceiling(X1, custom) == 1000.0
        assert srm_generic(X1, custom).level == 3.0


class TestStructuralProperties:
    def test_monotone_in_the_record(self, rng):
        for _ in range(150):
            lo, hi = dominating_pair(rng, max_p=15, max_c=100)
            for label in INTEGER_INDICES + ("h_r",):
                assert (
                    srm_closed_form(lo, label).level <= srm_closed_form(hi, label).level
                )

    def test_quasi_concave(self, rng):
        for _ in range(150):
            a = random_curve(rng, max_p=12, max_c=100)
            b = random_curve(rng, max_p=12, max_c=100)
            m = mix(a, b, 0.5)
            for label in INTEGER_INDICES + ("h_r",):
                floor = min(srm_closed_form(a, label).level, srm_closed_form(b, label).level)
                assert srm_closed_form(m, label).level >= floor - 1e-9

    def test_citation_shift_behavior(self, rng):
        for _ in range(60):
            curve = random_curve(rng, max_p=12, max_c=60)
            m = int(rng.integers(1, 6))
            shifted = shift_citations(curve, m)
            for label in ("h", "h2", "h_alpha:2"):
                fam = family_for(label)
                assert srm_generic(shifted, fam).level <= srm_closed_form(curve, label).level + m
            assert srm_generic(shifted, family_for("c_max")).level == srm_closed_form(
                curve, "c_max"
            ).level + m
            assert srm_generic(shifted, family_for("w")).level >= srm_closed_form(
                curve, "w"
            ).level + m
            assert math.isinf(srm_generic(shifted, family_for("pubs")).level)

    def test_new_publication_behavior(self, rng):
        for _ in range(60):
            curve = random_curve(rng, min_p=1, max_p=12, max_c=60)
            grown = append_publication(curve)
            for label in ("c_max", "h", "h2", "h_alpha:2"):
                assert srm_closed_form(grown, label).level == srm_closed_form(curve, label).level
            dw = srm_closed_form(grown, "w").level - srm_closed_form(curve, "w").level
            assert dw in (0.0, 1.0)
            assert srm_closed_form(grown, "pubs").level == curve.p + 1


class TestIndexSpecParsing:
    def test_hyphens_and_params(self):
        assert parse_index("h-alpha:2").label == "h_alpha:2"
        assert parse_index("phi:1.62").param == 1.62
        assert parse_index("w").label == "w"

    def test_unknown_name(self):
        with pytest.raises(UnknownIndexError):
            parse_index("g_index")

    def test_parameter_validation(self):
        with pytest.raises(UnknownIndexError):
            parse_index("h:3")
        with pytest.raises(UnknownIndexError):
            parse_index("phi:-1")
        with pytest.raises(UnknownIndexError):
            family_for("phi")
        with pytest.raises(UnknownIndexError):
            srm_closed_form(X1, "h_alpha")


def test_phi_on_huge_values_warns_nothing():
    curve = construct_curve([1e308, 1e308, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert srm_closed_form(curve, "phi:2").level == 1e308
        assert phi_index(curve, 2.0).level == 1e308


def test_understated_custom_ceiling_is_an_srm_error():
    from srmkit import IndexLevelSet, LevelRule, SrmError, rectangle_family

    # width 0: every level is dominated, so no ceiling can bound the search
    family = rectangle_family(
        "flat", LevelRule("linear", 1.0), LevelRule("const", 0.0),
        levels=IndexLevelSet("integer", ceiling=lambda curve: 1.0),
    )
    with pytest.raises(SrmError, match="ceiling"):
        srm_generic(X1, family)


def test_batch_closed_forms_need_their_parameters():
    from srmkit.engine import IndexSpec, srm_closed_form_batch

    for name in ("h_alpha", "phi"):
        with pytest.raises(UnknownIndexError, match="needs a"):
            srm_closed_form_batch(X1.values, np.array([0, X1.p]), [IndexSpec(name)])
