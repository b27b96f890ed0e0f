import math

import numpy as np
import pytest

from srmkit import (
    CohortProfile,
    InsufficientDataError,
    UnsupportedOperationError,
    ValidationError,
    aggregate_beta,
    calibrate_cohort,
    construct_curve,
    family_for,
    fit_author,
    phi_index,
    srm_generic,
)
from srmkit.calibration import MATH_FINANCE_SENIOR_BETA

from conftest import random_curve


def power_law_curve(q, beta, p):
    return construct_curve([q / i**beta for i in range(1, p + 1)])


def normal_equations_fit(curve):
    """Independent oracle: solve the 2x2 normal equations by hand."""
    pts = [(math.log(i + 1), math.log(v)) for i, v in enumerate(curve.values) if v >= 1.0]
    n = len(pts)
    sx = sum(x for x, _ in pts)
    sy = sum(y for _, y in pts)
    sxx = sum(x * x for x, _ in pts)
    sxy = sum(x * y for x, y in pts)
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    intercept = (sy - slope * sx) / n
    return -slope, math.exp(intercept)


class TestFitAuthor:
    def test_noiseless_power_law_is_recovered_exactly(self):
        fit = fit_author(power_law_curve(100.0, 1.5, 20), author_id="a")
        assert fit.beta_hat == pytest.approx(1.5, abs=1e-9)
        assert fit.q_hat == pytest.approx(100.0, rel=1e-9)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_record_has_zero_slope(self):
        fit = fit_author(construct_curve([7, 7, 7, 7]))
        assert fit.beta_hat == pytest.approx(0.0, abs=1e-12)
        assert fit.q_hat == pytest.approx(7.0, rel=1e-12)
        assert fit.r2 == 1.0

    def test_rounded_power_law_stays_close(self):
        curve = construct_curve([round(1e4 / i**1.3) for i in range(1, 31)])
        fit = fit_author(curve)
        beta_oracle, q_oracle = normal_equations_fit(curve)
        assert fit.beta_hat == pytest.approx(beta_oracle, abs=1e-9)
        assert fit.q_hat == pytest.approx(q_oracle, rel=1e-9)
        assert abs(fit.beta_hat - 1.3) <= 0.02

    def test_sub_unit_citations_are_excluded_and_flagged(self):
        curve = construct_curve([100 / i**1.5 for i in range(1, 25)])
        assert float(curve.values[-1]) < 1.0
        fit = fit_author(curve)
        assert fit.n_excluded > 0
        assert fit.n_points + fit.n_excluded == curve.p
        assert fit.beta_hat == pytest.approx(1.5, abs=1e-9)

    def test_residual_orthogonality(self, rng):
        for _ in range(40):
            curve = random_curve(rng, min_p=3, max_p=30, max_c=500)
            fit = fit_author(curve)
            used = curve.values[curve.values >= 1.0]
            lx = np.log(np.arange(1, curve.p + 1)[curve.values >= 1.0])
            resid = np.log(used) - (math.log(fit.q_hat) - fit.beta_hat * lx)
            assert abs(resid.sum()) <= 1e-9 * max(1.0, np.abs(resid).sum())
            assert abs(np.dot(resid, lx)) <= 1e-9 * max(1.0, float(np.abs(lx).sum()))

    def test_needs_two_usable_points(self):
        with pytest.raises(InsufficientDataError):
            fit_author(construct_curve([10]))
        with pytest.raises(InsufficientDataError):
            fit_author(construct_curve([10, 0.5]))


class TestAggregate:
    def test_plain_mean(self):
        fits = [
            fit_author(power_law_curve(50, 1.0, 5), "a"),
            fit_author(power_law_curve(50, 2.0, 5), "b"),
        ]
        profile = aggregate_beta(fits)
        assert profile.beta_bar == pytest.approx(1.5, abs=1e-12)
        assert profile.cohort_size == 2

    def test_single_fit(self):
        fits = [fit_author(power_law_curve(50, 1.7, 6), "a")]
        assert aggregate_beta(fits).beta_bar == pytest.approx(1.7, abs=1e-9)

    def test_monte_carlo_cohort_mean(self):
        rng = np.random.default_rng(7)
        betas = rng.uniform(1.4, 1.8, size=20)
        fits = [
            fit_author(power_law_curve(200.0, b, 15), f"a{i}") for i, b in enumerate(betas)
        ]
        profile = aggregate_beta(fits)
        se = (0.4 / math.sqrt(12.0)) / math.sqrt(20.0)
        assert abs(profile.beta_bar - 1.6) <= 3 * se

    def test_weighted_variant_is_explicit(self):
        fits = [
            fit_author(power_law_curve(50, 1.0, 4), "a"),
            fit_author(power_law_curve(50, 2.0, 12), "b"),
        ]
        weighted = aggregate_beta(fits, weight_by="n_points")
        assert weighted.beta_bar > 1.5
        assert weighted.metadata["weight_by"] == "n_points"
        with pytest.raises(ValidationError):
            aggregate_beta(fits, weight_by="citations")

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            aggregate_beta([])


class TestPhiIndex:
    def test_reference_beta_fixture(self):
        curve = construct_curve([8, 6, 4, 2])
        result = phi_index(curve, MATH_FINANCE_SENIOR_BETA)
        candidates = [x * (i + 1) ** 1.62 for i, x in enumerate([8, 6, 4, 2])]
        assert result.level == pytest.approx(min(candidates), abs=1e-12)
        assert result.level == pytest.approx(8.0, abs=1e-9)
        assert result.attained

    def test_single_publication(self):
        assert phi_index(construct_curve([17]), 2.3).level == 17.0

    def test_curve_on_the_reference_line_scores_its_level(self):
        curve = power_law_curve(42.0, 1.62, 12)
        assert phi_index(curve, 1.62).level == pytest.approx(42.0, rel=1e-12)

    def test_empty_curve_scores_zero(self):
        assert phi_index(construct_curve([]), 1.62).level == 0.0

    def test_tail_rejected(self):
        with pytest.raises(UnsupportedOperationError):
            phi_index(construct_curve([5], tail=1), 1.62)

    def test_bad_beta_rejected(self):
        with pytest.raises(ValidationError):
            phi_index(construct_curve([5]), 0.0)

    def test_agrees_with_generic_search(self, rng):
        fam = family_for("phi:1.62")
        for _ in range(200):
            curve = random_curve(rng, max_p=30, max_c=500)
            assert phi_index(curve, 1.62).level == pytest.approx(
                srm_generic(curve, fam).level, abs=1e-9
            )

    def test_scales_linearly_with_citations(self, rng):
        for _ in range(50):
            curve = random_curve(rng, min_p=1, max_p=20, max_c=100)
            c = float(rng.uniform(0.5, 4.0))
            scaled = construct_curve(c * curve.values)
            assert phi_index(scaled, 1.62).level == pytest.approx(
                c * phi_index(curve, 1.62).level, rel=1e-12
            )

    def test_monotone_and_quasi_concave_at_fixed_breadth(self, rng):
        from srmkit import mix

        for _ in range(80):
            p = int(rng.integers(1, 15))
            a = construct_curve(rng.integers(1, 200, size=p))
            bumps = rng.integers(0, 100, size=p)
            b = construct_curve(a.values + bumps)
            assert phi_index(a, 1.62).level <= phi_index(b, 1.62).level + 1e-12
            c = construct_curve(rng.integers(1, 200, size=p))
            m = mix(a, c, 0.5)
            floor = min(phi_index(a, 1.62).level, phi_index(c, 1.62).level)
            assert phi_index(m, 1.62).level >= floor - 1e-9


class TestCalibrateCohort:
    def test_noiseless_cohort_recovers_shared_exponent(self):
        curves = [power_law_curve(60.0 + 10 * i, 1.62, 18) for i in range(20)]
        profile = calibrate_cohort(curves, [f"a{i}" for i in range(20)])
        assert profile.beta_bar == pytest.approx(1.62, abs=1e-9)
        assert profile.cohort_size == 20

    def test_unfittable_author_is_skipped_and_recorded(self):
        curves = [power_law_curve(50.0, 1.5, 10), construct_curve([3])]
        profile = calibrate_cohort(curves, ["good", "thin"])
        assert profile.cohort_size == 1
        assert profile.metadata["skipped"] == ["thin"]

    def test_empty_cohort_rejected(self):
        with pytest.raises(ValidationError):
            calibrate_cohort([], [])
        with pytest.raises(InsufficientDataError):
            calibrate_cohort([construct_curve([3])], ["only"])

    def test_profile_json_round_trip(self):
        curves = [power_law_curve(50.0 + i, 1.4 + 0.05 * i, 12) for i in range(5)]
        profile = calibrate_cohort(
            curves, [f"a{i}" for i in range(5)], metadata={"area": "math-finance"}
        )
        restored = CohortProfile.from_json(profile.to_json())
        assert restored.beta_bar == profile.beta_bar
        assert restored.fits == profile.fits
        assert restored.metadata == profile.metadata

    def test_bad_profile_json_rejected(self):
        with pytest.raises(ValidationError):
            CohortProfile.from_json("{}")
        with pytest.raises(ValidationError):
            CohortProfile.from_json("not json")


def two_pass_fit(curve):
    """Reference: the per-author fit with np.mean and centred sums."""
    usable = curve.values >= 1.0
    lx = np.log(np.arange(1, curve.p + 1, dtype=float)[usable])
    ly = np.log(curve.values[usable])
    dx, dy = lx - lx.mean(), ly - ly.mean()
    slope = float(np.sum(dx * dy) / np.sum(dx * dx))
    intercept = ly.mean() - slope * lx.mean()
    ss_tot = float(np.sum(dy * dy))
    ss_res = float(np.sum((ly - (intercept + slope * lx)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else min(max(1.0 - ss_res / ss_tot, 0.0), 1.0)
    return -slope, math.exp(intercept), r2


class TestBatchFits:
    def test_cohort_fits_match_the_two_pass_and_polyfit_references(self):
        rng = np.random.default_rng(5101)
        curves = [random_curve(rng, max_p=60, max_c=3000) for _ in range(150)]
        curves += [construct_curve(np.floor(5.0 * rng.pareto(1.2, size=s))) for s in (1, 2, 90)]
        curves += [construct_curve([4, 4, 4]), construct_curve([7, 0.5, 0.2])]
        ids = [f"a{k}" for k in range(len(curves))]
        profile = calibrate_cohort(curves, ids)
        by_id = {f.author_id: f for f in profile.fits}
        skipped = profile.metadata.get("skipped", [])
        for author_id, curve in zip(ids, curves):
            usable = curve.values[curve.values >= 1.0]
            if usable.size < 2:
                assert author_id in skipped
                continue
            fit = by_id[author_id]
            beta, q, r2 = two_pass_fit(curve)
            assert fit.beta_hat == pytest.approx(beta, rel=1e-12, abs=1e-15)
            assert fit.q_hat == pytest.approx(q, rel=1e-12)
            assert fit.r2 == pytest.approx(r2, rel=1e-12, abs=1e-15)
            assert fit.n_points == usable.size and fit.n_excluded == curve.p - usable.size
            lx = np.log(np.arange(1, usable.size + 1, dtype=float))
            slope, intercept = np.polyfit(lx, np.log(usable), 1)
            assert abs(fit.beta_hat + slope) <= 1e-9
            assert abs(math.log(fit.q_hat) - intercept) <= 1e-9
            assert fit == fit_author(curve, author_id)

    def test_cohort_argument_carries_its_ids(self):
        from srmkit import ingest

        cohort = ingest("author_id,citations\na,9;3;1\nb,2\nc,5;5\n", "csv")
        profile = calibrate_cohort(cohort)
        assert [f.author_id for f in profile.fits] == ["a", "c"]
        assert profile.metadata["skipped"] == ["b"]
        assert profile.fits[0] == fit_author(cohort[0].curve, "a")


class TestMalformedProfile:
    @pytest.mark.parametrize("doc", [
        {"version": 1},
        {"version": 1, "beta_bar": 1.5, "fits": [{"beta_hat": 1.0}]},
        {"version": 1, "beta_bar": "steep"},
        {"version": 1, "beta_bar": 1.5, "fits": 3},
        {"version": 1, "beta_bar": 1.5, "metadata": [1, 2]},
    ])
    def test_malformed_profile_is_a_validation_error(self, doc):
        import json

        with pytest.raises(ValidationError, match="malformed profile"):
            CohortProfile.from_json(json.dumps(doc))

    def test_non_utf8_profile_is_a_validation_error(self):
        with pytest.raises(ValidationError):
            CohortProfile.from_json(b'{"version": 1, "beta_bar": "\xff"}')
