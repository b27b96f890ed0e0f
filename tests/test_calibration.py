import math

import numpy as np
import pytest

from srmkit import (
    CitationCurve,
    Cohort,
    CohortProfile,
    InsufficientDataError,
    UnsupportedOperationError,
    ValidationError,
    calibrate_cohort,
    construct_curve,
    family_for,
    fit_author,
    phi_index,
    shift_citations,
    srm_generic,
)
from srmkit.calibration import _FIT_COLUMNS, MATH_FINANCE_SENIOR_BETA, CalibrationFit

from conftest import random_curve


def power_law_curve(q, beta, p):
    return construct_curve([q / i**beta for i in range(1, p + 1)])


def profile_of(curves):
    return calibrate_cohort(Cohort.from_curves([f"a{i}" for i in range(len(curves))], curves))


def fit_row(profile, k):
    """Row k of a profile's fit columns, as the fit_author result it equals."""
    return CalibrationFit(*(getattr(profile, name)[k].item() for name in _FIT_COLUMNS))


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
        fit = fit_author(power_law_curve(100.0, 1.5, 20))
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

    def test_positive_tail_rejected(self):
        # the model has no tail term: fitting the listed values alone gave beta_hat 0.485
        with pytest.raises(UnsupportedOperationError, match="tail 0"):
            fit_author(shift_citations(construct_curve([5, 3]), 2))
        with pytest.raises(UnsupportedOperationError, match="tail 0"):
            fit_author(CitationCurve([], 1))

    def test_q_hat_beyond_the_float_range_is_an_error(self):
        with pytest.raises(UnsupportedOperationError) as err:
            fit_author(construct_curve([1e308, 1e308, 1e308, 1]))
        assert str(err.value).startswith("the fitted q_hat, exp(839.44")
        # a q_hat just below the float maximum still fits
        fit = fit_author(construct_curve([1.7e308, 1.7e308]))
        assert fit.q_hat == pytest.approx(1.7e308, rel=1e-12) and fit.beta_hat == 0.0


class TestAggregate:
    def test_plain_mean(self):
        profile = profile_of([power_law_curve(50, 1.0, 5), power_law_curve(50, 2.0, 5)])
        assert profile.beta_bar == pytest.approx(1.5, abs=1e-12)
        assert profile.cohort_size == 2

    def test_single_fit(self):
        assert profile_of([power_law_curve(50, 1.7, 6)]).beta_bar == pytest.approx(1.7, abs=1e-9)

    def test_monte_carlo_cohort_mean(self):
        rng = np.random.default_rng(7)
        betas = rng.uniform(1.4, 1.8, size=20)
        profile = profile_of([power_law_curve(200.0, b, 15) for b in betas])
        se = (0.4 / math.sqrt(12.0)) / math.sqrt(20.0)
        assert abs(profile.beta_bar - 1.6) <= 3 * se

    def test_beta_bar_is_the_mean_of_the_fits(self):
        rng = np.random.default_rng(8)
        curves = [random_curve(rng, min_p=2, max_p=30, max_c=500) for _ in range(60)]
        profile = profile_of(curves)
        assert profile.beta_bar == float(profile.beta_hat.mean())

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            profile_of([])


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
            phi_index(CitationCurve([5], 1), 1.62)

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
        profile = calibrate_cohort(Cohort.from_curves([f"a{i}" for i in range(20)], curves))
        assert profile.beta_bar == pytest.approx(1.62, abs=1e-9)
        assert profile.cohort_size == 20

    def test_unfittable_author_is_skipped_and_recorded(self):
        curves = [power_law_curve(50.0, 1.5, 10), construct_curve([3])]
        profile = calibrate_cohort(Cohort.from_curves(["good", "thin"], curves))
        assert profile.cohort_size == 1
        assert profile.metadata["skipped"] == ["thin"]

    def test_empty_cohort_rejected(self):
        with pytest.raises(ValidationError):
            calibrate_cohort(Cohort.from_curves([], []))
        with pytest.raises(InsufficientDataError):
            calibrate_cohort(Cohort.from_curves(["only"], [construct_curve([3])]))

    def test_positive_tail_rejected_by_author(self):
        # a cohort cannot hold a tailed record, so calibration never meets one
        curves = [power_law_curve(50.0, 1.5, 10), construct_curve([3]),
                  shift_citations(construct_curve([5, 3]), 2), CitationCurve([4], 1)]
        with pytest.raises(ValidationError) as err:
            Cohort.from_curves(["good", "thin", "shifted", "flat"], curves)
        assert str(err.value) == "author 'shifted': a cohort record must have tail 0, got tail 2"
        with pytest.raises(ValidationError) as err:
            Cohort.from_curves(["good", "flat"], [curves[0], curves[3]])
        assert str(err.value) == "author 'flat': a cohort record must have tail 0, got tail 1"

    def test_profile_json_round_trip(self):
        curves = [power_law_curve(50.0 + i, 1.4 + 0.05 * i, 12) for i in range(5)]
        curves += [construct_curve([3]), construct_curve([])]
        profile = calibrate_cohort(Cohort.from_curves([f"a{i}" for i in range(7)], curves))
        assert profile.metadata == {"skipped": ["a5", "a6"]}
        restored = CohortProfile.from_json(profile.to_json())
        assert restored.beta_bar == profile.beta_bar
        assert restored.author_id == profile.author_id
        for name in _FIT_COLUMNS:
            column = getattr(restored, name)
            assert column.dtype == getattr(profile, name).dtype
            assert np.array_equal(column, getattr(profile, name))
            assert not column.flags.writeable
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
        profile = calibrate_cohort(Cohort.from_curves(ids, curves))
        by_id = {author_id: fit_row(profile, k) for k, author_id in enumerate(profile.author_id)}
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
            assert fit == fit_author(curve)

    def test_cohort_argument_carries_its_ids(self):
        from srmkit import ingest

        cohort = ingest("author_id,citations\na,9;3;1\nb,2\nc,5;5\n", "csv")
        profile = calibrate_cohort(cohort)
        assert profile.author_id == ("a", "c")
        assert profile.metadata["skipped"] == ["b"]
        assert fit_row(profile, 0) == fit_author(cohort.curve(0))


class TestMalformedProfile:
    @pytest.mark.parametrize("doc", [
        {"version": 1},
        {"version": 1, "beta_bar": 1.5, "fits": [{"beta_hat": 1.0}]},
        {"version": 1, "beta_bar": "steep"},
        {"version": 1, "beta_bar": "1.5"},
        {"version": 1, "beta_bar": True},
        {"version": 1, "beta_bar": None},
        {"version": True, "beta_bar": 1.5},
        {"version": 1.0, "beta_bar": 1.5},
        {"version": 1, "beta_bar": 1.5, "fits": 3},
        {"version": 1, "beta_bar": 1.5, "metadata": [1, 2]},
    ])
    def test_malformed_profile_is_a_validation_error(self, doc):
        import json

        with pytest.raises(ValidationError, match="malformed profile"):
            CohortProfile.from_json(json.dumps(doc))

    @pytest.mark.parametrize("doc, message", [
        ({"version": 1, "beta_bar": 1.5, "fits": {}}, "fits must be a list, not {}"),
        ({"version": 1, "beta_bar": 1.5, "fits": ""}, "fits must be a list, not ''"),
        ({"version": 1, "beta_bar": 1.5, "fits": None}, "fits must be a list, not None"),
        ({"version": 1, "beta_bar": 1.5, "metadata": [["skipped", ["x"]]]},
         "metadata must be an object, not [['skipped', ['x']]]"),
        ({"version": 1, "beta_bar": 1.5, "metadata": None}, "metadata must be an object, not None"),
    ])
    def test_containers_must_have_their_json_types(self, doc, message):
        import json

        with pytest.raises(ValidationError) as err:
            CohortProfile.from_json(json.dumps(doc))
        assert str(err.value) == f"malformed profile: {message}"

    def test_non_utf8_profile_is_a_validation_error(self):
        with pytest.raises(ValidationError):
            CohortProfile.from_json(b'{"version": 1, "beta_bar": "\xff"}')


_GOOD_FIT = {"author_id": "a", "beta_hat": 1.5, "q_hat": 40.0, "r2": 0.9, "n_points": 5,
             "n_excluded": 0}
_NULL_MESSAGE = ("malformed profile: TypeError: float() argument must be a string or a real "
                 "number, not 'NoneType'")


class TestMalformedFits:
    """A bad fit is reported with the message of the first bad fit, and
    ``srm compute --profile`` prints it and exits 1."""

    @pytest.mark.parametrize("fits, message", [
        ([dict(_GOOD_FIT, r2=1.5)], "r2 must lie in [0, 1], got 1.5"),
        ([dict(_GOOD_FIT, r2=math.nan)], "r2 must lie in [0, 1], got nan"),
        ([dict(_GOOD_FIT, n_points=1)], "a fit needs at least 2 points"),
        ([dict(_GOOD_FIT, n_points=1, r2=1.5)], "a fit needs at least 2 points"),
        ([dict(_GOOD_FIT, beta_hat=None)], _NULL_MESSAGE),
        ([_GOOD_FIT, dict(_GOOD_FIT, r2=-0.25),
          {k: v for k, v in _GOOD_FIT.items() if k != "q_hat"}],
         "r2 must lie in [0, 1], got -0.25"),
        ([dict(_GOOD_FIT, n_points=math.inf)],
         "malformed profile: OverflowError: cannot convert float infinity to integer"),
        ([dict(_GOOD_FIT, n_excluded=2**63)],
         "malformed profile: OverflowError: Python int too large to convert to C long"),
        ([dict(_GOOD_FIT, n_points=2.7)], "malformed profile: n_points must be an integer, not 2.7"),
        ([dict(_GOOD_FIT, n_points="5")], "malformed profile: n_points must be an integer, not '5'"),
        ([dict(_GOOD_FIT, n_points=True)], "malformed profile: n_points must be an integer, not True"),
        ([dict(_GOOD_FIT, n_excluded=0.0)],
         "malformed profile: n_excluded must be an integer, not 0.0"),
        ([dict(_GOOD_FIT, author_id=17)], "malformed profile: author_id must be a string, not 17"),
        ([dict(_GOOD_FIT, beta_hat="1.5")], "malformed profile: beta_hat must be a number, not '1.5'"),
        ([dict(_GOOD_FIT, q_hat="40")], "malformed profile: q_hat must be a number, not '40'"),
        ([dict(_GOOD_FIT, r2="0.9")], "malformed profile: r2 must be a number, not '0.9'"),
        ([dict(_GOOD_FIT, r2=True)], "malformed profile: r2 must be a number, not True"),
        ([_GOOD_FIT, dict(_GOOD_FIT, n_points=2.0), dict(_GOOD_FIT, author_id=None)],
         "malformed profile: n_points must be an integer, not 2.0"),
        # the bad field of the later fit sits in an earlier column than the first bad fit's
        ([dict(_GOOD_FIT, r2=1.5), dict(_GOOD_FIT, author_id=17)], "r2 must lie in [0, 1], got 1.5"),
        ([dict(_GOOD_FIT, n_points=1), {k: v for k, v in _GOOD_FIT.items() if k != "author_id"}],
         "a fit needs at least 2 points"),
        ([_GOOD_FIT, [1, 2]],
         "malformed profile: TypeError: list indices must be integers or slices, not str"),
        # values no fit of a cohort can take
        ([dict(_GOOD_FIT, beta_hat=math.nan)], "beta_hat must be finite, got nan"),
        ([dict(_GOOD_FIT, beta_hat=-math.inf)], "beta_hat must be finite, got -inf"),
        ([dict(_GOOD_FIT, q_hat=math.inf)], "q_hat must be positive and finite, got inf"),
        ([dict(_GOOD_FIT, q_hat=-1)], "q_hat must be positive and finite, got -1.0"),
        ([dict(_GOOD_FIT, q_hat=0)], "q_hat must be positive and finite, got 0.0"),
        ([dict(_GOOD_FIT, n_excluded=-5)], "n_excluded must be nonnegative, got -5"),
        ([_GOOD_FIT, dict(_GOOD_FIT, author_id="b"), dict(_GOOD_FIT, author_id="b", r2=2.0)],
         "r2 must lie in [0, 1], got 2.0"),
        ([_GOOD_FIT, dict(_GOOD_FIT, author_id="b"), dict(_GOOD_FIT, author_id="b"),
          dict(_GOOD_FIT, author_id="c", q_hat=-1)], "duplicate author_id 'b'"),
    ])
    def test_first_bad_fit_is_reported(self, fits, message, tmp_path, capsys):
        import json

        from srmkit.cli import run

        doc = json.dumps({"version": 1, "beta_bar": 1.5, "fits": fits, "metadata": {}})
        with pytest.raises(ValidationError) as err:
            CohortProfile.from_json(doc)
        assert str(err.value) == message
        profile = tmp_path / "profile.json"
        profile.write_text(doc)
        cohort = tmp_path / "cohort.csv"
        cohort.write_text("author_id,citations\nX1,8;6;4;2\n")
        assert run(["compute", "--input", str(cohort), "--indices", "phi",
                    "--profile", str(profile)]) == 1
        assert capsys.readouterr().err == f"srm: error: {message}\n"

    @pytest.mark.parametrize("size, fits", [(99, 1000), (1001, 1000), ("x", 1), (True, 1),
                                            (1.0, 1), (None, 0)])
    def test_cohort_size_must_count_the_fits(self, size, fits):
        import json

        doc = {"version": 1, "beta_bar": 1.5, "cohort_size": size, "metadata": {},
               "fits": [dict(_GOOD_FIT, author_id=f"a{k}") for k in range(fits)]}
        with pytest.raises(ValidationError) as err:
            CohortProfile.from_json(json.dumps(doc))
        assert str(err.value) == ("malformed profile: cohort_size must be the number of fits,"
                                  f" {fits}, not {size!r}")
        del doc["cohort_size"]  # a profile may leave it out
        assert CohortProfile.from_json(json.dumps(doc)).cohort_size == fits
