import math

import numpy as np
import pytest

from srmkit import (
    ALL_POSITIVE_RANKS,
    AUTHOR_SUPPORT_ONLY,
    CitationCurve,
    LevelRule,
    PerformanceFamily,
    SrmValue,
    UnsupportedOperationError,
    ValidationError,
    append_publication,
    construct_curve,
    evaluate_family,
    mix,
    power_family,
    rectangle_family,
    shift_citations,
    staircase_family,
    support_bound,
)
from srmkit.curves import REAL_LEVELS

from conftest import random_curve, value_at


class TestConstructCurve:
    def test_sorts_descending(self):
        curve = construct_curve([4, 8, 2, 6])
        assert curve.values.tolist() == [8, 6, 4, 2]
        assert curve.tail == 0.0

    def test_empty_curve_is_zero(self):
        curve = construct_curve([])
        assert curve.p == 0
        assert value_at(curve, 1.0) == 0.0
        assert value_at(curve, -3.0) == 0.0

    def test_entry_below_tail_rejected(self):
        with pytest.raises(ValidationError, match="citation value 2.0 is below the tail 3"):
            CitationCurve([8, 6, 4, 2], 3)
        with pytest.raises(ValidationError, match="position 1 is inf; citations must be finite"):
            construct_curve([8, math.inf])

    def test_entries_equal_to_tail_fold_into_it(self):
        curve = CitationCurve([8, 6, 3, 3], 3)
        assert curve.values.tolist() == [8, 6]
        assert curve.tail == 3.0
        assert value_at(curve, 7.5) == 3.0

    def test_negative_entry_names_position(self):
        with pytest.raises(ValidationError, match="position 2"):
            construct_curve([5, 3, -1, 2])

    def test_non_finite_entry_rejected(self):
        with pytest.raises(ValidationError, match="position 1"):
            construct_curve([5, math.inf])
        with pytest.raises(ValidationError):
            construct_curve([5, float("nan")])

    def test_boolean_entry_rejected(self):
        with pytest.raises(ValidationError, match="position 1 is True, not a number"):
            construct_curve([3, True, False])

    def test_first_bad_entry_is_named(self):
        with pytest.raises(ValidationError, match="position 0"):
            construct_curve([-1, "x"])
        with pytest.raises(ValidationError, match="position 1 is not a number"):
            construct_curve([2, "x", -1])

    def test_sorting_idempotent(self, rng):
        for _ in range(50):
            curve = random_curve(rng, max_p=20)
            again = construct_curve(curve.values.tolist())
            assert again == curve

    def test_step_function_semantics(self):
        curve = construct_curve([8, 6, 4, 2])
        assert value_at(curve, 0.5) == 8
        assert value_at(curve, 1.0) == 8
        assert value_at(curve, 1.01) == 6
        assert value_at(curve, 4.0) == 2
        assert value_at(curve, 4.5) == 0.0

    def test_direct_constructor_requires_sorted(self):
        with pytest.raises(ValidationError, match="nonincreasing"):
            CitationCurve([2, 5])

    def test_curves_compare_by_value_and_are_unhashable(self):
        curve = construct_curve([8, 6, 4, 2])
        assert curve == CitationCurve([8.0, 6.0, 4.0, 2.0, 0.0])
        with pytest.raises(TypeError):
            hash(curve)


class TestShift:
    def test_zero_shift_is_identity(self):
        curve = construct_curve([8, 6, 4, 2])
        assert shift_citations(curve, 0) == curve

    def test_pointwise_addition(self):
        shifted = shift_citations(construct_curve([8, 6, 4, 2]), 3)
        assert shifted.values.tolist() == [11, 9, 7, 5]
        assert shifted.tail == 3.0

    def test_shift_of_zero_curve_is_constant(self):
        shifted = shift_citations(construct_curve([]), 2)
        assert shifted.p == 0
        assert value_at(shifted, 17.0) == 2.0

    def test_shift_composes(self, rng):
        for _ in range(25):
            curve = random_curve(rng, max_p=15)
            assert shift_citations(curve, 5) == shift_citations(shift_citations(curve, 2), 3)

    def test_negative_shift_rejected(self):
        with pytest.raises(ValidationError):
            shift_citations(construct_curve([3]), -1)


class TestAppendPublication:
    def test_appends_single_citation(self):
        assert append_publication(construct_curve([8, 6, 4, 2])).values.tolist() == [8, 6, 4, 2, 1]

    def test_first_publication(self):
        assert append_publication(construct_curve([])).values.tolist() == [1]

    def test_positive_tail_unsupported(self):
        with pytest.raises(UnsupportedOperationError):
            append_publication(CitationCurve([8, 6, 4], 3))

    def test_last_value_below_one_rejected(self):
        with pytest.raises(ValidationError):
            append_publication(construct_curve([0.5]))


class TestMix:
    def test_half_mix_of_unequal_records(self):
        x1 = construct_curve([8, 6, 4, 2])
        x2 = construct_curve([4, 2, 2, 2, 2])
        assert mix(x1, x2, 0.5).values.tolist() == [6, 4, 3, 2, 1]

    def test_endpoints_are_identities(self):
        x1 = construct_curve([8, 6, 4, 2])
        x2 = construct_curve([4, 2, 2, 2, 2])
        assert mix(x1, x2, 1.0) == x1
        assert mix(x1, x2, 0.0) == x2

    def test_bad_weight_rejected(self):
        x = construct_curve([1])
        with pytest.raises(ValidationError):
            mix(x, x, 1.5)

    def test_positive_tail_rejected(self):
        with pytest.raises(ValidationError):
            mix(CitationCurve([2], 1), construct_curve([2]), 0.5)

    def test_mix_preserves_invariants(self, rng):
        for _ in range(100):
            x1 = random_curve(rng, max_p=12)
            x2 = random_curve(rng, max_p=12)
            lam = float(rng.uniform())
            m = mix(x1, x2, lam)
            vals = m.values
            assert np.all(vals[1:] <= vals[:-1])
            assert np.all(vals > 0)
            for i in range(1, max(x1.p, x2.p) + 2):
                expected = lam * value_at(x1, i) + (1 - lam) * value_at(x2, i)
                assert value_at(m, i) == pytest.approx(expected, abs=1e-12)


H = rectangle_family("h", LevelRule("linear"), LevelRule("linear"))
W = staircase_family()
CMAX = rectangle_family("c_max", LevelRule("linear"), LevelRule("const"))
PUBS = rectangle_family("pubs", LevelRule("const"), LevelRule("linear"))
POW162 = power_family(1.62)


class TestEvaluateFamily:
    def test_h_curve_is_flat_on_support(self):
        assert evaluate_family(H, 4, 3) == 4
        assert evaluate_family(H, 4, 4) == 4
        assert evaluate_family(H, 4, 4.01) == 0

    def test_staircase_line(self):
        assert evaluate_family(W, 4, 2) == 3
        assert evaluate_family(W, 4, 4) == 1
        assert evaluate_family(W, 4, 5) == 0

    def test_power_curve(self):
        assert evaluate_family(POW162, 8, 2) == pytest.approx(8 / 2**1.62, rel=1e-12)

    def test_zero_for_nonpositive_x(self):
        for fam in (H, W, CMAX, PUBS, POW162):
            assert evaluate_family(fam, 5, 0) == 0
            assert evaluate_family(fam, 5, -2) == 0

    def test_level_zero_gives_zero_curve(self):
        for fam in (H, W, CMAX, PUBS, POW162):
            for x in (-1.0, 0.5, 1.0, 3.7, 10.0):
                assert evaluate_family(fam, 0, x) == 0

    def test_monotone_in_level(self, rng):
        for fam in (H, W, CMAX, PUBS, POW162):
            for _ in range(200):
                q1, q2 = sorted(rng.uniform(0, 20, size=2))
                x = float(rng.uniform(-2, 25))
                assert evaluate_family(fam, q1, x) <= evaluate_family(fam, q2, x) + 1e-12

    def test_support_bound(self):
        assert support_bound(H, 4) == 4
        assert support_bound(CMAX, 4) == 1
        assert support_bound(W, 2.5) == 2.5
        assert math.isinf(support_bound(POW162, 1))
        assert support_bound(POW162, 0) == 0


class TestFamilyValidation:
    def test_policy_follows_the_shape(self):
        assert power_family(1.5).policy == AUTHOR_SUPPORT_ONLY
        assert PerformanceFamily("p", "power", REAL_LEVELS, beta=1.5).policy == (
            AUTHOR_SUPPORT_ONLY
        )
        for fam in (H, W, CMAX, PUBS):
            assert fam.policy == ALL_POSITIVE_RANKS

    def test_level_set_is_integer_or_real(self):
        with pytest.raises(ValidationError, match="level set"):
            PerformanceFamily("p", "power", "rational", beta=1.5)

    def test_power_requires_positive_beta(self):
        with pytest.raises(ValidationError):
            power_family(0.0)

    def test_rectangle_requires_vanishing_f0(self):
        with pytest.raises(ValidationError):
            rectangle_family("bad", LevelRule("const", 1.0), LevelRule("const", 2.0))

    def test_level_rule_inverse(self):
        assert LevelRule("linear", 2.0).inverse_sup(10) == 5
        assert LevelRule("square", 1.0).inverse_sup(9) == 3
        assert LevelRule("const", 1.0).inverse_sup(2) == math.inf
        assert LevelRule("const", 3.0).inverse_sup(2) == 0
        assert LevelRule("linear", 0.0).inverse_sup(-1.0) == 0
        for rule in (LevelRule("linear", 2.0), LevelRule("square", 0.5), LevelRule("const", 1.0),
                     LevelRule("linear", 0.0)):
            for v in (np.float64(3.0), 3.0, -1.0):
                assert type(rule.inverse_sup(v)) is float  # a float in, a float out

    def test_level_rule_inverse_of_an_array_is_entrywise(self):
        v = np.array([-1.0, 0.0, 2.0, 9.0, math.inf])
        for rule in (LevelRule("linear", 2.0), LevelRule("square", 1.0), LevelRule("const", 2.0),
                     LevelRule("square", 0.0)):
            got = rule.inverse_sup(v)
            assert isinstance(got, np.ndarray) and got.shape == v.shape
            assert got.tolist() == [rule.inverse_sup(float(x)) for x in v]
        assert LevelRule("square", 1.0).inverse_sup(v).tolist() == [0.0, 0.0, math.sqrt(2.0),
                                                                    3.0, math.inf]
        assert LevelRule("const", 2.0).inverse_sup(v).tolist() == [0.0, 0.0, math.inf,
                                                                   math.inf, math.inf]


class TestLeftContinuity:
    """f_q(x) - f_{q-eps}(x) vanishes with eps off the moving support boundary."""

    def test_h_family_linear_residual(self):
        residual = evaluate_family(H, 4, 2) - evaluate_family(H, 4 - 1e-6, 2)
        assert residual == pytest.approx(1e-6, rel=1e-6)

    def test_power_residual_vanishes_monotonically(self):
        residuals = [
            evaluate_family(POW162, 8, 2) - evaluate_family(POW162, 8 - eps, 2)
            for eps in (1e-2, 1e-4, 1e-6)
        ]
        assert residuals[0] > residuals[1] > residuals[2] > 0
        assert residuals[2] < 1e-5

    def test_probe_must_stay_in_level_set(self):
        with pytest.raises(ValidationError):
            evaluate_family(H, 0.5 - 1.0, 2)


class TestSrmValue:
    def test_rejects_negative_levels(self):
        with pytest.raises(ValidationError):
            SrmValue(-1.0)

    def test_allows_infinity(self):
        assert not math.isfinite(SrmValue(math.inf, attained=False).level)
