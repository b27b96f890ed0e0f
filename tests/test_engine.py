import math
import sys
import warnings

import numpy as np
import pytest

from srmkit import (
    CitationCurve,
    LevelRule,
    SrmValue,
    UnknownIndexError,
    UnsupportedOperationError,
    append_publication,
    construct_curve,
    dominates,
    family_for,
    level_ceiling,
    mix,
    parse_index,
    rectangle_family,
    shift_citations,
    srm_closed_form,
    srm_generic,
)
from srmkit import engine
from srmkit.calibration import phi_index
from srmkit.curves import evaluate_family

from conftest import dominating_pair, random_curve, value_at

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
            value_at(curve, i) >= evaluate_family(fam, q, i) for i in range(1, n + 1)
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

    def test_infinite_level_of_a_bounded_family_is_unsupported(self):
        with pytest.raises(UnsupportedOperationError):
            dominates(X1, family_for("h"), math.inf)

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
                if all(value_at(curve, i) >= q for i in range(1, int(math.floor(q)) + 1))
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

    def test_overflowing_ceiling_is_the_largest_float(self):
        assert level_ceiling(construct_curve([1e308, 3]), family_for("h_alpha:0.5")) == (
            sys.float_info.max
        )

    def test_square_width_ceiling_bounds_real_levels(self):
        # width 10 q^2 reaches rank 2, which holds 0, at q = sqrt(0.2)
        fam = rectangle_family("sq", LevelRule("const", 1.0), LevelRule("square", 10.0),
                               levels="real")
        out = srm_generic(construct_curve([5]), fam)
        assert out.level == pytest.approx(math.sqrt(0.2), abs=1e-12)

    def test_zero_width_family_is_feasible_at_every_level(self):
        # a zero height vanishes as well, and so does f_q under the zero curve
        for height, width in ((LevelRule("const", 1.0), LevelRule("linear", 0.0)),
                              (LevelRule("linear", 1.0), LevelRule("linear", 0.0)),
                              (LevelRule("linear", 0.0), LevelRule("square", 1.0)),
                              (LevelRule("const", 0.0), LevelRule("linear", 1.0))):
            for levels in ("integer", "real"):
                fam = rectangle_family("flat", height, width, levels=levels)
                assert fam.vanishes
                for curve in (X1, construct_curve([])):
                    assert math.isinf(level_ceiling(curve, fam))
                    assert srm_generic(curve, fam) == SrmValue(math.inf, attained=False)


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


def test_batch_closed_forms_need_their_parameters():
    from srmkit.engine import IndexSpec, srm_closed_form_batch

    for name in ("h_alpha", "phi"):
        with pytest.raises(UnknownIndexError, match="needs a"):
            srm_closed_form_batch(X1.values, np.array([0, X1.p]), [IndexSpec(name)])


def _prefix_sum_counts(mask, offsets):
    csum = np.zeros(mask.size + 1, dtype=np.int64)
    np.cumsum(mask, out=csum[1:])
    return csum[offsets[1:]] - csum[offsets[:-1]]


def test_segment_counts_equal_the_prefix_sum_formula(rng):
    """Empty segments at the start, in the middle and at the end, and a
    cohort of empty segments only, count 0 and shift no other count."""
    for trial in range(300):
        lengths = rng.integers(1, 9, size=int(rng.integers(0, 12)))
        lengths[rng.random(lengths.size) < 0.3] = 0
        lengths = np.concatenate([[0] * (trial % 3), lengths, [0] * (trial % 2)])
        offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
        mask = rng.random(int(offsets[-1])) < 0.5
        got = engine.segment_counts(mask, offsets)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, _prefix_sum_counts(mask, offsets))
    empty = np.zeros(4, dtype=np.int64)
    np.testing.assert_array_equal(
        engine.segment_counts(np.zeros(0, dtype=bool), empty), np.zeros(3, dtype=np.int64))


@pytest.mark.parametrize("name, message", [
    ("h_alpha", "index 'h_alpha' needs an alpha, e.g. h_alpha:2"),
    ("phi", "index 'phi' needs a beta, e.g. phi:1.62"),
])
def test_a_missing_parameter_has_one_message(name, message, tmp_path, capsys):
    from srmkit.cli import run
    from srmkit.engine import srm_closed_form_batch

    calls = [lambda: family_for(name), lambda: srm_closed_form(X1, name),
             lambda: srm_closed_form_batch(X1.values, np.array([0, X1.p]), [name])]
    for call in calls:
        with pytest.raises(UnknownIndexError) as err:
            call()
        assert str(err.value) == message
    if name == "h_alpha":  # the command line resolves a bare phi from --profile
        path = tmp_path / "cohort.csv"
        path.write_text("author_id,citations\na,3;1\n")
        assert run(["compute", "--input", str(path), "--indices", name]) == 2
        assert capsys.readouterr().err == f"srm: error: {message}\n"


class TestHugeValues:
    """The generic search on records whose values reach the float range."""

    @pytest.mark.parametrize("raw", [[1e20, 3], [2**53 + 10, 1], [1e308, 3], [1e308]])
    @pytest.mark.parametrize("label", INTEGER_INDICES + REAL_INDICES)
    def test_fixed_records(self, raw, label):
        curve = construct_curve(raw)
        generic = srm_generic(curve, family_for(label)).level
        assert generic == pytest.approx(srm_closed_form(curve, label).level, rel=1e-9, abs=1e-9)

    def test_overflowing_ceiling_is_not_every_level(self):
        out = srm_generic(construct_curve([1e308, 3]), family_for("h_alpha:0.5"))
        assert out == SrmValue(2.0)

    def test_random_records_match_the_closed_forms(self):
        rng = np.random.default_rng(5101)
        huge = [1e308, 1.7e308, 1e300, 1e20, 2.0**53 + 10, 1e9]
        families = {label: family_for(label) for label in INTEGER_INDICES + REAL_INDICES}
        for _ in range(12):
            raw = list(rng.choice(huge, size=int(rng.integers(1, 4))))
            raw += rng.integers(0, 40, size=int(rng.integers(0, 12))).tolist()
            curve = construct_curve(raw)
            for label, fam in families.items():
                generic = srm_generic(curve, fam).level
                closed = srm_closed_form(curve, label).level
                if label in INTEGER_INDICES:
                    assert generic == closed, (raw, label)
                else:
                    assert generic == pytest.approx(closed, rel=1e-9, abs=1e-9), (raw, label)

    @pytest.mark.parametrize("label", ["h", "w", "h_alpha:2", "h2"])
    def test_rank_after_the_record_caps_the_integer_search(self, label, monkeypatch):
        # x1 = 1e308 alone would set the ceiling; rank p+1 holds the tail 2
        calls = []
        checked = engine.dominates
        monkeypatch.setattr(engine, "dominates", lambda *args: calls.append(args) or checked(*args))
        curve = shift_citations(construct_curve([1e308, 5]), 2)
        assert srm_generic(curve, family_for(label)).level == _tail_padded_closed_form(curve, label)
        assert len(calls) < 20


def _tail_padded_closed_form(curve, label):
    """``label`` of the tailed ``curve`` by the closed form of a tail-0 record.

    The tail is written out as publications up to past every level it
    can certify (at most tail/alpha for h_alpha, tail + p otherwise).
    phi checks only the listed ranks, so it gets none, and a record
    with no listed rank dominates every level.
    """
    if label.startswith("phi"):
        return srm_closed_form(CitationCurve(curve.values), label).level if curve.p else math.inf
    alpha = parse_index(label).param if label.startswith("h_alpha") else 1.0
    extra = int(curve.tail / alpha) + curve.p + 2
    padded = CitationCurve(np.concatenate([curve.values, np.full(extra, curve.tail)]))
    return srm_closed_form(padded, label).level


def test_shifted_records_match_the_closed_form_of_their_padding():
    rng = np.random.default_rng(5102)
    labels = [label for label in INTEGER_INDICES + REAL_INDICES if label != "pubs"]
    for _ in range(10):
        raw = rng.integers(0, 30, size=int(rng.integers(0, 10))).tolist()
        if rng.random() < 0.5:
            raw.append(float(rng.choice([1e308, 1e20])))
        # whole shifts: the integer indices' closed forms presume whole citation counts
        shifted = shift_citations(construct_curve(raw), float(rng.choice([1.0, 2.0, 7.0])))
        assert math.isinf(srm_generic(shifted, family_for("pubs")).level)
        for label in labels:
            generic = srm_generic(shifted, family_for(label)).level
            padded = _tail_padded_closed_form(shifted, label)
            assert generic == pytest.approx(padded, rel=1e-9, abs=1e-9), (shifted, label)


def test_shifted_cmax_stays_in_the_float_range():
    for curve in (construct_curve([1e308]), shift_citations(construct_curve([1e308, 5]), 2)):
        assert srm_generic(curve, family_for("c_max")) == SrmValue(1e308)
