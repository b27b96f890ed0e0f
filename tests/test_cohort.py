import csv
import io
import json
import math
import os
import re
import sys
import threading

import numpy as np
import pytest

from srmkit import (
    CitationCurve,
    Cohort,
    CohortProfile,
    IndexTable,
    ValidationError,
    calibrate_cohort,
    classify_merit,
    compute_table,
    construct_curve,
    export,
    ingest,
    rank_authors,
    shift_citations,
    srm_closed_form,
)
from srmkit import cohort as cohort_module
from srmkit import engine as engine_module
from srmkit.calibration import _FIT_COLUMNS, PROFILE_VERSION
from srmkit.cohort import _json_number, format_number, json_texts, write_rows
from srmkit.curves import SrmValue, checked_citations

from conftest import random_curve

CSV_FIXTURE = "author_id,citations\nX1,8;6;4;2\nX2,4;2;2;2;2\n"


def fixture_records():
    return ingest(CSV_FIXTURE, "csv")


class TestIngest:
    def test_csv_basic(self):
        records = fixture_records()
        assert records.ids == ("X1", "X2")
        assert records.curve(0).values.tolist() == [8, 6, 4, 2]

    def test_json_sorts_citations(self):
        data = json.dumps({"authors": [{"id": "a1", "citations": [2, 8, 4, 6]}]})
        records = ingest(data, "json")
        assert records.curve(0).values.tolist() == [8, 6, 4, 2]

    def test_json_keeps_annotations(self):
        data = json.dumps(
            {"authors": [{"id": "a1", "citations": [3], "annotations": {"area": "mf"}}]}
        )
        assert ingest(data, "json").annotations == ({"area": "mf"},)

    def test_negative_citation_names_the_row(self):
        bad = "author_id,citations\nok,1;2\nbad,5;-3\n"
        with pytest.raises(ValidationError, match="line 3"):
            ingest(bad, "csv")

    def test_duplicate_id_rejected(self):
        dup = "author_id,citations\na,1\na,2\n"
        with pytest.raises(ValidationError, match="duplicate"):
            ingest(dup, "csv")

    def test_bad_header_rejected(self):
        with pytest.raises(ValidationError, match="header"):
            ingest("id,cites\na,1\n", "csv")

    def test_empty_citations_cell_is_zero_curve(self):
        records = ingest("author_id,citations\nnone,\n", "csv")
        assert records.curve(0).p == 0

    def test_json_boolean_citations_rejected(self):
        doc = json.dumps({"authors": [{"id": "a", "citations": [True, 3, False]}]})
        with pytest.raises(ValidationError, match="True, not a number"):
            ingest(doc, "json")

    def test_unknown_format(self):
        with pytest.raises(ValidationError):
            ingest(CSV_FIXTURE, "xml")


class TestComputeTable:
    def test_staircase_fixture_column(self):
        table = compute_table(fixture_records(), ["w"])
        assert table.levels[:, 0].tolist() == [4, 3]

    def test_count_and_calibrated_columns(self):
        table = compute_table(fixture_records(), ["pubs", "phi:1.62"])
        assert table.levels[1, 0] == 5
        assert table.levels[0, 1] == 8.0

    def test_unknown_index_rejected(self):
        with pytest.raises(Exception):
            compute_table(fixture_records(), ["nope"])

    def test_duplicate_index_rejected(self):
        with pytest.raises(ValidationError):
            compute_table(fixture_records(), ["h", "h"])


def ranked(table, index):
    """(id, value, rank) at each ranking position, from rank_authors' columns."""
    order, ranks = rank_authors(table, index)
    column = table.levels[:, table.indices.index(index)]
    return [(table.authors[k], float(column[k]), r) for k, r in zip(order.tolist(), ranks.tolist())]


def classes_of(table, index, cutoffs):
    """Author id -> merit class label."""
    order, ranks = rank_authors(table, index)
    return dict(zip([table.authors[k] for k in order.tolist()], classify_merit(ranks, cutoffs)))


class TestRanking:
    def test_competition_ranks_with_ties(self):
        records = Cohort.from_curves(
            ["a", "b", "c"],
            [construct_curve([4, 4, 4, 4]), construct_curve([3, 3, 3]),
             construct_curve([4, 4, 4, 4])],
        )
        assert ranked(compute_table(records, ["h"]), "h") == [
            ("a", 4.0, 1),
            ("c", 4.0, 1),
            ("b", 3.0, 3),
        ]

    def test_single_author(self):
        records = Cohort.from_curves(["solo"], [construct_curve([2])])
        order, ranks = rank_authors(compute_table(records, ["h"]), "h")
        assert ranks[0] == 1

    def test_returns_int64_columns(self):
        order, ranks = rank_authors(compute_table(fixture_records(), ["h"]), "h")
        assert order.dtype == ranks.dtype == np.int64
        assert order.tolist() == [0, 1] and ranks.tolist() == [1, 2]

    def test_different_indices_can_disagree(self):
        csv_data = "author_id,citations\nA,8;6;4;2\nB,4;2;2;2;2\nC,6;4;3;2;1\n"
        table = compute_table(ingest(csv_data, "csv"), ["h", "w"])
        by_h = [a for a, _, _ in ranked(table, "h")]
        by_w = [a for a, _, _ in ranked(table, "w")]
        assert by_w == ["C", "A", "B"]
        assert by_h != by_w

    def test_ranking_is_a_permutation(self, rng):
        records = Cohort.from_curves(
            [f"a{i}" for i in range(40)],
            [random_curve(rng, max_p=15, max_c=50) for i in range(40)],
        )
        ranking = ranked(compute_table(records, ["h"]), "h")
        assert sorted(a for a, _, _ in ranking) == sorted(records.ids)
        assert all(1 <= r <= 40 for _, _, r in ranking)
        for (_, hi_value, hi_rank), (_, lo_value, lo_rank) in zip(ranking, ranking[1:]):
            assert hi_value >= lo_value
            if hi_value > lo_value:
                assert hi_rank < lo_rank

    def test_missing_column(self):
        table = compute_table(fixture_records(), ["h"])
        with pytest.raises(ValidationError):
            rank_authors(table, "w")


def ranking_of(values):
    """Scalar oracle: (id, value, rank) by value descending, then id."""
    entries = sorted(values.items(), key=lambda kv: (-kv[1], kv[0]))
    out = []
    for pos, (author, value) in enumerate(entries, start=1):
        rank = out[-1][2] if out and out[-1][1] == value else pos
        out.append((author, float(value), rank))
    return out


def merit_of(rank, n, cutoffs):
    """Scalar oracle: the first cutoff with cutoff * n > rank - 1."""
    j = next((j for j, c in enumerate(cutoffs, start=1) if c * n > rank - 1), len(cutoffs) + 1)
    return f"class-{j}"


def ranks_of(ranking):
    return [r for _, _, r in ranking]


class TestMeritClasses:
    def test_ten_authors_default_cutoffs(self):
        ranking = ranking_of({f"a{i:02d}": 100 - i for i in range(10)})
        labels = classify_merit(ranks_of(ranking), (0.1, 0.3))
        assert labels == ["class-1"] + ["class-2"] * 2 + ["class-3"] * 7

    def test_all_tied_authors_share_the_top_class(self):
        ranking = ranking_of({f"a{i}": 5 for i in range(8)})
        assert set(classify_merit(ranks_of(ranking), (0.1, 0.3))) == {"class-1"}

    def test_tie_block_is_never_split(self):
        # 20 authors, boundary after 2: the block tied at rank 2 spills
        # past the boundary and is promoted whole into class-1
        values = {f"a{i:02d}": 100 - i for i in range(20)}
        values["a02"] = values["a01"]
        ranking = ranking_of(values)
        labels = classify_merit(ranks_of(ranking), (0.1, 0.3))
        classes = dict(zip([a for a, _, _ in ranking], labels))
        assert classes["a01"] == classes["a02"] == "class-1"
        assert classes["a03"] == "class-2"

    def test_raising_citations_never_demotes(self, rng):
        ids = [f"a{i}" for i in range(12)]
        for _ in range(30):
            curves = [random_curve(rng, min_p=1, max_p=10, max_c=30) for i in range(12)]
            table = compute_table(Cohort.from_curves(ids, curves), ["h"])
            before = classes_of(table, "h", (0.25,))
            curves[3] = CitationCurve(curves[3].values + 5)
            after = classes_of(compute_table(Cohort.from_curves(ids, curves), ["h"]), "h", (0.25,))
            assert int(after["a3"][-1]) <= int(before["a3"][-1])

    def test_invalid_cutoffs(self):
        ranks = ranks_of(ranking_of({"a": 1, "b": 2}))
        with pytest.raises(ValidationError):
            classify_merit(ranks, (0.3, 0.1))
        with pytest.raises(ValidationError):
            classify_merit(ranks, (0.0, 0.5))


_RANK_IDS = ["a", "a\0", "a\0\0", "b", "é", "日本", "\0", "Z", "a\x01", "ab"]


class TestRankingMatchesTheScalarRule:
    """rank_authors plus classify_merit equal ranking_of plus merit_of."""

    def _check(self, ids, values, cutoffs):
        table = IndexTable(authors=tuple(ids), indices=("w",),
                           levels=np.array(values, dtype=float).reshape(-1, 1),
                           attained=np.ones((len(ids), 1), dtype=bool))
        want = ranking_of(dict(zip(ids, values)))
        assert ranked(table, "w") == want
        order, ranks = rank_authors(table, "w")
        assert classify_merit(ranks, cutoffs) == [
            merit_of(r, len(ids), cutoffs) for r in ranks_of(want)
        ]

    def test_random_cohorts(self):
        rng = np.random.default_rng(5201)
        pools = [
            [0.0, math.inf, 3.0],  # long tie runs, zero and infinite levels
            [0.0, 1.0, 2.0, 2.5, 7.0, 1e308, math.inf],
            None,  # continuous levels: few ties
        ]
        for n in [0, 1, 2, 3, *rng.integers(4, 300, size=40).tolist()]:
            for pool in pools:
                ids = [_RANK_IDS[int(rng.integers(len(_RANK_IDS)))] + str(k // 3) + "\0" * (k % 3)
                       for k in range(n)]
                ids = list(dict.fromkeys(ids))
                if pool is None:
                    values = rng.uniform(0.0, 50.0, size=len(ids)).round(1).tolist()
                else:
                    values = np.array(pool)[rng.integers(len(pool), size=len(ids))].tolist()
                k = int(rng.integers(1, 5))
                cutoffs = tuple(sorted(set(rng.uniform(0.01, 0.99, size=k).round(3).tolist())))
                self._check(ids, values, cutoffs)

    @pytest.mark.parametrize("n, cutoffs", [
        (0, (0.1, 0.3)),
        (1, (0.1, 0.3)),      # c * n < 1: the top block is still class-1
        (5, (0.1, 0.15)),     # every c * n < 1
        (20, (0.1, 0.25, 0.5)),  # c * n whole: 2, 5, 10
        (10, (0.1, 0.3)),     # 0.1 * 10 and 0.3 * 10 are 1 and 3 in floating point
        (40, (0.05, 0.5, 0.75)),
        (7, (0.5,)),
    ])
    def test_boundary_cutoffs(self, n, cutoffs):
        rng = np.random.default_rng(5202 + n)
        for _ in range(20):
            ids = [("é" if k % 2 else "a") + str(k // 6) + "\0" * (k % 3) for k in range(n)]
            values = rng.integers(0, 4, size=n).astype(float).tolist()
            self._check(ids, values, cutoffs)

    def test_trailing_nul_ids_keep_code_point_order(self):
        ids = ["x\0", "x", "x\0\0", "w\uffff", "y"]
        self._check(ids, [1.0] * 5, (0.2, 0.6))
        assert [a for a, _, _ in ranked(IndexTable(
            authors=tuple(ids), indices=("w",), levels=np.ones((5, 1)),
            attained=np.ones((5, 1), dtype=bool)), "w")] == ["w\uffff", "x", "x\0", "x\0\0", "y"]


class TestExport:
    def test_table_csv_layout(self):
        table = compute_table(fixture_records(), ["h", "w"])
        text = export(table, "csv").decode()
        lines = text.splitlines()
        assert lines[0] == "author_id,h,w"
        assert lines[1] == "X1,3,4"

    def test_infinite_cell_renders_as_inf(self):
        # the pubs cell srm_generic gives a record with a positive tail
        table = IndexTable(("t",), ("pubs",), np.array([[math.inf]]), np.array([[False]]))
        assert "t,inf" in export(table, "csv").decode()
        cell = json.loads(export(table, "json"))["authors"][0]["values"]["pubs"]
        assert cell == {"level": "inf", "attained": False}

    def test_cohort_round_trip_both_formats(self, rng):
        for fmt in ("csv", "json"):
            records = Cohort.from_curves(
                [f"a{i}" for i in range(15)],
                [random_curve(rng, max_p=12, max_c=900) for i in range(15)],
            )
            restored = ingest(export(records, fmt), fmt)
            assert restored.ids == records.ids
            assert [restored.curve(k) for k in range(15)] == [records.curve(k) for k in range(15)]

    def test_json_round_trip_keeps_annotations(self):
        records = Cohort(["a"], np.array([2.0, 1.0]), np.array([0, 2]),
                         annotations=[{"area": "mf"}])
        restored = ingest(export(records, "json"), "json")
        assert restored.annotations == ({"area": "mf"},)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_positive_tail_cannot_be_exported(self, fmt):
        # written out, a,7;5 would read back as [7, 5] with tail 0, so a
        # cohort cannot hold a tailed record in the first place
        curves = [construct_curve([4]), shift_citations(construct_curve([5, 3]), 2),
                  shift_citations(construct_curve([1]), 1)]
        with pytest.raises(ValidationError) as err:
            Cohort.from_curves(["z", "a", "b"], curves)
        assert str(err.value) == "author 'a': a cohort record must have tail 0, got tail 2"
        with pytest.raises(ValidationError) as err:
            Cohort.from_curves(["z", "t"], [curves[0], CitationCurve([], 1)])
        assert str(err.value) == "author 't': a cohort record must have tail 0, got tail 1"
        listed = Cohort.from_curves(["z", "a"], [curves[0], CitationCurve(curves[1].values)])
        assert ingest(export(listed, fmt), fmt).curve(1) == CitationCurve([7, 5])

    def test_table_round_trip(self, rng):
        """The stdlib decoders read back every cell exactly as formatted."""
        curves = []
        for i in range(60):
            curve = random_curve(rng, max_p=12, max_c=100)
            kind = i % 4
            if kind == 2:
                curve = construct_curve(rng.uniform(0.0, 9.0, size=int(rng.integers(1, 8))))
            elif kind == 3:
                curve = construct_curve(rng.uniform(1e9, 1e12, size=int(rng.integers(1, 5))))
            curves.append(curve)
        records = Cohort.from_curves([f"a{i}" for i in range(60)], curves)
        computed = compute_table(records, ["c_max", "pubs", "h", "w", "h_r", "phi:1.62"])
        levels, attained = computed.levels.copy(), computed.attained.copy()
        # the pubs cells srm_generic gives records with a positive tail
        levels[1::4, 1], attained[1::4, 1] = math.inf, False
        table = IndexTable(computed.authors, computed.indices, levels, attained)
        finite = np.isfinite(levels)
        assert np.isinf(levels).any() and not table.attained.all()
        assert (levels[finite] >= 1e9).any()
        for col in (4, 5):  # h_r and phi:1.62
            column = levels[:, col][finite[:, col]]
            assert (column != np.floor(column)).any()

        rows = list(csv.reader(io.StringIO(export(table, "csv").decode())))
        assert rows[0] == ["author_id", *table.indices]
        assert [row[0] for row in rows[1:]] == list(table.authors)
        for row, row_levels in zip(rows[1:], levels):
            assert len(row) == 1 + len(table.indices)
            for cell, level in zip(row[1:], row_levels):
                assert float(cell) == float(format_number(level))

        doc = json.loads(export(table, "json"))
        assert doc["indices"] == list(table.indices)
        assert [entry["id"] for entry in doc["authors"]] == list(table.authors)
        for entry, row_levels, row_flags in zip(doc["authors"], levels, table.attained):
            assert list(entry["values"]) == sorted(table.indices)
            for ix, level, flag in zip(table.indices, row_levels, row_flags):
                cell = entry["values"][ix]
                assert float(cell["level"]) == float(format_number(level))
                assert cell["attained"] is bool(flag)

    def test_format_number_conventions(self):
        assert format_number(8.0) == "8"
        assert format_number(math.inf) == "inf"
        assert format_number(2.6020599913279625) == "2.60205999"


def _varied_curve(rng, kind):
    """One record of a shape the batch closed forms must handle."""
    size = int(rng.integers(1, 40))
    if kind == 0:
        return construct_curve([])
    if kind == 1:
        return construct_curve([0] * size)  # all zero: no publication counts
    if kind == 2:
        return construct_curve(rng.integers(0, 6, size=size))  # many ties and zeros
    if kind == 3:
        return construct_curve([1e308] * 3 + list(rng.integers(0, 50, size=size)))
    if kind == 4:
        return construct_curve(rng.uniform(0.0, 60.0, size=size))
    return construct_curve(np.floor(5.0 * rng.pareto(1.2, size=size)))


def _varied_curves(rng, n):
    return [_varied_curve(rng, int(rng.choice(6))) for _ in range(n)]


def _ids(n):
    return [f"a{k:03d}" for k in range(n)]


def _catalog_specs(rng):
    alpha, beta = (float(x) for x in rng.uniform(0.1, 4.0, size=2))
    return ["c_max", "pubs", "h", "h2", "h_alpha:2", f"h_alpha:{alpha!r}", "w", "h_r",
            "phi:1.62", f"phi:{beta!r}", "phi:0.3"]


class TestColumnarCohort:
    def test_batch_table_is_bit_equal_to_the_scalar_closed_forms(self):
        rng = np.random.default_rng(4101)
        for trial in range(25):
            curves = _varied_curves(rng, 60)
            specs = _catalog_specs(rng)
            table = compute_table(Cohort.from_curves(_ids(60), curves), specs)
            # ingest the same values, unsorted
            doc = {"authors": [
                {"id": author_id,
                 "citations": rng.permutation(curve.values.tolist() + [0]).tolist()}
                for author_id, curve in zip(_ids(60), curves)
            ]}
            cohort = ingest(json.dumps(doc), "json")
            for k, curve in enumerate(curves):
                for col, spec in enumerate(specs):
                    want = srm_closed_form(curve, spec)
                    assert table.levels[k, col] == want.level, (curve, spec)
                    assert table.attained[k, col] == want.attained, (curve, spec)
            again = compute_table(cohort, specs)
            assert np.array_equal(again.levels, table.levels)
            assert np.array_equal(again.attained, table.attained)

    def test_from_curves_packs_ids_and_curves(self):
        curves = _varied_curves(np.random.default_rng(4102), 30)
        ids = _ids(30)
        cohort = Cohort.from_curves(ids, curves)
        assert len(cohort) == 30 and cohort.ids == tuple(ids)
        assert [cohort.curve(k) for k in range(30)] == curves
        assert cohort.curve(-1) == curves[-1]
        with pytest.raises(IndexError):
            cohort.curve(30)
        assert cohort.annotations == ({},) * 30
        for arr in (cohort.values, cohort.offsets):
            assert not arr.flags.writeable

    @pytest.mark.parametrize("ids, annotations, message", [
        (["a", "b"], [{"area": "mf"}], "1 annotation entries for 2 authors"),
        (["a", ""], None, "author id must be nonempty"),
        (["a", "b", "a"], None, "duplicate author id 'a'"),
    ])
    def test_constructor_checks_ids_and_annotations(self, ids, annotations, message):
        offsets = np.arange(len(ids) + 1)
        with pytest.raises(ValidationError) as err:
            Cohort(ids, np.ones(len(ids)), offsets, annotations=annotations)
        assert str(err.value) == message
        if annotations is None:
            with pytest.raises(ValidationError, match=message):
                Cohort.from_curves(ids, [construct_curve([3, 1])] * len(ids))

    @pytest.mark.parametrize("values, offsets", [
        ([1.0, 5.0, 0.0], [0, 3]),  # compute_table read it as h 2, c_max 1, pubs 3
        ([5.0, 1.0, 0.0], [0, 3]),
        ([5.0, -1.0], [0, 2]),
        ([math.inf, 2.0], [0, 2]),
        ([math.nan], [0, 1]),
        ([3.0, math.nan, 1.0], [0, 3]),
        ([3.0, 2.0, 1.0, 1.0, 4.0], [0, 0, 2, 2, 3, 3, 5]),  # the last record rises
        ([2.0, 1.0, 2.0, 2.0, 0.0], [0, 0, 1, 2, 2, 5]),
    ])
    def test_constructor_checks_values(self, values, offsets):
        ids = [f"a{k}" for k in range(len(offsets) - 1)]
        with pytest.raises(ValidationError) as err:
            Cohort(ids, np.array(values), np.array(offsets))
        assert str(err.value) == (
            "cohort values must be finite, positive and nonincreasing within each author")

    def test_constructor_takes_records_that_rise_only_between_authors(self):
        offsets = [0, 0, 2, 2, 3, 5, 5]
        cohort = Cohort([f"a{k}" for k in range(6)], np.array([3.0, 1.0, 4.0, 9.0, 9.0]),
                        np.array(offsets))
        assert compute_table(cohort, ["h", "c_max", "pubs"]).levels.tolist() == [
            [0, 0, 0], [1, 3, 2], [0, 0, 0], [1, 4, 1], [2, 9, 2], [0, 0, 0]]
        assert compute_table(Cohort(["a"], np.array([5.0, 1.0]), np.array([0, 2])),
                             ["h", "c_max", "pubs"]).levels.tolist() == [[1, 5, 2]]

    def test_id_that_utf8_cannot_encode_is_rejected(self):
        with pytest.raises(ValidationError) as err:
            Cohort.from_curves(["ok", "\ud800x"], [construct_curve([3, 1])] * 2)
        assert str(err.value) == "author id '\\ud800x' cannot be written as UTF-8"
        doc = '{"authors": [{"id": "\\ud800x", "citations": [3, 2, 1]}]}'
        with pytest.raises(ValidationError, match="cannot be written as UTF-8"):
            ingest(doc, "json")

    def test_ingest_packs_sorted_positive_segments(self):
        cohort = ingest("author_id,citations\na,0;3;1;3\nb,\nc,0;0\nd,2\n", "csv")
        assert cohort.values.tolist() == [3.0, 3.0, 1.0, 2.0]
        assert cohort.offsets.tolist() == [0, 3, 3, 3, 4]
        assert cohort.lengths.tolist() == [3, 0, 0, 1]

    def test_empty_cohort_gives_an_empty_table(self):
        table = compute_table(ingest("author_id,citations\n", "csv"), ["h", "phi:2"])
        assert table.levels.shape == (0, 2) and table.authors == ()

    def test_long_records_span_several_blocks(self):
        rng = np.random.default_rng(4103)
        sizes = [70_000, 3, 0, 40_000, 40_000, 1]
        curves = [construct_curve(np.floor(5.0 * rng.pareto(1.2, size=size))) for size in sizes]
        records = Cohort.from_curves([f"r{k}" for k in range(len(sizes))], curves)
        table = compute_table(records, ["h", "w", "h_r", "phi:1.62"])
        for k, curve in enumerate(curves):
            for col, spec in enumerate(table.indices):
                cell = SrmValue(table.levels[k, col], table.attained[k, col])
                assert cell == srm_closed_form(curve, spec)


class TestIngestPins:
    """Ingest accepts and rejects exactly the values the scalar path did."""

    @pytest.mark.parametrize("cell, values", [
        ("1_000", [1000.0]),
        ("1; 3 ;2", [3.0, 2.0, 1.0]),
        ("1e3", [1000.0]),
        ("٣", [3.0]),
        ("0;-0;4", [4.0]),
    ])
    def test_csv_accepted(self, cell, values):
        assert ingest(f"author_id,citations\na,{cell}\n", "csv").curve(0).values.tolist() == values

    @pytest.mark.parametrize("cell, message", [
        ("nan", "line 2: author 'a': citation at position 0 is nan; citations must be finite"),
        ("2;inf", "line 2: author 'a': citation at position 1 is inf; citations must be finite"),
        ("1;;2", "line 2: bad citation value '' for author 'a'"),
        ("0x10", "line 2: bad citation value '0x10' for author 'a'"),
    ])
    def test_csv_rejected(self, cell, message):
        with pytest.raises(ValidationError) as err:
            ingest(f"author_id,citations\na,{cell}\n", "csv")
        assert str(err.value).startswith(message)

    def test_json_accepted(self):
        doc = '{"authors": [{"id": "17", "citations": ["3", " 4 ", "1_000", 2.5, 0]}]}'
        cohort = ingest(doc, "json")
        assert cohort.ids == ("17",) and cohort.curve(0).values.tolist() == [1000.0, 4.0, 3.0, 2.5]

    @pytest.mark.parametrize("citations", ["[1, 2]", "[2.5]"], ids=["plain", "scalar"])
    @pytest.mark.parametrize("author_id", ["null", "true", "17", '{"k": [1]}'])
    def test_json_id_that_is_not_a_string_is_rejected(self, author_id, citations):
        doc = '{"authors": [{"id": "a", "citations": [1]}, {"id": %s, "citations": %s}]}'
        with pytest.raises(ValidationError) as err:
            ingest(doc % (author_id, citations), "json")
        assert str(err.value) == "authors[1]: 'id' must be a string"

    @pytest.mark.parametrize("value, message", [
        ("true", "is True, not a number"),
        ("false", "is False, not a number"),
        ("null", "is not a number: None"),
        ('"x"', "is not a number: 'x'"),
        ('"nan"', "is 'nan'; citations must be finite and >= 0"),
        ("-1", "is -1; citations must be finite and >= 0"),
        ("1" + "0" * 400, "is 1" + "0" * 400 + "; citations must be finite and >= 0"),
    ])
    def test_json_rejected(self, value, message):
        doc = '{"authors": [{"id": "a", "citations": [1, %s, 2]}]}' % value
        with pytest.raises(ValidationError) as err:
            ingest(doc, "json")
        assert str(err.value) == f"authors[0] (author 'a'): citation at position 1 {message}"


class TestIngestErrorOrder:
    """With several faults, the first faulty line or entry is reported."""

    @pytest.mark.parametrize("text, message", [
        ("ok,1;2\nb,5;-3;x\nc,zz\n", "line 3: bad citation value 'x' for author 'b'"),
        ("ok,1\nb,5;-3\nc,1,2\n",
         "line 3: author 'b': citation at position 1 is -3.0; citations must be finite and >= 0"),
        ("ok,1\nb,1,2\nc,-1\n", "line 3: expected 2 fields, got 3"),
        ("ok,1\n,3\nc,-1\n", "line 3: empty author id"),
        ("ok,1;nan\nb,x\n",
         "line 2: author 'ok': citation at position 1 is nan; citations must be finite and >= 0"),
        ("a,1\nb,2\na,-1\n",
         "line 4: author 'a': citation at position 0 is -1.0; citations must be finite and >= 0"),
        ("a,1\nb,2\na,3\n", "duplicate author id 'a'"),
        ("a,1\nb,2\rc,3\n", "line 3: new-line character seen in unquoted field"),
    ])
    def test_csv(self, text, message):
        with pytest.raises(ValidationError) as err:
            ingest("author_id,citations\n" + text, "csv")
        assert str(err.value).startswith(message)

    @pytest.mark.parametrize("authors, message", [
        ([{"id": "a", "citations": [1]}, {"id": "b", "citations": [1, -2]}, {"citations": []}],
         "authors[1] (author 'b'): citation at position 1 is -2; citations must be finite and >= 0"),
        ([{"id": "a", "citations": [1]}, {"id": "b", "citations": [None], "annotations": 3}],
         "authors[1] (author 'b'): citation at position 0 is not a number: None"),
        ([{"id": "a", "citations": [1]}, {"id": "b", "citations": [1], "annotations": 3}],
         "authors[1]: 'annotations' must be an object"),
        ([{"id": "a", "citations": [1]}, {"id": "", "citations": [-1]}],
         "authors[1] (author ''): citation at position 0 is -1; citations must be finite and >= 0"),
        ([{"id": "a", "citations": [1]}, {"id": "", "citations": [1]}],
         "author id must be nonempty"),
        ([{"id": "a", "citations": [1, "x", -1]}],
         "authors[0] (author 'a'): citation at position 1 is not a number: 'x'"),
        ([{"id": "a", "citations": [2, -1, "x"]}],
         "authors[0] (author 'a'): citation at position 1 is -1; citations must be finite and >= 0"),
        ([{"id": "a", "citations": 5}], "authors[0]: 'citations' must be a list"),
        ([{"id": "a", "citations": [-3]}, 7], "authors[0] (author 'a'): citation at position 0"),
        ([{"id": "a", "citations": [3]}, 7], "authors[1]: each author needs an 'id'"),
    ])
    def test_json(self, authors, message):
        with pytest.raises(ValidationError) as err:
            ingest(json.dumps({"authors": authors}), "json")
        assert str(err.value).startswith(message)


class TestIngestRobustness:
    def test_csv_record_longer_than_the_field_limit(self):
        limit = csv.field_size_limit()
        cell = ";".join(["12345"] * 30_000)
        assert len(cell) > limit
        cohort = ingest(f"author_id,citations\nbig,{cell}\nsmall,1\n", "csv")
        assert cohort.lengths.tolist() == [30_000, 1]
        assert csv.field_size_limit() == limit

    def test_deeply_nested_json_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="not valid JSON"):
            ingest("[" * 100_000 + "]" * 100_000, "json")

    def test_integer_beyond_the_digit_limit_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="not valid JSON"):
            ingest('{"authors": [{"id": "a", "citations": [%s]}]}' % ("9" * 5000), "json")


# ---------------------------------------------------------------------------
# plain integer citation text: ingest reads it in one numpy pass
# ---------------------------------------------------------------------------


def _oracle(text, fmt):
    """ids, values, offsets and annotations read one number at a time:
    json.loads or csv.reader, then checked_citations and a sort."""
    if fmt == "json":
        records = [(str(e["id"]), e.get("citations", []), dict(e.get("annotations", {})))
                   for e in json.loads(text)["authors"]]
    else:
        rows = [row for row in csv.reader(io.StringIO(text)) if row][1:]
        records = [(author.strip(), [float(x) for x in cell.strip().split(";")] if cell.strip()
                    else [], {}) for author, cell in rows]
    values, offsets = [], [0]
    for _, citations, _ in records:
        values += sorted((x for x in checked_citations(citations) if x > 0), reverse=True)
        offsets.append(len(values))
    return tuple(r[0] for r in records), values, offsets, tuple(r[2] for r in records)


def _read(text, fmt):
    cohort = ingest(text, fmt)
    return cohort.ids, cohort.values.tolist(), cohort.offsets.tolist(), cohort.annotations


_PLAIN_IDS = ["a", 'say "citations": [1]', "x,y", "café", "two\nlines", "  pad"]


def _plain_records(rng):
    """Random authors with whole citation counts from 0 to 10**15 - 1."""
    records = []
    for k in range(int(rng.integers(1, 25))):
        pools = [rng.integers(0, 20, size=12), rng.integers(0, 10 ** 15, size=12),
                 np.array([0, 9, 10, 99, 100, 10 ** 15 - 1])]
        pool = np.concatenate(pools[:int(rng.integers(1, 4))])
        citations = rng.choice(pool, size=int(rng.integers(0, 12))).tolist()
        notes = [{}, {"field": "probability", "years": [1990, 2001]}][int(rng.integers(2))]
        records.append((f"{_PLAIN_IDS[int(rng.integers(len(_PLAIN_IDS)))]}{k}", citations, notes))
    return records


def _spaced(rng, texts, sep):
    """``texts`` joined by ``sep``, with JSON whitespace around each."""
    space = lambda: "".join(rng.choice(list(" \t\n\r"), size=int(rng.integers(0, 3))))
    return sep.join(space() + t + space() for t in texts)


_CITATION_MARK = re.compile(r'"\\u0000(\d+)"')  # json.dumps' text of the string "\0<j>"


def _json_layouts(rng, records):
    """A JSON document of the records in four layouts; each citation is
    written as its str(), so a record may hold number text json.dumps
    would not write (``1E+2``, ``-0``)."""
    texts = [str(x) for _, c, _ in records for x in c]
    marks = iter(range(len(texts)))
    doc = {"authors": [{"id": i, "citations": [f"\0{next(marks)}" for _ in c], "annotations": n}
                       for i, c, n in records]}

    def dumps(**layout):
        return _CITATION_MARK.sub(lambda m: texts[int(m.group(1))], json.dumps(doc, **layout))

    entries = ",".join(
        '{"id": %s, "citations": [%s], "annotations": %s}'
        % (json.dumps(i), _spaced(rng, list(map(str, c)), ","), json.dumps(n))
        for i, c, n in records
    )
    return {
        "compact": dumps(separators=(",", ":")),
        "indent=2": dumps(indent=2),
        "\\t\\n\\r": '{"authors":\t[\r\n' + entries + "\n]}",
        "CRLF": dumps(indent=2).replace("\n", "\r\n"),
    }


def _csv_layouts(rng, records):
    layouts = {}
    for name, terminator, spaced in [("compact", "\n", False), ("\\t\\n\\r", "\n", True),
                                     ("CRLF", "\r\n", False)]:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator=terminator,
                            quoting=csv.QUOTE_ALL if spaced else csv.QUOTE_MINIMAL)
        writer.writerow(["author_id", "citations"])
        for author_id, citations, _ in records:
            texts = list(map(str, citations))
            writer.writerow([author_id, _spaced(rng, texts, ";") if spaced else ";".join(texts)])
        layouts[name] = buf.getvalue()
    return layouts


def _plain_inputs(seed, trials):
    """Random plain integer cohorts in every layout of both formats."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        records = _plain_records(rng)
        yield from (("json", name, text) for name, text in _json_layouts(rng, records).items())
        yield from (("csv", name, text) for name, text in _csv_layouts(rng, records).items())


def _non_plain_token(rng, fmt):
    """Number text the numpy pass must decline, and the scalar checks
    accept: a half-integer, an exponent, an integer of 10**15 or more (or
    beyond 2**53), or one of the format's own forms."""
    own = ["-0"] if fmt == "json" else ["+5", "1_000", "007"]
    pool = [f"{int(rng.integers(0, 1000))}.5", "1e3", "1E+2", str(int(rng.integers(10 ** 15, 2 ** 53))),
            str(2 ** 53 + int(rng.integers(1, 10 ** 6))), *own]
    return pool[int(rng.integers(len(pool)))]


def _non_plain_inputs(seed, trials):
    """Random cohorts with number text the numpy pass declines among
    plain integers, in every layout of both formats; every cohort holds
    a half-integer, so no input is plain."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        for fmt, layouts in (("json", _json_layouts), ("csv", _csv_layouts)):
            records = [(author_id, [_non_plain_token(rng, fmt) if rng.random() < 0.5 else str(x)
                                    for x in citations], notes)
                       for author_id, citations, notes in _plain_records(rng)]
            records[int(rng.integers(len(records)))][1].append("2.5")  # "007;2.5" in CSV
            yield from ((fmt, name, text) for name, text in layouts(rng, records).items())


@pytest.fixture
def lane(monkeypatch):
    """What the numpy pass answered, by function: _plain_json for JSON,
    _plain_csv for CSV, and _plain_parse per chunk; None is "not plain
    integer text"."""
    answers = {"_plain_json": [], "_plain_csv": [], "_plain_parse": []}
    for name, seen in answers.items():
        def spy(*args, real=getattr(cohort_module, name), seen=seen, **kwargs):
            seen.append(real(*args, **kwargs))
            return seen[-1]
        monkeypatch.setattr(cohort_module, name, spy)
    return answers


def _in_doc(array):
    return '{"authors": [{"id": "a", "citations": [3, 1]}, {"id": "b", "citations": %s}]}' % array


def _in_csv(cell):
    return f"author_id,citations\na,3;1\nb,{cell}\n"


class TestPlainIntegerLane:
    def test_random_cohorts_match_the_scalar_oracle(self):
        for fmt, layout, text in _plain_inputs(1301, 40):
            want = _oracle(text, fmt)
            assert _read(text, fmt) == want, (fmt, layout)
            assert _read(text.encode("utf-8"), fmt) == want, (fmt, layout)

    def test_plain_input_never_builds_python_numbers(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("plain integer text reached the Python number path")

        wants = [(fmt, text, _oracle(text, fmt)) for fmt, _, text in _plain_inputs(1302, 10)]
        # JSON array text is parsed a megabyte at a time: these span several parses
        text = json.dumps({"authors": [{"id": f"r{k}", "citations": list(range(k, 200_000 + k))}
                                       for k in range(4)]})
        wants.append(("json", text, _oracle(text, "json")))
        for name in ("_json_values", "_csv_values", "checked_citations"):
            monkeypatch.setattr(cohort_module, name, refuse)
        for fmt, text, want in wants:
            assert _read(text, fmt) == want

    def test_input_with_no_plain_array_is_parsed_once(self, monkeypatch):
        doc = '{"authors": [{"id": "a", "citations": [1.5, 2]}]}'
        want = _oracle(doc, "json")
        calls = []
        real = json.loads
        monkeypatch.setattr(cohort_module.json, "loads", lambda s: calls.append(s) or real(s))
        assert _read(doc, "json") == want
        assert calls == [doc]


class TestScalarReader:
    """Input the numpy pass declines is read by the scalar checks."""

    def test_random_non_plain_cohorts_match_the_oracle(self, lane):
        for fmt, layout, text in _non_plain_inputs(1305, 15):
            want = _oracle(text, fmt)
            for data in (text, text.encode("utf-8")):
                for answers in lane.values():
                    answers.clear()
                assert _read(data, fmt) == want, (fmt, layout)
                assert lane["_plain_json" if fmt == "json" else "_plain_csv"] == [None]


class TestPlainIntegerLanePins:
    """Where the numpy pass must, or must not, read the input; either
    way ingest gives the oracle's values or the scalar path's message."""

    @pytest.mark.parametrize("fmt, text, plain, message", [
        ("json", _in_doc("[01]"), False, "input is not valid JSON: Expecting ',' delimiter"),
        ("json", _in_doc("[1,,2]"), False, "input is not valid JSON: Expecting value"),
        ("json", _in_doc("[1,,2 3]"), False, "input is not valid JSON: Expecting value"),
        ("json", _in_doc("[1 2]"), False, "input is not valid JSON: Expecting ',' delimiter"),
        ("json", _in_doc("[,1]"), False, "input is not valid JSON: Expecting value"),
        ("json", _in_doc("[1,]"), False, "input is not valid JSON: Expecting value"),
        ("json", _in_doc("[ , ]"), False, "input is not valid JSON: Expecting value"),
        ("json", _in_doc("[-0]"), False, None),
        ("json", _in_doc("[1.0]"), False, None),
        ("json", _in_doc("[1e2]"), False, None),
        ("json", _in_doc("[ 5]"), True, None),
        ("json", _in_doc("[]"), True, None),
        ("json", _in_doc("[ \r\n\t]"), True, None),
        ("json", _in_doc("[0, 10, 999999999999999]"), True, None),
        ("json", '{"authors": [{"id": "a", "citations": []}]}', True, None),
        ("json", _in_doc("[1000000000000000]"), False, None),
        ("json", _in_doc("[9007199254740993]"), False, None),
        ("json", _in_doc("[%s]" % ("9" * 5000)), False,
         "input is not valid JSON: Exceeds the limit (4300 digits)"),
        ("json", '{"authors": [{"id": "a", "citations": [1],'
                 ' "annotations": {"citations": [2]}}]}', False, None),
        ("json", '{"authors": [{"id": "a", "abc\\"citations": [1]}]}', False, None),
        ("json", '{"authors": [{"id": "a", "citations": [1], "citations": [2, 3]}]}', False, None),
        ("json", '{"authors": [{"id": "a\\u0000b", "citations": [1]}]}', False, None),
        ("json", '{"authors": [{"id": "a", "citations": "\\u00000",'
                 ' "annotations": {"citations": [5]}}]}', False,
         "authors[0]: 'citations' must be a list"),
        ("json", '{"authors": [{"id": "x", "citations": [9]}],'
                 ' "authors": [{"id": "a", "citations": [1]}]}', False, None),
        ("json", '{"authors": [{"id": "a", "citations": [1]}, {"id": "b"}]}', False, None),
        ("json", '{"authors": [{"id": "a", "citations": [1]},]}', False,
         "input is not valid JSON: Expecting value"),
        ("json", '{"authors": [{"id": "a", "citations": [1], "annotations": 3}]}', False,
         "authors[0]: 'annotations' must be an object"),
        ("csv", _in_csv("٣"), False, None),
        ("csv", _in_csv("1_000"), False, None),
        ("csv", _in_csv("+5"), False, None),
        ("csv", _in_csv("-5"), False, "line 3: author 'b': citation at position 0 is -5.0"),
        ("csv", _in_csv(";5"), False, "line 3: bad citation value '' for author 'b'"),
        ("csv", _in_csv("5;"), False, "line 3: bad citation value '' for author 'b'"),
        ("csv", _in_csv("1000000000000000"), False, None),
        ("csv", _in_csv("9007199254740993"), False, None),
        ("csv", _in_csv("18446744073709551617"), False, None),  # 2**64 + 1
        ("csv", _in_csv("007;10"), True, None),
        ("csv", "author_id,citations\na,\n", True, None),
        ("csv", _in_csv('" 1 ;\t2\r\n;3"'), True, None),
    ], ids=lambda value: value[:60] if isinstance(value, str) else None)
    def test_pin(self, lane, fmt, text, plain, message):
        if message is None:
            assert _read(text, fmt) == _oracle(text, fmt)
        else:
            with pytest.raises(ValidationError) as err:
                ingest(text, fmt)
            assert str(err.value).startswith(message)
        answers = lane["_plain_json" if fmt == "json" else "_plain_csv"]
        assert [answer is not None for answer in answers] == [plain]


@pytest.fixture(params=[1, 4], ids=["one CPU", "four CPUs"])
def cpus(request, monkeypatch):
    """The CPUs ingest may use (four is more than this host may have),
    with ingest's kernels reading about 64 characters at a time.  Returns
    the CPU count, the arguments of the _plain_parse calls so far (a
    list, one per chunk) and the threads started so far (a list)."""
    monkeypatch.setattr(cohort_module.os, "sched_getaffinity", lambda pid: set(range(request.param)))
    monkeypatch.setattr(cohort_module, "_PLAIN_CHUNK", 64)
    calls, started = [], []

    def spy(*args, real=cohort_module._plain_parse):
        calls.append(args)
        return real(*args)

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(cohort_module, "_plain_parse", spy)
    monkeypatch.setattr(cohort_module.threading, "Thread", Recorded)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # let the threads interleave often
    yield request.param, calls, started
    sys.setswitchinterval(interval)


def _last_chunk_doc(token):
    entries = ['{"id": "r%d", "citations": [%s]}' % (k, ", ".join(map(str, range(k, k + 30))))
               for k in range(20)]
    return '{"authors": [%s, %s]}' % (", ".join(entries)[:-2], token + "]}")


def _last_chunk_csv(token):
    rows = [f"r{k},{';'.join(map(str, range(k, k + 30)))}" for k in range(20)]
    return "author_id,citations\n" + "\n".join(rows) + f";{token}\n"


def _empty_run(fmt):
    """Plain records around a run of 70 empty ones: at about 64
    characters a chunk, many chunks hold only empty texts."""
    full = [(f"r{k}", list(range(k, k + 30))) for k in range(20)]
    return _pack_texts(full[:10] + [(f"e{k}", []) for k in range(70)] + full[10:])[fmt]


class TestPlainIntegerLaneInChunks:
    """The numpy pass over many small chunks, on one thread or several,
    reads what the scalar path reads."""

    def test_random_cohorts_match_the_scalar_oracle(self, cpus, lane):
        count, calls, started = cpus
        inputs = [*_plain_inputs(1303, 25), *((fmt, "empty run", _empty_run(fmt))
                                              for fmt in ("json", "csv"))]
        for fmt, layout, text in inputs:
            chunks, workers = len(calls), len(started)
            assert _read(text, fmt) == _oracle(text, fmt), (fmt, layout)
            # a worker per CPU but the caller's, up to one per further chunk
            chunks, workers = len(calls) - chunks, len(started) - workers
            assert workers == min(count, chunks) - 1, (fmt, layout)
        assert None not in lane["_plain_json"] + lane["_plain_csv"]
        assert any(texts and not out.size for texts, _, _, out in calls)  # a chunk of empty texts
        assert len(calls) > len(started) > 0 or count == 1
        assert not any(thread.is_alive() for thread in started)

    def test_a_lone_chunk_starts_no_thread(self, cpus, monkeypatch):
        count, calls, started = cpus
        monkeypatch.setattr(cohort_module, "_PLAIN_CHUNK", 1 << 20)
        for fmt, layout, text in _plain_inputs(1304, 10):
            assert _read(text, fmt) == _oracle(text, fmt), (fmt, layout)
        assert calls and started == []

    @pytest.mark.parametrize("fmt, token, message", [
        ("json", "1.5", None),
        ("json", "-1", "authors[19] (author 'r19'): citation at position 30 is -1; "),
        ("json", "01", "input is not valid JSON: Expecting ',' delimiter: line 1 column 2948"),
        ("json", "1e3", None),
        ("json", "1000000000000000", None),
        ("csv", "1.5", None),
        ("csv", "-1", "line 21: author 'r19': citation at position 30 is -1.0; "),
        ("csv", "01", None),
        ("csv", "1e3", None),
        ("csv", "1000000000000000", None),
    ])
    def test_bad_token_in_the_last_chunk(self, cpus, lane, fmt, token, message):
        count, calls, started = cpus
        text = (_last_chunk_doc if fmt == "json" else _last_chunk_csv)(token)
        if message is None:
            assert _read(text, fmt) == _oracle(text, fmt)
        else:
            with pytest.raises(ValidationError) as err:
                ingest(text, fmt)
            assert str(err.value).startswith(message)
        # every chunk but the last is plain; the CSV kernel accepts a leading zero
        parsed = [answer is None for answer in lane["_plain_parse"]]
        assert len(parsed) > 10
        assert parsed.count(True) == int((fmt, token) != ("csv", "01"))
        if fmt == "json":
            assert lane["_plain_json"] == [None]
        assert len(started) == count - 1
        assert not any(thread.is_alive() for thread in started)

    def test_a_platform_without_cpu_affinity(self, monkeypatch):
        # os.sched_getaffinity is Linux only; elsewhere ingest counts the machine's CPUs
        monkeypatch.delattr(cohort_module.os, "sched_getaffinity")
        monkeypatch.setattr(cohort_module, "_PLAIN_CHUNK", 64)
        for fmt, layout, text in _plain_inputs(1306, 10):
            assert _read(text, fmt) == _oracle(text, fmt), (fmt, layout)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_the_parse_pass_declines_a_middle_chunk(self, cpus, lane, fmt):
        # 10**15 passes the byte checks; numpy's parse declines it, in chunk 2 of 20 (author r2)
        count, _, started = cpus
        text = (_last_chunk_doc if fmt == "json" else _last_chunk_csv)("1")
        old = "r2,2;3;4;" if fmt == "csv" else "[2, 3, 4,"
        assert text.count(old) == 1
        text = text.replace(old, old.replace("4", "1000000000000000"))
        assert _read(text, fmt) == _oracle(text, fmt)
        parsed = [answer is None for answer in lane["_plain_parse"]]
        assert parsed.count(True) == 1
        if count == 1:  # chunks 0 and 1 are parsed, chunk 2 declines and no further chunk starts
            assert parsed == [False, False, True]
        assert len(started) == count - 1
        assert not any(thread.is_alive() for thread in started)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_an_error_in_a_pass_is_raised_in_the_caller(self, cpus, monkeypatch, fmt):
        count, _, started = cpus
        failed = threading.Event()
        seen = []

        def fail(*args, real=cohort_module._plain_parse):
            # on several CPUs a worker fails first; on one, the caller's third call
            seen.append(args)
            if threading.current_thread() is not threading.main_thread():
                failed.set()
                raise MemoryError("parse failed")
            if count > 1:
                assert failed.wait(timeout=30)
            elif len(seen) == 3:
                raise MemoryError("parse failed")
            return real(*args)

        monkeypatch.setattr(cohort_module, "_plain_parse", fail)
        text = (_last_chunk_doc if fmt == "json" else _last_chunk_csv)("1")
        with pytest.raises(MemoryError, match="parse failed"):
            ingest(text, fmt)
        assert failed.is_set() == (count > 1)
        assert len(seen) == 3 or count > 1
        assert not any(thread.is_alive() for thread in started)


# The encoding of every row-shaped output before it was built from columns:
# one dict or tuple per row, floats through format_number or _json_number,
# then json.dumps or csv.writer.  The column encoder must give the same bytes.

def _old_json(doc):
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _old_rows(fmt, names, rows, key, fields=None, id_key="author_id"):
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["author_id", *names])
        writer.writerows([format_number(x) if isinstance(x, float) else x for x in row]
                         for row in rows)
        return buf.getvalue().encode("utf-8")
    objects = [
        dict(zip((id_key, *names), [_json_number(x) if isinstance(x, float) else x for x in row]))
        for row in rows
    ]
    return _old_json({**(fields or {}), key: objects})


def _old_table(table, fmt):
    rows = list(zip(table.authors, table.levels.tolist(), table.attained.tolist()))
    if fmt == "csv":
        return _old_rows(fmt, table.indices, [(a, *levels) for a, levels, _ in rows], "authors")
    authors = [
        {"id": a, "values": {ix: {"level": _json_number(level), "attained": flag}
                             for ix, level, flag in zip(table.indices, levels, flags)}}
        for a, levels, flags in rows
    ]
    return _old_json({"indices": list(table.indices), "authors": authors})


def _old_profile(profile):
    columns = [profile.author_id] + [getattr(profile, name).tolist() for name in _FIT_COLUMNS]
    fits = [dict(zip(("author_id", *_FIT_COLUMNS), row)) for row in zip(*columns)]
    return _old_json({"version": PROFILE_VERSION, "beta_bar": profile.beta_bar,
                      "cohort_size": profile.cohort_size, "fits": fits,
                      "metadata": profile.metadata})


_ODD_VALUES = [0.0, -0.0, 999999999.0, 1e9, 1234567891.0, 1e16, 5e-324, 1e308, math.inf,
               0.1 + 0.2, -3.0, -math.inf, 2.5]
_ODD_IDS = ["a,b", "a, b", 'say "hi", "yo"', "two\nlines", "cr\r", "café", "日本", " pad ",
            "back\\slash", "%s", "\0", "plain"]  # "\0<k>" is a mark of json_rows
_LABELS = ["h", "w", "h_alpha:2", "phi:1.62", "c_max", "h_r", "pubs", "h2", "phi:0.3"]
_GAPS = ["gap_1", "gap_0.1", "gap_0.01", "gap_10"]


def _odd_ids(rng, n):
    return [f"{_ODD_IDS[int(rng.integers(len(_ODD_IDS)))]}{k}" for k in range(n)]


def _float_column(rng, n):
    """Whole numbers below 1e9, odd values, or both with random floats."""
    kind = int(rng.integers(4))
    if kind == 0:
        return rng.integers(0, 1_000_000_000, size=n).astype(float)
    odd = np.array(_ODD_VALUES)[rng.integers(len(_ODD_VALUES), size=n)]
    if kind == 1:
        return odd
    if kind == 2:  # whole and small, with one odd value at a random row
        column = rng.integers(-5, 50, size=n).astype(float)
        if n:
            column[int(rng.integers(n))] = odd[0]
        return column
    return np.where(rng.random(n) < 0.5, odd, rng.uniform(-1e3, 1e3, size=n))


def _sizes(rng):
    return [0, 1, 2, *rng.integers(3, 40, size=12).tolist()]


def _pack_records(rng):
    """Records whose lengths are shared by several short records, held by
    one record, or shared by records too long to be sorted together; with
    empty and all-zero records among them."""
    lengths = [0, 0, 1, 1, 1, 2, 5, 5, 5, 9, 40, 40, 40, 127, 128, 128, 129, 129, 300, 301]
    lengths += rng.integers(0, 160, size=int(rng.integers(0, 40))).tolist()
    records = []
    for k, length in enumerate(rng.permutation(lengths).tolist()):
        kind = int(rng.integers(4))
        if kind == 0:
            values = [0] * length
        elif kind == 1:
            values = rng.integers(0, 4, size=length).tolist()  # many ties and zeros
        else:
            values = np.floor(5.0 * rng.pareto(1.2, size=length)).astype(np.int64).tolist()
        records.append((f"r{k}", values))
    return records


def _pack_texts(records):
    """The records as CSV and as JSON."""
    rows = [f"{author_id},{';'.join(map(str, values))}" for author_id, values in records]
    doc = {"authors": [{"id": author_id, "citations": values} for author_id, values in records]}
    return {"csv": "author_id,citations\n" + "\n".join(rows) + "\n", "json": json.dumps(doc)}


class TestPackByLength:
    """Ingest sorts the short records that share a length as the rows of
    one block, and every other record alone; both ways give what a sort of
    each record gives, from either way of reading the citations."""

    def test_random_cohorts_match_the_per_author_sort(self, lane):
        rng = np.random.default_rng(4105)
        for trial in range(12):
            records = _pack_records(rng)
            lengths = [len(values) for _, values in records]
            assert any(lengths.count(n) > 1 for n in range(1, cohort_module._BLOCK_LENGTH + 1))
            assert max(lengths) > cohort_module._BLOCK_LENGTH
            for plain in (True, False):
                if not plain:  # a huge value the numpy pass declines, in a short shared record
                    author = next(k for k, n in enumerate(lengths) if 1 < n < 100
                                  and lengths.count(n) > 1)
                    records[author][1][int(rng.integers(lengths[author]))] = 1e308
                for fmt, text in _pack_texts(records).items():
                    for answers in lane.values():
                        answers.clear()
                    assert _read(text, fmt) == _oracle(text, fmt), (trial, plain, fmt)
                    read = lane["_plain_json" if fmt == "json" else "_plain_csv"]
                    assert [answer is not None for answer in read] == [plain]


def _fittable_curves(rng, n):
    """Varied records without the 1e308 values of kind 3: their fit has no finite q_hat."""
    return [_varied_curve(rng, int(rng.choice([0, 1, 2, 4, 5]))) for _ in range(n)]


class TestBlockKernels:
    """The closed forms and the calibration fits go over the records in
    blocks of about BLOCK_VALUES citations, on the caller's thread; each
    block writes its own rows, so the bits do not depend on the block
    size."""

    def test_small_and_large_blocks_give_the_same_bits(self, monkeypatch):
        started = []

        class Recorded(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Recorded)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        rng = np.random.default_rng(4106)
        cohort = Cohort.from_curves(_ids(300), _varied_curves(rng, 300))
        fitted = Cohort.from_curves(_ids(300), _fittable_curves(rng, 300))
        specs = _catalog_specs(rng)
        assert {"c_max", "pubs", "h", "h2", "h_alpha", "w", "h_r", "phi"} == {
            spec.split(":")[0] for spec in specs}
        tables, results = {}, {}
        for size in (64, 1 << 16):
            monkeypatch.setattr(engine_module, "BLOCK_VALUES", size)
            blocks = [len(list(engine_module.segment_blocks(c.offsets))) for c in (cohort, fitted)]
            assert blocks == [1, 1] or (size == 64 and min(blocks) > 1)
            tables[size] = table = compute_table(cohort, specs)
            profile = calibrate_cohort(fitted).to_json()
            results[size] = table.levels.tobytes(), table.attained.tobytes(), profile
        assert results[64] == results[1 << 16]
        for k in range(len(cohort)):
            for col, spec in enumerate(specs):
                want = srm_closed_form(cohort.curve(k), spec)
                assert SrmValue(tables[64].levels[k, col], tables[64].attained[k, col]) == want
        assert started == []  # the blocks run on the caller's thread


class TestColumnEncoder:
    """Every row-shaped output is byte-equal to the old row-by-row encoding."""

    def test_json_texts_of_strings(self):
        odd = [*_ODD_IDS, "".join(map(chr, range(32))), "\x7f\x80\xff", "\u2028\u2029",
               "\ud800", "\U0001f600 \U0010ffff", ""]
        for column in (odd, [*odd, None], []):
            assert json_texts(column) == [json.dumps(v) for v in column]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_table_export(self, fmt):
        rng = np.random.default_rng(5101)
        for n in _sizes(rng):
            labels = rng.permutation(_LABELS)[:int(rng.integers(1, len(_LABELS) + 1))].tolist()
            table = IndexTable(
                authors=tuple(_odd_ids(rng, n)),
                indices=tuple(labels),
                levels=np.column_stack([_float_column(rng, n) for _ in labels]),
                attained=rng.random((n, len(labels))) < 0.7,
            )
            assert export(table, fmt) == _old_table(table, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_write_rows(self, fmt):
        rng = np.random.default_rng(5102)
        for n in _sizes(rng):
            ids = _odd_ids(rng, n)
            columns = {
                "value": _float_column(rng, n),
                "rank": rng.integers(1, 10**12, size=n).tolist(),
                "merit_class": _odd_ids(rng, n),
                "min_margin": _float_column(rng, n) if rng.integers(2) else [None] * n,
            }
            columns.update((gap, _float_column(rng, n)) for gap in _GAPS[:int(rng.integers(5))])
            fields = {"index": str(rng.choice(_LABELS)), "cutoffs": [0.1, 0.3]}
            id_key = str(rng.choice(["id", "author_id"]))
            rows = list(zip(ids, *(
                c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values()
            )))
            want = _old_rows(fmt, list(columns), rows, "ranking", fields, id_key)
            assert write_rows(fmt, ids, columns, "ranking", fields, id_key) == want

    def test_profile_to_json(self):
        rng = np.random.default_rng(5103)

        def real():
            if rng.integers(3):
                return float(rng.normal(0.0, 10.0 ** int(rng.integers(-3, 4))))
            return float(np.array(_ODD_VALUES)[rng.integers(len(_ODD_VALUES))])

        for n in _sizes(rng):
            ids = _odd_ids(rng, n)
            fits = [
                (real(), real(), float(rng.choice([0.0, 1.0, rng.random(), 0.1 + 0.2])),
                 int(rng.integers(2, 10**6)), int(rng.integers(0, 3)))
                for _ in ids
            ]
            columns = {
                name: np.array([fit[j] for fit in fits], dtype=dtype)
                for j, (name, dtype) in enumerate(_FIT_COLUMNS.items())
            }
            skipped = {"skipped": _odd_ids(rng, int(rng.integers(1, 4)))}
            profile = CohortProfile(beta_bar=real(), author_id=tuple(ids), **columns,
                                    metadata=skipped if rng.integers(2) else {})
            assert profile.to_json() == _old_profile(profile)
