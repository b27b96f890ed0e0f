import csv
import json
import math

import numpy as np
import pytest

from srmkit import (
    AuthorRecord,
    ValidationError,
    classify_merit,
    compute_table,
    construct_curve,
    export,
    ingest,
    rank_authors,
    shift_citations,
    srm_closed_form,
)
from srmkit.cohort import (
    Cohort,
    RankedAuthor,
    format_number,
    parse_classification,
    parse_ranking,
    parse_table,
)

from conftest import random_curve

CSV_FIXTURE = "author_id,citations\nX1,8;6;4;2\nX2,4;2;2;2;2\n"


def fixture_records():
    return ingest(CSV_FIXTURE, "csv")


class TestIngest:
    def test_csv_basic(self):
        records = fixture_records()
        assert [r.id for r in records] == ["X1", "X2"]
        assert records[0].curve.as_list() == [8, 6, 4, 2]

    def test_json_sorts_citations(self):
        data = json.dumps({"authors": [{"id": "a1", "citations": [2, 8, 4, 6]}]})
        records = ingest(data, "json")
        assert records[0].curve.as_list() == [8, 6, 4, 2]

    def test_json_keeps_annotations(self):
        data = json.dumps(
            {"authors": [{"id": "a1", "citations": [3], "annotations": {"area": "mf"}}]}
        )
        assert ingest(data, "json")[0].annotations == {"area": "mf"}

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
        assert records[0].curve.p == 0

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
        assert table.get("X1", "w").level == 4
        assert table.get("X2", "w").level == 3

    def test_count_and_calibrated_columns(self):
        table = compute_table(fixture_records(), ["pubs", "phi:1.62"])
        assert table.get("X2", "pubs").level == 5
        assert table.get("X1", "phi:1.62").level == 8.0

    def test_unknown_index_rejected(self):
        with pytest.raises(Exception):
            compute_table(fixture_records(), ["nope"])

    def test_duplicate_index_rejected(self):
        with pytest.raises(ValidationError):
            compute_table(fixture_records(), ["h", "h"])


class TestRanking:
    def test_competition_ranks_with_ties(self):
        records = [
            AuthorRecord("a", construct_curve([4, 4, 4, 4])),
            AuthorRecord("b", construct_curve([3, 3, 3])),
            AuthorRecord("c", construct_curve([4, 4, 4, 4])),
        ]
        ranking = rank_authors(compute_table(records, ["h"]), "h")
        assert [(r.id, r.value, r.rank) for r in ranking] == [
            ("a", 4.0, 1),
            ("c", 4.0, 1),
            ("b", 3.0, 3),
        ]

    def test_single_author(self):
        records = [AuthorRecord("solo", construct_curve([2]))]
        ranking = rank_authors(compute_table(records, ["h"]), "h")
        assert ranking[0].rank == 1

    def test_different_indices_can_disagree(self):
        csv_data = "author_id,citations\nA,8;6;4;2\nB,4;2;2;2;2\nC,6;4;3;2;1\n"
        table = compute_table(ingest(csv_data, "csv"), ["h", "w"])
        by_h = [r.id for r in rank_authors(table, "h")]
        by_w = [r.id for r in rank_authors(table, "w")]
        assert by_w == ["C", "A", "B"]
        assert by_h != by_w

    def test_ranking_is_a_permutation(self, rng):
        records = [
            AuthorRecord(f"a{i}", random_curve(rng, max_p=15, max_c=50)) for i in range(40)
        ]
        ranking = rank_authors(compute_table(records, ["h"]), "h")
        assert sorted(r.id for r in ranking) == sorted(rec.id for rec in records)
        assert all(1 <= r.rank <= 40 for r in ranking)
        for hi, lo in zip(ranking, ranking[1:]):
            assert hi.value >= lo.value
            if hi.value > lo.value:
                assert hi.rank < lo.rank

    def test_missing_column(self):
        table = compute_table(fixture_records(), ["h"])
        with pytest.raises(ValidationError):
            rank_authors(table, "w")


def ranking_of(values):
    entries = sorted(values.items(), key=lambda kv: (-kv[1], kv[0]))
    out = []
    for pos, (author, value) in enumerate(entries, start=1):
        rank = out[-1].rank if out and out[-1].value == value else pos
        out.append(RankedAuthor(id=author, value=float(value), rank=rank))
    return out


class TestMeritClasses:
    def test_ten_authors_default_cutoffs(self):
        ranking = ranking_of({f"a{i:02d}": 100 - i for i in range(10)})
        classes = classify_merit(ranking, (0.1, 0.3))
        labels = [classes.assignment[r.id] for r in ranking]
        assert labels == ["class-1"] + ["class-2"] * 2 + ["class-3"] * 7

    def test_all_tied_authors_share_the_top_class(self):
        ranking = ranking_of({f"a{i}": 5 for i in range(8)})
        classes = classify_merit(ranking, (0.1, 0.3))
        assert set(classes.assignment.values()) == {"class-1"}

    def test_tie_block_is_never_split(self):
        # 20 authors, boundary after 2: the block tied at rank 2 spills
        # past the boundary and is promoted whole into class-1
        values = {f"a{i:02d}": 100 - i for i in range(20)}
        values["a02"] = values["a01"]
        ranking = ranking_of(values)
        classes = classify_merit(ranking, (0.1, 0.3))
        assert classes.assignment["a01"] == classes.assignment["a02"] == "class-1"
        assert classes.assignment["a03"] == "class-2"

    def test_raising_citations_never_demotes(self, rng):
        for _ in range(30):
            records = [
                AuthorRecord(f"a{i}", random_curve(rng, min_p=1, max_p=10, max_c=30))
                for i in range(12)
            ]
            table = compute_table(records, ["h"])
            ranking = rank_authors(table, "h")
            before = classify_merit(ranking, (0.25,)).assignment
            target = records[3]
            boosted = AuthorRecord(target.id, shift_citations(target.curve, 5))
            records[3] = boosted
            after = classify_merit(
                rank_authors(compute_table(records, ["h"]), "h"), (0.25,)
            ).assignment
            assert int(after[target.id][-1]) <= int(before[target.id][-1])

    def test_invalid_cutoffs(self):
        ranking = ranking_of({"a": 1, "b": 2})
        with pytest.raises(ValidationError):
            classify_merit(ranking, (0.3, 0.1))
        with pytest.raises(ValidationError):
            classify_merit(ranking, (0.0, 0.5))


class TestExport:
    def test_table_csv_layout(self):
        table = compute_table(fixture_records(), ["h", "w"])
        text = export(table, "csv").decode()
        lines = text.splitlines()
        assert lines[0] == "author_id,h,w"
        assert lines[1] == "X1,3,4"

    def test_infinite_cell_renders_as_inf(self):
        records = [AuthorRecord("t", shift_citations(construct_curve([5, 4]), 2))]
        table = compute_table(records, ["pubs"])
        assert math.isinf(table.get("t", "pubs").level)
        assert "t,inf" in export(table, "csv").decode()
        restored = parse_table(export(table, "json"), "json")
        assert math.isinf(restored.get("t", "pubs").level)

    def test_classification_json_echoes_cutoffs(self):
        ranking = ranking_of({"a": 3, "b": 2, "c": 1})
        classes = classify_merit(ranking, (0.4,))
        doc = json.loads(export(classes, "json"))
        assert doc["cutoffs"] == [0.4]
        restored = parse_classification(export(classes, "json"), "json")
        assert restored.assignment == classes.assignment

    def test_cohort_round_trip_both_formats(self, rng):
        for fmt in ("csv", "json"):
            records = [
                AuthorRecord(f"a{i}", random_curve(rng, max_p=12, max_c=900))
                for i in range(15)
            ]
            restored = ingest(export(records, fmt), fmt)
            assert [r.id for r in restored] == [r.id for r in records]
            assert [r.curve for r in restored] == [r.curve for r in records]

    def test_json_round_trip_keeps_annotations(self):
        records = [AuthorRecord("a", construct_curve([2, 1]), {"area": "mf"})]
        restored = ingest(export(records, "json"), "json")
        assert restored[0].annotations == {"area": "mf"}

    def test_table_round_trip(self, rng):
        records = [
            AuthorRecord(f"a{i}", random_curve(rng, max_p=10, max_c=100)) for i in range(8)
        ]
        table = compute_table(records, ["h", "w", "phi:1.62", "h_r"])
        via_json = parse_table(export(table, "json"), "json")
        assert via_json.authors == table.authors
        assert via_json.indices == table.indices
        for author in table.authors:
            for ix in table.indices:
                cell = table.get(author, ix)
                # values are rendered with 9 significant digits
                assert via_json.get(author, ix).level == pytest.approx(cell.level, rel=1e-8)
                assert via_json.get(author, ix).attained == cell.attained
        via_csv = parse_table(export(table, "csv"), "csv")
        for author in table.authors:
            for ix in table.indices:
                assert via_csv.get(author, ix).level == pytest.approx(
                    table.get(author, ix).level, rel=1e-8
                )

    def test_ranking_round_trip(self):
        ranking = ranking_of({"a": 4, "b": 3, "c": 4})
        for fmt in ("csv", "json"):
            assert parse_ranking(export(ranking, fmt), fmt) == ranking

    def test_format_number_conventions(self):
        assert format_number(8.0) == "8"
        assert format_number(math.inf) == "inf"
        assert format_number(2.6020599913279625) == "2.60205999"


class TestMalformedReimport:
    @pytest.mark.parametrize("parse, data", [
        (parse_table, "{}"),
        (parse_table, "not json"),
        (parse_table, '{"indices": ["h"], "authors": [{"id": "a"}]}'),
        (parse_ranking, '{"ranking": [{"id": "a"}]}'),
        (parse_ranking, "[]"),
        (parse_classification, '{"cutoffs": [0.1]}'),
        (parse_classification, '{"cutoffs": 3, "assignment": {}}'),
    ])
    def test_json_errors_are_validation_errors(self, parse, data):
        with pytest.raises(ValidationError, match="malformed"):
            parse(data, "json")

    def test_csv_errors_are_validation_errors(self):
        with pytest.raises(ValidationError, match="malformed"):
            parse_ranking("author_id,value,rank\na,3\n", "csv")
        with pytest.raises(ValidationError, match="malformed"):
            parse_table("author_id,h\na,many\n", "csv")


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


def _varied_records(rng, n, tails=False):
    records = []
    for k in range(n):
        shifted = tails and k % 5 == 0
        # the generic search, which evaluates tail rows, cannot take 1e308 values
        curve = _varied_curve(rng, int(rng.choice([0, 1, 2, 4, 5] if shifted else 6)))
        if shifted:
            curve = shift_citations(curve, float(rng.choice([0.5, 2.0, 7.0])))
        records.append(AuthorRecord(f"a{k:03d}", curve))
    return records


def _catalog_specs(rng):
    alpha, beta = (float(x) for x in rng.uniform(0.1, 4.0, size=2))
    return ["c_max", "pubs", "h", "h2", "h_alpha:2", f"h_alpha:{alpha!r}", "w", "h_r",
            "phi:1.62", f"phi:{beta!r}", "phi:0.3"]


class TestColumnarCohort:
    def test_batch_table_is_bit_equal_to_the_scalar_closed_forms(self):
        rng = np.random.default_rng(4101)
        for trial in range(25):
            records = _varied_records(rng, 60, tails=trial % 2 == 1)
            specs = _catalog_specs(rng)
            table = compute_table(records, specs)
            cohort = None
            if trial % 2 == 0:  # no tails: ingest the same values, unsorted
                doc = {"authors": [
                    {"id": r.id, "citations": rng.permutation(r.curve.as_list() + [0]).tolist()}
                    for r in records
                ]}
                cohort = ingest(json.dumps(doc), "json")
            for k, rec in enumerate(records):
                for col, spec in enumerate(specs):
                    want = srm_closed_form(rec.curve, spec)
                    assert table.levels[k, col] == want.level, (rec, spec)
                    assert table.attained[k, col] == want.attained, (rec, spec)
            if cohort is not None:
                again = compute_table(cohort, specs)
                assert np.array_equal(again.levels, table.levels)
                assert np.array_equal(again.attained, table.attained)

    def test_cohort_is_a_sequence_of_records(self):
        records = _varied_records(np.random.default_rng(4102), 30, tails=True)
        cohort = Cohort.from_records(records)
        assert len(cohort) == 30
        assert [r.id for r in cohort] == [r.id for r in records]
        assert [r.curve for r in cohort] == [r.curve for r in records]
        assert cohort[-1].curve == records[-1].curve
        assert [r.id for r in cohort[2:5]] == [r.id for r in records[2:5]]
        with pytest.raises(IndexError):
            cohort[30]
        assert not cohort.values.flags.writeable and not cohort.offsets.flags.writeable

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
        records = [
            AuthorRecord(f"r{k}", construct_curve(np.floor(5.0 * rng.pareto(1.2, size=size))))
            for k, size in enumerate([70_000, 3, 0, 40_000, 40_000, 1])
        ]
        table = compute_table(records, ["h", "w", "h_r", "phi:1.62"])
        for k, rec in enumerate(records):
            for col, spec in enumerate(table.indices):
                assert table.get(rec.id, spec) == srm_closed_form(rec.curve, spec)


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
        assert ingest(f"author_id,citations\na,{cell}\n", "csv")[0].curve.as_list() == values

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
        doc = '{"authors": [{"id": 17, "citations": ["3", " 4 ", "1_000", 2.5, 0]}]}'
        record = ingest(doc, "json")[0]
        assert record.id == "17" and record.curve.as_list() == [1000.0, 4.0, 3.0, 2.5]

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
