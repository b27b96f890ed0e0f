"""Cohort ingestion, batch index tables, ranking and merit classes.

File formats (mirrored on export):

  CSV    header ``author_id,citations``; the citations cell is a
         semicolon-separated list of nonnegative numbers, any order.
  JSON   ``{"authors": [{"id": str, "citations": [num, ...],
         "annotations": {...}}]}``.

Numbers are rendered with up to 9 significant digits and +inf as the
literal string "inf".
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .curves import CitationCurve, SrmValue, checked_citations
from .engine import IndexSpec, family_for, parse_index, srm_closed_form_batch, srm_generic
from .errors import ValidationError, reading

CSV_FORMAT = "csv"
JSON_FORMAT = "json"
_FORMATS = (CSV_FORMAT, JSON_FORMAT)


def format_number(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{float(x):.9g}"


def _json_number(x: float):
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(format_number(x))


def _check_format(fmt: str) -> str:
    if fmt not in _FORMATS:
        raise ValidationError(f"unknown format {fmt!r}; use 'csv' or 'json'")
    return fmt


@dataclass
class AuthorRecord:
    """A cohort entry: unique id, citation curve, free-form annotations."""

    id: str
    curve: CitationCurve
    annotations: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if not self.id:
            raise ValidationError("author id must be nonempty")


class Cohort(SequenceABC):
    """A cohort stored column-wise, as compressed sparse rows.

    Author k has id ``ids[k]``, tail ``tails[k]``, annotations
    ``annotations[k]`` and the citation values
    ``values[offsets[k]:offsets[k+1]]``: the canonical values of its
    :class:`CitationCurve`, every one above the tail and sorted
    nonincreasing.  ``values`` (float64) and ``offsets`` (int64, from 0
    to ``values.size``) are taken over, not copied, and made read-only.
    Build one with :func:`ingest`, :meth:`from_records` or
    :meth:`from_curves`.

    The cohort is also a read-only ``Sequence[AuthorRecord]``: indexing
    builds the author's record, and its curve, on demand.
    """

    __slots__ = ("ids", "values", "offsets", "tails", "annotations")

    def __init__(
        self,
        ids: Sequence[str],
        values: np.ndarray,
        offsets: np.ndarray,
        tails: Optional[np.ndarray] = None,
        annotations: Optional[Sequence[Dict[str, object]]] = None,
    ):
        n = len(ids)
        values = np.asarray(values, dtype=float)
        offsets = np.asarray(offsets, dtype=np.int64)
        tails = np.zeros(n) if tails is None else np.asarray(tails, dtype=float)
        if (
            values.ndim != 1
            or offsets.shape != (n + 1,)
            or tails.shape != (n,)
            or offsets[0] != 0
            or offsets[-1] != values.size
            or np.any(offsets[1:] < offsets[:-1])
        ):
            raise ValidationError("cohort arrays do not describe one segment per author")
        for arr in (values, offsets, tails):
            arr.setflags(write=False)
        self.ids = tuple(ids)
        self.values = values
        self.offsets = offsets
        self.tails = tails
        self.annotations = tuple(annotations) if annotations is not None else ({},) * n

    @classmethod
    def from_curves(
        cls,
        ids: Sequence[str],
        curves: Sequence[CitationCurve],
        annotations: Optional[Sequence[Dict[str, object]]] = None,
    ) -> "Cohort":
        """Pack citation curves, with any tails, and their ids."""
        if len(ids) != len(curves):
            raise ValidationError("curves and ids must have the same length")
        offsets = np.zeros(len(curves) + 1, dtype=np.int64)
        np.cumsum([c.p for c in curves], out=offsets[1:])
        values = np.concatenate([c.values for c in curves]) if curves else np.empty(0)
        tails = np.array([c.tail for c in curves], dtype=float)
        return cls(ids, values, offsets, tails=tails, annotations=annotations)

    @classmethod
    def from_records(cls, records: Sequence[AuthorRecord]) -> "Cohort":
        records = list(records)
        if not all(isinstance(r, AuthorRecord) for r in records):
            raise ValidationError("a cohort is built from AuthorRecord entries")
        return cls.from_curves(
            [r.id for r in records], [r.curve for r in records], [r.annotations for r in records]
        )

    @property
    def lengths(self) -> np.ndarray:
        """Publication count p of every author."""
        return np.diff(self.offsets)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(len(self))[i]]
        k = range(len(self))[i]
        curve = CitationCurve(self.values[self.offsets[k]:self.offsets[k + 1]], self.tails[k])
        return AuthorRecord(self.ids[k], curve, dict(self.annotations[k]))


@dataclass(eq=False)
class IndexTable:
    """Rectangular author-by-index table of computed levels.

    ``levels`` and ``attained`` have one row per author and one column
    per index.
    """

    authors: Tuple[str, ...]
    indices: Tuple[str, ...]
    levels: np.ndarray
    attained: np.ndarray

    @cached_property
    def _rows(self) -> Dict[str, int]:
        return {a: k for k, a in enumerate(self.authors)}

    def _col(self, index: str) -> int:
        if index not in self.indices:
            raise ValidationError(f"table has no column {index!r}; columns: {', '.join(self.indices)}")
        return self.indices.index(index)

    def get(self, author_id: str, index: str) -> SrmValue:
        row, col = self._rows[author_id], self._col(index)
        return SrmValue(float(self.levels[row, col]), bool(self.attained[row, col]))

    def column(self, index: str) -> List[Tuple[str, SrmValue]]:
        col = self._col(index)
        return [
            (a, SrmValue(level, flag))
            for a, level, flag in zip(
                self.authors, self.levels[:, col].tolist(), self.attained[:, col].tolist()
            )
        ]


@dataclass(frozen=True)
class RankedAuthor:
    id: str
    value: float
    rank: int


@dataclass
class MeritClassification:
    """Quantile merit classes over a ranking.

    ``cutoffs`` are strictly increasing fractions in (0, 1); with k
    cutoffs the labels are class-1 .. class-(k+1).  An author of
    competition rank r among n falls in the first class whose
    cutoff * n >= r, so a block of tied authors (sharing the minimum
    rank) always lands whole in the better class touched.
    """

    cutoffs: Tuple[float, ...]
    assignment: Dict[str, str]

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(f"class-{i}" for i in range(1, len(self.cutoffs) + 2))


def _decode(data: Union[bytes, str]) -> str:
    if isinstance(data, bytes):
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"input is not valid UTF-8: {exc}") from None
    return data


def _all_valid(flat: np.ndarray) -> bool:
    # the comparisons of checked_citations: 0 <= x < inf rejects nan as well
    return bool(np.all((flat >= 0) & (flat < math.inf)))


def _csv_rows(text: str):
    """Author ids, citation cells and line numbers of the well-formed
    records, up to the first malformed one, whose error is returned
    rather than raised: a bad value on an earlier line is reported first.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValidationError("CSV input is empty") from None
    except csv.Error as exc:
        raise ValidationError(f"line 1: {exc}") from None
    if [c.strip() for c in header] != ["author_id", "citations"]:
        raise ValidationError("CSV header must be exactly 'author_id,citations'")
    ids, cells, linenos = [], [], []
    lineno = 1
    try:
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                return ids, cells, linenos, ValidationError(
                    f"line {lineno}: expected 2 fields, got {len(row)}"
                )
            author_id, cell = row[0].strip(), row[1].strip()
            if not author_id:
                return ids, cells, linenos, ValidationError(f"line {lineno}: empty author id")
            ids.append(author_id)
            cells.append(cell)
            linenos.append(lineno)
    except csv.Error as exc:
        return ids, cells, linenos, ValidationError(f"line {lineno + 1}: {exc}")
    return ids, cells, linenos, None


def _csv_values(ids: List[str], cells: List[str], linenos: List[int]) -> np.ndarray:
    """Every citation of every cell, validated, as one flat array."""
    joined = ";".join(filter(None, cells))
    try:
        flat = np.array(joined.split(";") if joined else [], dtype=float)
        if _all_valid(flat):
            return flat
    except ValueError:
        pass
    # some value is bad (or only float() reads it): check line by line, as
    # the scalar path does, so the first bad line is the one reported
    values: List[float] = []
    for lineno, author_id, cell in zip(linenos, ids, cells):
        raw = []
        for part in cell.split(";") if cell else []:
            try:
                raw.append(float(part))
            except ValueError:
                raise ValidationError(
                    f"line {lineno}: bad citation value {part!r} for author {author_id!r}"
                ) from None
        try:
            values.extend(checked_citations(raw))
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: author {author_id!r}: {exc}") from None
    return np.array(values, dtype=float)


def _ingest_csv(text: str):
    limit = csv.field_size_limit()
    csv.field_size_limit(max(limit, len(text)))  # a record may be as long as the input
    try:
        ids, cells, linenos, pending = _csv_rows(text)
    finally:
        csv.field_size_limit(limit)
    flat = _csv_values(ids, cells, linenos)
    if pending is not None:
        raise pending
    return ids, flat, [cell.count(";") + 1 if cell else 0 for cell in cells], None


_PLAIN_NUMBERS = frozenset((int, float))


def _json_values(ids: List[str], lists: List[list]) -> np.ndarray:
    """Every citation of every list, validated, in one preallocated array."""
    flat = np.empty(sum(map(len, lists)))
    pos = 0
    try:
        for citations in lists:
            if not _PLAIN_NUMBERS.issuperset(map(type, citations)):
                break
            flat[pos:pos + len(citations)] = citations
            pos += len(citations)
        else:
            if _all_valid(flat):
                return flat
    except OverflowError:  # an integer too large for a float
        pass
    # booleans, strings, nulls, huge or bad numbers: the scalar checks decide,
    # entry by entry, so the first bad entry is the one reported
    values: List[float] = []
    for pos, (author_id, citations) in enumerate(zip(ids, lists)):
        try:
            values.extend(checked_citations(citations))
        except ValidationError as exc:
            raise ValidationError(f"authors[{pos}] (author {author_id!r}): {exc}") from None
    return np.array(values, dtype=float)


def _ingest_json(text: str):
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"input is not valid JSON: {exc}") from None
    del text  # the only reference: free the input while the citations are packed
    if not isinstance(doc, dict) or not isinstance(doc.get("authors"), list):
        raise ValidationError("JSON input must be an object with an 'authors' list")
    ids, lists, annotations = [], [], []
    pending = None  # raised once the citations of earlier entries have passed
    for pos, entry in enumerate(doc["authors"]):
        where = f"authors[{pos}]"
        if not isinstance(entry, dict) or "id" not in entry:
            pending = ValidationError(f"{where}: each author needs an 'id'")
            break
        author_id = str(entry["id"])
        citations = entry.get("citations", [])
        if not isinstance(citations, list):
            pending = ValidationError(f"{where}: 'citations' must be a list")
            break
        ids.append(author_id)
        lists.append(citations)
        notes = entry.get("annotations", {})
        if not isinstance(notes, dict):
            pending = ValidationError(f"{where}: 'annotations' must be an object")
            break
        if not author_id:
            pending = ValidationError("author id must be nonempty")
            break
        annotations.append(dict(notes))
    flat = _json_values(ids, lists)
    if pending is not None:
        raise pending
    return ids, flat, [len(c) for c in lists], annotations


def _pack(flat: np.ndarray, counts: List[int]) -> Tuple[np.ndarray, np.ndarray]:
    """Sort each author's slice of ``flat`` nonincreasing and drop its
    zeros, in place; returns the packed values and their offsets.
    """
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.negative(flat, out=flat)  # ascending order of -x is nonincreasing order of x
    start = end = 0
    for k, count in enumerate(counts, start=1):
        segment = flat[start:start + count]
        segment.sort()
        kept = int(segment.searchsorted(0.0))  # zeros, now -0.0, sort last
        if end != start:
            flat[end:end + kept] = segment[:kept]
        start += count
        end += kept
        offsets[k] = end
    values = flat[:end]
    np.negative(values, out=values)
    return values, offsets


def ingest(data: Union[bytes, str], fmt: str) -> Cohort:
    """Parse a cohort file into a :class:`Cohort` (duplicate ids rejected).

    Every citation is validated before any is sorted; on a bad value the
    error names the first bad line (CSV) or entry (JSON) and the
    position in it.
    """
    _check_format(fmt)
    read = _ingest_csv if fmt == CSV_FORMAT else _ingest_json
    ids, flat, counts, annotations = read(_decode(data))
    seen = set()
    for author_id in ids:
        if author_id in seen:
            raise ValidationError(f"duplicate author id {author_id!r}")
        seen.add(author_id)
    values, offsets = _pack(flat, counts)
    return Cohort(ids, values, offsets, annotations=annotations)


def compute_table(
    records: Union[Cohort, Sequence[AuthorRecord]],
    indices: Sequence[Union[str, IndexSpec]],
) -> IndexTable:
    """Evaluate every requested index for every author.

    Records with tail 0 go through the batch closed forms; a record
    with a positive tail goes through the generic search, as
    :func:`srm_closed_form` sends it.
    """
    if not indices:
        raise ValidationError("need at least one index to compute")
    specs = [parse_index(ix) for ix in indices]
    labels = tuple(s.label for s in specs)
    if len(set(labels)) != len(labels):
        raise ValidationError("duplicate index in request")
    cohort = records if isinstance(records, Cohort) else Cohort.from_records(records)
    levels, attained = srm_closed_form_batch(cohort.values, cohort.offsets, specs)
    for k in np.flatnonzero(cohort.tails > 0).tolist():
        curve = cohort[k].curve
        for col, spec in enumerate(specs):
            value = srm_generic(curve, family_for(spec))
            levels[k, col], attained[k, col] = value.level, value.attained
    return IndexTable(authors=cohort.ids, indices=labels, levels=levels, attained=attained)


def rank_authors(table: IndexTable, index: Union[str, IndexSpec]) -> List[RankedAuthor]:
    """Descending competition ranking of one table column.

    Tied authors share the minimum rank of their block; order within a
    tie is by author id, so the output is deterministic.
    """
    label = index.label if isinstance(index, IndexSpec) else parse_index(index).label
    column = table.levels[:, table._col(label)].tolist()
    ordered = sorted(zip(table.authors, column), key=lambda item: (-item[1], item[0]))
    out: List[RankedAuthor] = []
    for pos, (author_id, level) in enumerate(ordered, start=1):
        if out and level == out[-1].value:
            rank = out[-1].rank
        else:
            rank = pos
        out.append(RankedAuthor(id=author_id, value=level, rank=rank))
    return out


def classify_merit(
    ranking: Sequence[RankedAuthor],
    cutoffs: Sequence[float] = (0.1, 0.3),
) -> MeritClassification:
    """Assign quantile merit classes to a ranking.

    An author of competition rank r among n falls in the first class
    whose quantile boundary reaches the block of authors starting at
    position r, i.e. the first cutoff with cutoff * n > r - 1 (at
    integer boundaries this is the familiar cutoff * n >= r); authors
    beyond every cutoff form the last class.  Tied authors share a
    rank, hence a class: a tie block straddling a boundary is wholly
    promoted to the better class, and the top block always lands in
    class-1 even when cutoff * n < 1.
    """
    cuts = tuple(float(c) for c in cutoffs)
    if not cuts or any(not (0.0 < c < 1.0) for c in cuts):
        raise ValidationError("cutoffs must be fractions strictly inside (0, 1)")
    if any(b <= a for a, b in zip(cuts, cuts[1:])):
        raise ValidationError("cutoffs must be strictly increasing")
    n = len(ranking)
    assignment: Dict[str, str] = {}
    for entry in ranking:
        label = f"class-{len(cuts) + 1}"
        for j, c in enumerate(cuts, start=1):
            if c * n > entry.rank - 1:
                label = f"class-{j}"
                break
        assignment[entry.id] = label
    return MeritClassification(cutoffs=cuts, assignment=assignment)


# ---------------------------------------------------------------------------
# export / re-import
# ---------------------------------------------------------------------------


def _csv_bytes(rows: Sequence[Sequence[str]]) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def _export_cohort(cohort: Cohort, fmt: str) -> bytes:
    values = cohort.values.tolist()
    bounds = cohort.offsets.tolist()
    citations = [values[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    if fmt == CSV_FORMAT:
        rows = [["author_id", "citations"]]
        for author_id, cites in zip(cohort.ids, citations):
            rows.append([author_id, ";".join(format_number(v) for v in cites)])
        return _csv_bytes(rows)
    authors = []
    for author_id, cites, notes in zip(cohort.ids, citations, cohort.annotations):
        entry: Dict[str, object] = {
            "id": author_id,
            "citations": [_json_number(v) for v in cites],
        }
        if notes:
            entry["annotations"] = notes
        authors.append(entry)
    return (json.dumps({"authors": authors}, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _export_table(table: IndexTable, fmt: str) -> bytes:
    rows = zip(table.authors, table.levels.tolist(), table.attained.tolist())
    if fmt == CSV_FORMAT:
        return _csv_bytes(
            [["author_id", *table.indices]]
            + [[author, *map(format_number, levels)] for author, levels, _ in rows]
        )
    authors = [
        {
            "id": author,
            "values": {
                ix: {"level": _json_number(level), "attained": flag}
                for ix, level, flag in zip(table.indices, levels, flags)
            },
        }
        for author, levels, flags in rows
    ]
    doc = {"indices": list(table.indices), "authors": authors}
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _export_ranking(ranking: Sequence[RankedAuthor], fmt: str) -> bytes:
    if fmt == CSV_FORMAT:
        rows = [["author_id", "value", "rank"]]
        for entry in ranking:
            rows.append([entry.id, format_number(entry.value), str(entry.rank)])
        return _csv_bytes(rows)
    doc = {
        "ranking": [
            {"id": e.id, "value": _json_number(e.value), "rank": e.rank} for e in ranking
        ]
    }
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _export_classification(cls: MeritClassification, fmt: str) -> bytes:
    if fmt == CSV_FORMAT:
        rows = [["author_id", "merit_class"]]
        for author in sorted(cls.assignment):
            rows.append([author, cls.assignment[author]])
        return _csv_bytes(rows)
    doc = {"cutoffs": list(cls.cutoffs), "assignment": cls.assignment}
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def export(obj, fmt: str) -> bytes:
    """Serialize a cohort, table, ranking or classification.

    Exports mirror the ingest formats, so feeding a cohort export back
    through :func:`ingest` reproduces the records.  JSON table exports
    keep the attained flag; CSV tables carry the levels only.
    """
    _check_format(fmt)
    if isinstance(obj, IndexTable):
        return _export_table(obj, fmt)
    if isinstance(obj, MeritClassification):
        return _export_classification(obj, fmt)
    if isinstance(obj, (list, tuple)) and obj and isinstance(obj[0], RankedAuthor):
        return _export_ranking(obj, fmt)
    if isinstance(obj, Cohort):
        return _export_cohort(obj, fmt)
    if isinstance(obj, (list, tuple)) and all(isinstance(r, AuthorRecord) for r in obj):
        return _export_cohort(Cohort.from_records(obj), fmt)
    raise ValidationError(f"do not know how to export {type(obj).__name__}")


def _level(text_or_number) -> float:
    if isinstance(text_or_number, str):
        if text_or_number == "inf":
            return math.inf
        return float(text_or_number)
    return float(text_or_number)


@reading("table")
def parse_table(data: Union[bytes, str], fmt: str) -> IndexTable:
    """Re-import an exported index table.

    CSV exports carry levels only, so re-imported cells default to
    attained=True; JSON exports round-trip both fields.
    """
    _check_format(fmt)
    text = _decode(data)
    if fmt == CSV_FORMAT:
        reader = csv.reader(io.StringIO(text))
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError("table CSV is empty") from None
        if not header or header[0] != "author_id":
            raise ValidationError("table CSV must start with an author_id column")
        indices = tuple(header[1:])
        rows = [row for row in reader if row]
        if any(len(row) != len(header) for row in rows):
            raise ValidationError(f"table CSV rows must have {len(header)} fields")
        authors = [row[0] for row in rows]
        cells = [[SrmValue(_level(cell)) for cell in row[1:]] for row in rows]
    else:
        doc = json.loads(text)
        indices = tuple(doc["indices"])
        authors = [entry["id"] for entry in doc["authors"]]
        cells = [
            [
                SrmValue(_level(entry["values"][ix]["level"]),
                         attained=bool(entry["values"][ix]["attained"]))
                for ix in indices
            ]
            for entry in doc["authors"]
        ]
    shape = (len(authors), len(indices))
    return IndexTable(
        authors=tuple(authors),
        indices=indices,
        levels=np.array([[c.level for c in row] for row in cells], dtype=float).reshape(shape),
        attained=np.array([[c.attained for c in row] for row in cells], dtype=bool).reshape(shape),
    )


@reading("ranking")
def parse_ranking(data: Union[bytes, str], fmt: str) -> List[RankedAuthor]:
    _check_format(fmt)
    text = _decode(data)
    if fmt == CSV_FORMAT:
        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        if header != ["author_id", "value", "rank"]:
            raise ValidationError("ranking CSV must have header author_id,value,rank")
        return [
            RankedAuthor(id=row[0], value=_level(row[1]), rank=int(row[2]))
            for row in reader
            if row
        ]
    doc = json.loads(text)
    return [
        RankedAuthor(id=e["id"], value=_level(e["value"]), rank=int(e["rank"]))
        for e in doc["ranking"]
    ]


@reading("classification")
def parse_classification(data: Union[bytes, str], fmt: str) -> MeritClassification:
    _check_format(fmt)
    text = _decode(data)
    if fmt == CSV_FORMAT:
        raise ValidationError("classification CSV does not carry cutoffs; re-import from JSON")
    doc = json.loads(text)
    return MeritClassification(
        cutoffs=tuple(float(c) for c in doc["cutoffs"]),
        assignment={str(k): str(v) for k, v in doc["assignment"].items()},
    )
