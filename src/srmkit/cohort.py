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
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .curves import CitationCurve, SrmValue, construct_curve
from .engine import IndexSpec, parse_index, srm_closed_form
from .errors import ValidationError

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


@dataclass
class IndexTable:
    """Rectangular author-by-index table of computed levels."""

    authors: Tuple[str, ...]
    indices: Tuple[str, ...]
    cells: Dict[str, Dict[str, SrmValue]]

    def get(self, author_id: str, index: str) -> SrmValue:
        return self.cells[author_id][index]

    def column(self, index: str) -> List[Tuple[str, SrmValue]]:
        if index not in self.indices:
            raise ValidationError(f"table has no column {index!r}; columns: {', '.join(self.indices)}")
        return [(a, self.cells[a][index]) for a in self.authors]


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


def _ingest_csv(text: str) -> List[AuthorRecord]:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValidationError("CSV input is empty") from None
    if [c.strip() for c in header] != ["author_id", "citations"]:
        raise ValidationError("CSV header must be exactly 'author_id,citations'")
    records = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 2:
            raise ValidationError(f"line {lineno}: expected 2 fields, got {len(row)}")
        author_id, cell = row[0].strip(), row[1].strip()
        if not author_id:
            raise ValidationError(f"line {lineno}: empty author id")
        raw = []
        for part in cell.split(";") if cell else []:
            try:
                raw.append(float(part))
            except ValueError:
                raise ValidationError(
                    f"line {lineno}: bad citation value {part!r} for author {author_id!r}"
                ) from None
        try:
            curve = construct_curve(raw)
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: author {author_id!r}: {exc}") from None
        records.append(AuthorRecord(id=author_id, curve=curve))
    return records


def _ingest_json(text: str) -> List[AuthorRecord]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"input is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("authors"), list):
        raise ValidationError("JSON input must be an object with an 'authors' list")
    records = []
    for pos, entry in enumerate(doc["authors"]):
        where = f"authors[{pos}]"
        if not isinstance(entry, dict) or "id" not in entry:
            raise ValidationError(f"{where}: each author needs an 'id'")
        author_id = str(entry["id"])
        citations = entry.get("citations", [])
        if not isinstance(citations, list):
            raise ValidationError(f"{where}: 'citations' must be a list")
        try:
            curve = construct_curve(citations)
        except ValidationError as exc:
            raise ValidationError(f"{where} (author {author_id!r}): {exc}") from None
        annotations = entry.get("annotations", {})
        if not isinstance(annotations, dict):
            raise ValidationError(f"{where}: 'annotations' must be an object")
        records.append(AuthorRecord(id=author_id, curve=curve, annotations=dict(annotations)))
    return records


def ingest(data: Union[bytes, str], fmt: str) -> List[AuthorRecord]:
    """Parse a cohort file into author records (duplicate ids rejected)."""
    _check_format(fmt)
    text = _decode(data)
    records = _ingest_csv(text) if fmt == CSV_FORMAT else _ingest_json(text)
    seen = set()
    for rec in records:
        if rec.id in seen:
            raise ValidationError(f"duplicate author id {rec.id!r}")
        seen.add(rec.id)
    return records


def compute_table(
    records: Sequence[AuthorRecord],
    indices: Sequence[Union[str, IndexSpec]],
) -> IndexTable:
    """Evaluate every requested index for every author."""
    if not indices:
        raise ValidationError("need at least one index to compute")
    specs = [parse_index(ix) for ix in indices]
    labels = tuple(s.label for s in specs)
    if len(set(labels)) != len(labels):
        raise ValidationError("duplicate index in request")
    cells: Dict[str, Dict[str, SrmValue]] = {}
    for rec in records:
        cells[rec.id] = {s.label: srm_closed_form(rec.curve, s) for s in specs}
    return IndexTable(authors=tuple(r.id for r in records), indices=labels, cells=cells)


def rank_authors(table: IndexTable, index: Union[str, IndexSpec]) -> List[RankedAuthor]:
    """Descending competition ranking of one table column.

    Tied authors share the minimum rank of their block; order within a
    tie is by author id, so the output is deterministic.
    """
    label = index.label if isinstance(index, IndexSpec) else parse_index(index).label
    column = table.column(label)
    ordered = sorted(column, key=lambda item: (-item[1].level, item[0]))
    out: List[RankedAuthor] = []
    for pos, (author_id, value) in enumerate(ordered, start=1):
        if out and value.level == out[-1].value:
            rank = out[-1].rank
        else:
            rank = pos
        out.append(RankedAuthor(id=author_id, value=value.level, rank=rank))
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


def _export_cohort(records: Sequence[AuthorRecord], fmt: str) -> bytes:
    if fmt == CSV_FORMAT:
        rows = [["author_id", "citations"]]
        for rec in records:
            cell = ";".join(format_number(v) for v in rec.curve.values)
            rows.append([rec.id, cell])
        return _csv_bytes(rows)
    authors = []
    for rec in records:
        entry: Dict[str, object] = {
            "id": rec.id,
            "citations": [_json_number(v) for v in rec.curve.values],
        }
        if rec.annotations:
            entry["annotations"] = rec.annotations
        authors.append(entry)
    return (json.dumps({"authors": authors}, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _export_table(table: IndexTable, fmt: str) -> bytes:
    if fmt == CSV_FORMAT:
        rows = [["author_id", *table.indices]]
        for author in table.authors:
            rows.append(
                [author, *(format_number(table.get(author, ix).level) for ix in table.indices)]
            )
        return _csv_bytes(rows)
    authors = []
    for author in table.authors:
        values = {
            ix: {"level": _json_number(cell.level), "attained": cell.attained}
            for ix, cell in ((ix, table.get(author, ix)) for ix in table.indices)
        }
        authors.append({"id": author, "values": values})
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
    if isinstance(obj, (list, tuple)) and all(isinstance(r, AuthorRecord) for r in obj):
        return _export_cohort(obj, fmt)
    raise ValidationError(f"do not know how to export {type(obj).__name__}")


@contextmanager
def _reading(what: str):
    """Report a malformed re-import as ValidationError, not a raw lookup error."""
    try:
        yield
    except ValidationError:
        raise
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        raise ValidationError(f"malformed {what}: {type(exc).__name__}: {exc}") from None


def _level(text_or_number) -> float:
    if isinstance(text_or_number, str):
        if text_or_number == "inf":
            return math.inf
        return float(text_or_number)
    return float(text_or_number)


@_reading("table")
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
        authors = []
        cells: Dict[str, Dict[str, SrmValue]] = {}
        for row in reader:
            if not row:
                continue
            authors.append(row[0])
            cells[row[0]] = {
                ix: SrmValue(_level(cell)) for ix, cell in zip(indices, row[1:])
            }
        return IndexTable(authors=tuple(authors), indices=indices, cells=cells)
    doc = json.loads(text)
    indices = tuple(doc["indices"])
    authors = tuple(entry["id"] for entry in doc["authors"])
    cells = {
        entry["id"]: {
            ix: SrmValue(_level(v["level"]), attained=bool(v["attained"]))
            for ix, v in entry["values"].items()
        }
        for entry in doc["authors"]
    }
    return IndexTable(authors=authors, indices=indices, cells=cells)


@_reading("ranking")
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


@_reading("classification")
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
