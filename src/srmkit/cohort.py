"""Cohort ingestion, batch index tables, ranking and merit classes.

File formats (mirrored on export):

  CSV    header ``author_id,citations``; the citations cell is a
         semicolon-separated list of nonnegative numbers, any order.
  JSON   ``{"authors": [{"id": str, "citations": [num, ...],
         "annotations": {...}}]}``.

Numbers are rendered with up to 9 significant digits and +inf as the
literal string "inf".

Citations that are plain integer text are read in one numpy pass,
without a Python number per citation: ASCII decimal integers below
10**15, no sign, point or exponent, joined by the format's separator,
with JSON whitespace around any of them.  In JSON this must hold for
the ``citations`` array of every ``authors`` entry, with no leading
zero, and the input must not hold the escape ``\\u0000``.  Any other
input is read one number at a time; both ways give the same values and
the same error messages.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .curves import CitationCurve, checked_citations
from .engine import IndexSpec, family_for, parse_index, srm_closed_form_batch, srm_generic
from .errors import ValidationError

CSV_FORMAT = "csv"
JSON_FORMAT = "json"
FORMATS = (CSV_FORMAT, JSON_FORMAT)


def format_number(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{float(x):.9g}"


def _json_number(x: float):
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(format_number(x))


def _check_format(fmt: str) -> str:
    if fmt not in FORMATS:
        raise ValidationError(f"unknown format {fmt!r}; use 'csv' or 'json'")
    return fmt


class Cohort:
    """A cohort stored column-wise, as compressed sparse rows.

    Author k has id ``ids[k]``, tail ``tails[k]``, annotations
    ``annotations[k]`` and the citation values
    ``values[offsets[k]:offsets[k+1]]``: the canonical values of its
    :class:`CitationCurve`, every one above the tail and sorted
    nonincreasing.  ``values`` (float64) and ``offsets`` (int64, from 0
    to ``values.size``) are taken over, not copied, and made read-only.
    Ids are nonempty, unique and encodable as UTF-8, and there is one
    annotation dict per author.  Build one with :func:`ingest` or
    :meth:`from_curves`.
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
        ids = tuple(ids)
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
        annotations = tuple(annotations) if annotations is not None else ({},) * n
        if len(annotations) != n:
            raise ValidationError(f"{len(annotations)} annotation entries for {n} authors")
        seen = set()
        for author_id in ids:
            if not author_id:
                raise ValidationError("author id must be nonempty")
            if author_id in seen:
                raise ValidationError(f"duplicate author id {author_id!r}")
            seen.add(author_id)
        try:  # every output is UTF-8; look for the bad id only on failure
            "".join(ids).encode("utf-8")
        except UnicodeEncodeError:
            for author_id in ids:
                try:
                    author_id.encode("utf-8")
                except UnicodeEncodeError:
                    raise ValidationError(
                        f"author id {author_id!r} cannot be written as UTF-8"
                    ) from None
        for arr in (values, offsets, tails):
            arr.setflags(write=False)
        self.ids = ids
        self.values = values
        self.offsets = offsets
        self.tails = tails
        self.annotations = annotations

    @classmethod
    def from_curves(cls, ids: Sequence[str], curves: Sequence[CitationCurve]) -> "Cohort":
        """Pack citation curves, with any tails, and their ids."""
        if len(ids) != len(curves):
            raise ValidationError("curves and ids must have the same length")
        offsets = np.zeros(len(curves) + 1, dtype=np.int64)
        np.cumsum([c.p for c in curves], out=offsets[1:])
        values = np.concatenate([c.values for c in curves]) if curves else np.empty(0)
        tails = np.array([c.tail for c in curves], dtype=float)
        return cls(ids, values, offsets, tails=tails)

    @property
    def lengths(self) -> np.ndarray:
        """Publication count p of every author."""
        return np.diff(self.offsets)

    def __len__(self) -> int:
        return len(self.ids)

    def curve(self, k: int) -> CitationCurve:
        """The citation curve of author k, built on demand."""
        k = range(len(self.ids))[k]  # an IndexError, not another author's slice
        return CitationCurve(self.values[self.offsets[k]:self.offsets[k + 1]], self.tails[k])


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

    def _col(self, index: str) -> int:
        if index not in self.indices:
            raise ValidationError(f"table has no column {index!r}; columns: {', '.join(self.indices)}")
        return self.indices.index(index)


# a "citations" array of plain integer text; the group is the text between its brackets
_PLAIN_ARRAY = re.compile(r'"citations"[ \t\n\r]*:[ \t\n\r]*\[([0-9, \t\n\r]*)\]')
_PLAIN_BOUND = 10 ** 15
_PLAIN_CHUNK = 1 << 20  # characters of array text parsed at a time


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


def _plain_integers(text: str, sep: str, leading_zeros: bool) -> Optional[np.ndarray]:
    """The numbers of plain integer text as float64, or None for any other text.

    Plain integer text is ASCII decimal integers joined by ``sep``: no
    sign, point or exponent, every integer below 10**15 (so float64
    holds it exactly, as ``float`` would give it), and a leading zero
    only if ``leading_zeros``.  JSON whitespace (space, tab, line feed,
    carriage return) may stand around any integer; text of whitespace
    alone holds no integer.  One pass of ``np.fromstring`` parses it.
    numpy reads whitespace between two separators, or before the first,
    as a 0, and passes over a separator at the end; text that it reads
    either way has as many separators as digit runs, or more, so the
    text is taken only when it has one separator fewer than digit runs.
    """
    try:
        raw = text.encode("ascii")
    except UnicodeEncodeError:
        return None
    if raw.translate(None, b"0123456789 \t\n\r" + sep.encode("ascii")):
        return None
    codes = np.frombuffer(raw, dtype=np.uint8)
    digit = np.subtract(codes, 48, dtype=np.uint8) < 10
    runs = int(np.count_nonzero(digit[1:] > digit[:-1])) + int(digit[:1].sum())
    if np.count_nonzero(codes == ord(sep)) != max(runs - 1, 0):
        return None
    if not runs:
        return np.empty(0)
    if not leading_zeros:
        zero_led = (codes[:-1] == 48) & digit[1:]  # a 0 followed by a digit ...
        zero_led[1:] &= ~digit[:-2]  # ... that starts its run
        if zero_led.any():
            return None
    with warnings.catch_warnings():
        # older numpy warns, newer numpy raises, when text is left unread
        warnings.simplefilter("error", DeprecationWarning)
        try:
            ints = np.fromstring(raw, dtype=np.int64, sep=sep)
        except (DeprecationWarning, ValueError):
            return None
    if ints.max() >= _PLAIN_BOUND:  # an overflow reads as the int64 maximum
        return None
    return ints.astype(float)


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
    flat = _plain_integers(joined, ";", leading_zeros=True)
    if flat is not None:
        return flat
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


def _json_entries(authors: list):
    """Author ids, citation lists and annotations of the well-formed
    entries, up to the first malformed one, whose error is returned
    rather than raised: a bad citation of an earlier entry is reported
    first.
    """
    ids, lists, annotations = [], [], []
    pending = None
    for pos, entry in enumerate(authors):
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
    return ids, lists, annotations, pending


def _plain_json(text: str):
    """Read a JSON cohort whose ``citations`` arrays are all plain
    integer text, or return None.

    Each array :data:`_PLAIN_ARRAY` finds is replaced by a mark, the
    string "\\0<k>", and json.loads reads what is left.  Only when the
    marks are exactly the ``citations`` of the ``authors`` entries, in
    order, and every entry is well formed, is the text of the arrays
    parsed, by :func:`_plain_integers`, about a megabyte at a time.
    Text that holds the marks' escape is never read this way.
    """
    if "\\u0000" in text:
        return None
    spans, skeleton, end = [], [], 0
    for k, match in enumerate(_PLAIN_ARRAY.finditer(text)):
        a, b = match.span(1)
        spans.append((a, b))
        skeleton += (text[end:a - 1], f'"\\u0000{k}"')  # the mark takes the place of [...]
        end = b + 1
    if not spans:  # nothing to cut: json.loads would read the whole input twice
        return None
    skeleton.append(text[end:])
    try:
        doc = json.loads("".join(skeleton))
    except (ValueError, RecursionError):
        return None
    authors = doc.get("authors") if isinstance(doc, dict) else None
    if not isinstance(authors, list) or [
        entry.get("citations") if isinstance(entry, dict) else None for entry in authors
    ] != [f"\0{k}" for k in range(len(spans))]:
        return None
    for entry in authors:
        entry["citations"] = []  # its numbers come from the array text
    ids, _, annotations, pending = _json_entries(authors)
    if pending is not None:
        return None
    counts = [text.count(",", a, b) + 1 if text[a:b].strip() else 0 for a, b in spans]
    flat = np.empty(sum(counts))
    pos, batch, size = 0, [], 0
    for k, ((a, b), count) in enumerate(zip(spans, counts), start=1):
        if count:
            batch.append(text[a:b])
            size += b - a
        if size >= _PLAIN_CHUNK or k == len(spans):
            values = _plain_integers(",".join(batch), ",", leading_zeros=False)
            if values is None:
                return None
            flat[pos:pos + values.size] = values
            pos += values.size
            batch, size = [], 0
    return ids, flat, counts, annotations


def _ingest_json(text: str):
    read = _plain_json(text)
    if read is not None:
        return read
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"input is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("authors"), list):
        raise ValidationError("JSON input must be an object with an 'authors' list")
    ids, lists, annotations, pending = _json_entries(doc["authors"])
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
    """Parse a cohort file into a :class:`Cohort`.

    Every citation is validated before any is sorted; on a bad value the
    error names the first bad line (CSV) or entry (JSON) and the
    position in it.
    """
    _check_format(fmt)
    text = _decode(data)
    del data  # the caller's bytes may go once the text is decoded
    read = _ingest_csv if fmt == CSV_FORMAT else _ingest_json
    ids, flat, counts, annotations = read(text)
    values, offsets = _pack(flat, counts)
    return Cohort(ids, values, offsets, annotations=annotations)


def compute_table(cohort: Cohort, indices: Sequence[Union[str, IndexSpec]]) -> IndexTable:
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
    levels, attained = srm_closed_form_batch(cohort.values, cohort.offsets, specs)
    for k in np.flatnonzero(cohort.tails > 0).tolist():
        curve = cohort.curve(k)
        for col, spec in enumerate(specs):
            value = srm_generic(curve, family_for(spec))
            levels[k, col], attained[k, col] = value.level, value.attained
    return IndexTable(authors=cohort.ids, indices=labels, levels=levels, attained=attained)


def rank_authors(
    table: IndexTable, index: Union[str, IndexSpec]
) -> Tuple[np.ndarray, np.ndarray]:
    """Descending competition ranking of one table column.

    Returns ``(order, ranks)``, two int64 arrays: the author at ranking
    position j is table row ``order[j]``, of competition rank
    ``ranks[j]``.  Tied authors share the minimum rank of their block;
    order within a tie is by author id, so the output is deterministic.
    """
    label = index.label if isinstance(index, IndexSpec) else parse_index(index).label
    column = table.levels[:, table._col(label)]
    n = column.size
    # the position of each id in code point order (numpy strings would drop trailing NULs)
    id_position = np.empty(n, dtype=np.int64)
    id_position[sorted(range(n), key=table.authors.__getitem__)] = np.arange(n)
    order = np.lexsort((id_position, -column))
    ranked = column[order]
    starts = np.ones(n, dtype=bool)
    starts[1:] = ranked[1:] != ranked[:-1]
    ranks = np.maximum.accumulate(np.where(starts, np.arange(1, n + 1), 0))
    return order, ranks


def classify_merit(ranks: Sequence[int], cutoffs: Sequence[float]) -> List[str]:
    """Quantile merit classes of the competition ranks of a ranking.

    ``cutoffs`` are strictly increasing fractions in (0, 1); with k
    cutoffs the labels are class-1 .. class-(k+1), returned in the order
    of ``ranks``.  An author of competition rank r among n falls in the
    first class whose quantile boundary reaches the block of authors
    starting at position r, i.e. the first cutoff with cutoff * n > r - 1
    (at integer boundaries this is the familiar cutoff * n >= r); authors
    beyond every cutoff form the last class.  Tied authors share a rank,
    hence a class: a tie block straddling a boundary is wholly promoted
    to the better class, and the top block always lands in class-1 even
    when cutoff * n < 1.
    """
    cuts = tuple(float(c) for c in cutoffs)
    if not cuts or any(not (0.0 < c < 1.0) for c in cuts):
        raise ValidationError("cutoffs must be fractions strictly inside (0, 1)")
    if any(b <= a for a, b in zip(cuts, cuts[1:])):
        raise ValidationError("cutoffs must be strictly increasing")
    labels = [f"class-{j}" for j in range(1, len(cuts) + 2)]
    ranks = np.asarray(ranks)
    below = np.searchsorted(np.array(cuts) * ranks.size, ranks - 1, side="right")
    return [labels[j] for j in below.tolist()]


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def json_bytes(doc) -> bytes:
    """The encoding of every JSON output: indent 2, sorted keys, final newline."""
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def json_texts(values: Sequence[object]) -> List[str]:
    """The JSON text of each value (str, number, bool or None), as
    :func:`json_bytes` writes it.
    """
    values = list(values)
    if any(isinstance(v, str) for v in values):
        return list(map(json.dumps, values))
    # one call of the C encoder; no number, bool or null text holds ", "
    return json.dumps(values)[1:-1].split(", ") if values else []


def _cells(column: Sequence[object], fmt: str) -> Sequence[object]:
    """The cells of one output column.

    A float array is written by :func:`format_number` (CSV) or
    :func:`_json_number` (JSON).  When all its values are finite whole
    numbers below 1e9, none of them -0.0, that text is the decimal form
    of their int64 values, so they skip the float formatting.  Any other
    column is written as it is.
    """
    if not (isinstance(column, np.ndarray) and column.dtype.kind == "f"):
        return column if fmt == CSV_FORMAT else json_texts(column)
    whole = (np.abs(column) < 1e9) & (column == np.trunc(column))
    if np.all(whole & ~((column == 0) & np.signbit(column))):
        texts = list(map(str, column.astype(np.int64).tolist()))
        return texts if fmt == CSV_FORMAT else [t + ".0" for t in texts]
    if fmt == CSV_FORMAT:
        return list(map(format_number, column.tolist()))
    return json_texts(list(map(_json_number, column.tolist())))


_MARK = re.compile(r'"\\u0000(\d+)"')  # json_bytes' text of the string "\0<j>"


def json_rows(fields: Dict[str, object], key: str, row: Dict[str, object]) -> bytes:
    """``json_bytes({**fields, key: rows})`` from the rows' columns.

    ``row`` is shaped like one row object, but each leaf holds the JSON
    texts of that leaf in every row, one list per leaf, all of the same
    length.  The layout is json_bytes' own: it encodes a two-row
    document whose leaves are marks, the strings "\\0<j>", and is split
    at the marks, which gives the text before the first row, between two
    leaves, between two rows and after the last row.  So no key of
    ``row``, and no string of a field that sorts before ``key``, may be
    such a mark.
    """
    columns: List[List[str]] = []

    def mark(node):
        if isinstance(node, dict):
            return {k: mark(v) for k, v in node.items()}
        columns.append(node)
        return f"\0{len(columns) - 1}"

    marked = mark(row)
    if not len(columns[0]):
        return json_bytes({**fields, key: []})
    leaves = len(columns)
    parts = _MARK.split(json_bytes({**fields, key: [marked, marked]}).decode("utf-8"),
                        maxsplit=2 * leaves)
    # head, j_1, s_1, ..., j_m, between rows, j_1, s_1, ..., j_m, tail
    head, between, tail = parts[0], parts[2 * leaves], parts[-1]
    order = [columns[int(j)] for j in parts[1:2 * leaves:2]]
    template = "%s".join(s.replace("%", "%%") for s in ["", *parts[2:2 * leaves - 1:2], ""])
    body = between.join([template % cells for cells in zip(*order)])
    return (head + body + tail).encode("utf-8")


def write_rows(
    fmt: str,
    ids: Sequence[str],
    columns: Dict[str, Sequence[object]],
    key: str,
    fields: Optional[Dict[str, object]] = None,
    id_key: str = "author_id",
) -> bytes:
    """Encode one row per author: the author's id, then ``columns``.

    A column is a float array, whose values are written by
    :func:`format_number` (CSV) or :func:`_json_number` (JSON), or a
    sequence of ``str``, ``int`` or ``None`` cells, written as they are
    (``None`` is an empty CSV cell and a JSON ``null``); each column is
    rendered once, by :func:`_cells`.  CSV is a header (``author_id``
    and the column names) plus the rows.  JSON is ``{**fields, key:
    [...]}`` with one object per row and the id under ``id_key``;
    ``fields`` are written as given.
    """
    _check_format(fmt)
    cells = [_cells(col, fmt) for col in columns.values()]
    if fmt == CSV_FORMAT:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["author_id", *columns])
        writer.writerows(zip(ids, *cells))
        return buf.getvalue().encode("utf-8")
    row = {id_key: json_texts(ids), **dict(zip(columns, cells))}
    return json_rows(fields or {}, key, row)


def _export_cohort(cohort: Cohort, fmt: str) -> bytes:
    tailed = np.flatnonzero(cohort.tails > 0)
    if tailed.size:  # neither format has a place for it
        raise ValidationError(
            f"cannot export author {cohort.ids[tailed[0]]!r}: its record has a positive tail"
        )
    values = cohort.values.tolist()
    bounds = cohort.offsets.tolist()
    citations = [values[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    if fmt == CSV_FORMAT:
        cells = [";".join(map(format_number, cites)) for cites in citations]
        return write_rows(fmt, cohort.ids, {"citations": cells}, "authors")
    authors = []
    for author_id, cites, notes in zip(cohort.ids, citations, cohort.annotations):
        entry: Dict[str, object] = {
            "id": author_id,
            "citations": [_json_number(v) for v in cites],
        }
        if notes:
            entry["annotations"] = notes
        authors.append(entry)
    return json_bytes({"authors": authors})


def _export_table(table: IndexTable, fmt: str) -> bytes:
    columns = {ix: table.levels[:, j] for j, ix in enumerate(table.indices)}
    if fmt == CSV_FORMAT:
        return write_rows(fmt, table.authors, columns, "authors")
    values = {
        ix: {"level": _cells(col, fmt), "attained": json_texts(table.attained[:, j].tolist())}
        for j, (ix, col) in enumerate(columns.items())
    }
    row = {"id": json_texts(table.authors), "values": values}
    return json_rows({"indices": list(table.indices)}, "authors", row)


def export(obj: Union[Cohort, IndexTable], fmt: str) -> bytes:
    """Serialize a cohort or an index table.

    Exports mirror the ingest formats, so feeding a cohort export back
    through :func:`ingest` reproduces the records; a cohort with a
    positive tail is rejected, as neither format can carry it.  JSON
    table exports keep the attained flag; CSV tables carry the levels
    only.
    """
    _check_format(fmt)
    if isinstance(obj, IndexTable):
        return _export_table(obj, fmt)
    if isinstance(obj, Cohort):
        return _export_cohort(obj, fmt)
    raise ValidationError(f"do not know how to export {type(obj).__name__}")
