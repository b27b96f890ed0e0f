"""Cohort ingestion, batch index tables, ranking and merit classes.

File formats (mirrored on export):

  CSV    header ``author_id,citations``; the citations cell is a
         semicolon-separated list of nonnegative numbers, any order.
  JSON   ``{"authors": [{"id": str, "citations": [num, ...],
         "annotations": {...}}]}``.

Numbers are rendered with up to 9 significant digits and +inf as the
literal string "inf".

Citations that are plain integer text are read by numpy, without a
Python number per citation: ASCII decimal integers below 10**15, no
sign, point or exponent, joined by the format's separator, with JSON
whitespace around any of them.  In JSON this must hold for the
``citations`` array of every ``authors`` entry, with no leading zero,
and the input must not hold the escape ``\\u0000``.  Each text holds
one integer more than its separators, or none if it is empty, so one
array of exactly their number is allocated before any is parsed.  The
text is cut into chunks of about a megabyte, and each chunk is checked
and parsed into its own slice of that array, on up to one thread per
CPU, in one pass.  Any other input is read by the scalar checks of
:func:`checked_citations`, one Python number per citation; both ways
give the same values and the same error messages.  The scalar way costs
more: with every citation of the benchmark's seed-11 inputs shifted by
0.5, ingest of 4.5e5 CSV citations took 170-190 ms and of 3.0e6 JSON
citations 0.76-0.81 s on a 2-core machine, against 60 ms and 0.1 s for
their integer text.

Each author's citations are then sorted nonincreasing and their zeros
dropped, in two steps over the one array that holds them all.  The
records of at most :data:`_BLOCK_LENGTH` citations are sorted by
length, each length's records as the rows of one 2-D block written back
where they lie, so a cohort of many short records costs one sort call
per length, not one per author; a longer record is sorted in its own
slice, where one sort call costs little against its values.  The
zeros, now last in every record, are then dropped in one pass.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import threading
import warnings
from array import array
from dataclasses import dataclass
from itertools import repeat
from json.encoder import encode_basestring_ascii
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import engine
from .curves import CitationCurve, checked_citations
from .engine import IndexSpec, parse_index, srm_closed_form_batch
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

    Author k has id ``ids[k]``, annotations ``annotations[k]`` and the
    citation values ``values[offsets[k]:offsets[k+1]]``: the canonical
    values of its :class:`CitationCurve`, finite, positive and sorted
    nonincreasing, or a :class:`ValidationError` is raised.  Every record
    has tail 0, as no cohort file can hold a tail; :meth:`from_curves` is
    where a tailed curve is turned away.
    ``values`` (float64) and ``offsets`` (int64, from 0 to
    ``values.size``) are taken over, not copied, and made read-only.
    Ids are nonempty, unique and encodable as UTF-8, and there is one
    annotation dict per author.  Build one with :func:`ingest` or
    :meth:`from_curves`.
    """

    __slots__ = ("ids", "values", "offsets", "annotations")

    def __init__(
        self,
        ids: Sequence[str],
        values: np.ndarray,
        offsets: np.ndarray,
        annotations: Optional[Sequence[Dict[str, object]]] = None,
    ):
        ids = tuple(ids)
        n = len(ids)
        values = np.asarray(values, dtype=float)
        offsets = np.asarray(offsets, dtype=np.int64)
        if (
            values.ndim != 1
            or offsets.shape != (n + 1,)
            or offsets[0] != 0
            or offsets[-1] != values.size
            or np.any(offsets[1:] < offsets[:-1])
        ):
            raise ValidationError("cohort arrays do not describe one segment per author")
        # nonincreasing within each author (a NaN fails <=), so a record is finite if its
        # first value is and positive if its last is
        falls = values[1:] <= values[:-1]
        heads = offsets[1:-1]
        falls[heads[(heads > 0) & (heads < values.size)] - 1] = True  # across two records
        full = offsets[:-1] < offsets[1:]
        if not (falls.all() and np.isfinite(values[offsets[:-1][full]]).all()
                and (values[offsets[1:][full] - 1] > 0).all()):
            raise ValidationError(
                "cohort values must be finite, positive and nonincreasing within each author")
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
        for arr in (values, offsets):
            arr.setflags(write=False)
        self.ids = ids
        self.values = values
        self.offsets = offsets
        self.annotations = annotations

    @classmethod
    def from_curves(cls, ids: Sequence[str], curves: Sequence[CitationCurve]) -> "Cohort":
        """Pack citation curves of tail 0 and their ids."""
        if len(ids) != len(curves):
            raise ValidationError("curves and ids must have the same length")
        for author_id, c in zip(ids, curves):
            if c.tail > 0:
                raise ValidationError(
                    f"author {author_id!r}: a cohort record must have tail 0,"
                    f" got tail {format_number(c.tail)}"
                )
        offsets = np.zeros(len(curves) + 1, dtype=np.int64)
        np.cumsum([c.p for c in curves], out=offsets[1:])
        values = np.concatenate([c.values for c in curves]) if curves else np.empty(0)
        return cls(ids, values, offsets)

    @property
    def lengths(self) -> np.ndarray:
        """Publication count p of every author."""
        return np.diff(self.offsets)

    def __len__(self) -> int:
        return len(self.ids)

    def curve(self, k: int) -> CitationCurve:
        """The citation curve of author k, built on demand."""
        k = range(len(self.ids))[k]  # an IndexError, not another author's slice
        return CitationCurve(self.values[self.offsets[k]:self.offsets[k + 1]])


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


# a "citations" array's head; group 1 is its bracket, and the match ends
# at the array's first character that is not whitespace
_CITATIONS = re.compile(r'"citations"[ \t\n\r]*:[ \t\n\r]*(\[)[ \t\n\r]*')
_PLAIN_BOUND = 10 ** 15
_PLAIN_CHUNK = 1 << 20  # characters of text parsed at a time


def _decode(data: Union[bytes, str]) -> str:
    if isinstance(data, bytes):
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"input is not valid UTF-8: {exc}") from None
    return data


def _plain_parse(texts: List[str], sep: str, leading_zeros: bool,
                 out: np.ndarray) -> Optional[np.ndarray]:
    """Parse the nonempty ``texts``, joined by ``sep``, into ``out``,
    sized to the integers they hold; return ``out``, or None if they are
    not plain integer text.

    Plain integer text is ASCII decimal integers joined by ``sep``: no
    sign, point or exponent, every integer below 10**15 (so float64
    holds it exactly, as ``float`` would give it), and a leading zero
    only if ``leading_zeros``.  JSON whitespace (space, tab, line feed,
    carriage return) may stand around any integer.  numpy reads
    whitespace between two separators, or before the first, as a 0, and
    passes over a separator at the end; text that it reads either way
    has as many separators as digit runs, or more.  So the text is taken
    only when its digit runs number ``out.size``, one more than its
    separators, as the caller counts them, and numpy reads all of it.
    Call it with DeprecationWarning turned into an error: older numpy
    warns where newer numpy raises when text is left unread.
    """
    try:
        raw = sep.join(filter(None, texts)).encode("ascii")
    except UnicodeEncodeError:
        return None
    if raw.translate(None, b"0123456789 \t\n\r" + sep.encode("ascii")):
        return None
    codes = np.frombuffer(raw, dtype=np.uint8)
    digit = np.subtract(codes, 48, dtype=np.uint8) < 10
    if np.count_nonzero(digit[1:] > digit[:-1]) + digit[:1].sum() != out.size:
        return None
    if not leading_zeros:
        zero_led = codes[:-1] == 48  # a 0 followed by a digit ...
        zero_led &= digit[1:]
        zero_led[1:] &= ~digit[:-2]  # ... that starts its run
        if zero_led.any():
            return None
        del zero_led
    del codes, digit  # the parse does not need the checks' memory
    if not out.size:  # every text is empty
        return out
    try:
        ints = np.fromstring(raw, dtype=np.int64, sep=sep)
    except (DeprecationWarning, ValueError):
        return None
    # an overflow reads as the int64 maximum
    if ints.size != out.size or ints.max() >= _PLAIN_BOUND:
        return None
    out[:] = ints
    return out


def _in_parallel(call: Callable[[int], object], n: int) -> bool:
    """Whether ``call(k)`` returns something other than None for every k
    in range(n).

    The caller and one thread per further CPU this process may run on,
    up to one per call, take the calls in turn (numpy releases the GIL
    in reading text).  Once a call returns None or raises, no further
    call starts; the first error is raised here, after every thread
    ends.  A lone call starts no thread.
    """
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)  # the CPUs it may run on, where the platform says (Linux)
    todo = iter(range(n))
    lock = threading.Lock()
    stops: List[Optional[Exception]] = []  # each error, and a None per call that gave None

    def work() -> None:
        while not stops:
            with lock:
                k = next(todo, None)
            if k is None:
                return
            try:
                if call(k) is None:
                    stops.append(None)
            except Exception as exc:  # raised in the caller, below
                stops.append(exc)

    workers = [threading.Thread(target=work) for _ in range(min(cpus, n) - 1)]
    for worker in workers:
        worker.start()
    try:
        work()
    finally:
        for worker in workers:
            worker.join()
    for error in filter(None, stops):
        raise error
    return not stops


def _plain_values(texts: Callable[[int, int], List[str]], counts: np.ndarray, size: int,
                  sep: str, leading_zeros: bool) -> Optional[np.ndarray]:
    """The integers of texts of ``size`` characters in all, as one
    float64 array, or None if they are not plain integer text.
    ``counts`` holds how many integers each text holds: 0 if it is
    empty, else one more than its separators.  ``texts(i, j)`` gives
    texts i to j - 1, which are read in chunks of about
    :data:`_PLAIN_CHUNK` characters by :func:`_in_parallel`, each by
    :func:`_plain_parse` into its own slice of the array.
    """
    m = counts.size
    n = max(min(-(-size // _PLAIN_CHUNK), m), 1)  # chunks, none empty but a lone one
    cuts = [k * m // n for k in range(n + 1)]  # chunk k holds texts cuts[k] to cuts[k + 1] - 1
    starts = np.zeros(m + 1, dtype=np.int64)  # text i's integers start at flat[starts[i]]
    np.cumsum(counts, out=starts[1:])
    flat = np.empty(starts[-1])
    with warnings.catch_warnings():  # the filters are shared by all threads: set them here
        warnings.simplefilter("error", DeprecationWarning)
        parsed = _in_parallel(lambda k: _plain_parse(
            texts(cuts[k], cuts[k + 1]), sep, leading_zeros,
            flat[starts[cuts[k]]:starts[cuts[k + 1]]]), n)
    return flat if parsed else None


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


def _plain_csv(cells: List[str]):
    """The citations of CSV cells that are all plain integer text, as one
    flat array, and how many each cell holds; or None."""
    lengths = np.fromiter(map(len, cells), np.int64, len(cells))
    counts = np.fromiter(map(str.count, cells, repeat(";")), np.int64, len(cells))
    counts += lengths > 0
    flat = _plain_values(lambda i, j: cells[i:j], counts, int(lengths.sum()), ";",
                         leading_zeros=True)
    return None if flat is None else (flat, counts)


def _csv_values(ids: List[str], cells: List[str], linenos: List[int]):
    """Every citation of every cell, validated line by line by
    :func:`checked_citations`, as one flat array, and how many each cell
    holds; the first bad line is the one reported."""
    values: List[float] = []
    counts: List[int] = []
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
        counts.append(len(raw))
    return np.array(values, dtype=float), counts


def _ingest_csv(text: str):
    limit = csv.field_size_limit()
    csv.field_size_limit(max(limit, len(text)))  # a record may be as long as the input
    try:
        ids, cells, linenos, pending = _csv_rows(text)
    finally:
        csv.field_size_limit(limit)
    read = _plain_csv(cells) or _csv_values(ids, cells, linenos)
    if pending is not None:
        raise pending
    return ids, *read, None


def _json_values(ids: List[str], lists: List[list]) -> np.ndarray:
    """Every citation of every list, validated entry by entry by
    :func:`checked_citations`, as one flat array; the first bad entry is
    the one reported."""
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
        author_id = entry["id"]
        if not isinstance(author_id, str):
            pending = ValidationError(f"{where}: 'id' must be a string")
            break
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

    :data:`_CITATIONS` finds the head of each array, and its first "]"
    ends it; :func:`_plain_values` reads the arrays' text.  Only when
    every array is plain integer text is each replaced by a mark, the
    string "\\0<k>", and what is left read by json.loads; the cohort is
    read this way only when the marks are exactly the ``citations`` of
    the ``authors`` entries, in order, and every entry is well formed.
    Text that holds the marks' escape is never read this way.
    """
    if "\\u0000" in text:
        return None
    # start and end of each array's text, and how many integers it holds if it is plain;
    # as Python ints, 10**5 arrays would take megabytes
    skeleton, spans, counts, end = [], array("q"), array("q"), 0
    while (head := _CITATIONS.search(text, end)) is not None:
        a = head.end()
        b = text.find("]", a)
        if b < 0:
            return None
        spans.extend((a, b))
        counts.append(text.count(",", a, b) + (a < b))
        skeleton += (text[end:head.start(1)], f'"\\u0000{len(skeleton) // 2}"')
        end = b + 1
    if not skeleton:  # nothing to cut: json.loads would read the whole input twice
        return None
    spans = np.frombuffer(spans, dtype=np.int64).reshape(-1, 2)
    counts = np.frombuffer(counts, dtype=np.int64)
    flat = _plain_values(lambda i, j: [text[a:b] for a, b in spans[i:j].tolist()], counts,
                         int((spans[:, 1] - spans[:, 0]).sum()), ",", leading_zeros=False)
    if flat is None:  # the skeleton is parsed only when the arrays are plain
        return None
    skeleton.append(text[end:])
    try:
        doc = json.loads("".join(skeleton))
    except (ValueError, RecursionError):
        return None
    authors = doc.get("authors") if isinstance(doc, dict) else None
    if not isinstance(authors, list) or [
        entry.get("citations") if isinstance(entry, dict) else None for entry in authors
    ] != [f"\0{k}" for k in range(counts.size)]:
        return None
    for entry in authors:
        entry["citations"] = []  # its numbers come from the array text
    ids, _, annotations, pending = _json_entries(authors)
    if pending is not None:
        return None
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


#: Records of at most this many citations are sorted together with the
#: records of their length, as the rows of one 2-D block (see the module notes).
_BLOCK_LENGTH = 128


def _pack(flat: np.ndarray, counts: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """Sort each author's slice of ``flat`` nonincreasing and drop its
    zeros, in place; returns the packed values and their offsets.

    The records of at most ``_BLOCK_LENGTH`` citations are grouped by
    length: each group is gathered into a 2-D block, sorted with one
    ``sort(axis=1)`` and written back.  A longer record is sorted in its
    own slice.  The zeros then sort last in every record, and one pass
    over ``flat``, in chunks of ``engine.BLOCK_VALUES`` values, moves the
    other values left over them.
    """
    counts = np.asarray(counts, dtype=np.int64)
    starts = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    kept = np.empty_like(counts)  # nonzero values of each record
    np.negative(flat, out=flat)  # ascending order of -x is nonincreasing order of x
    short = counts <= _BLOCK_LENGTH
    members = np.flatnonzero(short)
    members = members[np.argsort(counts[members], kind="stable")]  # by length, then author
    tally = np.bincount(counts[short])  # records of each length
    lengths = np.flatnonzero(tally)
    first = 0
    for length, size in zip(lengths.tolist(), tally[lengths].tolist()):
        rows = members[first:first + size]
        first += size
        places = starts[rows, None] + np.arange(length)
        block = flat[places]
        block.sort(axis=1)
        flat[places] = block
        kept[rows] = np.count_nonzero(block, axis=1)  # zeros, now -0.0, sort last
    for k in np.flatnonzero(~short).tolist():
        segment = flat[starts[k]:starts[k + 1]]
        segment.sort()
        kept[k] = segment.searchsorted(0.0)
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(kept, out=offsets[1:])
    end = 0
    for lo in range(0, flat.size, engine.BLOCK_VALUES):
        chunk = flat[lo:lo + engine.BLOCK_VALUES]
        chunk = chunk[chunk != 0]
        flat[end:end + chunk.size] = chunk
        end += chunk.size
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
    """Evaluate every requested index for every author, by the batch
    closed forms (:func:`srm_closed_form_batch`)."""
    if not indices:
        raise ValidationError("need at least one index to compute")
    specs = [parse_index(ix) for ix in indices]
    labels = tuple(s.label for s in specs)
    if len(set(labels)) != len(labels):
        raise ValidationError("duplicate index in request")
    levels, attained = srm_closed_form_batch(cohort.values, cohort.offsets, specs)
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
    if all(isinstance(v, str) for v in values):  # what json.dumps calls for a str
        return list(map(encode_basestring_ascii, values))
    if any(isinstance(v, str) for v in values):
        return list(map(json.dumps, values))
    # one call of the C encoder; no number, bool or null text holds ", "
    return json.dumps(values)[1:-1].split(", ")


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
    through :func:`ingest` reproduces the records.  JSON table exports
    keep the attained flag; CSV tables carry the levels only.
    """
    _check_format(fmt)
    if isinstance(obj, IndexTable):
        return _export_table(obj, fmt)
    if isinstance(obj, Cohort):
        return _export_cohort(obj, fmt)
    raise ValidationError(f"do not know how to export {type(obj).__name__}")
