"""Output checks for the benchmark, run outside the timed region.

Every check returns a list of problems; an empty list means the output
is correct.  Index cells are held equal to ``srm_generic``, the
monotone feasibility search, which is the program's independent route
to every index.  ``beta_bar`` is held equal to the mean of per-author
``np.polyfit`` slopes computed here.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Dict, List, Sequence

import numpy as np

from srmkit.curves import construct_curve
from srmkit.engine import IndexSpec, family_for, srm_generic

from workloads import DUAL_DELTAS, Cohort

SAMPLE_AUTHORS = 1_000
INTEGER_INDICES = ("c_max", "pubs", "h", "h2", "h_alpha", "w")
MARGIN_TOL = 1e-9  # the weak-duality tolerance of the acceptance suite
GENERIC_TOL = 1e-9  # closed form against generic, as in the acceptance suite


def sample_rows(cohort: Cohort, seed: int) -> np.ndarray:
    """Seeded sample of author positions whose cells are re-derived."""
    n = cohort.authors
    if n <= SAMPLE_AUTHORS:
        return np.arange(n)
    rng = np.random.default_rng([seed, 99])
    return np.sort(rng.choice(n, size=SAMPLE_AUTHORS, replace=False))


class Oracle:
    """srm_generic levels of the input records, computed on demand."""

    def __init__(self, cohort: Cohort):
        self.cohort = cohort
        self._curves: Dict[int, object] = {}
        self._levels: Dict[tuple, float] = {}

    def curve(self, row: int):
        if row not in self._curves:
            self._curves[row] = construct_curve(self.cohort.citations[row].tolist())
        return self._curves[row]

    def level(self, row: int, spec: IndexSpec) -> float:
        key = (row, spec)
        if key not in self._levels:
            self._levels[key] = srm_generic(self.curve(row), family_for(spec)).level
        return self._levels[key]


def _cell(text) -> float:
    return math.inf if text == "inf" else float(text)


def level_problem(spec: IndexSpec, got: float, want: float) -> str:
    """'' when a rendered cell matches the generic level, else a message."""
    if spec.name in INTEGER_INDICES or math.isinf(want):
        ok = got == want
    else:
        # %.9g rendering moves a value by at most 5e-9 of itself
        ok = abs(got - want) <= 5e-9 * abs(want) + GENERIC_TOL
    return "" if ok else f"{spec.label}: got {got!r}, generic {want!r}"


def fitted_betas(cohort: Cohort) -> tuple:
    """Per-author -slope of ln x_i on ln i over ranks with x_i >= 1."""
    betas = []
    skipped = 0
    for c in cohort.citations:
        ys = np.sort(c[c >= 1])[::-1].astype(float)
        if ys.size < 2:
            skipped += 1
            continue
        xs = np.arange(1, ys.size + 1, dtype=float)
        betas.append(-np.polyfit(np.log(xs), np.log(ys), 1)[0])
    return np.asarray(betas), skipped


def check_profile(data: bytes, cohort: Cohort) -> List[str]:
    doc = json.loads(data)
    betas, skipped = fitted_betas(cohort)
    problems = []
    if abs(doc["beta_bar"] - float(betas.mean())) > GENERIC_TOL:
        problems.append(f"beta_bar {doc['beta_bar']!r} != polyfit mean {betas.mean()!r}")
    if doc["cohort_size"] != betas.size:
        problems.append(f"cohort_size {doc['cohort_size']} != {betas.size} fittable authors")
    if len(doc.get("metadata", {}).get("skipped", [])) != skipped:
        problems.append(f"profile skips a different number of authors than {skipped}")
    return problems


def _table_rows(data: bytes, fmt: str) -> tuple:
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
        labels = rows[0][1:]
        return labels, [(r[0], [_cell(v) for v in r[1:]]) for r in rows[1:] if r]
    doc = json.loads(data)
    labels = doc["indices"]
    return labels, [
        (a["id"], [_cell(a["values"][ix]["level"]) for ix in labels]) for a in doc["authors"]
    ]


def check_table(
    data: bytes, fmt: str, specs: Sequence[IndexSpec], oracle: Oracle, rows: np.ndarray
) -> List[str]:
    got_labels, table = _table_rows(data, fmt)
    cohort = oracle.cohort
    labels = [s.label for s in specs]
    if list(got_labels) != labels:
        return [f"table columns {got_labels} != {labels}"]
    if [a for a, _ in table] != cohort.ids:
        return ["table rows are not the input authors in input order"]
    problems = []
    for row in rows:
        for spec, got in zip(specs, table[row][1]):
            msg = level_problem(spec, got, oracle.level(row, spec))
            if msg:
                problems.append(f"{cohort.ids[row]} {msg}")
    return problems


def check_ranking(
    data: bytes, spec: IndexSpec, cutoffs: Sequence[float], oracle: Oracle, rows: np.ndarray
) -> List[str]:
    doc = json.loads(data)
    cohort = oracle.cohort
    if doc["index"] != spec.label or doc["cutoffs"] != list(cutoffs):
        return [f"ranking header {doc['index']!r} {doc['cutoffs']} != {spec.label!r}"]
    ranking = doc["ranking"]
    n = len(ranking)
    if sorted(e["id"] for e in ranking) != sorted(cohort.ids):
        return ["ranking does not list every input author once"]
    problems = []
    values = [_cell(e["value"]) for e in ranking]
    prev = None
    for pos, (e, v) in enumerate(zip(ranking, values), start=1):
        key = (-v, e["id"])
        if prev is not None and key < prev[0]:
            problems.append(f"ranking out of order at position {pos}")
        rank = prev[1] if prev is not None and v == -prev[0][0] else pos
        if e["rank"] != rank:
            problems.append(f"{e['id']}: rank {e['rank']} != competition rank {rank}")
        cls = next(
            (j for j, c in enumerate(cutoffs, start=1) if c * n > rank - 1), len(cutoffs) + 1
        )
        if e["merit_class"] != f"class-{cls}":
            problems.append(f"{e['id']}: class {e['merit_class']} != class-{cls}")
        prev = (key, rank)
    by_id = dict(zip((e["id"] for e in ranking), values))
    for row in rows:
        msg = level_problem(spec, by_id[cohort.ids[row]], oracle.level(row, spec))
        if msg:
            problems.append(f"{cohort.ids[row]} {msg}")
    return problems


def check_dual(data: bytes, spec: IndexSpec, samples: int, oracle: Oracle) -> List[str]:
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    header, body = rows[0], [r for r in rows[1:] if r]
    gaps = [f"gap_{float(d):g}" for d in DUAL_DELTAS.split(",")] if spec.name == "h" else []
    if header != ["author_id", "value", "n_densities", "min_margin", *gaps]:
        return [f"dual-check header {header}"]
    cohort = oracle.cohort
    if [r[0] for r in body] != cohort.ids:
        return ["dual-check rows are not the input authors in input order"]
    problems = []
    for row, r in enumerate(body):
        msg = level_problem(spec, _cell(r[1]), oracle.level(row, spec))
        if msg:
            problems.append(f"{r[0]} {msg}")
        if int(r[2]) != samples:
            problems.append(f"{r[0]}: {r[2]} densities, expected {samples}")
        if _cell(r[3]) < -MARGIN_TOL:
            problems.append(f"{r[0]}: weak-duality margin {r[3]} < 0")
        problems.extend(f"{r[0]}: gap {g} < 0" for g in r[4:] if _cell(g) < 0)
    return problems
