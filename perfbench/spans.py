"""Spans around calls into srmkit's layers, recorded from outside the package.

A span is ``(name, start, end, parent, workload)``, named
``<module>.<function>``.  Spans are kept in flat arrays while a replay
runs and written once, at the end of the run.  A traced function that
the package no longer has simply yields no span.

Self time is a span's duration minus its direct children's durations,
and minus the bookkeeping the tracer itself spends around each child
(measured once per run on a no-op function).
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

LAYERS = ("cli", "cohort", "curves", "engine", "calibration", "duality")


# (module, function, note): a note keeps a small value per call, taken
# after the span has ended, from which the counts are derived.
TRACED: Tuple[Tuple[str, str, Optional[Callable]], ...] = (
    ("cli", "run", None),
    ("cohort", "ingest", lambda a, k, r: len(r)),
    ("cohort", "compute_table", None),
    ("cohort", "rank_authors", None),
    ("cohort", "classify_merit", None),
    ("cohort", "export", lambda a, k, r: (a[1] if len(a) > 1 else k.get("fmt"), len(r))),
    ("curves", "construct_curve", None),
    ("engine", "srm_closed_form",
     lambda a, k, r: (a[1] if len(a) > 1 else k.get("index"), r.level, r.attained)),
    ("engine", "srm_generic", None),
    ("engine", "dominates", None),
    ("calibration", "calibrate_cohort", None),
    ("calibration", "fit_author", None),
    ("duality", "random_simplex_candidates",
     lambda a, k, r: sum(len(getattr(z, "heights", ())) for z in r)),
    ("duality", "expected_value", None),
    ("duality", "h_plus", None),
    ("duality", "weak_duality_margin", lambda a, k, r: r),
    ("duality", "constructed_minimizer", None),
)


class Tracer:
    """Records spans while installed; ``uninstall`` restores the package."""

    def __init__(self):
        self.names: List[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.failed = array("b")
        self.notes: Dict[str, List[tuple]] = {}
        self._stack = [-1]
        self._patched: List[tuple] = []
        self.child_overhead_s = self._calibrate()

    def wrap(self, name: str, fn: Callable, note: Optional[Callable] = None) -> Callable:
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        notes = self.notes.setdefault(name, [])
        name_id, start, end, parent, failed = (
            self.name_id, self.start, self.end, self.parent, self.failed)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            failed.append(0)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[i] = clock()
                failed[i] = 1
                stack.pop()
                raise
            end[i] = clock()
            stack.pop()
            if note is not None:
                notes.append((i, note(args, kwargs, result)))
            return result

        return traced

    def _calibrate(self, calls: int = 20_000) -> float:
        """Tracer time a parent spends per child span, outside the child."""

        def noop():
            return None

        wrapped = self.wrap("trace.noop", noop)
        best = math.inf
        for _ in range(3):
            n0 = len(self.start)
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            bare = time.perf_counter() - t0
            t0 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            traced = time.perf_counter() - t0
            inner = float(np.sum(np.array(self.end[n0:]) - np.array(self.start[n0:])))
            best = min(best, (traced - bare - inner) / calls)
        self.reset()
        return max(best, 0.0)

    def reset(self) -> None:
        for arr in (self.name_id, self.start, self.end, self.parent, self.failed):
            del arr[:]
        for notes in self.notes.values():
            notes.clear()

    def install(self, package: str = "srmkit") -> None:
        """Wrap every traced function wherever the package refers to it."""
        modules = [m for n, m in sys.modules.items()
                   if (n == package or n.startswith(package + ".")) and m is not None]
        for module_name, func, note in TRACED:
            module = sys.modules.get(f"{package}.{module_name}")
            original = getattr(module, func, None)
            if original is None:
                continue
            wrapper = self.wrap(f"{module_name}.{func}", original, note)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def snapshot(self) -> dict:
        """The spans recorded since the last reset, as arrays."""
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "start": np.array(self.start, dtype=float),
            "end": np.array(self.end, dtype=float),
            "parent": np.array(self.parent, dtype=np.int32),
            "failed": np.array(self.failed, dtype=np.int8),
            "notes": {k: list(v) for k, v in self.notes.items() if v},
        }


def self_times(spans: dict, child_overhead_s: float) -> np.ndarray:
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has = parent >= 0
    n = dur.size
    child_sum = np.bincount(parent[has], weights=dur[has], minlength=n)
    children = np.bincount(parent[has], minlength=n)
    return np.maximum(dur - child_sum - children * child_overhead_s, 0.0)


def layer_metrics(spans: dict, names: List[str], child_overhead_s: float,
                  citations: int) -> Dict[str, float]:
    """Per-layer numbers of one traced replay of a workload."""
    from srmkit.engine import parse_index

    nid = spans["name_id"]
    dur = spans["end"] - spans["start"]
    own = self_times(spans, child_overhead_s)
    failed = spans["failed"].astype(bool)
    notes = spans["notes"]
    ids = {name: i for i, name in enumerate(names)}

    def mask(name):
        return nid == ids.get(name, -1)

    def total(name):
        return float(dur[mask(name)].sum())

    def count(name):
        return int(mask(name).sum())

    m: Dict[str, float] = {}
    span_layer = np.array([n.split(".")[0] for n in names])[nid]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = float(own[span_layer == layer].sum())

    ingest_s = total("cohort.ingest")
    m["cohort.ingest_s"] = ingest_s
    m["cohort.ingest_citations_per_s"] = (
        citations * count("cohort.ingest") / ingest_s if ingest_s else 0.0)
    m["curves.construct_curve_s"] = total("curves.construct_curve")

    cf = mask("engine.srm_closed_form")
    by_index = {name: 0.0 for name in ("c_max", "pubs", "h", "h2", "h_alpha", "w", "h_r", "phi")}
    inf_cells = unattained = 0
    cf_dur = dict(zip(np.flatnonzero(cf).tolist(), dur[cf].tolist()))
    spec_names: Dict[object, str] = {}
    for i, (index, level, attained) in notes.get("engine.srm_closed_form", []):
        if index not in spec_names:
            spec_names[index] = parse_index(index).name
        by_index[spec_names[index]] += cf_dur[i]
        inf_cells += math.isinf(level)
        unattained += not attained
    for name, seconds in by_index.items():
        m[f"engine.closed_form.{name}_s"] = seconds
    cf_s = float(dur[cf].sum())
    m["engine.closed_form_cells_per_s"] = int(cf.sum()) / cf_s if cf_s else 0.0
    m["cohort.compute_table_self_s"] = float(own[mask("cohort.compute_table")].sum())
    m["engine.generic_s"] = total("engine.srm_generic")
    m["engine.dominates_calls"] = count("engine.dominates")
    m["engine.inf_cells"] = inf_cells
    m["engine.unattained_cells"] = unattained

    m["calibration.calibrate_cohort_s"] = total("calibration.calibrate_cohort")
    fits = mask("calibration.fit_author")
    fit_s = float(dur[fits].sum())
    m["calibration.fit_authors_per_s"] = int((fits & ~failed).sum()) / fit_s if fit_s else 0.0
    m["calibration.skipped_authors"] = int((fits & failed).sum())

    m["cohort.rank_s"] = total("cohort.rank_authors") + total("cohort.classify_merit")
    export_dur = dict(zip(np.flatnonzero(mask("cohort.export")).tolist(),
                          dur[mask("cohort.export")].tolist()))
    for fmt in ("csv", "json"):
        spent = sum(export_dur[i] for i, (f, _) in notes.get("cohort.export", []) if f == fmt)
        size = sum(b for _, (f, b) in notes.get("cohort.export", []) if f == fmt)
        m[f"cohort.export_s.{fmt}"] = spent
        m[f"cohort.export_bytes.{fmt}"] = size
        m[f"cohort.export_bytes_per_s.{fmt}"] = size / spent if spent else 0.0

    m["duality.density_build_s"] = total("duality.random_simplex_candidates")
    m["duality.density_cells"] = sum(c for _, c in notes.get("duality.random_simplex_candidates", []))
    m["duality.expected_value_s"] = total("duality.expected_value")
    m["duality.h_plus_s"] = total("duality.h_plus")
    m["duality.weak_duality_margin_self_s"] = float(own[mask("duality.weak_duality_margin")].sum())
    m["duality.constructed_minimizer_s"] = total("duality.constructed_minimizer")
    margins = [v for _, v in notes.get("duality.weak_duality_margin", [])]
    m["duality.pairs"] = len(margins)
    m["duality.min_margin"] = min(margins) if margins else 0.0
    return m


def write_spans(path: str, workload: str, names: List[str], replays: List[dict],
                stamp: dict) -> None:
    """Write every traced replay's spans to one compressed file."""
    arrays = {"names": np.array(names), "workload": np.array(workload),
              "stamp": np.array(repr(stamp))}
    for k, spans in enumerate(replays):
        for key in ("name_id", "start", "end", "parent", "failed"):
            arrays[f"replay{k}_{key}"] = spans[key]
    np.savez_compressed(path, **arrays)
