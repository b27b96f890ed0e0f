"""Seeded cohort generators and the command sequence of each workload.

Every workload draws its authors the same way: a publication count
that is geometric with mean 30 (capped at 400, or drawn uniformly for
the archive), and citations floor(5 * Lomax(1.2)).  The workloads then
vary the three properties the cost of srmkit depends on: how many
authors there are, how long each record is, and how many dual
densities each record is weighed against.

A workload's files depend only on the seed, so the same seed gives the
same inputs.  The program sees only the files.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

ALL_INDICES = "c_max,pubs,h,h2,h_alpha:2,w,h_r,phi"
DUAL_SAMPLES = 100
DUAL_SEED = 7
DUAL_DELTAS = "1,0.1,0.01"
DUAL_INDICES = ("h", "w", "phi:1.62")
CUTOFFS = (0.1, 0.3)


@dataclass
class Cohort:
    """The raw records written to a workload's input file."""

    ids: List[str]
    citations: List[np.ndarray]

    @property
    def authors(self) -> int:
        return len(self.ids)

    @property
    def total_citations(self) -> int:
        return int(sum(c.size for c in self.citations))

    @property
    def largest_record(self) -> int:
        return max(c.size for c in self.citations)


@dataclass
class Step:
    """One CLI command of a workload: its kind, arguments and output."""

    kind: str  # calibrate | compute | rank | dual-check
    args: List[str]
    output: str
    index: Optional[str] = None


@dataclass
class Workload:
    name: str
    cohort: Cohort
    steps: List[Step]


def _citations(rng: np.random.Generator, count: int) -> np.ndarray:
    return np.floor(5.0 * rng.pareto(1.2, size=count)).astype(np.int64)


def _stratified_uniform(rng: np.random.Generator, n: int) -> np.ndarray:
    """n draws from U(0, 1), one per stratum ((i, i+1) / n), in random order.

    Record lengths drawn this way follow the intended distribution while
    their sum, which sets the cost of a run, hardly varies with the seed.
    """
    return rng.permutation((np.arange(n) + rng.random(n)) / n)


def _geometric_cohort(rng: np.random.Generator, authors: int, cap: int) -> Cohort:
    u = _stratified_uniform(rng, authors)
    counts = np.ceil(np.log1p(-u) / np.log1p(-1.0 / 30.0)).astype(np.int64)  # geometric, mean 30
    counts = np.clip(counts, 1, cap)
    flat = _citations(rng, int(counts.sum()))
    citations = np.split(flat, np.cumsum(counts)[:-1])
    ids = [f"a{i:06d}" for i in range(authors)]
    return Cohort(ids, citations)


def write_csv(cohort: Cohort, path: str) -> None:
    lines = ["author_id,citations"]
    lines.extend(
        f"{author},{';'.join(map(str, c.tolist()))}"
        for author, c in zip(cohort.ids, cohort.citations)
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(cohort: Cohort, annotations: List[dict], path: str) -> None:
    entries = ",\n".join(
        f'{{"id": {json.dumps(author)}, "citations": [{", ".join(map(str, c.tolist()))}], '
        f'"annotations": {json.dumps(note, sort_keys=True)}}}'
        for author, c, note in zip(cohort.ids, cohort.citations, annotations)
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"authors": [\n' + entries + "\n]}\n")


# Sizes.  Each workload's command sequence takes a few seconds, so a run
# of the benchmark repeats it several times and reports medians.
BATCH_SHORT_AUTHORS = 15_000
DUAL_AUDIT_AUTHORS = 60
DUAL_AUDIT_LARGEST = 200
ARCHIVE_AUTHORS = 1_000
ARCHIVE_PUBS = (1_000, 5_000)


def batch_short(seed: int, workdir: str, authors: int = BATCH_SHORT_AUTHORS) -> Workload:
    """Many short CSV records: per-author overhead dominates."""
    rng = np.random.default_rng([seed, 1])
    cohort = _geometric_cohort(rng, authors, cap=400)
    path = os.path.join(workdir, "cohort.csv")
    write_csv(cohort, path)
    profile = os.path.join(workdir, "profile.json")
    table = os.path.join(workdir, "table.csv")
    ranking = os.path.join(workdir, "ranking.json")
    steps = [
        Step("calibrate", ["calibrate", "--input", path, "--profile", profile], profile),
        Step(
            "compute",
            ["compute", "--input", path, "--indices", ALL_INDICES, "--profile", profile,
             "--output", table],
            table,
        ),
        Step(
            "rank",
            ["rank", "--input", path, "--index", "w",
             "--classes", ",".join(map(str, CUTOFFS)), "--output", ranking],
            ranking,
            index="w",
        ),
    ]
    return Workload("batch-short", cohort, steps)


def dual_audit(seed: int, workdir: str, authors: int = DUAL_AUDIT_AUTHORS) -> Workload:
    """Few authors, many densities each: the duality layer dominates.

    The first author gets exactly DUAL_AUDIT_LARGEST publications, so
    the dual-check extent, which the largest record sets for every
    author, is the same for every seed.
    """
    rng = np.random.default_rng([seed, 2])
    cohort = _geometric_cohort(rng, authors, cap=DUAL_AUDIT_LARGEST)
    cohort.citations[0] = _citations(rng, DUAL_AUDIT_LARGEST)
    path = os.path.join(workdir, "cohort.csv")
    write_csv(cohort, path)
    steps = []
    for index in DUAL_INDICES:
        out = os.path.join(workdir, f"dual-{index.split(':')[0]}.csv")
        steps.append(
            Step(
                "dual-check",
                ["dual-check", "--input", path, "--index", index,
                 "--samples", str(DUAL_SAMPLES), "--seed", str(DUAL_SEED),
                 "--deltas", DUAL_DELTAS, "--output", out],
                out,
                index=index,
            )
        )
    return Workload("dual-audit", cohort, steps)


def archive_json(seed: int, workdir: str, authors: int = ARCHIVE_AUTHORS) -> Workload:
    """Few long records in JSON with annotations: per-citation work and JSON I/O."""
    rng = np.random.default_rng([seed, 3])
    lo, hi = ARCHIVE_PUBS
    counts = lo + np.floor(_stratified_uniform(rng, authors) * (hi - lo + 1)).astype(np.int64)
    flat = _citations(rng, int(counts.sum()))
    citations = np.split(flat, np.cumsum(counts)[:-1])
    cohort = Cohort([f"r{i:05d}" for i in range(authors)], citations)
    fields = ("math-finance", "probability", "statistics", "economics")
    annotations = [
        {
            "field": fields[int(rng.integers(len(fields)))],
            "institution": f"inst-{int(rng.integers(500)):03d}",
            "first_year": int(rng.integers(1970, 2015)),
            "verified": bool(rng.integers(2)),
        }
        for _ in range(authors)
    ]
    path = os.path.join(workdir, "archive.json")
    write_json(cohort, annotations, path)
    profile = os.path.join(workdir, "profile.json")
    table = os.path.join(workdir, "table.json")
    ranking = os.path.join(workdir, "ranking.json")
    steps = [
        Step("calibrate", ["calibrate", "--input", path, "--profile", profile], profile),
        Step(
            "compute",
            ["compute", "--input", path, "--indices", ALL_INDICES, "--profile", profile,
             "--output", table],
            table,
        ),
        Step(
            "rank",
            ["rank", "--input", path, "--index", "phi", "--profile", profile,
             "--output", ranking],
            ranking,
            index="phi",
        ),
    ]
    return Workload("archive-json", cohort, steps)


WORKLOADS = {
    "batch-short": batch_short,
    "dual-audit": dual_audit,
    "archive-json": archive_json,
}
