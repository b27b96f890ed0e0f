"""Command-line front end: srm <compute|calibrate|rank|dual-check>.

Batch runs are reproducible: all randomness flows from --seed, and
identical configuration plus inputs yields byte-identical outputs.
Output files are written via a temporary file and an atomic rename, so
a failed run never leaves a partial file behind.  Exit codes: 0
success, 1 data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from . import cohort as co
from . import duality as du
from .calibration import CohortProfile, calibrate_cohort
from .engine import IndexSpec, family_for, parse_index, srm_closed_form
from .errors import SrmError, UnknownIndexError, ValidationError

_PROG = "srm"


class _UsageError(Exception):
    pass


@dataclass
class RunConfig:
    """Merged command configuration (flags take precedence over --config)."""

    subcommand: str
    input: Optional[str] = None
    output: Optional[str] = None
    fmt: Optional[str] = None
    indices: Optional[str] = None
    index: Optional[str] = None
    profile: Optional[str] = None
    classes: str = "0.1,0.3"
    deltas: str = "1,0.1,0.01"
    samples: int = 100
    seed: Optional[int] = None
    extent: Optional[float] = None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=_PROG,
        description="Citation-based research performance indices: "
        "compute, calibrate, rank, and check duality.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", help="key=value file with defaults for the flags below")
        p.add_argument("--input", help="cohort file (CSV or JSON)")
        p.add_argument("--output", help="output file (default: stdout)")
        p.add_argument("--format", dest="fmt", choices=["csv", "json"],
                       help="output format (default: from --output suffix, else csv)")

    p = sub.add_parser("compute", help="compute an index table for a cohort")
    common(p)
    p.add_argument("--indices", help="comma-separated index specs, e.g. h,w,phi:1.62")
    p.add_argument("--profile", help="calibration profile JSON (resolves bare 'phi')")

    p = sub.add_parser("calibrate", help="fit the cohort power-law profile")
    common(p)
    p.add_argument("--profile", help="where to write the profile JSON")

    p = sub.add_parser("rank", help="rank a cohort by one index and assign merit classes")
    common(p)
    p.add_argument("--index", help="index spec, e.g. w or phi:1.62")
    p.add_argument("--profile", help="calibration profile JSON (resolves bare 'phi')")
    p.add_argument("--classes", help="merit class cutoffs, e.g. 0.1,0.3")

    p = sub.add_parser("dual-check", help="weak-duality margins and minimizer gaps")
    common(p)
    p.add_argument("--index", help="index spec, e.g. h or phi:1.62")
    p.add_argument("--profile", help="calibration profile JSON (resolves bare 'phi')")
    p.add_argument("--deltas", help="comma-separated interval widths, e.g. 1,0.1,0.01")
    p.add_argument("--samples", help="random densities per author")
    p.add_argument("--seed", help="seed for all randomness (required)")
    p.add_argument("--extent", help="reference measure extent N")
    return parser


def _read_config_file(path: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise _UsageError(f"{path}:{lineno}: expected key = value")
            key, _, value = stripped.partition("=")
            key = key.strip().lower().replace("-", "_")
            value = value.strip()
            if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
                value = value[1:-1]
            out[key] = value
    return out


_CONFIG_KEYS = {
    "input": "input",
    "output": "output",
    "format": "fmt",
    "indices": "indices",
    "index": "index",
    "profile": "profile",
    "classes": "classes",
    "deltas": "deltas",
    "samples": "samples",
    "seed": "seed",
    "extent": "extent",
}


def _merge(args: argparse.Namespace) -> RunConfig:
    config: Dict[str, str] = {}
    if getattr(args, "config", None):
        try:
            config = _read_config_file(args.config)
        except OSError as exc:
            raise _UsageError(f"cannot read config file: {exc}") from None
    cfg = RunConfig(subcommand=args.subcommand)

    def pick(dest: str, key: str):
        value = getattr(args, dest, None)
        if value is None and key in config:
            value = config[key]
        return value

    for key, dest in _CONFIG_KEYS.items():
        value = pick(dest, key)
        if value is None:
            continue
        if dest == "samples":
            try:
                cfg.samples = int(value)
            except ValueError:
                raise _UsageError(f"--samples must be an integer, got {value!r}") from None
        elif dest == "seed":
            try:
                cfg.seed = int(value)
            except ValueError:
                raise _UsageError(f"--seed must be an integer, got {value!r}") from None
        elif dest == "extent":
            try:
                cfg.extent = float(value)
            except ValueError:
                raise _UsageError(f"--extent must be a number, got {value!r}") from None
        else:
            setattr(cfg, dest, value)
    return cfg


def _require(value, flag: str):
    if value is None:
        raise _UsageError(f"missing required option {flag}")
    return value


def _resolve_format(cfg: RunConfig) -> str:
    if cfg.fmt:
        return cfg.fmt
    if cfg.output and cfg.output.lower().endswith(".json"):
        return co.JSON_FORMAT
    return co.CSV_FORMAT


def _load_records(cfg: RunConfig) -> List[co.AuthorRecord]:
    path = _require(cfg.input, "--input")
    with open(path, "rb") as fh:
        data = fh.read()
    fmt = co.JSON_FORMAT if path.lower().endswith(".json") else co.CSV_FORMAT
    return co.ingest(data, fmt)


def _load_profile_beta(cfg: RunConfig) -> float:
    path = _require(cfg.profile, "--profile (needed to resolve a bare 'phi' index)")
    with open(path, "rb") as fh:
        return CohortProfile.from_json(fh.read()).beta_bar


def _resolve_index(cfg: RunConfig, text: str) -> IndexSpec:
    try:
        spec = parse_index(text)
    except UnknownIndexError as exc:
        raise _UsageError(str(exc)) from None
    if spec.name == "phi" and spec.param is None:
        spec = IndexSpec("phi", _load_profile_beta(cfg))
    if spec.name == "h_alpha" and spec.param is None:
        raise _UsageError("index 'h_alpha' needs an alpha, e.g. h_alpha:2")
    return spec


def _parse_floats(text: str, flag: str) -> List[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise _UsageError(f"{flag} must be a comma-separated list of numbers") from None
    if not values:
        raise _UsageError(f"{flag} must name at least one number")
    return values


def _emit(cfg: RunConfig, data: bytes) -> None:
    if cfg.output:
        _write_atomic(cfg.output, data)
    else:
        sys.stdout.write(data.decode("utf-8"))


def _write_atomic(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".srm-tmp-")
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp makes 0600; give what open() would
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cmd_compute(cfg: RunConfig) -> int:
    specs_text = _require(cfg.indices, "--indices")
    specs = [_resolve_index(cfg, part) for part in specs_text.split(",") if part.strip()]
    if not specs:
        raise _UsageError("--indices must name at least one index")
    records = _load_records(cfg)
    table = co.compute_table(records, specs)
    _emit(cfg, co.export(table, _resolve_format(cfg)))
    return 0


def _cmd_calibrate(cfg: RunConfig) -> int:
    out_path = _require(cfg.profile, "--profile")
    records = _load_records(cfg)
    profile = calibrate_cohort([r.curve for r in records], [r.id for r in records])
    _write_atomic(out_path, profile.to_json().encode("utf-8"))
    return 0


def _cmd_rank(cfg: RunConfig) -> int:
    spec = _resolve_index(cfg, _require(cfg.index, "--index"))
    cutoffs = _parse_floats(cfg.classes, "--classes")
    if any(not (0.0 < c < 1.0) for c in cutoffs) or any(
        b <= a for a, b in zip(cutoffs, cutoffs[1:])
    ):
        raise _UsageError("--classes must be strictly increasing fractions in (0, 1)")
    records = _load_records(cfg)
    table = co.compute_table(records, [spec])
    ranking = co.rank_authors(table, spec)
    classes = co.classify_merit(ranking, cutoffs)
    fmt = _resolve_format(cfg)
    if fmt == co.CSV_FORMAT:
        rows = [["author_id", "value", "rank", "merit_class"]]
        for entry in ranking:
            rows.append(
                [entry.id, co.format_number(entry.value), str(entry.rank),
                 classes.assignment[entry.id]]
            )
        data = co._csv_bytes(rows)
    else:
        doc = {
            "index": spec.label,
            "cutoffs": list(classes.cutoffs),
            "ranking": [
                {
                    "id": e.id,
                    "value": co._json_number(e.value),
                    "rank": e.rank,
                    "merit_class": classes.assignment[e.id],
                }
                for e in ranking
            ],
        }
        data = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")
    _emit(cfg, data)
    return 0


def _cmd_dual_check(cfg: RunConfig) -> int:
    spec = _resolve_index(cfg, _require(cfg.index, "--index"))
    if cfg.seed is None:
        raise _UsageError("--seed is required for dual-check (randomized subcommand)")
    deltas = _parse_floats(cfg.deltas, "--deltas")
    if any(d <= 0 for d in deltas):
        raise _UsageError("--deltas must be positive")
    if cfg.samples < 0:
        raise _UsageError("--samples must be >= 0")
    records = _load_records(cfg)
    family = family_for(spec)
    max_p = max((r.curve.p for r in records), default=0)
    extent = cfg.extent if cfg.extent is not None else max_p + math.ceil(max(deltas)) + 1.0
    if extent < max(1.0, max_p):
        raise _UsageError(f"--extent must be at least max(1, largest p) = {max(1, max_p)}")
    measure = du.ReferenceMeasure(extent)

    gap_cols: List[float] = []
    if spec.name == "c_max":
        gap_cols = [0.0]  # the c_max minimizer does not depend on delta
    elif spec.name in ("pubs", "h"):
        gap_cols = deltas
    header = ["author_id", "value", "n_densities", "min_margin"]
    if spec.name == "c_max":
        header.append("gap")
    else:
        header.extend(f"gap_{d:g}" for d in gap_cols)
    results = []  # author id; value, min margin (None without densities), gaps
    for i, rec in enumerate(records):
        value = srm_closed_form(rec.curve, spec).level
        restrict = (
            rec.curve.p
            if family.policy == du.AUTHOR_SUPPORT_ONLY and rec.curve.p >= 1
            else None
        )
        margin = None
        if cfg.samples > 0:
            densities = du.random_simplex_candidates(
                measure, cfg.samples, seed=cfg.seed * 100003 + i, upto=restrict
            )
            margin = du.weak_duality_margin(rec.curve, family, densities, measure)
        gaps = []
        for d in gap_cols:
            z_star = du.constructed_minimizer(spec.name, rec.curve, d, measure)
            bound = du.h_plus(
                z_star, du.expected_value(z_star, rec.curve, measure), family, measure
            )
            gaps.append(bound - value)
        results.append((rec.id, [value, margin, *gaps]))
    if _resolve_format(cfg) == co.CSV_FORMAT:
        rows = [header]
        for author, (value, *rest) in results:
            rows.append([author, co.format_number(value), str(cfg.samples),
                         *("" if x is None else co.format_number(x) for x in rest)])
        data = co._csv_bytes(rows)
    else:
        authors = [
            dict(zip(header, [author, co._json_number(value), cfg.samples,
                              *(None if x is None else co._json_number(x) for x in rest)]))
            for author, (value, *rest) in results
        ]
        doc = {"index": spec.label, "authors": authors}
        data = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")
    _emit(cfg, data)
    return 0


_HANDLERS = {
    "compute": _cmd_compute,
    "calibrate": _cmd_calibrate,
    "rank": _cmd_rank,
    "dual-check": _cmd_dual_check,
}


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments and execute one subcommand; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv) if argv is not None else None)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _merge(args)
        return _HANDLERS[cfg.subcommand](cfg)
    except _UsageError as exc:
        print(f"{_PROG}: error: {exc}", file=sys.stderr)
        return 2
    except (SrmError, OSError) as exc:
        print(f"{_PROG}: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
