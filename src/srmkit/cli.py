"""Command-line front end: srm <compute|calibrate|rank|dual-check>.

Batch runs are reproducible: all randomness flows from --seed, and
identical configuration plus inputs yields byte-identical outputs.
Output files are written via a temporary file and an atomic rename, so
a failed run never leaves a partial file behind.  Exit codes: 0
success, 1 data error, 2 usage error.

Only the standard library and the error types load with this module;
each subcommand imports the srmkit modules it runs, so ``srm --help``
and an argument error load no numpy, and only ``dual-check`` loads the
duality layer.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from .errors import SrmError, UnknownIndexError

if TYPE_CHECKING:
    from .cohort import Cohort
    from .engine import IndexSpec

_PROG = "srm"
#: ``cohort.FORMATS``, named here so that parsing the arguments loads no
#: numpy; a test holds the two equal.
_CSV, _JSON = _FORMATS = ("csv", "json")


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

    def common(p, output=True):
        p.add_argument("--config", help="key=value file with defaults for the flags below")
        p.add_argument("--input", help="cohort file (CSV or JSON)")
        if output:
            p.add_argument("--output", help="output file (default: stdout)")
            p.add_argument("--format", dest="fmt", choices=_FORMATS,
                           help="output format (default: from --output suffix, else csv)")

    p = sub.add_parser("compute", help="compute an index table for a cohort")
    common(p)
    p.add_argument("--indices", help="comma-separated index specs, e.g. h,w,phi:1.62")
    p.add_argument("--profile", help="calibration profile JSON (resolves bare 'phi')")

    p = sub.add_parser("calibrate", help="fit the cohort power-law profile")
    common(p, output=False)
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
            raw, _, value = stripped.partition("=")
            key = raw.strip().lower().replace("-", "_")
            if key not in _CONFIG_KEYS:
                raise _UsageError(f"{path}:{lineno}: unknown key '{raw.strip()}'")
            value = value.strip()
            if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
                value = value[1:-1]
            out[key] = value
    return out


#: Config file key -> RunConfig field: every field but the subcommand,
#: under the name of its flag.
_CONFIG_KEYS = {
    "format" if f.name == "fmt" else f.name: f.name
    for f in fields(RunConfig) if f.name != "subcommand"
}


def _merge(args: argparse.Namespace) -> RunConfig:
    config: Dict[str, str] = {}
    if getattr(args, "config", None):
        try:
            config = _read_config_file(args.config)
        except (OSError, UnicodeDecodeError) as exc:
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
                if cfg.seed < 0:
                    raise ValueError
            except ValueError:
                raise _UsageError(f"--seed must be a nonnegative integer, got {value!r}") from None
        elif dest == "extent":
            try:
                cfg.extent = float(value)
                if not math.isfinite(cfg.extent):
                    raise ValueError
            except ValueError:
                raise _UsageError(f"--extent must be a finite number, got {value!r}") from None
        elif dest == "fmt" and value not in _FORMATS:
            raise _UsageError(f"--format must be 'csv' or 'json', got {value!r}")
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
        return _JSON
    return _CSV


def _load_cohort(cfg: RunConfig) -> Cohort:
    from .cohort import ingest

    path = _require(cfg.input, "--input")
    fmt = _JSON if path.lower().endswith(".json") else _CSV
    with open(path, "rb") as fh:
        return ingest(fh.read(), fmt)  # ingest holds the only reference to the bytes


def _load_profile_beta(cfg: RunConfig) -> float:
    from .calibration import CohortProfile

    path = _require(cfg.profile, "--profile (needed to resolve a bare 'phi' index)")
    with open(path, "rb") as fh:
        return CohortProfile.from_json(fh.read()).beta_bar


def _resolve_index(cfg: RunConfig, text: str) -> IndexSpec:
    from .engine import IndexSpec, _with_param, parse_index

    try:
        spec = parse_index(text)
        if spec.name == "phi" and spec.param is None:
            spec = IndexSpec("phi", _load_profile_beta(cfg))
        return _with_param(spec)
    except UnknownIndexError as exc:
        raise _UsageError(str(exc)) from None


def _parse_floats(text: str, flag: str) -> List[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise _UsageError(f"{flag} must be a comma-separated list of numbers") from None
    if not values:
        raise _UsageError(f"{flag} must name at least one number")
    return values


def _check_labels(labels: List[str], what: str) -> None:
    """A usage error when two of an option's entries share a column label."""
    for k, label in enumerate(labels):
        if label in labels[:k]:
            raise _UsageError(f"{what} the column label {label}")


def _emit(cfg: RunConfig, data: bytes) -> None:
    if cfg.output:
        _write_atomic(cfg.output, data)
        return
    out = sys.stdout
    if out is None:  # Python's stdout when its descriptor was closed (`srm ... >&-`)
        raise OSError("there is no standard output; write to a file with --output")
    try:
        out.flush()  # anything printed before goes first
        out.buffer.write(data)
        out.flush()  # a closed pipe fails here, as a data error, not at exit
    except BrokenPipeError:
        # Python flushes stdout again at exit, which would fail a second time;
        # point its descriptor at devnull (the recipe of the `signal` docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)
        raise


def _write_atomic(path: str, data: bytes) -> None:
    import tempfile

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
    from .cohort import compute_table, export

    specs_text = _require(cfg.indices, "--indices")
    specs = [_resolve_index(cfg, part) for part in specs_text.split(",") if part.strip()]
    if not specs:
        raise _UsageError("--indices must name at least one index")
    _check_labels([spec.label for spec in specs], "--indices gives two indices")
    table = compute_table(_load_cohort(cfg), specs)
    _emit(cfg, export(table, _resolve_format(cfg)))
    return 0


def _cmd_calibrate(cfg: RunConfig) -> int:
    from .calibration import calibrate_cohort

    out_path = _require(cfg.profile, "--profile")
    profile = calibrate_cohort(_load_cohort(cfg))
    _write_atomic(out_path, profile.to_json())
    return 0


def _cmd_rank(cfg: RunConfig) -> int:
    from .cohort import classify_merit, compute_table, rank_authors, write_rows

    spec = _resolve_index(cfg, _require(cfg.index, "--index"))
    cutoffs = _parse_floats(cfg.classes, "--classes")
    if any(not (0.0 < c < 1.0) for c in cutoffs) or any(
        b <= a for a, b in zip(cutoffs, cutoffs[1:])
    ):
        raise _UsageError("--classes must be strictly increasing fractions in (0, 1)")
    table = compute_table(_load_cohort(cfg), [spec])
    order, ranks = rank_authors(table, spec)
    ids = list(map(table.authors.__getitem__, order.tolist()))
    columns = {
        "value": table.levels[order, 0],
        "rank": ranks.tolist(),
        "merit_class": classify_merit(ranks, cutoffs),
    }
    fields = {"index": spec.label, "cutoffs": cutoffs}
    _emit(cfg, write_rows(_resolve_format(cfg), ids, columns, "ranking", fields, id_key="id"))
    return 0


def _cmd_dual_check(cfg: RunConfig) -> int:
    import numpy as np

    from . import duality as du
    from .cohort import compute_table, write_rows
    from .curves import AUTHOR_SUPPORT_ONLY
    from .engine import family_for

    spec = _resolve_index(cfg, _require(cfg.index, "--index"))
    if cfg.seed is None:
        raise _UsageError("--seed is required for dual-check (randomized subcommand)")
    deltas = _parse_floats(cfg.deltas, "--deltas")
    if not all(0 < d < math.inf for d in deltas):
        raise _UsageError("--deltas must be finite and positive")
    labels = [f"gap_{d:g}" for d in deltas]
    _check_labels(labels, "--deltas gives two widths")
    if cfg.samples < 0:
        raise _UsageError("--samples must be >= 0")
    cohort = _load_cohort(cfg)
    family = family_for(spec)
    max_p = int(cohort.lengths.max(initial=0))
    extent = cfg.extent if cfg.extent is not None else max_p + math.ceil(max(deltas)) + 1.0
    if extent < max(1.0, max_p):
        raise _UsageError(f"--extent must be at least max(1, largest p) = {max(1, max_p)}")
    # the duality layer holds ceil(N) rank cells, and a prefix sum per cell and one
    # more, as float64 arrays; numpy cannot index an array of more bytes than this
    if (math.ceil(extent) + 1) * 8 > np.iinfo(np.intp).max:
        raise MemoryError(
            f"the measure extent {extent:g} has more rank cells than an array can hold")
    measure = du.ReferenceMeasure(extent)

    gap_cols: List[float] = []
    if spec.name == "c_max":
        gap_cols = [0.0]  # the c_max minimizer does not depend on delta
    elif spec.name in ("pubs", "h"):
        gap_cols = deltas
    values = compute_table(cohort, [spec]).levels[:, 0]
    margins = []  # a margin is None without densities
    gaps = np.empty((len(gap_cols), len(cohort)))
    for i, value in enumerate(values.tolist()):
        curve = cohort.curve(i)
        restrict = curve.p if family.policy == AUTHOR_SUPPORT_ONLY and curve.p >= 1 else None
        margin = None
        for masses in du.density_blocks(measure, cfg.samples, cfg.seed * 100003 + i, restrict):
            m = du.weak_duality_margin(curve, family, masses, measure)
            margin = m if margin is None else min(margin, m)
        margins.append(margin)
        for j, d in enumerate(gap_cols):
            z_star = du.constructed_minimizer(spec.name, curve, d, measure)
            gaps[j, i] = du.dual_value(curve, family, [z_star], measure) - value
    columns = {
        "value": values,
        "n_densities": [cfg.samples] * len(cohort),
        "min_margin": np.array(margins) if cfg.samples else margins,
    }
    if spec.name == "c_max":
        columns["gap"] = gaps[0]
    else:
        columns.update(zip(labels, gaps))
    _emit(cfg, write_rows(_resolve_format(cfg), cohort.ids, columns, "authors",
                          {"index": spec.label}))
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
    except MemoryError as exc:  # e.g. the rank cells of a huge --extent
        print(f"{_PROG}: error: out of memory: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    """The ``srm`` console script: run one subcommand and end the process
    with its exit code.  It sets OPENBLAS_NUM_THREADS and freezes the
    garbage collector, so it is for a process of its own; an in-process
    caller uses :func:`run`, which leaves both alone.
    """
    # srm runs numpy's BLAS on one thread unless the user set
    # OPENBLAS_NUM_THREADS.  Its only BLAS calls are dots of at most ceil(N)
    # values, which OpenBLAS runs on one thread anyway; but `import numpy`
    # starts OpenBLAS's worker pool, and the idle worker spins against the
    # start-up (on a 2-CPU host, `import numpy` took 158 ms with the pool and
    # 96 ms without).  This must run before a subcommand loads numpy.  run()
    # leaves os.environ alone: a library caller owns its process's BLAS settings.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    code = run()
    # Interpreter finalization runs collector passes over every tracked
    # object, most of them made by importing numpy and srmkit.  The process
    # is about to end, so move them all to the permanent generation, which
    # those passes skip: on a 2-core machine this cut the time from run()
    # returning to the process ending from 29-33 ms to 8.6-9.5 ms.
    # Finalization still flushes stdio and runs atexit handlers.  run()
    # leaves the collector alone: an in-process caller with a frozen
    # collector would never reclaim what it had made.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
