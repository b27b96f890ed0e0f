"""Benchmark of the srm command line on seeded cohort workloads.

    python3 perfbench/run.py --workload batch-short --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it builds nothing and imports
srmkit from ``src/``, since no ``srm`` entry point need be installed.

``--trace 0`` runs the workload's command sequence as child processes,
``python -m srmkit.cli``, one at a time (a closed loop with one client),
and repeats the sequence until ``--seconds`` have passed.  Right before
each command it runs reference.py, a fixed program that uses no srmkit
code.  ``run_wall_rel`` is the sequence's wall time divided by the
reference runs' wall time: on a shared host whose speed changes from
one second to the next, that ratio holds steady where seconds do not.
End-to-end metrics are medians over the repetitions; the raw seconds,
CPU time and per-command throughputs are printed as report lines.

``--trace 1`` replays the same commands in-process through
``srmkit.cli.run``, alternating untraced and traced replays.  Traced
replays record spans around calls into each module (see spans.py) and
give the per-layer metrics; the difference between the two kinds of
replay is ``trace.overhead_s``.

Both modes check every output outside the timed region (see checks.py)
and print, as the last line of stdout, one JSON object with the keys
correct, attempted, failed and metrics.  Generated files live under
``.perfbench_work/`` in the checkout and are removed at the end, except
the span file of a traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPS = 5  # setup_s is the median of this many set-ups
IMPORT_PROBES = 5  # fresh processes timed for cli.import_s
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_wall_rel": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> Dict[str, str]:
    units = {"cli.import_s": "s"}
    units.update({f"{layer}.self_s": "s" for layer in
                  ("cli", "cohort", "curves", "engine", "calibration", "duality")})
    units.update({
        "cohort.ingest_s": "s",
        "cohort.ingest_citations_per_s": "1/s",
        "curves.construct_curve_s": "s",
    })
    units.update({f"engine.closed_form.{ix}_s": "s" for ix in
                  ("c_max", "pubs", "h", "h2", "h_alpha", "w", "h_r", "phi")})
    units.update({
        "engine.closed_form_cells_per_s": "1/s",
        "cohort.compute_table_self_s": "s",
        "engine.generic_s": "s",
        "engine.dominates_calls": "count",
        "engine.inf_cells": "count",
        "engine.unattained_cells": "count",
        "calibration.calibrate_cohort_s": "s",
        "calibration.fit_authors_per_s": "1/s",
        "calibration.skipped_authors": "count",
        "cohort.rank_s": "s",
    })
    for fmt in ("csv", "json"):
        units[f"cohort.export_s.{fmt}"] = "s"
        units[f"cohort.export_bytes.{fmt}"] = "B"
        units[f"cohort.export_bytes_per_s.{fmt}"] = "B/s"
    units.update({
        "duality.density_build_s": "s",
        "duality.density_cells": "count",
        "duality.expected_value_s": "s",
        "duality.h_plus_s": "s",
        "duality.weak_duality_margin_self_s": "s",
        "duality.constructed_minimizer_s": "s",
        "duality.pairs": "count",
        "duality.min_margin": "level",
        "cohort.authors": "count",
        "cohort.citations": "count",
        "trace.overhead_s": "s",
    })
    return units


PER_LAYER_UNITS = per_layer_units()


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(args: List[str], stderr_path: Path) -> Child:
    """Run ``python <args>`` to completion; usage comes from wait4 on that child."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
    killer = threading.Timer(CHILD_TIMEOUT_S, _kill, (pid,))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        _kill(pid)
        os.waitpid(pid, 0)
        raise
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    return Child(
        code=os.waitstatus_to_exitcode(status),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    )


def more_time(start: float, done: int, seconds: float) -> bool:
    """Whether another repetition fits, so that about ``seconds`` get measured."""
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * elapsed / done < seconds


def digest(path: str) -> Optional[str]:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError:
        return None


def stamp() -> dict:
    import numpy

    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            commit = out.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for path in sorted((SRC / "srmkit").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": h.hexdigest(),
    }


def set_up(name: str, seed: int, workdir: Path, authors: Optional[int]):
    """Generate the inputs and warm up, SETUP_REPS times; median time."""
    from workloads import WORKLOADS

    kwargs = {} if authors is None else {"authors": authors}
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        wl = WORKLOADS[name](seed, str(workdir), **kwargs)
        warm = spawn(["-m", "srmkit.cli", "--help"], workdir / "warmup.err")
        if warm.code != 0:
            raise RuntimeError("warm-up `srmkit.cli --help` failed: "
                               + (workdir / "warmup.err").read_text())
        times.append(time.perf_counter() - start)
    return wl, statistics.median(times)


def check_outputs(wl, seed: int) -> List[List[str]]:
    """Problems found in each step's output file, step by step."""
    from checks import (Oracle, check_dual, check_profile, check_ranking, check_table,
                        sample_rows)
    from srmkit.engine import IndexSpec, parse_index
    from workloads import ALL_INDICES, CUTOFFS, DUAL_SAMPLES

    oracle = Oracle(wl.cohort)
    rows = sample_rows(wl.cohort, seed)
    beta_bar = None

    def resolve(text: str) -> IndexSpec:
        spec = parse_index(text)
        return IndexSpec("phi", beta_bar) if spec.name == "phi" and spec.param is None else spec

    out = []
    for step in wl.steps:
        try:
            data = Path(step.output).read_bytes()
            if step.kind == "calibrate":
                problems = check_profile(data, wl.cohort)
                beta_bar = json.loads(data)["beta_bar"]
            elif step.kind == "compute":
                fmt = "json" if step.output.endswith(".json") else "csv"
                specs = [resolve(t) for t in ALL_INDICES.split(",")]
                problems = check_table(data, fmt, specs, oracle, rows)
            elif step.kind == "rank":
                problems = check_ranking(data, resolve(step.index), CUTOFFS, oracle, rows)
            else:
                problems = check_dual(data, parse_index(step.index), DUAL_SAMPLES, oracle)
        except Exception as exc:  # a check that cannot run fails the step
            problems = [f"unreadable output: {exc!r}"]
        out.append(problems)
    return out


def count_failures(wl, codes: List[List[int]], digests: List[List[Optional[str]]],
                   problems: List[List[str]]) -> int:
    """Commands that exited nonzero, failed a check, or differ from the first repetition."""
    failed = 0
    for rep, (rep_codes, rep_digests) in enumerate(zip(codes, digests)):
        for k, (code, dig) in enumerate(zip(rep_codes, rep_digests)):
            if code != 0 or dig is None or dig != digests[0][k] or problems[k]:
                failed += 1
            if code == 0 and dig != digests[0][k]:
                print(f"check failed: {wl.steps[k].kind} output of repetition {rep + 1} "
                      "differs from repetition 1", file=sys.stderr)
    return failed


def report_problems(wl, problems: List[List[str]]) -> None:
    for step, found in zip(wl.steps, problems):
        for line in found[:5]:
            print(f"check failed: {step.kind} {step.index or ''}: {line}", file=sys.stderr)


def cli_run(wl, seconds: float, seed: int, workdir: Path):
    from workloads import DUAL_SAMPLES

    reps: List[List[Child]] = []
    refs: List[List[Child]] = []
    digests: List[List[Optional[str]]] = []
    start = time.perf_counter()
    while not reps or more_time(start, len(reps), seconds):
        rep, ref = [], []
        for k, step in enumerate(wl.steps):
            ref.append(spawn([str(HERE / "reference.py")], workdir / "reference.err"))
            if ref[-1].code != 0:
                raise RuntimeError("reference program failed: "
                                   + (workdir / "reference.err").read_text())
            rep.append(spawn(["-m", "srmkit.cli", *step.args], workdir / f"step{k}.err"))
        reps.append(rep)
        refs.append(ref)
        digests.append([digest(step.output) for step in wl.steps])
    problems = check_outputs(wl, seed)
    report_problems(wl, problems)
    codes = [[c.code for c in rep] for rep in reps]
    attempted = len(reps) * len(wl.steps)
    failed = count_failures(wl, codes, digests, problems)

    walls = [sum(c.wall_s for c in rep) for rep in reps]
    ref_walls = [sum(c.wall_s for c in ref) for ref in refs]
    metrics = {
        "run_wall_rel": statistics.median(w / r for w, r in zip(walls, ref_walls)),
        "peak_rss_mb": statistics.median(max(c.rss_mb for c in rep) for rep in reps),
    }
    authors = wl.cohort.authors
    lines = [
        f"repetitions {len(reps)} of {len(wl.steps)} commands, walls "
        + " ".join(f"{w:.4g}" for w in walls) + " s, reference walls "
        + " ".join(f"{r:.4g}" for r in ref_walls) + " s",
        f"run_wall_s {statistics.median(walls):.6g} s",
        f"run_cpu_s {statistics.median(sum(c.cpu_s for c in rep) for rep in reps):.6g} s",
        f"reference_wall_s {statistics.median(ref_walls):.6g} s",
    ]
    for kind in dict.fromkeys(s.kind for s in wl.steps):
        ks = [k for k, s in enumerate(wl.steps) if s.kind == kind]
        kind_walls = [sum(rep[k].wall_s for k in ks) for rep in reps]
        if kind == "dual-check":
            pairs = authors * DUAL_SAMPLES * len(ks)
            per_s = statistics.median(pairs / w for w in kind_walls)
            lines.append(f"dual_check_pairs_per_s {per_s:.6g} 1/s (higher is better; {pairs} pairs)")
        else:
            per_s = statistics.median(authors / w for w in kind_walls)
            lines.append(f"{kind}_authors_per_s {per_s:.6g} 1/s (higher is better)")
        lines.append(f"{kind}_wall_s {statistics.median(kind_walls):.6g} s")
    lines.append(f"failed_ops_ratio {failed / attempted:.6g} ({failed} of {attempted} commands)")
    return metrics, attempted, failed, lines


def _clear_caches() -> None:
    """Empty srmkit's memo caches, so each replay starts as cold as a new process."""
    for name, module in list(sys.modules.items()):
        if name == "srmkit" or name.startswith("srmkit."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def traced_run(wl, seconds: float, seed: int, workdir: Path, env_stamp: dict):
    import srmkit.cli as cli
    from spans import Tracer, layer_metrics, write_spans

    imports = [spawn(["-c", "import srmkit"], workdir / "import.err") for _ in range(IMPORT_PROBES)]
    if any(c.code != 0 for c in imports):
        raise RuntimeError("`import srmkit` failed in a fresh process: "
                           + (workdir / "import.err").read_text())

    tracer = Tracer()
    walls: Dict[bool, List[float]] = {False: [], True: []}
    replays: List[dict] = []
    codes: List[List[int]] = []
    digests: List[List[Optional[str]]] = []

    def replay(traced: bool) -> None:
        _clear_caches()
        if traced:
            tracer.reset()
            tracer.install()
        rcs = []
        try:
            begin = time.perf_counter()
            for step in wl.steps:
                try:
                    rcs.append(cli.run(step.args))
                except Exception as exc:  # a crash counts as a failed command
                    print(f"{step.kind} raised {exc!r}", file=sys.stderr)
                    rcs.append(-1)
            walls[traced].append(time.perf_counter() - begin)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            replays.append(tracer.snapshot())
        codes.append(rcs)
        digests.append([digest(step.output) for step in wl.steps])

    replay(False)  # warm-up: first-call costs in this process
    del walls[False][:]
    start = time.perf_counter()
    while not replays or more_time(start, len(replays), seconds):
        replay(False)
        replay(True)

    problems = check_outputs(wl, seed)
    report_problems(wl, problems)
    attempted = len(codes) * len(wl.steps)
    failed = count_failures(wl, codes, digests, problems)

    per_replay = [layer_metrics(r, tracer.names, tracer.child_overhead_s,
                                wl.cohort.total_citations) for r in replays]
    metrics = {key: statistics.median(m[key] for m in per_replay) for key in per_replay[0]}
    ingests = replays[0]["notes"].get("cohort.ingest", [])
    metrics["cohort.authors"] = ingests[0][1] if ingests else 0
    metrics["cohort.citations"] = wl.cohort.total_citations
    metrics["cli.import_s"] = statistics.median(c.wall_s for c in imports)
    metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])

    trace_dir = WORK / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    spans_path = trace_dir / f"{wl.name}-seed{seed}.npz"
    write_spans(str(spans_path), wl.name, tracer.names, replays, env_stamp)
    lines = [
        f"replays {len(walls[False])} untraced, {len(walls[True])} traced "
        f"({statistics.median(walls[False]):.6g} s and {statistics.median(walls[True]):.6g} s)",
        f"tracer overhead per child span {tracer.child_overhead_s * 1e9:.0f} ns (subtracted from self times)",
        f"spans written to {spans_path.relative_to(ROOT)}",
        f"failed_ops_ratio {failed / attempted:.6g} ({failed} of {attempted} commands)",
    ]
    return metrics, attempted, failed, lines


def measure(name: str, seed: int, seconds: float, trace: bool,
            authors: Optional[int] = None) -> tuple:
    """One benchmark run: (result object, report lines)."""
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        env_stamp = stamp()
        wl, setup_s = set_up(name, seed, workdir, authors)
        if trace:
            metrics, attempted, failed, lines = traced_run(wl, seconds, seed, workdir, env_stamp)
            units = PER_LAYER_UNITS
        else:
            metrics, attempted, failed, lines = cli_run(wl, seconds, seed, workdir)
            metrics["setup_s"] = setup_s
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    c = wl.cohort
    lines[:0] = [
        "env " + json.dumps(env_stamp, sort_keys=True),
        f"workload {name} seed {seed}: {c.authors} authors, {c.total_citations} citations, "
        f"largest record {c.largest_record}, setup {setup_s:.6g} s",
    ]
    lines.extend(f"{key} {metrics[key]:.6g} {unit}" for key, unit in units.items())
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
    return result, lines


def main(argv: Optional[List[str]] = None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "srmkit" / "__init__.py").is_file():
        print(f"perfbench: no srmkit sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
