import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import srmkit


def test_no_module_level_memo_caches():
    """Every srmkit result is computed from its arguments: no module keeps
    a memo cache (anything with ``cache_clear``) between calls."""
    cached = []
    for info in pkgutil.iter_modules(srmkit.__path__, "srmkit."):
        module = importlib.import_module(info.name)
        cached += [
            f"{info.name}.{name}"
            for name, value in vars(module).items()
            if callable(getattr(value, "cache_clear", None))
        ]
    assert cached == []


def test_threads_only_in_the_plain_parse():
    """The batch kernels run on the caller's thread: the only module that
    imports threads, a thread pool or processes is cohort, whose plain
    integer parse reads its chunks on up to one thread per CPU."""
    pools = ("threading", "_thread", "concurrent.futures", "multiprocessing")
    found = []
    for path in sorted(Path(srmkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names
                      if any(f"{name}.".startswith(f"{pool}.") for pool in pools)]
    assert found == ["cohort.py: threading"]


_ENV = {**os.environ, "PYTHONPATH": str(Path(srmkit.__file__).parents[1])}


def _fresh(code, *argv, env=_ENV):
    """The last line a new interpreter prints running ``code`` with ``argv``, split."""
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                         env=env, timeout=60, check=True)
    return out.stdout.splitlines()[-1].split()


def test_import_starts_no_thread():
    """Importing the command line starts no thread and loads neither
    concurrent.futures nor numpy: ingest starts its workers only for
    large input, and each command imports the modules it runs."""
    code = ("import sys, threading, srmkit.cli; "
            "print('concurrent.futures' in sys.modules, threading.active_count(), "
            "'numpy' in sys.modules)")
    assert _fresh(code) == ["False", "1", "False"]


_LOADED = ("import sys; print('numpy' in sys.modules, 'numpy.ma' in sys.modules, "
           "*sorted(m for m in sys.modules if m.startswith('srmkit.')))")


@pytest.mark.parametrize("code, modules", [
    ("import srmkit", []),
    ("import srmkit.cli", ["srmkit.cli", "srmkit.errors"]),
    ("from srmkit import ValidationError", ["srmkit.errors"]),
])
def test_import_loads_no_numpy(code, modules):
    assert _fresh(f"{code}; {_LOADED}") == ["False", "False", *modules]


_SRM = "import sys, srmkit.cli; rc = srmkit.cli.run(sys.argv[1:]); print(rc, end=' '); " + _LOADED


def _srm_loads(*argv):
    """(exit code, numpy loaded, numpy.ma loaded, srmkit modules loaded) of
    ``srm argv`` in a new process."""
    rc, numpy, ma, *modules = _fresh(_SRM, *argv)
    return int(rc), numpy == "True", ma == "True", {m.split(".")[1] for m in modules}


@pytest.mark.parametrize("argv, rc", [
    (["--help"], 0), (["compute", "--help"], 0), ([], 2), (["compute", "--bogus"], 2),
    (["rank", "--format", "xml"], 2),
])
def test_help_and_argument_errors_load_no_numpy(argv, rc):
    assert _srm_loads(*argv) == (rc, False, False, {"cli", "errors"})


def _small_cohort(tmp_path):
    cohort = tmp_path / "cohort.csv"
    cohort.write_text("author_id,citations\nA,9;5;3;1\nB,7;7;2\nC,4;4;4;1\n")
    return str(cohort)


def test_each_command_loads_only_its_modules(tmp_path):
    """The dual layer loads only for dual-check, and calibration only for
    calibrate and a bare phi, which reads a profile.  No command loads
    numpy.ma (the first ``np.unique`` call would)."""
    cohort = _small_cohort(tmp_path)
    profile, out = str(tmp_path / "profile.json"), str(tmp_path / "out.csv")
    common = ["--input", cohort, "--output", out]
    dual = ["dual-check", *common, "--seed", "3", "--samples", "2", "--index"]
    runs = {
        "calibrate": ["calibrate", "--input", cohort, "--profile", profile],
        "compute": ["compute", *common, "--indices", "h,w,phi:1.62"],
        "compute phi": ["compute", *common, "--indices", "h,phi", "--profile", profile],
        "rank": ["rank", *common, "--index", "w"],
        "rank phi": ["rank", *common, "--index", "phi", "--profile", profile],
        "dual-check h": [*dual, "h"],
        "dual-check w": [*dual, "w"],
    }
    loaded = {}
    for name, argv in runs.items():
        rc, numpy, ma, loaded[name] = _srm_loads(*argv)
        assert (rc, numpy, ma) == (0, True, False), name
    assert [name for name, modules in loaded.items() if "duality" in modules] == [
        "dual-check h", "dual-check w"]
    assert [name for name, modules in loaded.items() if "calibration" in modules] == [
        "calibrate", "compute phi", "rank phi"]


#: The test environment without a user's BLAS thread setting.
_NO_BLAS_ENV = {k: v for k, v in _ENV.items() if k != "OPENBLAS_NUM_THREADS"}
_MAIN = ("import os, sys, srmkit.cli\n"
         "try:\n    srmkit.cli.main()\nexcept SystemExit as exc:\n    rc = exc.code\n"
         "tasks = len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else None\n"
         "print(rc, os.environ.get('OPENBLAS_NUM_THREADS'), tasks)")


def _compute_argv(tmp_path):
    return ["compute", "--input", _small_cohort(tmp_path), "--indices", "h,w",
            "--output", str(tmp_path / "out.csv")]


@pytest.mark.parametrize("preset, threads", [(None, "1"), ("2", "2")])
def test_main_runs_blas_on_one_thread_unless_the_user_chose(tmp_path, preset, threads):
    """``srm`` (``cli.main``) sets OPENBLAS_NUM_THREADS to 1 before numpy
    loads, so OpenBLAS starts no worker thread; a value the user set wins."""
    env = _NO_BLAS_ENV if preset is None else {**_NO_BLAS_ENV, "OPENBLAS_NUM_THREADS": preset}
    rc, value, tasks = _fresh(_MAIN, *_compute_argv(tmp_path), env=env)
    assert (rc, value) == ("0", threads)
    if preset is None and sys.platform == "linux":
        assert tasks == "1"  # the main thread alone: no BLAS worker


def test_run_leaves_the_environment_alone(tmp_path):
    """The in-process API ``cli.run`` touches neither ``os.environ`` nor
    the garbage collector: nothing it leaves is frozen."""
    code = ("import gc, os, sys, srmkit.cli; before = dict(os.environ); "
            "rc = srmkit.cli.run(sys.argv[1:]); "
            "print(rc, dict(os.environ) == before, gc.get_freeze_count(), gc.isenabled())")
    assert _fresh(code, *_compute_argv(tmp_path), env=_NO_BLAS_ENV) == ["0", "True", "0", "True"]


def test_main_ends_with_a_frozen_collector(tmp_path):
    """``srm`` (``cli.main``) freezes the collector after the command, so
    interpreter finalization does not walk what the imports made; the
    atexit handlers, which run after it, see the frozen objects."""
    code = ("import atexit, gc, srmkit.cli\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
            "srmkit.cli.main()")
    out = subprocess.run([sys.executable, "-c", code, *_compute_argv(tmp_path)],
                         capture_output=True, text=True, env=_ENV, timeout=60)
    assert (out.returncode, out.stdout, out.stderr) == (0, "frozen True\n", "")


ORACLES = {
    "evaluate_family": "reference f_q values the dominance and Riemann-sum tests compare to",
}


def _used_names(tree):
    """Names read as an AST Name or Attribute; imports, definitions and
    docstrings are not such nodes."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _called_names(tree):
    """Names called, or passed as an argument to a call."""
    called = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            for part in (node.func, *node.args, *(k.value for k in node.keywords)):
                if isinstance(part, ast.Name):
                    called.add(part.id)
                elif isinstance(part, ast.Attribute):
                    called.add(part.attr)
    return called


def test_every_export_has_a_caller():
    """Each name srmkit exports is used by the library itself or called
    (or passed to a call) by an acceptance criterion; the only exceptions
    are the test oracles."""
    package = Path(srmkit.__file__).parent
    exported = set(srmkit._EXPORTS)
    assert exported == set(srmkit.__all__)
    assert [name for name in exported if not hasattr(srmkit, name)] == []
    assert set(ORACLES) <= exported
    used = set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            used |= _used_names(ast.parse(path.read_text()))
    acceptance = Path(__file__).with_name("test_acceptance.py")
    used |= _called_names(ast.parse(acceptance.read_text()))
    assert sorted(exported - used - set(ORACLES)) == []


def _exported():
    """(name, value) of each name srmkit exports."""
    return [(name, getattr(srmkit, name)) for name in srmkit.__all__]


def _exported_classes():
    return [value for _, value in _exported()
            if inspect.isclass(value) and value.__module__.startswith("srmkit.")]


def _public_members(cls):
    """Methods, properties, classmethods, dataclass fields and public
    ``__slots__`` that the class itself defines."""
    names = set(vars(cls))
    if dataclasses.is_dataclass(cls):
        names |= {f.name for f in dataclasses.fields(cls)}
    return sorted(n for n in names if not n.startswith("_"))


def _calls(tree):
    """(callee name, call node) for every call; ``cls(...)`` inside a
    class body is a call of that class."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                found.append((owner if name == "cls" and owner else name, child))
            visit(child, child.name if isinstance(child, ast.ClassDef) else owner)

    visit(tree, None)
    return found


def _passes(call, position, name):
    """Whether a call binds the parameter ``name`` (at ``position`` among
    the positional parameters, or None when keyword-only)."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def _defaulted_parameters(fn, bound):
    """(position, name) of each parameter with a default; ``bound`` drops
    the leading self of a method looked up on its class."""
    params = list(inspect.signature(fn).parameters.values())[1 if bound else 0:]
    positional = [p.name for p in params if p.kind is p.POSITIONAL_OR_KEYWORD]
    return [(positional.index(p.name) if p.name in positional else None, p.name)
            for p in params if p.default is not p.empty]


def test_every_public_member_and_parameter_has_a_caller():
    """Each public member of an exported class is read as an attribute by
    the library, or named by a string constant there (as a ``getattr``
    over a table of field names reads it), or called or passed by an
    acceptance criterion.  Each defaulted parameter of an exported
    function, class or public method is passed, by keyword or by
    position, by some call in those files."""
    package = Path(srmkit.__file__).parent
    library = [ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))
               if path.name != "__init__.py"]
    acceptance = ast.parse(Path(__file__).with_name("test_acceptance.py").read_text())
    read = _called_names(acceptance)
    for tree in library:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    unread = [f"{cls.__name__}.{name}" for cls in _exported_classes()
              for name in _public_members(cls) if name not in read]

    callables = [(name, value, False) for name, value in _exported()
                 if inspect.isfunction(value) and name not in ORACLES]
    callables += [(cls.__name__, cls, False) for cls in _exported_classes()
                  if "__init__" in vars(cls)]
    for cls in _exported_classes():
        for name in _public_members(cls):
            static = vars(cls).get(name)
            if isinstance(static, (classmethod, staticmethod)) or inspect.isfunction(static):
                callables.append((f"{cls.__name__}.{name}", getattr(cls, name),
                                  inspect.isfunction(static)))
    calls = {}
    for tree in (*library, acceptance):
        for name, call in _calls(tree):
            calls.setdefault(name, []).append(call)
    unpassed = [
        f"{label}({param})"
        for label, fn, bound in callables
        for position, param in _defaulted_parameters(fn, bound)
        if not any(_passes(c, position, param) for c in calls.get(label.split(".")[-1], []))
    ]
    assert unread + unpassed == []


def test_no_unused_imports():
    """Every name a module imports is read somewhere in that module."""
    package = Path(srmkit.__file__).parent
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        loaded = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items()
                   if name not in loaded]
    assert unused == []


def test_no_unread_private_names():
    """Every module-level private function, class or constant is read
    somewhere in the library."""
    package = Path(srmkit.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    read = set().union(*map(_used_names, trees.values()))
    unread = []
    for filename, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [f"{filename}:{node.lineno}: {name}" for name in names
                       if name.startswith("_") and not name.startswith("__") and name not in read]
    assert unread == []


#: What ``import srmkit`` exposes; the package loads each name's module on first use.
_PUBLIC = {
    "MATH_FINANCE_SENIOR_BETA", "CohortProfile", "calibrate_cohort", "fit_author", "phi_index",
    "Cohort", "IndexTable", "classify_merit", "compute_table", "export", "ingest",
    "rank_authors", "ALL_POSITIVE_RANKS", "AUTHOR_SUPPORT_ONLY", "CitationCurve", "LevelRule",
    "PerformanceFamily", "SrmValue", "append_publication", "construct_curve",
    "evaluate_family", "mix", "power_family", "rectangle_family", "shift_citations",
    "staircase_family", "support_bound", "DualDensity", "GammaTable", "ReferenceMeasure",
    "constructed_minimizer", "dual_value", "expected_value", "gamma", "h_plus",
    "robust_dual_srm", "weak_duality_margin", "IndexSpec", "dominates", "family_for",
    "level_ceiling", "parse_index", "srm_closed_form", "srm_generic",
    "InsufficientDataError", "SrmError", "TableEntryError", "UnknownIndexError",
    "UnsupportedOperationError", "ValidationError",
}


def test_package_exposes_its_names():
    """``__all__``, ``from srmkit import *`` and ``dir`` give the public
    names; each name is its module's own object."""
    assert len(_PUBLIC) == 50 and set(srmkit.__all__) == _PUBLIC
    star = {}
    exec("from srmkit import *", star)
    assert set(star) - {"__builtins__"} == _PUBLIC
    public = {n for n in dir(srmkit) if not n.startswith("_")}
    assert _PUBLIC <= public
    assert all(inspect.ismodule(getattr(srmkit, n)) for n in public - _PUBLIC)
    for name in _PUBLIC:
        module = importlib.import_module(f"srmkit.{srmkit._EXPORTS[name]}")
        assert getattr(srmkit, name) is getattr(module, name)
    fresh = "import srmkit; print(*(n for n in dir(srmkit) if not n.startswith('_')))"
    assert set(_fresh(fresh)) == _PUBLIC


def test_unknown_attribute_names_the_package():
    with pytest.raises(AttributeError, match="^module 'srmkit' has no attribute 'nope'$"):
        srmkit.nope
    assert not hasattr(srmkit, "_EXPORTS_")


def test_cli_formats_are_the_cohort_formats():
    from srmkit import cli, cohort

    assert (cli._CSV, cli._JSON) == (cohort.CSV_FORMAT, cohort.JSON_FORMAT)
    assert cli._FORMATS == cohort.FORMATS
