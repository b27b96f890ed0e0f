import ast
import importlib
import pkgutil
from pathlib import Path

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
    init = ast.parse((package / "__init__.py").read_text())
    exported = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(ORACLES) <= exported
    used = set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            used |= _used_names(ast.parse(path.read_text()))
    acceptance = Path(__file__).with_name("test_acceptance.py")
    used |= _called_names(ast.parse(acceptance.read_text()))
    assert sorted(exported - used - set(ORACLES)) == []


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
