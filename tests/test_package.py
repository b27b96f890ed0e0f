import importlib
import pkgutil

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
