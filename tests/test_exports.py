"""Every export list names something that exists.

A trimmed module can keep a name in its ``__all__`` that it no longer
defines; ``from module import *`` then fails, and nothing else notices.
"""

import importlib
import pkgutil

import repro


def test_every_name_in_every_export_list_resolves():
    modules = [repro.__name__] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")]
    missing = []
    for name in modules:
        module = importlib.import_module(name)
        missing += [f"{name}.{export}" for export in getattr(module, "__all__", ())
                    if not hasattr(module, export)]
    assert len(modules) > 60
    assert missing == []
