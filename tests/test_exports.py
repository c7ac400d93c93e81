"""Every public name the package and its modules export resolves."""

from __future__ import annotations

import importlib
import pkgutil

import qschub


def test_every_exported_name_resolves():
    modules = [qschub] + [
        importlib.import_module(f"qschub.{info.name}")
        for info in pkgutil.iter_modules(qschub.__path__)
    ]
    checked = 0
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ names missing {name!r}"
            checked += 1
    assert checked > 0
