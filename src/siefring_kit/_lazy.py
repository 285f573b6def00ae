"""Modules bound at import time and run on their first attribute access."""

from __future__ import annotations

import importlib.util
import sys


def lazy_import(name: str):
    """The module ``name``, entered in ``sys.modules`` (and bound in its
    parent package) but run only when one of its attributes is first read;
    a module imported already is returned as it is."""
    if name not in sys.modules:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[name] = module = importlib.util.module_from_spec(spec)
        parent, _, child = name.rpartition(".")
        if parent:
            setattr(sys.modules[parent], child, module)
        spec.loader.exec_module(module)
    return sys.modules[name]
