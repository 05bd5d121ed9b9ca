"""Modules imported by name now but executed on first attribute access.

numpy serves only ``deploy`` and PyYAML only scenario loading, so the
modules that use them bind them lazily and every other command starts
without paying for either.
"""

from __future__ import annotations

import importlib.util
import sys
from types import ModuleType


def lazy_import(name: str) -> ModuleType:
    """Return module ``name``, found now and executed when one of its
    attributes is first read.  A missing module raises
    ``ModuleNotFoundError`` here, as a plain ``import`` would."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module
