"""Package re-exports that load on first access (PEP 562).

Every package ``__init__`` of :mod:`repro` declares its public names in
one table, submodule -> names, and imports nothing up front::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        ".summary": ("RunMetrics", "summarize"),
    })

A name's submodule is imported the first time the name is read from
the package (``from repro.metrics import summarize`` included), and
the value is then cached in the package namespace, so a process pays
only for the subsystems it touches.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable


def lazy_exports(
    package: str, table: dict[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``__all__``, ``__getattr__`` and ``__dir__`` for ``package``.

    ``table`` maps each submodule, relative to ``package`` (``".fleet"``)
    or absolute, to the names it re-exports.
    """
    owners = {name: module for module, names in table.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | owners.keys())

    return list(owners), __getattr__, __dir__
