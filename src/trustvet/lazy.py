"""Package attributes imported on first use (PEP 562).

A package lists each public name with the submodule that defines it, and
takes its module __getattr__ and __dir__ from package_attributes. Importing
the package then runs none of its submodules: a process loads only the
modules whose names it reads.
"""

from __future__ import annotations

import importlib
import sys
import types
from typing import Callable, Mapping


class LazyPackage(types.ModuleType):
    """A package whose public names (its __all__) are never bound to a
    submodule. The import system binds each submodule it loads on its
    package, so loading trustvet.lineassess.bleu, as the dataset module
    does, would otherwise hide the function bleu behind the module of the
    same name."""

    def __setattr__(self, name: str, value: object) -> None:
        if not (isinstance(value, types.ModuleType) and name in self.__all__):
            super().__setattr__(name, value)


def package_attributes(
    package: str, exports: Mapping[str, str]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The module __getattr__ and __dir__ of package, whose exports map each
    public name to the submodule that defines it; package becomes a
    LazyPackage.

    A public name is imported at its first use and bound on the package, so
    __getattr__ runs once per name. Any other name that is a submodule
    (trustvet.evaluate, say) is imported, which binds it too."""
    module = sys.modules[package]
    namespace = module.__dict__

    def __getattr__(name: str) -> object:
        home = exports.get(name)
        if home is not None:
            value = getattr(importlib.import_module(f"{package}.{home}"), name)
            namespace[name] = value
            return value
        if not name.startswith("_"):
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise  # a module that the submodule imports is missing
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports))

    module.__class__ = LazyPackage
    return __getattr__, __dir__
