"""Lazy package namespaces (PEP 562): importing a package costs nothing.

A package declares its exports once, as a table from defining module to
names, and gets back its ``__getattr__``, ``__dir__`` and ``__all__``::

    __getattr__, __dir__, __all__ = lazy_namespace(__name__, {
        ".topology": "Topology ring line",
        "..fastcore.explorer": {"FastExplorer": "FastTransitionSystem"},
    })

A row's names are a whitespace-separated string, or a mapping from the
exported name to the defining module's name for an alias.  A name is
imported from its module on first access and then cached in the package
dict, so every later read is a plain dict hit; an undeclared name that is
a submodule is imported; anything else raises ``AttributeError``.

A registry that names its entries without importing them (the CLI's
commands, the campaign's algorithms) writes each as ``"module:name"`` and
calls :func:`resolve` when it uses one.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Dict, List, Mapping, Tuple, Union

Row = Union[str, Mapping[str, str]]


def resolve(target: str) -> object:
    """The object ``"package.module:name"`` names, importing its module."""
    module, _, name = target.partition(":")
    return getattr(import_module(module), name)


def lazy_namespace(
    package: str, table: Mapping[str, Row]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    namespace = vars(sys.modules[package])
    exports: Dict[str, Tuple[str, str]] = {}
    for module, names in table.items():
        pairs = {n: n for n in names.split()} if isinstance(names, str) else names
        exports.update((name, (module, attr)) for name, attr in pairs.items())

    def __getattr__(name: str) -> object:
        if name in exports:
            module, attr = exports[name]
            value = getattr(import_module(module, package), attr)
        else:
            try:
                value = import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(namespace.keys() | exports.keys())

    # name -> (defining module, its name there): what the tests resolve
    __getattr__.exports = exports  # type: ignore[attr-defined]
    return __getattr__, __dir__, sorted(exports)
