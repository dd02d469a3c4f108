"""Every package namespace is a lazy table (``repro._lazy``).

A stale row — a name moved or renamed in its defining module — would
otherwise surface only at its first use, where an eager import failed as
soon as the package loaded.  So every name of every package is resolved
here, in a fresh interpreter where nothing has been imported yet.
"""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest


def check_every_namespace():
    import repro

    packages = [repro] + [
        getattr(repro, info.name)  # resolves on first access (PEP 562)
        for info in pkgutil.iter_modules(repro.__path__)
        if info.ispkg
    ]
    assert len(packages) >= 15
    for package in packages:
        exports = package.__getattr__.exports
        for name in package.__all__:
            value = getattr(package, name)
            if name in exports:
                module, attr = exports[name]
                defining = importlib.import_module(module, package.__name__)
                expected = getattr(defining, attr)
            else:  # defined in the package itself, or a submodule
                submodule = f"{package.__name__}.{name}"
                expected = sys.modules.get(submodule, vars(package).get(name))
            assert value is expected, (package.__name__, name)
            assert name in dir(package), (package.__name__, name)
            assert vars(package)[name] is value  # cached: later reads are dict hits
        with pytest.raises(AttributeError):
            package.no_such_name


def test_every_exported_name_resolves_to_its_defining_object():
    root = Path(__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-c",
         "from tests.test_namespaces import check_every_namespace as c; c()"],
        cwd=root, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
