"""Every public name a module of the package exports resolves.

A name deleted from a module but left in its __all__ would break
`from golay2d.<module> import *`; this test fails on it first.
"""

import importlib
import pkgutil

import golay2d

# Importing __main__ runs the command line.
MODULES = ["golay2d"] + [
    f"golay2d.{info.name}" for info in pkgutil.iter_modules(golay2d.__path__) if info.name != "__main__"
]


def test_every_exported_name_resolves():
    assert "golay2d.correlation" in MODULES and "golay2d.cli" in MODULES
    for name in MODULES:
        module = importlib.import_module(name)
        missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
        assert not missing, (name, missing)
        namespace = {}
        exec(f"from {name} import *", namespace)
        assert set(getattr(module, "__all__", ())) <= namespace.keys()
