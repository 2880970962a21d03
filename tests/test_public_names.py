"""Every public name a module of the package exports resolves.

A name deleted from a module but left in its __all__ would break
`from golay2d.<module> import *`; this test fails on it first.  The package
itself exports exactly the names of its library modules.
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


def test_package_exports_the_library_modules_names():
    # The package's names are its library modules' __all__, as the same
    # objects, and nothing else: no list of them is kept in __init__.
    library = [golay2d.boolfunc, golay2d.correlation, golay2d.constructions, golay2d.papr, golay2d.verify]
    names = [name for module in library for name in module.__all__]
    assert golay2d.__all__ == names and len(set(names)) == len(names)
    namespace = {}
    exec("from golay2d import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(names)
    for module in library:
        for name in module.__all__:
            assert getattr(golay2d, name) is getattr(module, name), (module.__name__, name)
