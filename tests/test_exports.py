import importlib
import pkgutil

import pytest

import hmctransfer

MODULES = [importlib.import_module(f"hmctransfer.{info.name}")
           for info in pkgutil.iter_modules(hmctransfer.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_module_exports_resolve(module):
    # a name left in __all__ after its definition is deleted breaks `import *`
    missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names undefined {missing}"


def test_package_exports_are_module_exports():
    # the package has no __all__ of its own: its public names are the re-exports,
    # each of which a module lists in its __all__
    exported = {name for module in MODULES for name in getattr(module, "__all__", [])}
    public = {name for name, value in vars(hmctransfer).items()
              if not name.startswith("_") and value not in MODULES}
    assert public <= exported, sorted(public - exported)
