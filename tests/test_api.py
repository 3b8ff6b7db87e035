import importlib
import inspect
import pkgutil

import pytest

import hardedge

MODULES = [
    mod
    for mod in (
        importlib.import_module(f"hardedge.{info.name}")
        for info in pkgutil.iter_modules(hardedge.__path__)
    )
    if hasattr(mod, "__all__")
]


@pytest.mark.parametrize("mod", MODULES, ids=lambda m: m.__name__)
class TestPublicApi:
    def test_listed_names_exist(self, mod):
        assert [name for name in mod.__all__ if not hasattr(mod, name)] == []

    def test_public_definitions_are_listed(self, mod):
        defined = [
            name
            for name, obj in vars(mod).items()
            if not name.startswith("_")
            and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == mod.__name__
        ]
        assert sorted(set(defined) - set(mod.__all__)) == []
