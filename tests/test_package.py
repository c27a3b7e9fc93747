"""The package surface: ``__all__`` is what ``__init__`` imports, and nothing else."""

import ast
import importlib
import inspect
import types

import spinfringe


def _imported_from():
    """Each name ``__init__`` binds by ``from .layer import ...``, mapped to that layer module."""
    tree = ast.parse(inspect.getsource(spinfringe))
    return {
        alias.asname or alias.name: importlib.import_module(f"spinfringe.{node.module}")
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def test_all_is_sorted_without_duplicates():
    assert spinfringe.__all__ == sorted(set(spinfringe.__all__))


def test_all_is_every_public_name_but_the_submodules():
    public = {
        name for name, value in vars(spinfringe).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(spinfringe.__all__) == public


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from spinfringe import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == spinfringe.__all__


def test_each_export_is_its_layer_module_binding():
    origins = _imported_from()
    assert set(origins) == set(spinfringe.__all__)
    for name in spinfringe.__all__:
        assert getattr(spinfringe, name) is getattr(origins[name], name), name
