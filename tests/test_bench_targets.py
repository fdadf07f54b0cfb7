"""The traced benchmark names functions of the package by module and
attribute path (``bench/tracing.py``). A rename in ``src/`` would break only
``--trace 1`` runs, so this checks every name resolves. ``bench/`` is imported
read-only: no bytecode is written there."""

import functools
import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def tracing():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)
        mp.syspath_prepend(str(BENCH))
        yield importlib.import_module("tracing")


def _resolve(module_name: str, path: str):
    assert module_name.split(".")[0] == "assertforge", module_name
    return functools.reduce(getattr, path.split("."), importlib.import_module(module_name))


def test_every_traced_name_resolves(tracing):
    for module_name, path, _ in tracing.TARGETS:
        assert callable(_resolve(module_name, path)), (module_name, path)


def test_every_counted_name_resolves(tracing):
    for module_name, attr, after in tracing.COUNTED:
        assert callable(_resolve(module_name, attr)) and callable(after), (module_name, attr)


def test_every_site_name_is_an_import_of_a_traced_function(tracing):
    traced = {
        _resolve(module_name, path) for module_name, path, _ in tracing.TARGETS if "." not in path
    }
    for module_name, attr in tracing.SITE_NAMES:
        assert _resolve(module_name, attr) in traced, (module_name, attr)
