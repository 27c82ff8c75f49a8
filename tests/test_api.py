"""Public surface: every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import pilotforge

MODULES = sorted(m.name for m in pkgutil.iter_modules(pilotforge.__path__))


def test_every_module_is_listed():
    assert MODULES == ["ambiguity", "cli", "optimizer", "receiver", "resolution",
                       "waveform"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"pilotforge.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    namespace = {}
    exec(f"from pilotforge.{name} import *", namespace)
    module = importlib.import_module(f"pilotforge.{name}")
    assert set(module.__all__) <= set(namespace)


def test_package_reexports_only_public_names():
    for attr, obj in vars(pilotforge).items():
        home = getattr(obj, "__module__", None)
        if attr.startswith("_") or not (home or "").startswith("pilotforge."):
            continue
        assert attr in importlib.import_module(home).__all__, attr


def test_package_imports_without_scipy():
    # a fresh interpreter: this process has scipy loaded by the oracle tests
    code = ("import sys, pilotforge, pilotforge.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([os.path.dirname(pilotforge.__path__[0]),
                                          os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"
