"""The benchmark's tracer wraps program functions by name, from outside
the program (``perfbench/tracing.py``, ``TARGETS``).  Every name it
wraps must exist, and uninstalling it must put back the very objects it
replaced, so renaming or deleting a traced function fails here and not
only in a benchmark run."""

from __future__ import annotations

import importlib
import os
import sys

import pytest

import hrbac

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(ROOT)
    return importlib.import_module("perfbench.tracing")


def _current(module_name: str, path: str):
    """What ``Tracer.install`` replaces: the class's own attribute (a
    classmethod stays one) or the module's."""
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _function(obj):
    return obj.__func__ if isinstance(obj, classmethod) else obj


def test_tracer_resolves_every_target_and_restores_it(tracing):
    assert os.path.dirname(hrbac.__file__) == os.path.join(ROOT, "src", "hrbac")
    targets = [(module, path) for module, path, _ in tracing.TARGETS]
    for module, _ in targets:
        importlib.import_module(module)
    originals = {target: _current(*target) for target in targets}
    bindings = {name: dict(vars(module)) for name, module in sys.modules.items()
                if name.startswith("hrbac")}
    gateway_app_init = sys.modules["hrbac.httpapi"].GatewayApp.__init__

    tracer = tracing.Tracer()
    try:
        tracer.install()
        for target, original in originals.items():
            wrapped = _current(*target)
            assert wrapped is not original, f"{target} was not wrapped"
            assert _function(wrapped).__wrapped__ is _function(original), target
    finally:
        tracer.uninstall()

    for target, original in originals.items():
        assert _current(*target) is original, f"{target} was not restored"
    for name, before in bindings.items():
        after = vars(sys.modules[name])
        changed = [key for key, value in before.items() if after.get(key) is not value]
        assert not changed, f"{name}: {changed} not restored"
    assert sys.modules["hrbac.httpapi"].GatewayApp.__init__ is gateway_app_init
