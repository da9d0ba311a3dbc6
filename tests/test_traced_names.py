"""The benchmark's layer tracer replaces library globals by name.

A renamed or removed global would break the traced benchmark run; these
checks catch it in the tier-1 suite without running the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS_PATH = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _layers()


@pytest.mark.parametrize(
    "module_name, attr", [(m, a) for m, a, _ in LAYERS.FUNCTION_PATCHES]
)
def test_traced_function_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


@pytest.mark.parametrize("class_name", LAYERS.MODEL_CLASSES)
def test_traced_model_methods_resolve(class_name):
    cls = getattr(importlib.import_module("unionbounds.borel_cantelli"), class_name)
    for method, _ in LAYERS.MODEL_METHODS:
        assert callable(getattr(cls, method, None)), f"{class_name}.{method}"


# Imported by unions only so that the tracer finds them by name; the report
# never calls them.
UNCALLED = {"occupancy_profile", "rpow"}


def test_traced_report_names_are_called(monkeypatch):
    from unionbounds import EventSystem, random_system

    unions = importlib.import_module("unionbounds.unions")
    names = {a for m, a, _ in LAYERS.FUNCTION_PATCHES if m == "unionbounds.unions"}
    calls = dict.fromkeys(sorted(names - UNCALLED), 0)
    for name in calls:

        def counted(*args, _name=name, _call=getattr(unions, name), **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)

        monkeypatch.setattr(unions, name, counted)
    system = random_system(3, 6, 30, "dense")
    for a, rho in ((2, 1), (1.5, 1.25)):  # one exact and one float section
        unions.compare_bounds(EventSystem(system.weights, system.events), a, rho)
    assert [name for name, count in calls.items() if count == 0] == []


@pytest.mark.parametrize("class_name", LAYERS.MODEL_CLASSES)
def test_traced_model_methods_are_called(monkeypatch, class_name):
    from fractions import Fraction

    from unionbounds import random_system

    bc = importlib.import_module("unionbounds.borel_cantelli")
    cls = getattr(bc, class_name)
    calls = dict.fromkeys((method for method, _ in LAYERS.MODEL_METHODS), 0)
    for name in calls:

        def counted(*args, _name=name, _call=getattr(cls, name), **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    explicit = class_name == "ExplicitSequence"
    model = cls(random_system(5, 6, 30, "dense") if explicit else Fraction(1, 3))
    n = 6  # one bc row: lower at (1, n), upper at (m, n), Kochen-Stone at n
    bc.bc_lower_estimate(model, n)
    bc.bc_upper_estimate(model, 3, n)
    bc.kochen_stone_ratio(model, n)
    assert [name for name, count in calls.items() if count == 0] == []
