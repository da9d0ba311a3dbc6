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
