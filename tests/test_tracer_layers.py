"""Every layer the benchmark's tracer wraps is a function of the package, so
a rename fails here instead of quietly emptying that layer's metrics."""

import importlib

import pytest

from perfbench.tracer import LAYERS, PACKAGE


@pytest.mark.parametrize("layer", LAYERS)
def test_traced_layer_resolves(layer):
    module, name = layer.split(".")
    assert callable(getattr(importlib.import_module(f"{PACKAGE}.{module}"), name, None))
