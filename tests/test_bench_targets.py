"""The benchmark's layer tracer patches talbotlau functions by name.

A traced name that no longer exists is skipped without error and reports
zero calls, so a rename in ``src`` would silently empty a per-layer
metric. These tests fail instead.
"""

import importlib
import importlib.util
import pathlib

import pytest

LAYERS_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _load_layers()


@pytest.mark.parametrize(("module_name", "attr"), [(m, a) for m, a, _ in LAYERS.TARGETS])
def test_trace_target_is_callable(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


def test_transfer_cache_reports_its_hits():
    module_name, attr = LAYERS.TRANSFER_CACHE
    assert callable(getattr(getattr(importlib.import_module(module_name), attr, None), "cache_info", None))
