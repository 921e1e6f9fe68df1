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

# _fringe_totals reads G3 with comb_throughput and builds no per-offset
# mask, it builds every plane with elements.transmission, and it carries
# each leg in place with propagation._carry, so the tracer's G3 mask,
# apply_plane and propagate targets are gone on purpose and their metrics
# read zero calls
RETIRED = {
    ("talbotlau.interferometer", "grating_amplitude"),
    ("talbotlau.interferometer", "apply_plane"),
    ("talbotlau.interferometer", "propagate"),
}
TRACED = [(m, a) for m, a, _ in LAYERS.TARGETS]


@pytest.mark.parametrize(("module_name", "attr"), [t for t in TRACED if t not in RETIRED])
def test_trace_target_is_callable(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


@pytest.mark.parametrize(("module_name", "attr"), sorted(RETIRED))
def test_retired_trace_target_is_absent(module_name, attr):
    assert (module_name, attr) in TRACED
    assert not hasattr(importlib.import_module(module_name), attr)

