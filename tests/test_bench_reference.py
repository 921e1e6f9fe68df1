"""The benchmark workloads reproduce their stored reference CSVs.

``perfbench/reference.json`` holds each workload's CSV at the default
seed. Running the CLI in process on the same config must give the same
bytes, so a change of physics fails here as well as in the benchmark.
"""

import importlib.util
import pathlib
import sys
from unittest import mock

import pytest

from talbotlau import cli

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load("workloads")
# check.py imports its sibling module by its plain name
with mock.patch.dict(sys.modules, {"workloads": WORKLOADS}):
    CHECK = _load("check")
REFERENCE = CHECK.load_reference()


@pytest.mark.parametrize("name", list(WORKLOADS.WORKLOADS))
def test_workload_csv_matches_reference(name, tmp_path):
    workload = WORKLOADS.WORKLOADS[name]
    seed = WORKLOADS.DEFAULT_SEED
    config = tmp_path / "config.ini"
    config.write_text(workload.config_text(seed), encoding="utf-8")
    out = tmp_path / "out.csv"
    assert cli.main([workload.command, "--config", str(config), "--out", str(out)]) == 0
    text = out.read_bytes().decode("utf-8")
    assert CHECK.check_csv(text, name, seed, REFERENCE[name]) == []
    assert text == REFERENCE[name]["csv"]
