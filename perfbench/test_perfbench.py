"""Self-test of the benchmark at a forced small grid.

    python3 -m pytest -q perfbench

Runs every workload definition once per trace mode at the tiny size and
checks that every metric BENCHMARK.json names is emitted, that tracing
leaves talbotlau untouched, and that the output checks catch bad CSVs.
"""

import json
import math
import shutil
import subprocess
import sys

import pytest

import check
import layers
import run
from workloads import WORKLOADS

sys.path.insert(0, str(run.ROOT / "src"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_declared_metric_is_emitted(name, trace):
    record = run.measure(name, seed=7, seconds=0, trace=trace, tiny=True, setup_samples=1)
    declared = run.declared_metrics()
    line = run.result_line(record, declared)
    kind = "per_layer" if trace else "end_to_end"
    assert list(line["metrics"]) == [metric for metric, _ in declared[kind]]
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= run.MIN_RUNS
    for entry in line["metrics"].values():
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])
    json.dumps(line)


def test_tracing_restores_every_wrapped_function(tmp_path):
    from talbotlau import cli

    originals = {(m, a): getattr(sys.modules[m], a) for m, a, _ in layers.TARGETS if m in sys.modules}
    tracer = layers.Tracer()
    config = tmp_path / "tiny.ini"
    config.write_text(WORKLOADS["fringe-wide"].config_text(7, tiny=True), encoding="utf-8")
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert cli.main(["fringe", "--config", str(config), "--out", str(tmp_path / "o.csv")]) == 0
            raise RuntimeError("leave the block early")
    for (module, attr), fn in originals.items():
        assert getattr(sys.modules[module], attr) is fn
    metrics = tracer.metrics()
    # a layer this command never reaches reports zero calls
    assert metrics["sensing.calls"] == 0
    assert metrics["propagation.calls"] == 3 * 2
    assert tracer.self_time_sum() == pytest.approx(tracer.spans["cli"].busy_s, abs=1e-9)


def test_missing_target_reports_zero_calls(monkeypatch):
    monkeypatch.setattr(layers, "TARGETS", layers.TARGETS + (("talbotlau.interferometer", "gone", "sensing"),))
    tracer = layers.Tracer()
    with tracer.installed():
        pass
    assert tracer.metrics()["sensing.calls"] == 0


def test_checks_reject_changed_or_out_of_range_output():
    ref = check.load_reference()["fringe-wide"]
    assert check.check_csv(ref["csv"], "fringe-wide", ref["seed"], ref) == []
    header, first, *rest = ref["csv"].split("\n")
    offset, value = first.split(",")
    shifted = f"{offset},{float(value) * (1 + 1e-5):.8e}"
    assert check.check_csv("\n".join([header, shifted, *rest]), "fringe-wide", ref["seed"], ref)
    assert check.check_csv("\n".join([header, f"{offset},1.5", *rest]), "fringe-wide", ref["seed"], None)
    # at another seed, the seeded column of field-readout is not compared
    field = check.load_reference()["field-readout"]
    assert check.check_csv(field["csv"], "field-readout", 1, field) == []


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fringe-wide", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
