import csv
import importlib.util
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from talbotlau.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]

FAST_CONFIG = """
[beamline]
second_slit_width = 2e-6
n_sources = 8
[sweep]
energy_points = 3
energy_min_ev = 8500
energy_max_ev = 9100
current_min = -0.15
current_max = 0.15
current_points = 121
n_offsets = 8
[sensing]
seconds = 40
[run]
seed = 42
"""


@pytest.fixture()
def fast_config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(FAST_CONFIG)
    return str(path)


def run_cli(args, capsys=None):
    code = main(args)
    return code


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def all_finite(rows):
    for row in rows:
        for cell in row[1:] if not _is_numeric(row[0]) else row:
            if _is_numeric(cell):
                assert math.isfinite(float(cell))
    return True


def _is_numeric(cell):
    try:
        float(cell)
        return True
    except ValueError:
        return False


def test_kinematics_command(tmp_path, fast_config_path):
    out = tmp_path / "kin.csv"
    assert run_cli(["kinematics", "--config", fast_config_path, "--out", str(out)]) == 0
    header, rows = read_csv(str(out))
    assert header == ["quantity", "value", "unit"]
    quantities = {row[0] for row in rows}
    assert "de_broglie_wavelength" in quantities
    assert "resonant_energy_n4" in quantities
    by_name = {row[0]: float(row[1]) for row in rows}
    assert by_name["resonant_energy_n4"] == pytest.approx(8800.0, rel=0.01)
    assert by_name["resonant_energy_n5"] == pytest.approx(5600.0, rel=0.01)
    assert all(len(row) == 3 for row in rows)
    assert all_finite(rows)


def test_fringe_command(tmp_path, fast_config_path):
    out = tmp_path / "fringe.csv"
    assert run_cli(["fringe", "--config", fast_config_path, "--out", str(out)]) == 0
    header, rows = read_csv(str(out))
    assert header == ["offset_m", "throughput"]
    assert len(rows) == 8
    offsets = np.array([float(r[0]) for r in rows])
    assert np.allclose(offsets, np.arange(8) * 1e-7 / 8)
    assert all(float(r[1]) >= 0 for r in rows)


def test_sweep_energy_command(tmp_path, fast_config_path):
    out = tmp_path / "sweep.csv"
    assert run_cli(["sweep-energy", "--config", fast_config_path, "--out", str(out)]) == 0
    header, rows = read_csv(str(out))
    assert header == ["energy_eV", "contrast"]
    assert len(rows) == 3
    assert all(0.0 <= float(r[1]) <= 1.0 for r in rows)


def test_sweep_field_period(tmp_path, fast_config_path):
    out = tmp_path / "field.csv"
    assert run_cli(["sweep-field", "--config", fast_config_path, "--out", str(out)]) == 0
    header, rows = read_csv(str(out))
    assert header == ["current_A", "B_T", "throughput"]
    current = np.array([float(r[0]) for r in rows])
    thr = np.array([float(r[2]) for r in rows])
    period = dominant_period(current, thr)
    # one grating period of deflection at 10 keV over 6.12 mm per the
    # nominal cradle field: about 105 mA
    assert period == pytest.approx(0.10525, abs=0.005)


def test_sweep_field_period_with_tuned_efficiency(tmp_path):
    text = FAST_CONFIG + "[cradle]\nefficiency = 1.4824\n"
    path = tmp_path / "tuned.cfg"
    path.write_text(text)
    out = tmp_path / "field.csv"
    assert run_cli(["sweep-field", "--config", str(path), "--out", str(out)]) == 0
    _, rows = read_csv(str(out))
    current = np.array([float(r[0]) for r in rows])
    thr = np.array([float(r[2]) for r in rows])
    assert dominant_period(current, thr) == pytest.approx(0.071, abs=0.005)


def dominant_period(x, y):
    y = y - y.mean()
    n = len(y)
    padded = np.zeros(64 * n)
    padded[:n] = y
    spectrum = np.abs(np.fft.rfft(padded))
    freqs = np.fft.rfftfreq(padded.size, d=x[1] - x[0])
    return 1.0 / freqs[np.argmax(spectrum)]


def test_step_command_deterministic(tmp_path, fast_config_path):
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    assert run_cli(["step", "--config", fast_config_path, "--out", str(out1)]) == 0
    assert run_cli(["step", "--config", fast_config_path, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header, rows = read_csv(str(out1))
    assert header == ["t_s", "counts"]
    assert len(rows) == 40
    assert all(float(r[1]).is_integer() for r in rows)


def test_step_seed_flag_changes_output(tmp_path):
    # the seed is set in the config file only; two files that differ in
    # [run] seed alone give different count series
    outputs = []
    for seed in (42, 43):
        path = tmp_path / f"seed{seed}.cfg"
        path.write_text(f"[run]\nseed = {seed}\n")
        out = tmp_path / f"s{seed}.csv"
        assert run_cli(["step", "--config", str(path), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] != outputs[1]


def test_sensitivity_command(tmp_path, fast_config_path):
    out = tmp_path / "sens.csv"
    assert run_cli(["sensitivity", "--config", fast_config_path, "--out", str(out)]) == 0
    _, rows = read_csv(str(out))
    by_name = {r[0]: float(r[1]) for r in rows}
    assert by_name["sensitivity"] == pytest.approx(9.5e-9, rel=0.15)
    assert by_name["expected_step_snr"] == pytest.approx(4.5, abs=1.0)


# the default-config CSVs of the two commands that read a fringe curve
# through sensing's periodic interpolation, byte for byte: the other
# tests of these commands check their output only to a tolerance
SENSITIVITY_CSV = """quantity,value,unit
count_rate,2.50000000e+05,s^-1
fringe_contrast,6.00000000e-02,1
field_slope,5.23354634e+10,s^-1 T^-1
sensitivity,9.55375128e-09,T Hz^-1/2
step_field,4.30000000e-08,T
expected_step_snr,4.50084985e+00,1
"""
STEP_COUNTS = (
    [251820, 252713, 252086, 252383, 252495, 252486, 252160, 252534, 252595, 251387]
    + [249768, 249649, 249512, 249203, 250602, 250945, 250619, 250065, 249993, 249932]
    + [251995, 251874, 251877, 251917, 252410, 251953, 251650, 252206, 251870, 251911]
    + [249976, 249994, 250560, 250623, 250380, 249544, 249619, 250169, 250193, 249617]
)


@pytest.mark.parametrize(
    "command, expected",
    [
        ("sensitivity", SENSITIVITY_CSV),
        ("step", "t_s,counts\n" + "".join(f"{t},{c}\n" for t, c in enumerate(STEP_COUNTS))),
    ],
)
def test_default_config_csv_keeps_its_bytes(tmp_path, command, expected):
    out = tmp_path / f"{command}.csv"
    assert run_cli([command, "--out", str(out)]) == 0
    assert out.read_bytes() == expected.encode()


def test_scale_command(tmp_path):
    out = tmp_path / "scale.csv"
    assert run_cli(["scale", "--out", str(out)]) == 0
    header, rows = read_csv(str(out))
    assert header == ["parameter", "value"]
    by_name = {r[0]: float(r[1]) for r in rows}
    assert by_name["scaled_sensitivity"] == pytest.approx(430e-15, rel=0.05)


def test_validate_command(tmp_path, fast_config_path):
    out = tmp_path / "val.csv"
    assert run_cli(["validate", "--config", fast_config_path, "--out", str(out)]) == 0
    header, rows = read_csv(str(out))
    assert header == ["leg", "dx_m", "required_dx_m", "status"]
    assert {r[0] for r in rows} == {"source_to_slit2", "slit2_to_g1", "g1_to_g2", "g2_to_g3"}
    assert all(r[3] == "pass" for r in rows)


def test_float_format_nine_significant_digits(tmp_path, fast_config_path):
    out = tmp_path / "kin.csv"
    run_cli(["kinematics", "--config", fast_config_path, "--out", str(out)])
    _, rows = read_csv(str(out))
    value = dict((r[0], r[1]) for r in rows)["de_broglie_wavelength"]
    mantissa, _, _ = value.partition("e")
    assert len(mantissa.replace("-", "").replace(".", "")) == 9


def test_lf_line_endings(tmp_path, fast_config_path):
    out = tmp_path / "kin.csv"
    run_cli(["kinematics", "--config", fast_config_path, "--out", str(out)])
    raw = out.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_every_command_emits_consistent_finite_csv(tmp_path, fast_config_path):
    commands = ["kinematics", "fringe", "sweep-energy", "sweep-field", "step", "sensitivity", "scale", "validate"]
    for command in commands:
        out = tmp_path / f"{command}.csv"
        assert run_cli([command, "--config", fast_config_path, "--out", str(out)]) == 0
        header, rows = read_csv(str(out))
        assert rows, command
        for row in rows:
            assert len(row) == len(header), command
            for cell in row:
                if _is_numeric(cell):
                    assert math.isfinite(float(cell)), command


def test_bad_config_exits_nonzero(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("[beamline]\ngrating_gap = -1\n")
    assert run_cli(["kinematics", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "grating_gap" in err


def test_sweep_energy_outside_the_gun_range_exits_naming_key_and_line(tmp_path, capsys):
    path = tmp_path / "low.cfg"
    path.write_text("[sweep]\nenergy_min_ev = 3000\n")
    assert run_cli(["sweep-energy", "--config", str(path)]) == 1
    assert "line 2: key 'energy_min_ev'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, command, message",
    [
        ("[beamline]\nenergy_ev = inf\n", "fringe", "line 2: key 'energy_ev'"),
        # a geometry whose grid count overflows a float: refused before ceil
        ("[beamline]\ngrating_gap = 1e300\n", "validate", "beamline grid would need"),
        # a pinned count too large names the key to lower
        ("[beamline]\ngrid_points = 100000000\n", "validate", "lower [beamline] grid_points"),
        # a window no count can sample is the geometry's fault, even with a
        # pinned count: the required step underflows to 0, or the window is inf
        ("[beamline]\nslit_separation = 1e-300\ngrid_points = 1001\n", "fringe", "likely misconfigured"),
        ("[beamline]\nslit_separation = 1e-320\ngrid_points = 1001\n", "validate", "likely misconfigured"),
        # the sinusoid fringe's offset step period / 256 underflows to 0
        ("[beamline]\ngrating_period = 1e-322\n", "kinematics", "line 2: key 'grating_period'"),
        # readout inputs that overflow or divide by zero are refused at parse
        # time, whatever the command
        ("[field]\nregion_length = 1e200\n", "fringe", "line 2: key 'region_length'"),
        ("[beamline]\nenergy_ev = 1e-300\n", "scale", "line 2: key 'energy_ev'"),
    ],
)
def test_infinite_or_huge_input_exits_with_an_error_line(tmp_path, capsys, text, command, message):
    path = tmp_path / "huge.cfg"
    path.write_text(text)
    assert run_cli([command, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_kinematics_skips_resonances_whose_wavelength_underflows(tmp_path):
    # d^2 underflows to 0 for this period, so no order has an energy
    path = tmp_path / "tiny_period.cfg"
    path.write_text("[beamline]\ngrating_period = 1e-300\n")
    out = tmp_path / "kin.csv"
    assert run_cli(["kinematics", "--config", str(path), "--out", str(out)]) == 0
    _, rows = read_csv(str(out))
    assert [row[0] for row in rows] == ["kinetic_energy", "de_broglie_wavelength", "talbot_length"]


def test_missing_config_file_exits_nonzero(capsys):
    assert run_cli(["kinematics", "--config", "/nonexistent/path.cfg"]) == 1
    assert "error" in capsys.readouterr().err


def test_retired_propagator_flag_exits_nonzero(capsys):
    # the beamline has one kernel, so no flag chooses it; argparse stops
    # before any beamline is built
    with pytest.raises(SystemExit) as exc:
        main(["fringe", "--propagator", "direct"])
    assert exc.value.code != 0
    assert "--propagator" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--seed", "1"), ("--sources", "2"), ("--grid", "4096")])
def test_retired_override_flag_exits_nonzero(flag, value, capsys):
    # [run] seed, [beamline] n_sources and grid_points are set in the
    # config file only; argparse stops before any config is read
    with pytest.raises(SystemExit) as exc:
        main(["fringe", flag, value])
    assert exc.value.code != 0
    assert flag in capsys.readouterr().err


def modules_after_run(tmp_path, workload, command):
    """The modules loaded by one CLI run of ``command`` in a fresh process,
    on ``workload``'s tiny benchmark config, and the CSV it wrote."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    config = tmp_path / "tiny.ini"
    config.write_text(workloads.WORKLOADS[workload].config_text(7, tiny=True), encoding="utf-8")
    script = (
        "import sys\n"
        "from talbotlau import cli\n"
        "assert cli.main([sys.argv[1], '--config', sys.argv[2], '--out', sys.argv[3]]) == 0\n"
        "print('\\n'.join(sorted(sys.modules)))\n"
    )
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), path])))
    out = tmp_path / f"{command}.csv"
    proc = subprocess.run(
        [sys.executable, "-c", script, command, str(config), str(out)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split(), out.read_text(encoding="utf-8")


def test_a_fringe_run_imports_no_scipy(tmp_path):
    # scipy is a test-only dependency: importing it cost a CLI process
    # about 0.4 s of its start-up, so the package's FFTs are numpy.fft's
    modules, csv_text = modules_after_run(tmp_path, "fringe-wide", "fringe")
    assert [m for m in modules if m == "scipy" or m.startswith("scipy.")] == []
    assert csv_text.startswith("offset_m,")


@pytest.mark.parametrize("command", ["sweep-field", "fringe"])
def test_a_random_phase_run_imports_no_numpy_random(tmp_path, command):
    # the per-slit phases are numpy's PCG64 stream computed in plain
    # Python: numpy.random and the hashlib and OpenSSL modules it imports
    # cost a process 5.7 MiB of resident memory
    modules, csv_text = modules_after_run(tmp_path, "field-readout", command)
    assert csv_text.count("\n") > 1
    assert [m for m in modules if m == "numpy.random" or m.startswith("numpy.random.")] == []
