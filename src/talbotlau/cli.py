"""Command-line front end: experiment commands writing CSV.

Every command reads one configuration file, runs a deterministic
computation and writes a single CSV table with a header row, LF line
endings and floats in 9-significant-digit scientific notation. Identical
(config, command) pairs produce byte-identical output.
"""

import argparse
import sys

import numpy as np

from .config import RunConfig, build_beamline, parse_config
from .interferometer import beamline_grid, leg_required_dx, scan_fringe, sweep_energy
from .kinematics import BeamEnergy, de_broglie_wavelength, resonant_energies, talbot_length
from .sensing import (
    cradle_field,
    deflection_per_field,
    predict_throughput,
    scaled_sensitivity,
    sensor_report,
    simulate_step_response,
    sinusoid_fringe,
)

__all__ = ["main"]

def _format_cell(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.8e}"
    return str(value)


def _write_csv(path, header, rows):
    text = "\n".join([",".join(header)] + [",".join(_format_cell(v) for v in row) for row in rows]) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _cmd_kinematics(cfg: RunConfig):
    b = cfg.beamline
    energy = BeamEnergy(b.energy_ev)
    lam = de_broglie_wavelength(energy)
    rows = [
        ("kinetic_energy", b.energy_ev, "eV"),
        ("de_broglie_wavelength", lam, "m"),
        ("talbot_length", talbot_length(b.grating_period, lam), "m"),
    ]
    for n, e_ev in resonant_energies(b.grating_gap, b.grating_period, n_max=8):
        rows.append((f"resonant_energy_n{n}", e_ev, "eV"))
    return ("quantity", "value", "unit"), rows


def _cmd_fringe(cfg: RunConfig):
    curve = scan_fringe(build_beamline(cfg), cfg.sweep.n_offsets)
    rows = list(zip(curve.offsets, curve.throughput))
    return ("offset_m", "throughput"), rows


def _cmd_sweep_energy(cfg: RunConfig):
    s = cfg.sweep
    energies = np.linspace(s.energy_min_ev, s.energy_max_ev, s.energy_points)
    results = sweep_energy(build_beamline(cfg), energies, n_offsets=s.n_offsets)
    return ("energy_eV", "contrast"), results


def _cmd_sweep_field(cfg: RunConfig):
    s = cfg.sweep
    beamline = build_beamline(cfg)
    curve = scan_fringe(beamline, s.n_offsets)
    per_field = deflection_per_field(cfg.field.region_length, beamline.energy)
    currents = np.linspace(s.current_min, s.current_max, s.current_points)
    fields = cradle_field(cfg.cradle, currents)
    rows = list(zip(currents, fields, predict_throughput(curve, fields, per_field)))
    return ("current_A", "B_T", "throughput"), rows


def _operating_point(cfg: RunConfig):
    """The assumed sinusoid fringe and the fringe shift per tesla [m/T]."""
    curve = sinusoid_fringe(cfg.beamline.grating_period, cfg.sensing.fringe_contrast)
    return curve, deflection_per_field(cfg.field.region_length, BeamEnergy(cfg.beamline.energy_ev))


def _cmd_step(cfg: RunConfig):
    curve, per_field = _operating_point(cfg)
    s = cfg.sensing
    counts = simulate_step_response(
        curve,
        bias_offset=s.bias_offset,
        field_step=s.step_field,
        rate_scale=s.count_rate,
        seconds=s.seconds,
        seed=cfg.run.seed,
        per_field=per_field,
        block_seconds=s.block_seconds,
    )
    return ("t_s", "counts"), list(enumerate(counts))


def _cmd_sensitivity(cfg: RunConfig):
    curve, per_field = _operating_point(cfg)
    s = cfg.sensing
    report = sensor_report(curve, s.bias_offset, s.count_rate, per_field)
    rows = [
        ("count_rate", report.count_rate, "s^-1"),
        ("fringe_contrast", s.fringe_contrast, "1"),
        ("field_slope", report.slope, "s^-1 T^-1"),
        ("sensitivity", report.sensitivity, "T Hz^-1/2"),
        ("step_field", s.step_field, "T"),
        ("expected_step_snr", abs(s.step_field) / report.sensitivity, "1"),
    ]
    return ("quantity", "value", "unit"), rows


def _cmd_scale(cfg: RunConfig):
    s = cfg.scale
    projected = scaled_sensitivity(s.base_sensitivity, s.length_ratio, s.concentrator_gain, s.area_ratio)
    rows = [
        ("base_sensitivity", s.base_sensitivity),
        ("length_ratio", s.length_ratio),
        ("concentrator_gain", s.concentrator_gain),
        ("area_ratio", s.area_ratio),
        ("scaled_sensitivity", projected),
    ]
    return ("parameter", "value"), rows


def _cmd_validate(cfg: RunConfig):
    beamline = build_beamline(cfg)
    grid = beamline_grid(beamline)
    rows = [
        (name, grid.dx, need, "pass" if grid.dx <= need else "fail")
        for name, need in leg_required_dx(beamline, grid.span)
    ]
    return ("leg", "dx_m", "required_dx_m", "status"), rows


_DISPATCH = {
    "kinematics": _cmd_kinematics,
    "sweep-energy": _cmd_sweep_energy,
    "sweep-field": _cmd_sweep_field,
    "fringe": _cmd_fringe,
    "step": _cmd_step,
    "sensitivity": _cmd_sensitivity,
    "scale": _cmd_scale,
    "validate": _cmd_validate,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="talbotlau",
        description="Three-grating near-field interferometer simulator and magnetometry toolkit.",
    )
    parser.add_argument("command", choices=_DISPATCH, help="the experiment to run")
    parser.add_argument("--config", metavar="PATH", help="configuration file (key = value with [section] headers)")
    parser.add_argument("--out", metavar="PATH", help="output CSV path (default: stdout)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = RunConfig()
        if args.config is not None:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = parse_config(fh.read())
        header, rows = _DISPATCH[args.command](cfg)
        _write_csv(args.out, header, rows)
    # ConfigError and SamplingError are ValueErrors
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
