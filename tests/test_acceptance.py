"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The full module takes
a few minutes; criterion 5 dominates (full-beamline energy sweeps on the
default wide-slit grids).
"""

import math

import numpy as np
import pytest

from dataclasses import replace

from talbotlau import (
    ApertureSpec,
    BeamEnergy,
    BeamlineConfig,
    CradleSpec,
    GridSpec,
    contrast,
    cradle_field,
    de_broglie_wavelength,
    deflection_per_field,
    field_for_deflection,
    misalignment_factor,
    required_dx,
    resonant_energies,
    scaled_sensitivity,
    scan_fringe,
    sensor_report,
    simulate_step_response,
    sinusoid_fringe,
    step_snr,
    sweep_energy,
    translate_grating,
)
from talbotlau.cli import main as cli_main
from talbotlau.interferometer import _fringe_totals

from kernels import carried_from_run, propagate_direct

D = 1e-7
GAP = 3.06e-3


def _report(criterion, detail):
    print(f"\n[acceptance] criterion {criterion}: PASS — {detail}")


def test_criterion_1_kinematics_oracle():
    # resonance-order wavelengths of the 3.06 mm / 100 nm beamline and the
    # energies that produce them (n=4 -> 8.8 keV, n=5 -> 5.6 keV)
    res = dict(resonant_energies(GAP, D, 5))
    for n, lam_quoted, e_quoted in ((4, 13.1e-12, 8800.0), (5, 16.3e-12, 5600.0)):
        lam_n = de_broglie_wavelength(BeamEnergy(res[n]))
        assert lam_n == pytest.approx(lam_quoted, abs=0.05e-12)
        assert res[n] == pytest.approx(e_quoted, rel=0.01)
    _report(1, f"n=4: {res[4]:.0f} eV / {de_broglie_wavelength(BeamEnergy(res[4]))*1e12:.2f} pm, "
               f"n=5: {res[5]:.0f} eV / {de_broglie_wavelength(BeamEnergy(res[5]))*1e12:.2f} pm")


def test_criterion_2_field_formulas():
    b71 = cradle_field(CradleSpec(), 0.071)
    assert b71 == pytest.approx(1.2e-6, abs=0.05e-6)
    b2p5 = cradle_field(CradleSpec(), 2.5e-3)
    assert b2p5 == pytest.approx(43e-9, abs=1e-9)
    b_period = abs(field_for_deflection(100e-9, 6.12e-3, BeamEnergy(1e4)))
    assert b_period == pytest.approx(1.8e-6, abs=0.05e-6)
    _report(2, f"71 mA -> {b71*1e6:.3f} uT, 2.5 mA -> {b2p5*1e9:.1f} nT, "
               f"one-period field {b_period*1e6:.3f} uT")


def test_criterion_3_propagator_equivalence():
    lam = 13.1e-12
    n = 2048
    dx = 4.2e-6 / n
    grid = GridSpec(-(n - 1) / 2 * dx, dx, n)
    x = grid.x
    slits = (np.abs(x - 0.75e-6) <= 0.3e-6) | (np.abs(x + 0.75e-6) <= 0.3e-6)
    field = slits.astype(complex)
    direct = propagate_direct(field, grid, lam, GAP)
    paraxial = carried_from_run(field, grid, lam, GAP)
    i_d = np.abs(direct) ** 2
    i_p = np.abs(paraxial) ** 2
    l2 = float(np.linalg.norm(i_p - i_d) / np.linalg.norm(i_d))
    assert l2 < 1e-3

    # far-field two-slit period against the analytic lambda z / a
    separation, dz = 1.5e-6, 2.0
    src = GridSpec(-2e-6, 1e-9, 4001)
    xs = src.x
    two = (np.abs(xs - separation / 2) <= 0.15e-6) | (np.abs(xs + separation / 2) <= 0.15e-6)
    target = GridSpec(-60e-6, 30e-9, 4001)
    assert src.dx <= required_dx(lam, dz, 0.5 * src.span + 0.5 * target.span)
    out = propagate_direct(two.astype(complex), src, lam, dz, target)
    intensity = np.abs(out) ** 2
    peaks = [
        i
        for i in range(1, intensity.size - 1)
        if intensity[i] > intensity[i - 1]
        and intensity[i] > intensity[i + 1]
        and intensity[i] > 0.3 * intensity.max()
    ]
    period = float(np.diff(target.x[peaks]).mean())
    expected = lam * dz / separation
    assert period == pytest.approx(expected, rel=0.02)
    _report(3, f"L2(paraxial, direct) = {l2:.2e}; fringe period "
               f"{period*1e6:.3f} um vs {expected*1e6:.3f} um")


def test_criterion_4_fringe_periodicity_and_translation():
    cfg = BeamlineConfig()  # default wide-slit beamline, 32 sources
    # one scan read at both offsets: a scan is the same bits on every run
    t_a, t_b = _fringe_totals(cfg, np.array([0.3 * D, 1.3 * D]))
    rel_period = abs(t_b - t_a) / t_a
    assert rel_period <= 1e-6

    shifted = replace(cfg, gratings=tuple(translate_grating(g, D) for g in cfg.gratings))
    t_c = _fringe_totals(shifted, np.array([0.3 * D]))[0]
    rel_shift = abs(t_c - t_a) / t_a
    assert rel_shift <= 1e-6
    _report(4, f"period residual {rel_period:.2e}, comb-translation residual {rel_shift:.2e}")


def test_criterion_5_contrast_resonances():
    # coarse-grid smoke reproduction: 8 energies x 8 offsets at defaults,
    # bracketing both resonances and the 7 keV valley
    cfg = BeamlineConfig()
    energies = [4500.0, 4750.0, 5600.0, 6750.0, 7000.0, 7500.0, 8800.0, 10000.0]
    swept = dict(sweep_energy(cfg, energies, n_offsets=8))
    assert swept[5600.0] > swept[4750.0] and swept[5600.0] > swept[6750.0]
    assert swept[8800.0] > swept[7500.0] and swept[8800.0] > swept[10000.0]
    assert swept[7000.0] < swept[5600.0] and swept[7000.0] < swept[8800.0]

    # peak contrasts with the 2 um and 30 um second slits agree within 20%
    narrow = replace(cfg, second_slit=ApertureSpec(2e-6))
    window_5 = [5200.0, 5600.0, 6000.0]
    window_9 = [8500.0, 8800.0, 9100.0]
    peaks = {}
    for label, config in (("wide", cfg), ("narrow", narrow)):
        for name, window in (("5.6", window_5), ("8.8", window_9)):
            values = [contrast(scan_fringe(replace(config, energy=BeamEnergy(e)), 16)) for e in window]
            peaks[(label, name)] = max(values)
    for name in ("5.6", "8.8"):
        wide, nar = peaks[("wide", name)], peaks[("narrow", name)]
        assert abs(wide - nar) / max(wide, nar) < 0.20
    _report(5, "smoke sweep " + ", ".join(f"{e/1e3:.2f} keV: {swept[e]:.3f}" for e in energies)
               + f"; peak agreement 5.6 keV {peaks[('narrow','5.6')]:.3f}/{peaks[('wide','5.6')]:.3f}, "
               + f"8.8 keV {peaks[('narrow','8.8')]:.3f}/{peaks[('wide','8.8')]:.3f}")


def test_criterion_6_misalignment_factor():
    factor = misalignment_factor(33e-6, 1e-3, D)
    assert factor == pytest.approx(0.42, abs=0.02)
    _report(6, f"contrast multiplier {factor:.4f} (reduction {1/factor:.2f})")


def test_criterion_7_sensitivity_chain():
    per_field = deflection_per_field(6.12e-3, BeamEnergy(1e4))
    curve = sinusoid_fringe(D, 0.06)
    bias = D / 4
    rate = 2.5e5

    snrs = [
        step_snr(simulate_step_response(curve, bias, 43e-9, rate, 40, seed, per_field=per_field))
        for seed in range(20)
    ]
    mean_snr = float(np.mean(snrs))
    assert mean_snr == pytest.approx(4.5, abs=1.0)

    report = sensor_report(curve, bias, rate, per_field)
    assert report.sensitivity == pytest.approx(9.5e-9, rel=0.15)

    projected = scaled_sensitivity(9.5e-9, 10.0 / 3.0, 20.0, 1e4)
    assert projected == pytest.approx(430e-15, rel=0.05)
    _report(7, f"step SNR {mean_snr:.2f} (20 seeds), sensitivity "
               f"{report.sensitivity*1e9:.2f} nT/sqrt(Hz), scaled {projected*1e15:.0f} fT/sqrt(Hz)")


def test_criterion_8_byte_identical_reruns(tmp_path):
    config_text = (
        "[beamline]\n"
        "second_slit_width = 2e-6\n"
        "n_sources = 8\n"
        "[sweep]\n"
        "energy_points = 2\n"
        "energy_min_ev = 8500\n"
        "energy_max_ev = 9000\n"
        "current_points = 21\n"
        "n_offsets = 8\n"
        "[run]\n"
        "seed = 42\n"
    )
    path = tmp_path / "run.cfg"
    path.write_text(config_text)
    commands = ["kinematics", "fringe", "sweep-energy", "sweep-field", "step", "sensitivity", "scale", "validate"]
    for command in commands:
        out1 = tmp_path / f"{command}-1.csv"
        out2 = tmp_path / f"{command}-2.csv"
        assert cli_main([command, "--config", str(path), "--out", str(out1)]) == 0
        assert cli_main([command, "--config", str(path), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes(), command
    _report(8, f"{len(commands)} commands byte-identical on rerun")
