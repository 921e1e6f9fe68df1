"""The simulated fringe against the analytic Talbot-Lau model (talbot_lau.py)."""

import numpy as np
import pytest

from talbotlau import BeamEnergy, BeamlineConfig, contrast, de_broglie_wavelength, resonant_energies, scan_fringe

from talbot_lau import fringe, harmonics, talbot_parameter


def model_contrast(s):
    return (s.max() - s.min()) / (s.max() + s.min())


def test_the_default_fringe_follows_the_analytic_model():
    # measured on the default beamline at 10 keV (eps = 3.7346): contrast
    # 0.30387 simulated against 0.30303 analytic, mean throughput 0.04247
    # against 0.04287 (-0.93%), and each fringe divided by its own mean
    # agrees at every offset to 9.2e-4. The model's truncation is about
    # 1e-5 of the mean and the default grid's G1 opens 0.349995 of its
    # span, so the residual is the simulated beam's: 32 point sources'
    # spherical waves through a 30 um slit light G1 over a finite,
    # partially coherent patch, not infinitely and incoherently
    cfg = BeamlineConfig()
    curve = scan_fringe(cfg, 16)
    g3 = cfg.gratings[2]
    assert all(g.period == g3.period and g.open_fraction == 0.35 for g in cfg.gratings)
    eps = talbot_parameter(de_broglie_wavelength(cfg.energy), cfg.grating_gap, g3.period)
    model = fringe(curve.offsets, g3.period, g3.open_fraction, eps)
    assert contrast(curve) == pytest.approx(model_contrast(model), abs=2e-3)
    sim = curve.throughput
    assert sim.mean() == pytest.approx(model.mean(), rel=0.015)
    assert np.max(np.abs(sim / sim.mean() - model / model.mean())) <= 2e-3


def test_resonant_energies_put_the_gap_at_whole_half_talbot_lengths():
    # at integer eps every phase of the model is a whole number of turns,
    # so each resonance has the eps = 0 fringe; the fringe is periodic in
    # eps, and its contrast has a shallow notch at each resonance: 0.508
    # there against 0.571 at 0.05 either side
    gap, d, f = 3.06e-3, 1e-7, 0.35
    offsets = np.arange(64) * (d / 64)
    at_zero = harmonics(f, 0.0, orders=2000)
    resonances = resonant_energies(gap, d, n_max=8)
    assert [n for n, _ in resonances] == list(range(1, 9))
    for n, e_ev in resonances:
        eps = talbot_parameter(de_broglie_wavelength(BeamEnergy(e_ev)), gap, d)
        assert eps == pytest.approx(n, rel=1e-12)
        assert np.allclose(harmonics(f, eps, orders=2000), at_zero, rtol=0.0, atol=1e-8 * at_zero[0].real)
    off_resonance = harmonics(f, 0.5, orders=2000)
    assert not np.allclose(off_resonance, at_zero, rtol=0.0, atol=1e-3 * at_zero[0].real)
    assert np.allclose(harmonics(f, 1.5, orders=2000), off_resonance, rtol=0.0, atol=1e-8 * at_zero[0].real)
    notch = model_contrast(fringe(offsets, d, f, 5.0, orders=2000))
    for eps in (4.95, 5.05):
        assert model_contrast(fringe(offsets, d, f, eps, orders=2000)) > notch + 0.05
