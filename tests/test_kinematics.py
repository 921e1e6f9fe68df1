import math

import numpy as np
import pytest

from talbotlau import (
    BeamEnergy,
    de_broglie_wavelength,
    resonant_energies,
    talbot_length,
)
from talbotlau import constants as const

GAP = 3.06e-3
PERIOD = 1e-7


def nonrelativistic_wavelength(energy_ev):
    # independent oracle: h / sqrt(2 m E)
    return const.H / math.sqrt(2.0 * const.ELECTRON_MASS * energy_ev * const.EV)


def test_wavelength_at_10kev():
    # frozen from direct evaluation; nonrelativistic value is 12.26 pm
    lam = de_broglie_wavelength(BeamEnergy(1e4))
    assert lam == pytest.approx(12.20e-12, abs=0.02e-12)
    assert nonrelativistic_wavelength(1e4) == pytest.approx(12.26e-12, abs=0.01e-12)


def test_wavelength_at_5600ev_matches_quoted_value():
    lam = de_broglie_wavelength(BeamEnergy(5600.0))
    assert lam == pytest.approx(16.3e-12, abs=0.05e-12)


def test_wavelengths_at_resonance_orders():
    # the quoted 13.1 pm / 16.3 pm pair are the n=4 and n=5 resonance
    # wavelengths n d^2 / L of the 3.06 mm beamline
    for n, quoted in ((4, 13.1e-12), (5, 16.3e-12)):
        assert n * PERIOD**2 / GAP == pytest.approx(quoted, abs=0.05e-12)
        [(_, e_ev)] = [(m, e) for m, e in resonant_energies(GAP, PERIOD, n) if m == n]
        assert de_broglie_wavelength(BeamEnergy(e_ev)) == pytest.approx(quoted, abs=0.05e-12)


def test_talbot_length_values():
    assert talbot_length(100e-9, 13.1e-12) == pytest.approx(1.527e-3, rel=1e-3)
    assert talbot_length(100e-9, 16.3e-12) == pytest.approx(1.227e-3, rel=1e-3)


def test_talbot_length_scaling():
    d, lam = 87e-9, 14e-12
    assert talbot_length(d, 2 * lam) == pytest.approx(0.5 * talbot_length(d, lam), rel=1e-12)


def test_talbot_length_rejects_nonpositive():
    with pytest.raises(ValueError):
        talbot_length(0.0, 13e-12)
    with pytest.raises(ValueError):
        talbot_length(1e-7, -1e-12)


def test_resonant_energies_match_quoted_maxima():
    res = dict(resonant_energies(GAP, PERIOD, 5))
    assert res[4] == pytest.approx(8800.0, rel=0.01)
    assert res[5] == pytest.approx(5600.0, rel=0.01)


def test_resonant_energies_doubling_separation_halves_wavelength():
    n = 3
    e1 = dict(resonant_energies(GAP, PERIOD, n))[n]
    e2 = dict(resonant_energies(2 * GAP, PERIOD, n))[n]
    lam1 = de_broglie_wavelength(BeamEnergy(e1))
    lam2 = de_broglie_wavelength(BeamEnergy(e2))
    assert lam2 == pytest.approx(0.5 * lam1, rel=1e-9)


def test_resonant_energies_skips_long_wavelengths():
    # a 10 um gap gives lambda_n = n nm, so only n = 1 stays within 1 nm
    res = resonant_energies(10e-6, PERIOD, 10)
    assert [n for n, _ in res] == [1]


def test_resonant_energies_skips_wavelengths_that_underflow():
    # d^2 underflows to 0 for d = 1e-300, and no energy has lambda = 0
    assert resonant_energies(GAP, 1e-300, 8) == []


def test_wavelength_strictly_decreasing():
    energies = np.linspace(1e3, 20e3, 100)
    lams = [de_broglie_wavelength(BeamEnergy(e)) for e in energies]
    assert all(a > b for a, b in zip(lams, lams[1:]))


def test_relativistic_correction_below_0p6_percent_under_10kev():
    for e_ev in np.linspace(100.0, 1e4, 25):
        rel = de_broglie_wavelength(BeamEnergy(e_ev))
        nonrel = nonrelativistic_wavelength(e_ev)
        assert abs(rel - nonrel) / nonrel < 6e-3


def test_resonance_composition_roundtrip():
    for n, e_ev in resonant_energies(GAP, PERIOD, 6):
        lam = de_broglie_wavelength(BeamEnergy(e_ev))
        assert abs(GAP - n * talbot_length(PERIOD, lam) / 2.0) / GAP < 1e-12


def test_beam_energy_must_be_positive():
    with pytest.raises(ValueError):
        BeamEnergy(0.0)
    with pytest.raises(ValueError):
        BeamEnergy(-5.0)

