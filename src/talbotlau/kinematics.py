"""Beam kinematics: de Broglie wavelength, Talbot length, resonance energies.

The beam is made of electrons. Energies are kinetic and quoted in
electron-volts; everything else is SI. Wavelengths keep the first
relativistic correction, which shifts electron values by a few tenths of a
percent in the keV range.
"""

from dataclasses import dataclass

import math

from . import constants as const

__all__ = [
    "BeamEnergy",
    "de_broglie_wavelength",
    "talbot_length",
    "resonant_energies",
]


# electron rest energy m c^2 [J]
_REST_ENERGY = const.ELECTRON_MASS * const.C**2

# longest wavelength [m] that ``resonant_energies`` reports
_MAX_WAVELENGTH = 1e-9


@dataclass(frozen=True)
class BeamEnergy:
    """Kinetic beam energy [eV], strictly positive."""

    kinetic_energy_ev: float

    def __post_init__(self):
        if not self.kinetic_energy_ev > 0.0:
            raise ValueError("beam energy must be positive")

    @property
    def joules(self) -> float:
        return self.kinetic_energy_ev * const.EV


def de_broglie_wavelength(energy: BeamEnergy) -> float:
    """Matter wavelength [m] for a kinetic energy.

    Uses lambda = h / sqrt(2 m E (1 + E / (2 m c^2))), i.e. h/p with the
    relativistic momentum.
    """
    e_j = energy.joules
    p = math.sqrt(2.0 * const.ELECTRON_MASS * e_j * (1.0 + e_j / (2.0 * _REST_ENERGY)))
    return const.H / p


def talbot_length(period: float, wavelength: float) -> float:
    """Grating self-imaging distance 2 d^2 / lambda [m]."""
    if not period > 0.0:
        raise ValueError("grating period must be positive")
    if not wavelength > 0.0:
        raise ValueError("wavelength must be positive")
    return 2.0 * period * period / wavelength


def _energy_for_wavelength(wavelength):
    """Kinetic energy [eV] whose ``de_broglie_wavelength`` is ``wavelength``.

    Exact inverse of p = h / lambda: E = (pc)^2 / (sqrt((pc)^2 + (mc^2)^2) + mc^2),
    a form that keeps full precision for E << mc^2.
    """
    pc = const.H * const.C / wavelength
    rest = _REST_ENERGY
    return pc * pc / (math.sqrt(pc * pc + rest * rest) + rest) / const.EV


def resonant_energies(separation: float, period: float, n_max: int) -> list[tuple[int, float]]:
    """Energies at which the gap equals n half self-imaging lengths.

    Solves separation = n * L_T(E) / 2, i.e. lambda_n = n d^2 / L, for each
    integer n in [1, n_max]. Returns (n, energy_ev) pairs; orders whose
    wavelength exceeds 1 nm, or underflows to 0, are skipped.
    """
    if not separation > 0.0:
        raise ValueError("grating separation must be positive")
    if not period > 0.0:
        raise ValueError("grating period must be positive")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    out = []
    for n in range(1, n_max + 1):
        lam = n * period * period / separation
        if not 0.0 < lam <= _MAX_WAVELENGTH:
            continue
        out.append((n, _energy_for_wavelength(lam)))
    return out
