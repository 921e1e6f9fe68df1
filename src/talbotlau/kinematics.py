"""Beam kinematics: de Broglie wavelength, Talbot length, resonance energies.

Energies are kinetic and quoted in electron-volts; everything else is SI.
Wavelengths keep the first relativistic correction, which shifts electron
values by a few tenths of a percent in the keV range.
"""

from dataclasses import dataclass

import math

from . import constants as const

__all__ = [
    "ParticleSpec",
    "BeamEnergy",
    "ELECTRON",
    "de_broglie_wavelength",
    "talbot_length",
    "resonant_energies",
]


@dataclass(frozen=True)
class ParticleSpec:
    """Charge [C] and mass [kg] of the beam particle."""

    charge: float
    mass: float

    def __post_init__(self):
        if not self.mass > 0.0:
            raise ValueError("particle mass must be positive")

    @property
    def rest_energy(self) -> float:
        """m c^2 [J]."""
        return self.mass * const.C**2


ELECTRON = ParticleSpec(charge=-const.E_CHARGE, mass=const.ELECTRON_MASS)


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


def de_broglie_wavelength(energy: BeamEnergy, particle: ParticleSpec = ELECTRON) -> float:
    """Matter wavelength [m] for a kinetic energy.

    Uses lambda = h / sqrt(2 m E (1 + E / (2 m c^2))), i.e. h/p with the
    relativistic momentum.
    """
    e_j = energy.joules
    p = math.sqrt(2.0 * particle.mass * e_j * (1.0 + e_j / (2.0 * particle.rest_energy)))
    return const.H / p


def talbot_length(period: float, wavelength: float) -> float:
    """Grating self-imaging distance 2 d^2 / lambda [m]."""
    if not period > 0.0:
        raise ValueError("grating period must be positive")
    if not wavelength > 0.0:
        raise ValueError("wavelength must be positive")
    return 2.0 * period * period / wavelength


def _energy_for_wavelength(wavelength, particle):
    """Kinetic energy [eV] whose ``de_broglie_wavelength`` is ``wavelength``.

    Exact inverse of p = h / lambda: E = (pc)^2 / (sqrt((pc)^2 + (mc^2)^2) + mc^2),
    a form that keeps full precision for E << mc^2.
    """
    pc = const.H * const.C / wavelength
    rest = particle.rest_energy
    return pc * pc / (math.sqrt(pc * pc + rest * rest) + rest) / const.EV


def resonant_energies(
    separation: float,
    period: float,
    n_max: int,
    particle: ParticleSpec = ELECTRON,
    max_wavelength: float = 1e-9,
) -> list[tuple[int, float]]:
    """Energies at which the gap equals n half self-imaging lengths.

    Solves separation = n * L_T(E) / 2, i.e. lambda_n = n d^2 / L, for each
    integer n in [1, n_max]. Returns (n, energy_ev) pairs; orders whose
    wavelength exceeds ``max_wavelength`` are skipped.
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
        if lam > max_wavelength:
            continue
        out.append((n, _energy_for_wavelength(lam, particle)))
    return out
