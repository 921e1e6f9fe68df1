"""Magnetometry layer: field generation, deflection, sensitivity.

Closed-form pieces around the fringe curve: the cube-edge coil ("cradle")
field per current, the impulse-approximation beam deflection per field,
fringe-curve readout at a deflection, Poisson-limited sensitivity, a
seeded on/off step-response simulator, and the geometric scaling of
sensitivity to larger devices. The field region enters only through its
length L along the beam, which the configuration's ``[field]`` section
holds: ``deflection_per_field`` turns it into the fringe shift per tesla,
``per_field`` [m/T], and every readout takes that scale.

Every readout uses one convention: a field B shifts the fringe by B times
the classical deflection q L^2 / (2 p) of the beam. A field applied inside
the simulated wave moves the fringe by about half that; the README's field
caveat gives the measured ratio, 2.01-2.04.
"""

from dataclasses import dataclass

import math

import numpy as np

from . import constants as const
from .interferometer import FringeCurve, _offsets
from .kinematics import BeamEnergy

__all__ = [
    "CradleSpec",
    "SensorReport",
    "cradle_field",
    "deflection_per_field",
    "field_for_deflection",
    "predict_throughput",
    "fringe_slope",
    "sensor_report",
    "shot_noise_sensitivity",
    "sinusoid_fringe",
    "simulate_step_response",
    "step_snr",
    "scaled_sensitivity",
]


@dataclass(frozen=True)
class CradleSpec:
    """Cube-edge wire arrangement: edge length [m].

    ``efficiency`` rescales the nominal center field to absorb geometric
    imperfections (off-center placement, non-cubic winding). Values above 1
    are allowed: the effective deflection field can exceed the nominal
    center value when the field region extends past the gratings.
    """

    edge_length: float = 0.054
    efficiency: float = 1.0

    def __post_init__(self):
        if not self.edge_length > 0.0:
            raise ValueError("cradle edge length must be positive")
        if not self.efficiency > 0.0:
            raise ValueError("cradle efficiency must be positive")


@dataclass(frozen=True)
class SensorReport:
    """Operating-point readout: slope [counts/s/T], rate [counts/s], sensitivity [T/sqrt(Hz)]."""

    slope: float
    count_rate: float
    sensitivity: float


def cradle_field(cradle: CradleSpec, current: float) -> float:
    """Center field of the cube-edge coil at ``current`` [A]: (4/sqrt(3)) mu0 I / (pi w) [T]."""
    nominal = (4.0 / math.sqrt(3.0)) * const.MU_0 * current / (math.pi * cradle.edge_length)
    return cradle.efficiency * nominal


def deflection_per_field(region_length: float, energy: BeamEnergy) -> float:
    """Impulse-approximation lateral displacement per tesla [m/T].

    q L^2 / (2 sqrt(2 m E)) for an electron, nonrelativistic momentum, for
    a uniform field over ``region_length`` L [m] along the beam; a field
    B [T] deflects the beam by B times this.
    """
    if not region_length > 0.0:
        raise ValueError("field region length must be positive")
    momentum = math.sqrt(2.0 * const.ELECTRON_MASS * energy.joules)
    return -const.E_CHARGE * region_length**2 / (2.0 * momentum)


def field_for_deflection(displacement: float, region_length: float, energy: BeamEnergy) -> float:
    """Field [T] that produces a given lateral displacement."""
    return displacement / deflection_per_field(region_length, energy)


def _require_finite_scale(per_field: float):
    if not math.isfinite(per_field):
        raise ValueError(f"per_field must be finite, got {per_field}")


def _interp_periodic(curve: FringeCurve, x):
    return np.interp(x, curve.offsets, curve.throughput, period=curve.period)


def predict_throughput(curve: FringeCurve, field: float, per_field: float) -> float:
    """Fringe-curve readout at the offset ``field`` times ``per_field`` [m/T].

    Linear interpolation with wrap-around at the curve's period.
    """
    _require_finite_scale(per_field)
    return float(_interp_periodic(curve, field * per_field))


def fringe_slope(curve: FringeCurve, offset: float) -> float:
    """d(throughput)/d(offset) [1/m] by central difference on the interpolant."""
    h = curve.period / 1024.0
    lo, hi = _interp_periodic(curve, [offset - h, offset + h])
    return float((hi - lo) / (2.0 * h))


def shot_noise_sensitivity(count_rate: float, slope: float) -> float:
    """Poisson-limited field resolution sqrt(R)/|dS/dB| [T/sqrt(Hz)]."""
    if not count_rate > 0.0:
        raise ValueError("count rate must be positive")
    if slope == 0.0:
        raise ValueError("sensitivity is undefined at zero fringe slope")
    return math.sqrt(count_rate) / abs(slope)


def sensor_report(curve: FringeCurve, bias_offset: float, rate_scale: float, per_field: float) -> SensorReport:
    """Count rate, field slope and shot-noise sensitivity at a bias point.

    ``rate_scale`` converts curve throughput to counts per second, and
    ``per_field`` [m/T] a field to a fringe shift.
    """
    if not rate_scale > 0.0:
        raise ValueError("rate_scale must be positive")
    _require_finite_scale(per_field)
    rate = rate_scale * float(_interp_periodic(curve, bias_offset))
    slope = rate_scale * fringe_slope(curve, bias_offset) * per_field
    return SensorReport(
        slope=slope,
        count_rate=rate,
        sensitivity=shot_noise_sensitivity(rate, slope),
    )


def sinusoid_fringe(period: float, contrast: float) -> FringeCurve:
    """Analytic unit-mean cosine fringe at 256 offsets over one period, for
    operating-point studies."""
    if not 0.0 <= contrast < 1.0:
        raise ValueError("contrast must lie in [0, 1)")
    offsets = _offsets(period, 256)
    return FringeCurve(offsets, 1.0 + contrast * np.cos(2.0 * np.pi * offsets / period), period)


def _field_on(seconds: int, block_seconds: int) -> np.ndarray:
    """Per-second on/off schedule of the field step, starting on."""
    return (np.arange(seconds) // block_seconds) % 2 == 0


def simulate_step_response(
    curve: FringeCurve,
    bias_offset: float,
    field_step: float,
    rate_scale: float,
    seconds: int,
    seed: int,
    per_field: float,
    block_seconds: int = 10,
) -> np.ndarray:
    """Per-second Poisson counts while a field step toggles on and off.

    The field is on for ``block_seconds``, off for ``block_seconds``,
    repeating, starting on; it shifts the fringe by ``per_field`` [m/T].
    The bias offset places the operating point; counts are drawn from a
    generator seeded with ``seed``.
    """
    if seconds < 1 or block_seconds < 1:
        raise ValueError("seconds and block_seconds must be at least 1")
    _require_finite_scale(per_field)
    shift = field_step * per_field
    offsets = bias_offset + np.where(_field_on(seconds, block_seconds), shift, 0.0)
    rates = rate_scale * _interp_periodic(curve, offsets)
    rng = np.random.default_rng(seed)
    return rng.poisson(rates)


def step_snr(counts: np.ndarray, block_seconds: int = 10) -> float:
    """Step amplitude over the one-second Poisson noise of a count series."""
    counts = np.asarray(counts, dtype=float)
    on = _field_on(counts.size, block_seconds)
    if not np.any(on) or np.all(on):
        raise ValueError("count series must contain both on and off blocks")
    signal = abs(counts[on].mean() - counts[~on].mean())
    noise = math.sqrt(counts.mean())
    return signal / noise


def scaled_sensitivity(base: float, length_ratio: float, concentrator_gain: float, area_ratio: float) -> float:
    """Project a sensitivity to a scaled device.

    The field response grows with the squared device length and the flux
    concentrator gain; throughput area improves counting statistics by its
    square root.
    """
    for name, val in (
        ("base", base),
        ("length_ratio", length_ratio),
        ("concentrator_gain", concentrator_gain),
        ("area_ratio", area_ratio),
    ):
        if not val > 0.0:
            raise ValueError(f"{name} must be positive")
    return base / (length_ratio**2 * concentrator_gain * math.sqrt(area_ratio))
