"""Desk-scale three-grating near-field interferometer simulator.

A scalar 1-D wavefield is carried plane to plane by one path-summation
kernel, ``propagate`` (a fast paraxial FFT convolution; tests check it
against the direct reference quadrature ``propagate_direct``, which
carries the Fresnel prefactor), modulated by slits and absorption
gratings, and incoherently averaged over point sources to produce
throughput fringes, contrast-vs-energy curves and a magnetometry analysis
layer (field generation, deflection, shot-noise sensitivity, device
scaling). Both kernels are linear and neither rescales its output; the
fringe scan alone normalizes, per unit of flux at the first grating.
"""

from .config import (
    ConfigError,
    RunConfig,
    build_beamline,
    default_config,
    override,
    parse_config,
    serialize_config,
)
from .elements import (
    ApertureSpec,
    GratingSpec,
    PhaseModel,
    comb_throughput,
    translate_grating,
    transmission,
)
from .interferometer import (
    GUN_ENERGY_RANGE_EV,
    BeamlineConfig,
    FringeCurve,
    beamline_grid,
    contrast,
    leg_required_dx,
    misalignment_factor,
    scan_fringe,
    simulate_throughput,
    sweep_energy,
)
from .kinematics import (
    ELECTRON,
    BeamEnergy,
    ParticleSpec,
    de_broglie_wavelength,
    resonant_energies,
    talbot_length,
)
from .propagation import (
    GridSpec,
    SamplingError,
    WaveField,
    propagate,
    propagate_direct,
    required_dx,
)
from .sensing import (
    CradleSpec,
    SensorReport,
    ab_phase,
    cradle_field,
    deflection_per_field,
    field_for_deflection,
    fringe_slope,
    predict_throughput,
    scaled_sensitivity,
    sensor_report,
    shot_noise_sensitivity,
    simulate_step_response,
    sinusoid_fringe,
    step_snr,
)

__version__ = "0.1.0"
