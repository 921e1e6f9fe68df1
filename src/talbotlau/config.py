"""Run configuration: flat ``key = value`` files with ``[section]`` headers.

A key is valid when the beamline and the readout inputs the commands
build still build with that one key changed from the defaults, so the
range checks belong to the domain types and functions. The sections check
only what none of them does: the gun range, the point counts,
``n_offsets``, ``count_rate``, ``seconds``/``block_seconds`` and the sweep
bound pairs. Unknown sections or keys, malformed numbers and out-of-range
values are rejected with the offending key and line named.
"""

import dataclasses
import math

from dataclasses import dataclass, replace

from .elements import ApertureSpec, GratingSpec, PhaseModel
from .interferometer import BeamlineConfig
from .kinematics import BeamEnergy
from .sensing import CradleSpec, deflection_per_field, scaled_sensitivity, sinusoid_fringe

__all__ = [
    "GUN_ENERGY_RANGE_EV",
    "ConfigError",
    "RunConfig",
    "parse_config",
    "build_beamline",
]

# energy reach of the thermionic gun the defaults are modeled on; a sweep
# outside it is refused
GUN_ENERGY_RANGE_EV = (4500.0, 10000.0)


class ConfigError(ValueError):
    """Invalid configuration text."""


_BEAMLINE = BeamlineConfig()
_G1, _G2, _G3 = _BEAMLINE.gratings
_PHASE = _BEAMLINE.phase_model


@dataclass(frozen=True)
class BeamlineSettings:
    """Flat view of ``BeamlineConfig``; the three gratings share one comb."""

    energy_ev: float = _BEAMLINE.energy.kinetic_energy_ev
    source_slit_width: float = _BEAMLINE.source_slit.width
    source_slit_center: float = _BEAMLINE.source_slit.center
    second_slit_width: float = _BEAMLINE.second_slit.width
    second_slit_center: float = _BEAMLINE.second_slit.center
    slit_separation: float = _BEAMLINE.slit_separation
    slit2_to_g1: float = _BEAMLINE.slit2_to_g1
    grating_gap: float = _BEAMLINE.grating_gap
    grating_period: float = _G1.period
    open_fraction: float = _G1.open_fraction
    grating_extent: float = _G1.extent
    g1_offset: float = _G1.offset
    g2_offset: float = _G2.offset
    g3_offset: float = _G3.offset
    image_charge_strength: float = _PHASE.image_charge_strength
    image_charge_range: float = _PHASE.image_charge_range
    random_phase_max: float = _PHASE.random_phase_max
    n_sources: int = _BEAMLINE.n_sources
    grid_points: int = _BEAMLINE.grid_points  # 0 = automatic step
    window_factor: float = _BEAMLINE.window_factor


@dataclass(frozen=True)
class FieldSettings:
    region_length: float = 6.12e-3


@dataclass(frozen=True)
class SensingSettings:
    fringe_contrast: float = 0.06
    count_rate: float = 2.5e5
    step_field: float = 4.3e-8
    bias_offset: float = 2.5e-8
    seconds: int = 40
    block_seconds: int = 10

    def __post_init__(self):
        if not self.count_rate > 0.0:
            raise ValueError("count_rate must be positive")
        if self.seconds < 1 or self.block_seconds < 1:
            raise ValueError("seconds and block_seconds must be at least 1")


@dataclass(frozen=True)
class SweepSettings:
    energy_min_ev: float = GUN_ENERGY_RANGE_EV[0]
    energy_max_ev: float = GUN_ENERGY_RANGE_EV[1]
    energy_points: int = 23
    current_min: float = -0.15
    current_max: float = 0.15
    current_points: int = 61
    n_offsets: int = 16

    def __post_init__(self):
        lo, hi = GUN_ENERGY_RANGE_EV
        if not (lo <= self.energy_min_ev <= hi and lo <= self.energy_max_ev <= hi):
            raise ValueError(f"sweep energies must lie in the gun range [{lo:g}, {hi:g}] eV")
        if self.energy_points < 1:
            raise ValueError("energy_points must be at least 1")
        if self.current_points < 2:
            raise ValueError("current_points must be at least 2")
        if self.n_offsets < 8:
            raise ValueError("n_offsets must be at least 8")


@dataclass(frozen=True)
class ScaleSettings:
    base_sensitivity: float = 9.5e-9
    length_ratio: float = 10.0 / 3.0
    concentrator_gain: float = 20.0
    area_ratio: float = 1e4


@dataclass(frozen=True)
class RunSettings:
    seed: int = 12345


@dataclass(frozen=True)
class RunConfig:
    beamline: BeamlineSettings = BeamlineSettings()
    cradle: CradleSpec = CradleSpec()
    field: FieldSettings = FieldSettings()
    sensing: SensingSettings = SensingSettings()
    sweep: SweepSettings = SweepSettings()
    scale: ScaleSettings = ScaleSettings()
    run: RunSettings = RunSettings()


_DEFAULTS = RunConfig()
_SECTIONS = tuple(f.name for f in dataclasses.fields(RunConfig))


def _convert(raw, default, where):
    # every key is an int or a float, as its default is
    if isinstance(default, int):
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{where}: malformed integer {raw!r}") from None
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{where}: malformed number {raw!r}") from None
    if math.isnan(value):
        raise ConfigError(f"{where}: NaN is not a valid value")
    # only a key whose default is infinite (grating_extent) takes inf
    if math.isinf(value) and math.isfinite(default):
        raise ConfigError(f"{where}: value must be finite (got {raw})")
    return value


def _with(cfg: RunConfig, section: str, key: str, value) -> RunConfig:
    return replace(cfg, **{section: replace(getattr(cfg, section), **{key: value})})


def _override(cfg: RunConfig, section: str, key: str, value, where: str) -> RunConfig:
    """``cfg`` with one key set, after checking that key alone on the defaults.

    The check builds the beamline and every command's readout inputs from
    the defaults plus this key. A ``ValueError`` from any of them becomes
    a ``ConfigError`` prefixed with ``where``.
    """
    try:
        trial = _with(_DEFAULTS, section, key, value)
        beamline = build_beamline(trial)
        deflection_per_field(trial.field.region_length, beamline.energy)
        sinusoid_fringe(beamline.gratings[0].period, trial.sensing.fringe_contrast)
        scaled_sensitivity(*dataclasses.astuple(trial.scale))
        return _with(cfg, section, key, value)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc} (got {value})") from None


def parse_config(text: str) -> RunConfig:
    """Parse configuration text, applying defaults for omitted keys."""
    cfg = _DEFAULTS
    lines = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {lineno}: malformed section header {raw.strip()!r}")
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section '[{name}]'")
            section = name
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        if section is None:
            raise ConfigError(f"line {lineno}: key '{key}' appears before any [section] header")
        defaults = vars(getattr(_DEFAULTS, section))
        if key not in defaults:
            raise ConfigError(f"line {lineno}: unknown key '{key}' in section [{section}]")
        where = f"line {lineno}: key '{key}'"
        if (section, key) in lines:
            raise ConfigError(f"{where} in section [{section}] is already set on line {lines[section, key]}")
        cfg = _override(cfg, section, key, _convert(raw_value.strip(), defaults[key], where), where)
        lines[section, key] = lineno
    _cross_checks(cfg.sweep, lines)
    return cfg


def _cross_checks(sweep: SweepSettings, lines):
    # run once the whole file is read: each bound may arrive in either order
    for lo, hi, ok, requirement in (
        ("energy_min_ev", "energy_max_ev", sweep.energy_min_ev <= sweep.energy_max_ev, ">="),
        ("current_min", "current_max", sweep.current_min < sweep.current_max, "greater than"),
    ):
        if not ok:
            lineno = lines.get(("sweep", hi)) or lines[("sweep", lo)]
            raise ConfigError(f"line {lineno}: key '{hi}' must be {requirement} {lo}")


def build_beamline(cfg: RunConfig) -> BeamlineConfig:
    """Assemble the simulation beamline from a run configuration."""
    b = cfg.beamline
    base = GratingSpec(
        period=b.grating_period,
        open_fraction=b.open_fraction,
        extent=b.grating_extent,
    )
    gratings = tuple(replace(base, offset=off) for off in (b.g1_offset, b.g2_offset, b.g3_offset))
    phase = PhaseModel(
        image_charge_strength=b.image_charge_strength,
        image_charge_range=b.image_charge_range,
        random_phase_max=b.random_phase_max,
        rng_seed=cfg.run.seed,
    )
    return BeamlineConfig(
        source_slit=ApertureSpec(width=b.source_slit_width, center=b.source_slit_center),
        second_slit=ApertureSpec(width=b.second_slit_width, center=b.second_slit_center),
        slit_separation=b.slit_separation,
        slit2_to_g1=b.slit2_to_g1,
        grating_gap=b.grating_gap,
        gratings=gratings,
        phase_model=phase,
        energy=BeamEnergy(b.energy_ev),
        n_sources=b.n_sources,
        grid_points=b.grid_points,
        window_factor=b.window_factor,
    )
