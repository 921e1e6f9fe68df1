import dataclasses
import math
import pathlib
import re

import pytest

from dataclasses import replace

from talbotlau import config
from talbotlau import (
    BeamlineConfig,
    ConfigError,
    PhaseModel,
    RunConfig,
    build_beamline,
    parse_config,
)


def test_empty_text_gives_documented_defaults():
    cfg = parse_config("")
    assert cfg == RunConfig()
    assert cfg.beamline.grating_period == 1e-7
    assert cfg.beamline.grating_gap == 3.06e-3
    assert cfg.beamline.open_fraction == 0.35
    assert cfg.beamline.energy_ev == 1e4
    assert cfg.cradle.edge_length == 0.054


def test_negative_gap_rejected_naming_key_and_line():
    text = "[beamline]\ngrating_gap = -1\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    msg = str(err.value)
    assert "grating_gap" in msg and "line 2" in msg


def test_roundtrip_preserves_infinite_extent():
    # grating_extent defaults to inf, and an explicit inf parses to the default
    cfg = parse_config("")
    assert math.isinf(cfg.beamline.grating_extent)
    assert parse_config("[beamline]\ngrating_extent = inf\n") == cfg


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("[beamline]\nslit_gap = 1\n")
    assert "slit_gap" in str(err.value)
    # retired keys: the beamline has one kernel, and sweep-field sets the
    # coil current on every row
    for text, message in (
        (
            "[beamline]\nenergy_ev = 8800\npropagator = direct\n",
            "line 3: unknown key 'propagator' in section [beamline]",
        ),
        ("[cradle]\ncurrent = 0.071\n", "line 2: unknown key 'current' in section [cradle]"),
    ):
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(text)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("[detector]\nkind = mcp\n")
    assert "detector" in str(err.value)


def test_nan_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("[cradle]\nedge_length = nan\n")
    assert "edge_length" in str(err.value)


def _float_keys():
    cfg = RunConfig()
    return [
        (section.name, f.name)
        for section in dataclasses.fields(cfg)
        for f in dataclasses.fields(getattr(cfg, section.name))
        if isinstance(getattr(getattr(cfg, section.name), f.name), float)
    ]


@pytest.mark.parametrize("section, key", _float_keys())
def test_infinity_rejected_where_the_default_is_finite(section, key):
    # an infinite energy, region or count rate would crash a command or
    # print NaN; only grating_extent defaults to, and accepts, inf
    text = f"[{section}]\n{key} = inf\n"
    if math.isinf(getattr(getattr(RunConfig(), section), key)):
        assert math.isinf(getattr(getattr(parse_config(text), section), key))
    else:
        with pytest.raises(ConfigError, match=f"line 2: key '{key}'.*finite"):
            parse_config(text)


def test_malformed_number_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("[beamline]\nenergy_ev = ten\n")
    assert "energy_ev" in str(err.value) and "line 2" in str(err.value)


def test_malformed_integer_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("[beamline]\nn_sources = 3.5\n")
    assert "n_sources" in str(err.value)


def test_key_before_section_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("energy_ev = 1e4\n")
    assert "before any" in str(err.value)


def test_a_key_given_twice_is_rejected_naming_both_lines():
    # a repeated section header is legal; a repeated key would silently
    # keep its last value
    text = "[beamline]\ngrating_gap = 1e-3\n[sweep]\nn_offsets = 8\n[beamline]\ngrating_gap = 3.06e-3\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    msg = str(err.value)
    assert "line 6: key 'grating_gap'" in msg and "line 2" in msg
    cfg = parse_config("[beamline]\ngrating_gap = 1e-3\n[sweep]\nn_offsets = 8\n[beamline]\nn_sources = 4\n")
    assert (cfg.beamline.grating_gap, cfg.beamline.n_sources, cfg.sweep.n_offsets) == (1e-3, 4, 8)


def test_comments_and_blank_lines_ignored():
    text = "# run setup\n\n[beamline]\nenergy_ev = 5600  # resonance\n"
    cfg = parse_config(text)
    assert cfg.beamline.energy_ev == 5600


def test_open_fraction_range_validated():
    with pytest.raises(ConfigError):
        parse_config("[beamline]\nopen_fraction = 1.2\n")


def test_sweep_cross_checks():
    with pytest.raises(ConfigError) as err:
        parse_config("[sweep]\nenergy_min_ev = 9000\nenergy_max_ev = 5000\n")
    assert "energy_max_ev" in str(err.value)
    with pytest.raises(ConfigError):
        parse_config("[sweep]\ncurrent_min = 0.2\ncurrent_max = -0.2\n")


def test_n_offsets_minimum():
    with pytest.raises(ConfigError):
        parse_config("[sweep]\nn_offsets = 4\n")


def test_build_beamline_maps_fields():
    text = """
[beamline]
second_slit_width = 2e-6
g2_offset = 2.5e-8
n_sources = 4
grid_points = 2048
random_phase_max = 0.5
[run]
seed = 7
"""
    cfg = parse_config(text)
    beamline = build_beamline(cfg)
    assert beamline.second_slit.width == 2e-6
    assert beamline.gratings[1].offset == 2.5e-8
    assert beamline.gratings[0].offset == 0.0
    assert beamline.n_sources == 4
    assert beamline.grid_points == 2048
    assert beamline.phase_model.rng_seed == 7
    assert beamline.phase_model.random_phase_max == 0.5


def test_build_beamline_auto_grid_when_zero():
    cfg = parse_config("[beamline]\ngrid_points = 0\n")
    assert build_beamline(cfg).grid_points == 0


def test_every_beamline_field_is_set_from_the_config(monkeypatch):
    # a BeamlineConfig field that no config key reaches is a knob that
    # only code can turn
    passed = {}

    def record(**kwargs):
        passed.update(kwargs)
        return BeamlineConfig(**kwargs)

    monkeypatch.setattr(config, "BeamlineConfig", record)
    build_beamline(RunConfig())
    assert set(passed) == {f.name for f in dataclasses.fields(BeamlineConfig)}


def test_build_cradle_and_region():
    cfg = parse_config("[cradle]\nedge_length = 0.06\n[field]\nregion_length = 3.06e-3\n")
    assert cfg.cradle.edge_length == 0.06
    assert cfg.field.region_length == 3.06e-3


def test_region_length_must_be_positive():
    with pytest.raises(ConfigError) as err:
        parse_config("[field]\nregion_length = 0\n")
    msg = str(err.value)
    assert "region_length" in msg and "line 2" in msg


@pytest.mark.parametrize(
    "text, message",
    [
        ("[sensing]\nfringe_contrast = 1\n", "key 'fringe_contrast': contrast must lie in [0, 1)"),
        ("[scale]\nbase_sensitivity = 0\n", "key 'base_sensitivity': base must be positive"),
        ("[scale]\narea_ratio = -1\n", "key 'area_ratio': area_ratio must be positive"),
    ],
    ids=["fringe_contrast", "base_sensitivity", "area_ratio"],
)
def test_readout_inputs_are_checked_by_the_functions_that_build_them(text, message):
    # no section repeats these checks: the parser builds each command's
    # readout inputs, and their refusal names the key and line
    with pytest.raises(ConfigError, match=re.escape(f"line 2: {message}")):
        parse_config(text)


def test_malformed_section_header():
    with pytest.raises(ConfigError):
        parse_config("[beamline\nenergy_ev = 1\n")


def test_bare_line_rejected():
    with pytest.raises(ConfigError):
        parse_config("[beamline]\njust some words\n")


def test_sweep_bounds_checked_after_the_whole_file():
    # each bound alone contradicts the other's default; together they are valid
    cfg = parse_config("[sweep]\ncurrent_max = -0.2\ncurrent_min = -0.3\n")
    assert (cfg.sweep.current_min, cfg.sweep.current_max) == (-0.3, -0.2)


@pytest.mark.parametrize(
    "text, key, line",
    [
        ("[sweep]\nenergy_min_ev = 3000\n", "energy_min_ev", 2),
        ("[sweep]\nenergy_points = 5\nenergy_max_ev = 12000\n", "energy_max_ev", 3),
    ],
    ids=["below", "above"],
)
def test_sweep_energies_outside_the_gun_range_rejected(text, key, line):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    msg = str(err.value)
    assert f"line {line}: key '{key}'" in msg and "gun range [4500, 10000] eV" in msg


def test_default_beamline_is_the_domain_default():
    expected = replace(BeamlineConfig(), phase_model=replace(PhaseModel(), rng_seed=12345))
    assert build_beamline(RunConfig()) == expected


def _section_keys(text):
    keys, section = [], None
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line[1:-1]
        elif "=" in line:
            keys.append((section, line.partition("=")[0].strip()))
    return keys


def test_readme_configuration_block_is_the_default():
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```ini\n(.*?)```", readme, re.DOTALL).group(1)
    assert parse_config(block) == RunConfig()
    # the block lists every key, not just the ones whose omission is noticed
    every_key = [
        (section.name, f.name)
        for section in dataclasses.fields(RunConfig)
        for f in dataclasses.fields(getattr(RunConfig(), section.name))
    ]
    assert sorted(_section_keys(block)) == sorted(every_key)
