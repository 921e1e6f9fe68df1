import math

import numpy as np
import pytest

from talbotlau import (
    BeamEnergy,
    CradleSpec,
    FringeCurve,
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
from talbotlau.config import RunConfig

D = 1e-7
L = 6.12e-3
E10 = BeamEnergy(1e4)
PER_FIELD = deflection_per_field(L, E10)


def test_cradle_field_reference_currents():
    assert cradle_field(CradleSpec(), 0.071) == pytest.approx(1.2e-6, abs=0.05e-6)
    assert cradle_field(CradleSpec(), 2.5e-3) == pytest.approx(43e-9, abs=1e-9)
    assert cradle_field(CradleSpec(), 0.0) == 0.0


def test_cradle_field_odd_in_current_and_inverse_in_edge():
    rng = np.random.default_rng(2)
    for _ in range(20):
        current = rng.uniform(-0.2, 0.2)
        w = rng.uniform(0.01, 0.2)
        spec = CradleSpec(edge_length=w)
        assert cradle_field(spec, current) == pytest.approx(-cradle_field(spec, -current), rel=1e-12)
        assert cradle_field(CradleSpec(edge_length=2 * w), current) == pytest.approx(
            0.5 * cradle_field(spec, current), rel=1e-12
        )


def test_cradle_efficiency_scales_field():
    base = cradle_field(CradleSpec(), 0.071)
    assert cradle_field(CradleSpec(efficiency=1.482), 0.071) == pytest.approx(1.482 * base, rel=1e-12)
    with pytest.raises(ValueError):
        CradleSpec(efficiency=0.0)


def test_deflection_formula():
    assert 0.0 * deflection_per_field(L, E10) == 0.0
    s1 = 1e-6 * deflection_per_field(L, E10)
    s2 = 2e-6 * deflection_per_field(L, E10)
    assert s2 == pytest.approx(2 * s1, rel=1e-12)
    s_quad = 1e-6 * deflection_per_field(L, BeamEnergy(4e4))
    assert s_quad == pytest.approx(0.5 * s1, rel=1e-12)


def test_field_for_one_period_deflection():
    field = field_for_deflection(D, 6.12e-3, E10)
    assert abs(field) == pytest.approx(1.8e-6, abs=0.05e-6)
    assert field * deflection_per_field(L, E10) == pytest.approx(D, rel=1e-12)


def test_predict_throughput_at_zero_field_reads_curve_origin():
    curve = sinusoid_fringe(D, 0.3)
    assert predict_throughput(curve, 0.0, PER_FIELD) == pytest.approx(curve.throughput[0], rel=1e-12)


def test_predict_throughput_periodic_in_field():
    curve = sinusoid_fringe(D, 0.3)
    b_period = field_for_deflection(D, L, E10)
    v0 = predict_throughput(curve, 0.0, PER_FIELD)
    v1 = predict_throughput(curve, b_period, PER_FIELD)
    assert v1 == pytest.approx(v0, abs=1e-6)


def test_field_sweep_reproduces_fringe_shape():
    curve = sinusoid_fringe(D, 0.3)
    for k in range(0, 256, 16):
        offset = curve.offsets[k]
        b = offset / PER_FIELD
        assert predict_throughput(curve, b, PER_FIELD) == pytest.approx(curve.throughput[k], rel=1e-9)


def test_array_readout_keeps_the_bits_of_one_call_per_current():
    # sweep-field reads every current in one call to cradle_field and one
    # to predict_throughput; each value is the scalar call's, bit for bit
    cfg = RunConfig()
    s = cfg.sweep
    currents = np.linspace(s.current_min, s.current_max, s.current_points)
    fields = cradle_field(cfg.cradle, currents)
    per_field = deflection_per_field(cfg.field.region_length, BeamEnergy(cfg.beamline.energy_ev))
    curve = sinusoid_fringe(cfg.beamline.grating_period, 0.3)
    assert fields.tolist() == [cradle_field(cfg.cradle, current) for current in currents.tolist()]
    readout = predict_throughput(curve, fields, per_field)
    assert readout.tolist() == [predict_throughput(curve, field, per_field) for field in fields.tolist()]


def test_shot_noise_scaling():
    # doubling the rate at fixed fringe shape doubles the slope too
    assert shot_noise_sensitivity(2e5, 2e10) == pytest.approx(
        shot_noise_sensitivity(1e5, 1e10) / math.sqrt(2), rel=1e-12
    )
    assert shot_noise_sensitivity(1e5, 1e14) < shot_noise_sensitivity(1e5, 1e10)
    with pytest.raises(ValueError):
        shot_noise_sensitivity(1e5, 0.0)
    with pytest.raises(ValueError):
        shot_noise_sensitivity(0.0, 1e10)


def test_sensitivity_composition_matches_analytic_sinusoid():
    # half-fringe operating point on a sinusoid of contrast c at rate R:
    # delta_B = B_period / (2 pi c sqrt(R))
    c, rate = 0.06, 2.5e5
    curve = sinusoid_fringe(D, c)
    report = sensor_report(curve, D / 4, rate, PER_FIELD)
    b_period = abs(field_for_deflection(D, L, E10))
    oracle = b_period / (2 * math.pi * c * math.sqrt(rate))
    assert report.sensitivity == pytest.approx(oracle, rel=0.05)
    assert report.count_rate == pytest.approx(rate, rel=1e-9)


def test_operating_point_sensitivity_near_quoted_value():
    curve = sinusoid_fringe(D, 0.06)
    report = sensor_report(curve, D / 4, 2.5e5, PER_FIELD)
    assert report.sensitivity == pytest.approx(9.5e-9, rel=0.15)


def test_fringe_slope_central_difference():
    curve = sinusoid_fringe(D, 0.3)
    slope = fringe_slope(curve, D / 4)
    assert slope == pytest.approx(-0.3 * 2 * math.pi / D, rel=1e-2)


def test_step_response_deterministic():
    curve = sinusoid_fringe(D, 0.06)
    kwargs = dict(per_field=PER_FIELD)
    a = simulate_step_response(curve, D / 4, 4.3e-8, 2.5e5, 40, 11, **kwargs)
    b = simulate_step_response(curve, D / 4, 4.3e-8, 2.5e5, 40, 11, **kwargs)
    assert np.array_equal(a, b)
    c = simulate_step_response(curve, D / 4, 4.3e-8, 2.5e5, 40, 12, **kwargs)
    assert not np.array_equal(a, c)


def test_step_response_alternates_blocks():
    curve = sinusoid_fringe(D, 0.5)
    counts = simulate_step_response(curve, D / 4, 2e-6, 1e5, 40, 1, per_field=PER_FIELD)
    assert counts.shape == (40,)
    snr = step_snr(counts)
    assert snr > 10  # huge step, must be obvious


def test_null_step_has_no_signal():
    curve = sinusoid_fringe(D, 0.06)
    counts = simulate_step_response(curve, D / 4, 0.0, 2.5e5, 400, 3, per_field=PER_FIELD)
    assert step_snr(counts) < 1.0


def test_single_second_step_snr_within_band():
    curve = sinusoid_fringe(D, 0.06)
    snr = step_snr(simulate_step_response(curve, D / 4, 4.3e-8, 2.5e5, 40, 0, per_field=PER_FIELD))
    assert 3.0 < snr < 6.5


def test_step_snr_needs_both_blocks():
    with pytest.raises(ValueError):
        step_snr(np.ones(5), block_seconds=10)


def test_scaled_sensitivity():
    assert scaled_sensitivity(9.5e-9, 1.0, 1.0, 1.0) == pytest.approx(9.5e-9, rel=1e-12)
    assert scaled_sensitivity(9.5e-9, 1.0, 4.0, 1.0) == pytest.approx(9.5e-9 / 4, rel=1e-12)
    projected = scaled_sensitivity(9.5e-9, 10.0 / 3.0, 20.0, 1e4)
    assert projected == pytest.approx(430e-15, rel=0.05)
    with pytest.raises(ValueError):
        scaled_sensitivity(-1e-9, 1.0, 1.0, 1.0)


def test_sinusoid_fringe_contrast_exact():
    curve = sinusoid_fringe(D, 0.25)
    assert curve.throughput.max() == pytest.approx(1.25, rel=1e-12)
    assert curve.throughput.min() == pytest.approx(0.75, rel=1e-12)
    assert len(curve.offsets) == 256
    with pytest.raises(ValueError):
        sinusoid_fringe(D, 1.5)


def test_region_validation():
    with pytest.raises(ValueError):
        deflection_per_field(0.0, E10)


def test_predict_throughput_periodic_with_uneven_offsets():
    # the first step (D/20) is not the spacing that closes the period, so a
    # period guessed from it (0.95 D) reads 1.2853 here instead of 1.3
    offsets = D * np.array([0.0, 0.05, 0.2, 0.35, 0.5, 0.6, 0.75, 0.9])
    curve = FringeCurve(offsets, 1.0 + 0.3 * np.cos(2 * np.pi * offsets / D), D)
    b_period = field_for_deflection(D, L, E10)
    v0 = predict_throughput(curve, 0.0, PER_FIELD)
    assert v0 == pytest.approx(1.3, rel=1e-12)
    assert predict_throughput(curve, b_period, PER_FIELD) == pytest.approx(v0, rel=1e-12)


READOUTS = {
    "predict_throughput": lambda curve, per_field: predict_throughput(curve, 1e-7, per_field),
    "sensor_report": lambda curve, per_field: sensor_report(curve, D / 4, 2.5e5, per_field),
    "simulate_step_response": lambda curve, per_field: simulate_step_response(
        curve, D / 4, 4.3e-8, 2.5e5, 40, 0, per_field=per_field
    ),
}


@pytest.mark.parametrize("per_field", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("readout", sorted(READOUTS))
def test_a_non_finite_shift_per_field_is_refused(readout, per_field):
    with pytest.raises(ValueError, match="per_field"):
        READOUTS[readout](sinusoid_fringe(D, 0.06), per_field)
