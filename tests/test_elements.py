import numpy as np
import pytest

from talbotlau import (
    ApertureSpec,
    GratingSpec,
    GridSpec,
    PhaseModel,
    WaveField,
    aperture_amplitude,
    apply_plane,
    comb_throughput,
    grating_amplitude,
    translate_grating,
)

D = 1e-7


def uniform_field(n=4096, dx=1e-9, wavelength=13e-12):
    return WaveField(np.ones(n, dtype=complex), GridSpec(-(n - 1) / 2 * dx, dx, n), wavelength)


def test_grating_amplitude_slit_center_open():
    g = GratingSpec(period=D, open_fraction=0.35)
    assert grating_amplitude(0.0, g) == 1.0


def test_grating_amplitude_bar_midpoint_closed():
    g = GratingSpec(period=D, open_fraction=0.35)
    assert grating_amplitude(D / 2, g) == 0.0


def test_grating_amplitude_edges_open():
    g = GratingSpec(period=D, open_fraction=0.35)
    half_open = 0.5 * 0.35 * D
    assert grating_amplitude(half_open, g) == 1.0
    assert grating_amplitude(-half_open, g) == 1.0


def test_grating_amplitude_monte_carlo_mean_equals_open_fraction():
    # oracle: Monte Carlo integral of the comb over many periods
    g = GratingSpec(period=D, open_fraction=0.35)
    rng = np.random.default_rng(42)
    x = rng.uniform(-500 * D, 500 * D, size=1_000_000)
    assert grating_amplitude(x, g).mean() == pytest.approx(0.35, abs=1e-3)


def test_grating_amplitude_periodicity():
    g = GratingSpec(period=D, open_fraction=0.41, offset=0.3 * D)
    rng = np.random.default_rng(3)
    x = rng.uniform(-50 * D, 50 * D, size=4096)
    assert np.array_equal(grating_amplitude(x, g), grating_amplitude(x + D, g))


def test_grating_extent_blocks_outside():
    g = GratingSpec(period=D, open_fraction=0.35, extent=10 * D)
    assert grating_amplitude(0.0, g) == 1.0
    assert grating_amplitude(20 * D, g) == 0.0


def test_translate_by_full_period_is_identity():
    g = GratingSpec(period=D, open_fraction=0.35)
    shifted = translate_grating(g, D)
    x = np.linspace(-5 * D, 5 * D, 2001)
    assert np.array_equal(grating_amplitude(x, g), grating_amplitude(x, shifted))


def test_translate_half_period_complements_half_open_grating():
    g = GratingSpec(period=D, open_fraction=0.5)
    shifted = translate_grating(g, D / 2)
    # stay clear of the open-edge points, where both masks report open
    x = np.linspace(-5 * D, 5 * D, 4001)
    edges = np.minimum(np.abs((x % D) - 0.25 * D), np.abs((x % D) - 0.75 * D))
    interior = edges > 1e-3 * D
    a = grating_amplitude(x[interior], g)
    b = grating_amplitude(x[interior], shifted)
    assert np.array_equal(a, 1.0 - b)


def test_translate_shift_definition():
    g = GratingSpec(period=D, open_fraction=0.35, offset=0.1 * D)
    shifted = translate_grating(g, 0.25 * D)
    probe = np.linspace(-2 * D, 2 * D, 1001)
    assert np.array_equal(grating_amplitude(probe, shifted), grating_amplitude(probe - 0.25 * D, g))


@pytest.mark.parametrize(
    "grating",
    [
        GratingSpec(period=D),
        GratingSpec(period=D, offset=0.25 * D),
        GratingSpec(period=D, offset=-0.3 * D, extent=3e-6),
        GratingSpec(period=D, open_fraction=0.5),
    ],
    ids=["plain", "offset", "extent", "half-open"],
)
@pytest.mark.parametrize("period_per_step", [40, 41, 80, 383.4, 555.5])
def test_comb_throughput_matches_the_offset_masks(period_per_step, grating):
    # at 40 and 80 steps per period the slit edges of many offsets fall
    # exactly on samples, where the edge pad decides
    n = 40_001
    dx = D / period_per_step
    x = GridSpec(-(n - 1) / 2 * dx, dx, n).x
    intensity = np.random.default_rng(7).uniform(0.1, 1.0, n)
    offsets = np.concatenate((np.arange(16) * D / 16, [-0.3 * D, 1.7 * D], np.arange(-3, 4) * dx))
    masked = np.array([np.sum(intensity * grating_amplitude(x, translate_grating(grating, off))) for off in offsets])
    folded = comb_throughput(x, intensity, grating, offsets)
    assert np.max(np.abs(folded - masked) / masked) <= 1e-12


def test_apply_plane_pure_mask_is_exact():
    field = uniform_field()
    g = GratingSpec(period=D, open_fraction=0.35)
    out = apply_plane(field, g, PhaseModel())
    assert np.array_equal(out.amplitudes, grating_amplitude(field.grid.x, g) * field.amplitudes)


def test_apply_plane_nearly_open_grating_keeps_flux():
    field = uniform_field()
    g = GratingSpec(period=D, open_fraction=0.999)
    out = apply_plane(field, g)
    assert out.total_probability >= 0.998 * field.total_probability


def test_apply_plane_never_increases_probability():
    rng = np.random.default_rng(11)
    n = 2048
    amp = rng.normal(size=n) + 1j * rng.normal(size=n)
    field = WaveField(amp, GridSpec(-n / 2 * 1e-9, 1e-9, n), 13e-12)
    phase = PhaseModel(image_charge_strength=2e-9, random_phase_max=0.7, rng_seed=5)
    for element in (
        ApertureSpec(width=0.4e-6),
        GratingSpec(period=D, open_fraction=0.35),
    ):
        out = apply_plane(field, element, phase, plane_index=1)
        assert out.total_probability <= field.total_probability * (1 + 1e-12)


def test_transmission_fraction_matches_open_fraction():
    field = uniform_field(n=100_000)
    g = GratingSpec(period=D, open_fraction=0.35)
    out = apply_plane(field, g)
    measured = out.total_probability / field.total_probability
    cell_per_period = field.grid.dx / D  # quantization: one grid cell per period
    assert measured == pytest.approx(0.35, abs=cell_per_period + 1e-6)


def test_aperture_window_indicator():
    slit = ApertureSpec(width=2e-6, center=0.5e-6)
    assert aperture_amplitude(0.5e-6, slit) == 1.0
    assert aperture_amplitude(1.5e-6, slit) == 1.0  # edge open
    assert aperture_amplitude(1.6e-6, slit) == 0.0


def test_apply_plane_requires_overlap():
    field = uniform_field(n=256)
    with pytest.raises(ValueError):
        apply_plane(field, ApertureSpec(width=1e-7, center=1.0))
    # off-axis grid entirely outside the (axis-centered) grating extent
    off_axis = WaveField(np.ones(256, dtype=complex), GridSpec(1.0, 1e-9, 256), 13e-12)
    with pytest.raises(ValueError):
        apply_plane(off_axis, GratingSpec(period=D, open_fraction=0.35, extent=1e-6), phase=None)


def test_random_phase_deterministic_and_order_free():
    field = uniform_field()
    g = GratingSpec(period=D, open_fraction=0.35)
    phase = PhaseModel(random_phase_max=1.3, rng_seed=77)
    a = apply_plane(field, g, phase, plane_index=1)
    b = apply_plane(field, g, phase, plane_index=1)
    assert np.array_equal(a.amplitudes, b.amplitudes)


def test_random_phase_varies_with_plane_and_seed():
    field = uniform_field()
    g = GratingSpec(period=D, open_fraction=0.35)
    phase = PhaseModel(random_phase_max=1.3, rng_seed=77)
    p1 = apply_plane(field, g, phase, plane_index=1)
    p2 = apply_plane(field, g, phase, plane_index=2)
    other = apply_plane(field, g, PhaseModel(random_phase_max=1.3, rng_seed=78), plane_index=1)
    assert not np.array_equal(p1.amplitudes, p2.amplitudes)
    assert not np.array_equal(p1.amplitudes, other.amplitudes)


def test_random_phase_constant_within_slit():
    field = uniform_field()
    g = GratingSpec(period=D, open_fraction=0.35)
    phase = PhaseModel(random_phase_max=1.0, rng_seed=9)
    out = apply_plane(field, g, phase, plane_index=1)
    x = field.grid.x
    in_slit0 = np.abs(x) <= 0.5 * 0.35 * D
    angles = np.angle(out.amplitudes[in_slit0])
    assert np.ptp(angles) < 1e-12
    assert 0.0 <= angles[0] <= 1.0


def test_image_charge_phase_profile():
    field = uniform_field()
    g = GratingSpec(period=D, open_fraction=0.35)
    strength, rng_len = 3e-9, 2e-8
    phase = PhaseModel(image_charge_strength=strength, image_charge_range=rng_len)
    out = apply_plane(field, g, phase)
    x = field.grid.x
    wall = 0.5 * 0.35 * D
    # at the slit wall the phase is strength/range; at the center it has decayed
    edge_idx = np.argmin(np.abs(x - wall))
    center_idx = np.argmin(np.abs(x))
    assert np.angle(out.amplitudes[edge_idx]) == pytest.approx(strength / rng_len, rel=0.05)
    expected_center = strength / rng_len * np.exp(-wall / rng_len)
    assert np.angle(out.amplitudes[center_idx]) == pytest.approx(expected_center, rel=0.05)


def test_open_edge_pad_carries_the_slit_phase():
    # a sample a few ulp past the slit wall counts as open, so it gets the
    # wall's image-charge phase (strength/range = 0.15 rad) and the slit's draw
    field = WaveField(np.ones(4, dtype=complex), GridSpec(0.5 * 0.35 * D * (1 + 3e-13), 1e-9, 4), 1e-11)
    phase = PhaseModel(image_charge_strength=3e-9, image_charge_range=2e-8, random_phase_max=1.0, rng_seed=3)
    out = apply_plane(field, GratingSpec(D), phase, plane_index=1)
    assert abs(out.amplitudes[0]) == pytest.approx(1.0)
    assert np.angle(out.amplitudes[0]) >= 0.15


def test_spec_validation():
    with pytest.raises(ValueError):
        GratingSpec(period=0.0, open_fraction=0.35)
    with pytest.raises(ValueError):
        GratingSpec(period=D, open_fraction=1.0)
    with pytest.raises(ValueError):
        ApertureSpec(width=0.0)
    with pytest.raises(ValueError):
        PhaseModel(image_charge_strength=-1.0)
    with pytest.raises(ValueError):
        PhaseModel(rng_seed=-1)
