import math
import tracemalloc

import numpy as np
import pytest

from talbotlau import (
    ApertureSpec,
    BeamlineConfig,
    GratingSpec,
    GridSpec,
    PhaseModel,
    beamline_grid,
    comb_throughput,
    elements,
    translate_grating,
    transmission,
)
from talbotlau.elements import _comb_coordinates, _slit_random_phase

from kernels import slit_random_phase_numpy, transmission_whole

D = 1e-7

# every phase model, and the combs whose slits the tests visit one by one
each_phase = pytest.mark.parametrize(
    "phase",
    [
        None,
        PhaseModel(image_charge_strength=1e-9),
        PhaseModel(random_phase_max=1.3, rng_seed=11),
        PhaseModel(image_charge_strength=1e-9, random_phase_max=1.3, rng_seed=11),
    ],
    ids=["no-phase", "image-charge", "random", "both"],
)
each_comb = pytest.mark.parametrize(
    "grating",
    [GratingSpec(period=D), GratingSpec(period=D, offset=0.3 * D), GratingSpec(period=D, offset=-0.3 * D, extent=7 * D)],
    ids=["plain", "offset", "offset-extent"],
)


def centered_x(n=4096, dx=1e-9):
    return GridSpec(-(n - 1) / 2 * dx, dx, n).x


def test_grating_amplitude_slit_center_open():
    g = GratingSpec(period=D, open_fraction=0.35)
    assert transmission([0.0], g)[0] == 1.0


def test_grating_amplitude_bar_midpoint_closed():
    g = GratingSpec(period=D, open_fraction=0.35)
    assert transmission([D / 2], g)[0] == 0.0


def test_grating_amplitude_edges_open():
    g = GratingSpec(period=D, open_fraction=0.35)
    half_open = 0.5 * 0.35 * D
    assert transmission([half_open], g)[0] == 1.0
    assert transmission([-half_open], g)[0] == 1.0


def test_grating_amplitude_monte_carlo_mean_equals_open_fraction():
    # oracle: Monte Carlo integral of the comb over many periods
    g = GratingSpec(period=D, open_fraction=0.35)
    rng = np.random.default_rng(42)
    x = rng.uniform(-500 * D, 500 * D, size=1_000_000)
    assert transmission(x, g).mean() == pytest.approx(0.35, abs=1e-3)


def test_grating_amplitude_periodicity():
    g = GratingSpec(period=D, open_fraction=0.41, offset=0.3 * D)
    rng = np.random.default_rng(3)
    x = rng.uniform(-50 * D, 50 * D, size=4096)
    assert np.array_equal(transmission(x, g), transmission(x + D, g))


def test_grating_extent_blocks_outside():
    g = GratingSpec(period=D, open_fraction=0.35, extent=10 * D)
    # one probe array: a lone probe outside the extent is refused as off the grid
    inside, outside = transmission([0.0, 20 * D], g)
    assert inside == 1.0
    assert outside == 0.0


def test_translate_by_full_period_is_identity():
    g = GratingSpec(period=D, open_fraction=0.35)
    shifted = translate_grating(g, D)
    x = np.linspace(-5 * D, 5 * D, 2001)
    assert np.array_equal(transmission(x, g), transmission(x, shifted))


def test_translate_half_period_complements_half_open_grating():
    g = GratingSpec(period=D, open_fraction=0.5)
    shifted = translate_grating(g, D / 2)
    # stay clear of the open-edge points, where both masks report open
    x = np.linspace(-5 * D, 5 * D, 4001)
    edges = np.minimum(np.abs((x % D) - 0.25 * D), np.abs((x % D) - 0.75 * D))
    interior = edges > 1e-3 * D
    a = transmission(x[interior], g)
    b = transmission(x[interior], shifted)
    assert np.array_equal(a, 1.0 - b)


def test_translate_shift_definition():
    g = GratingSpec(period=D, open_fraction=0.35, offset=0.1 * D)
    shifted = translate_grating(g, 0.25 * D)
    probe = np.linspace(-2 * D, 2 * D, 1001)
    assert np.array_equal(transmission(probe, shifted), transmission(probe - 0.25 * D, g))


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
    masked = np.array([np.sum(intensity * transmission(x, translate_grating(grating, off))) for off in offsets])
    folded = comb_throughput(x, intensity, grating, offsets)
    assert np.max(np.abs(folded - masked) / masked) <= 1e-12


def test_apply_plane_pure_mask_is_exact():
    # a phase model with no strength leaves the grating a real 0/1 mask
    x = centered_x()
    g = GratingSpec(period=D, open_fraction=0.35)
    t = transmission(x, g, PhaseModel())
    assert not np.iscomplexobj(t)
    assert np.array_equal(t, transmission(x, g))
    assert set(np.unique(t)) == {0.0, 1.0}


def test_apply_plane_nearly_open_grating_keeps_flux():
    t = transmission(centered_x(), GratingSpec(period=D, open_fraction=0.999))
    assert np.sum(np.abs(t) ** 2) >= 0.998 * t.size


def test_apply_plane_never_increases_probability():
    rng = np.random.default_rng(11)
    n = 2048
    amp = rng.normal(size=n) + 1j * rng.normal(size=n)
    x = GridSpec(-n / 2 * 1e-9, 1e-9, n).x
    phase = PhaseModel(image_charge_strength=2e-9, random_phase_max=0.7, rng_seed=5)
    for element in (
        ApertureSpec(width=0.4e-6),
        GratingSpec(period=D, open_fraction=0.35),
    ):
        out = amp * transmission(x, element, phase, plane_index=1)
        assert np.sum(np.abs(out) ** 2) <= np.sum(np.abs(amp) ** 2) * (1 + 1e-12)


def test_transmission_fraction_matches_open_fraction():
    x = centered_x(n=100_000)
    t = transmission(x, GratingSpec(period=D, open_fraction=0.35))
    measured = np.sum(np.abs(t) ** 2) / t.size
    cell_per_period = (x[1] - x[0]) / D  # quantization: one grid cell per period
    assert measured == pytest.approx(0.35, abs=cell_per_period + 1e-6)


def test_aperture_window_indicator():
    slit = ApertureSpec(width=2e-6, center=0.5e-6)
    center, edge, past = transmission([0.5e-6, 1.5e-6, 1.6e-6], slit)
    assert center == 1.0
    assert edge == 1.0  # edge open
    assert past == 0.0


def test_apply_plane_requires_overlap():
    with pytest.raises(ValueError, match="aperture does not overlap"):
        transmission(centered_x(n=256), ApertureSpec(width=1e-7, center=1.0))
    # off-axis grid entirely outside the (axis-centered) grating extent
    off_axis = GridSpec(1.0, 1e-9, 256).x
    with pytest.raises(ValueError, match="grating extent does not overlap"):
        transmission(off_axis, GratingSpec(period=D, open_fraction=0.35, extent=1e-6), phase=None)


def test_transmission_refuses_other_elements_and_negative_planes():
    with pytest.raises(TypeError, match="unsupported plane element"):
        transmission(centered_x(n=256), PhaseModel())
    with pytest.raises(ValueError, match="plane_index must be nonnegative"):
        transmission(centered_x(n=256), GratingSpec(period=D), plane_index=-1)


@each_phase
@each_comb
@pytest.mark.parametrize(
    ("period_per_step", "periods"),
    [pytest.param(40, 20, id="40"), pytest.param(383.4, 20, id="383.4"), pytest.param(383.4, 60, id="383.4x60")],
)
def test_transmission_matches_a_loop_over_slits(period_per_step, periods, grating, phase):
    # oracle: visit the slits one by one. Slit n is open on
    # |x - n d - offset| <= f d / 2 (the same relative-ulp pad) inside the
    # extent; its points take the image-charge phase of their distance to
    # the wall plus the slit's own random draw. 60 periods at 383.4 steps
    # are 23,005 samples, three blocks of the build; the offset comb has a
    # slit open across the first block edge
    dx = D / period_per_step
    n = int(periods * period_per_step) + 1
    x = GridSpec(-(n - 1) / 2 * dx, dx, n).x
    d, half = grating.period, 0.5 * grating.open_fraction * grating.period
    expected = np.zeros(n, dtype=complex)
    first = int(np.floor((x[0] - grating.offset) / d)) - 1
    last = int(np.ceil((x[-1] - grating.offset) / d)) + 1
    for slit in range(first, last + 1):
        dist = np.abs(x - slit * d - grating.offset)
        inside = (dist <= half * (1 + 1e-12)) & (np.abs(x) <= 0.5 * grating.extent)
        phi = np.zeros(np.count_nonzero(inside))
        if phase is not None and phase.image_charge_strength > 0.0:
            wall = half - dist[inside]
            strength, reach = phase.image_charge_strength, phase.image_charge_range
            phi += strength / reach * np.exp(-wall / reach)
        if phase is not None and phase.random_phase_max > 0.0:
            phi += _slit_random_phase(phase.rng_seed, 2, slit, phase.random_phase_max)
        expected[inside] = np.exp(1j * phi)
    got = transmission(x, grating, phase, plane_index=2)
    assert np.count_nonzero(expected) > 0
    # the oracle's distance x - n d - offset rounds apart from the comb's
    # (u - n) d by an ulp of the position, so the image-charge phases part
    # by up to about 1e-15 on a 20-period grid, and in proportion wider
    assert np.max(np.abs(got - expected)) <= 1e-15 * periods / 20


def blocks_x(count, period_per_step=383.4):
    dx = D / period_per_step
    return GridSpec(-(count - 1) / 2 * dx, dx, count).x


@each_phase
@each_comb
@pytest.mark.parametrize("count", [7, 8192, 8193, 23_005])
def test_blockwise_transmission_equals_the_whole_array_build(count, grating, phase):
    # 8,192 samples are one block of the build, 8,193 put one sample in a
    # second block, and 23,005 are three blocks with edges inside open slits
    x = blocks_x(count)
    got = transmission(x, grating, phase, plane_index=2)
    expected = transmission_whole(x, grating, phase, plane_index=2)
    assert got.dtype == expected.dtype
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_unsorted_samples_take_their_slits_draws():
    # shuffled, the open samples of one slit no longer come in one run
    x = np.random.default_rng(5).permutation(blocks_x(23_005))
    grating = GratingSpec(period=D, offset=0.3 * D)
    phase = PhaseModel(image_charge_strength=1e-9, random_phase_max=1.3, rng_seed=11)
    got = transmission(x, grating, phase, plane_index=2)
    assert np.array_equal(got.view(np.uint64), transmission_whole(x, grating, phase, plane_index=2).view(np.uint64))


@pytest.mark.parametrize("count", [7, 8192, 8193, 23_005])
def test_blockwise_window_equals_the_whole_array_build(count):
    x = blocks_x(count)
    slit = ApertureSpec(width=0.5 * (x[-1] - x[0]), center=0.1 * x[-1])
    assert np.array_equal(transmission(x, slit).view(np.uint64), transmission_whole(x, slit).view(np.uint64))


@pytest.mark.parametrize("plane", ["phased G1", "hard G1", "slit 2"])
def test_a_default_grid_transmission_holds_block_sized_temporaries(plane):
    # a whole-array build holds grid-length temporaries beside its output
    # (8.7, 5.5 and 1.8 MB on this grid); a block-by-block one holds a few
    # blocks and the per-slit draws
    cfg = BeamlineConfig(phase_model=PhaseModel(image_charge_strength=1e-9, random_phase_max=0.5))
    x = beamline_grid(cfg).x
    args = {
        "phased G1": (cfg.gratings[0], cfg.phase_model, 1),
        "hard G1": (cfg.gratings[0], None, 1),
        "slit 2": (cfg.second_slit,),
    }[plane]
    tracemalloc.start()
    try:
        out = transmission(x, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes <= 1 << 20


@pytest.mark.parametrize("extent", [math.inf, 7 * D], ids=["unbounded", "7d"])
def test_every_open_slit_draws_its_random_phase_once(monkeypatch, extent):
    grating = GratingSpec(period=D, offset=0.3 * D, extent=extent)
    x = blocks_x(23_005)
    slit, _, open_pts = _comb_coordinates(x, grating)
    open_pts &= np.abs(x) <= 0.5 * extent
    draws = []

    def counted(seed, plane_index, slit_index, limit):
        draws.append(slit_index)
        return _slit_random_phase(seed, plane_index, slit_index, limit)

    monkeypatch.setattr(elements, "_slit_random_phase", counted)
    transmission(x, grating, PhaseModel(random_phase_max=1.0, rng_seed=4), plane_index=1)
    assert sorted(draws) == sorted(set(slit[open_pts].tolist()))


def test_random_phase_deterministic_and_order_free():
    x = centered_x()
    g = GratingSpec(period=D, open_fraction=0.35)
    phase = PhaseModel(random_phase_max=1.3, rng_seed=77)
    a = transmission(x, g, phase, plane_index=1)
    b = transmission(x, g, phase, plane_index=1)
    assert np.array_equal(a, b)


def test_random_phase_varies_with_plane_and_seed():
    x = centered_x()
    g = GratingSpec(period=D, open_fraction=0.35)
    phase = PhaseModel(random_phase_max=1.3, rng_seed=77)
    p1 = transmission(x, g, phase, plane_index=1)
    p2 = transmission(x, g, phase, plane_index=2)
    other = transmission(x, g, PhaseModel(random_phase_max=1.3, rng_seed=78), plane_index=1)
    assert not np.array_equal(p1, p2)
    assert not np.array_equal(p1, other)


def test_random_phase_constant_within_slit():
    x = centered_x()
    g = GratingSpec(period=D, open_fraction=0.35)
    phase = PhaseModel(random_phase_max=1.0, rng_seed=9)
    out = transmission(x, g, phase, plane_index=1)
    in_slit0 = np.abs(x) <= 0.5 * 0.35 * D
    angles = np.angle(out[in_slit0])
    assert np.ptp(angles) < 1e-12
    assert 0.0 <= angles[0] <= 1.0


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**32 + 5, 2**64 + 3])
def test_slit_random_phase_is_numpys_stream(seed):
    # every key word count: one- to three-word seeds, slits whose zigzag
    # needs one or two words; int and np.int64 keys draw the same bits
    slits = [*range(-3, 301), 2**31, -(2**31), 2**32]
    wide = np.int64(seed) if seed < 2**63 else seed
    for plane in (0, 1, 2):
        for slit in slits:
            for limit in (0.5, 1.3, math.pi):
                expected = slit_random_phase_numpy(seed, plane, slit, limit)
                for key in ((seed, plane, slit), (wide, np.int64(plane), np.int64(slit))):
                    drawn = _slit_random_phase(*key, limit)
                    assert type(drawn) is float
                    assert np.float64(drawn).view(np.uint64) == np.float64(expected).view(np.uint64), (key, limit)


def test_image_charge_phase_profile():
    x = centered_x()
    g = GratingSpec(period=D, open_fraction=0.35)
    strength, rng_len = 3e-9, 2e-8
    phase = PhaseModel(image_charge_strength=strength, image_charge_range=rng_len)
    out = transmission(x, g, phase)
    wall = 0.5 * 0.35 * D
    # at the slit wall the phase is strength/range; at the center it has decayed
    edge_idx = np.argmin(np.abs(x - wall))
    center_idx = np.argmin(np.abs(x))
    assert np.angle(out[edge_idx]) == pytest.approx(strength / rng_len, rel=0.05)
    expected_center = strength / rng_len * np.exp(-wall / rng_len)
    assert np.angle(out[center_idx]) == pytest.approx(expected_center, rel=0.05)


def test_open_edge_pad_carries_the_slit_phase():
    # a sample a few ulp past the slit wall counts as open, so it gets the
    # wall's image-charge phase (strength/range = 0.15 rad) and the slit's draw
    x = GridSpec(0.5 * 0.35 * D * (1 + 3e-13), 1e-9, 4).x
    phase = PhaseModel(image_charge_strength=3e-9, image_charge_range=2e-8, random_phase_max=1.0, rng_seed=3)
    out = transmission(x, GratingSpec(D), phase, plane_index=1)
    assert abs(out[0]) == pytest.approx(1.0)
    assert np.angle(out[0]) >= 0.15


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
