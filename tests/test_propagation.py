import inspect
import math
import tracemalloc

from fractions import Fraction

import numpy as np
import pytest
from scipy import fft

from talbotlau import BeamlineConfig, GridSpec, SamplingError, beamline_grid, de_broglie_wavelength, required_dx
from talbotlau.interferometer import _slit2_run
from talbotlau.propagation import (
    _BATCH_BYTES,
    _PAD_FACTOR,
    _carry,
    _next_fast_len,
    _split,
    _transfer,
    _twiddles,
    _work_size,
)

from kernels import carried_from_run, propagate_direct

LAM = 13.1e-12


def centered_grid(count, dx):
    return GridSpec(-(count - 1) / 2 * dx, dx, count)


def double_slit_field(grid, slit_width, separation):
    x = grid.x
    amp = (np.abs(x - separation / 2) <= slit_width / 2) | (np.abs(x + separation / 2) <= slit_width / 2)
    return amp.astype(complex)


def transfer(n, dx, dz, lo, s):
    # the spectrum of the leg from samples [lo, lo + s) onto an n-sample
    # grid, built in a work buffer of its own
    work = np.empty(_work_size(n), dtype=complex)
    return _transfer(n, dx, LAM, dz, max(n - lo, lo + s), work)


def flux(amplitudes, dx):
    return float(np.sum(np.abs(amplitudes) ** 2) * dx)


@pytest.mark.parametrize("count", [219_607, 6_000, 2])
def test_a_centered_grid_is_exactly_antisymmetric(count):
    # the default beamline grid, an even count and the smallest grid; the
    # step has no short binary expansion
    dx = 2.608107e-10
    x = GridSpec(-0.5 * (count - 1) * dx, dx, count).x
    assert np.array_equal(x, -x[::-1])
    if count % 2:
        assert x[count // 2] == 0.0


def test_an_off_center_grid_stays_within_one_ulp_of_its_exact_samples():
    dx = 0.7e-9
    for x_start, count in ((0.3e-6, 2001), (-2.9e-6, 4000), (-0.31e-6, 1001)):
        x = GridSpec(x_start, dx, count).x
        exact = [float(Fraction(x_start) + Fraction(dx) * i) for i in range(count)]
        ulp = np.spacing(max(abs(exact[0]), abs(exact[-1])))
        assert np.max(np.abs(x - exact)) <= ulp


def test_point_source_gives_flat_magnitude():
    amp = np.zeros(512, dtype=complex)
    amp[200] = 1.0
    target = centered_grid(512, 8e-9)
    out = propagate_direct(amp, GridSpec(-256e-9, 1e-9, 512), LAM, 1e-3, target)
    mag = np.abs(out)
    assert (mag.max() - mag.min()) / mag.mean() < 1e-12


def test_double_slit_far_field_period_matches_analytic():
    # oracle: two-slit interference period lambda * z / a
    separation, dz = 1.5e-6, 2.0
    src = centered_grid(4001, 1e-9)
    field = double_slit_field(src, 0.3e-6, separation)
    target = GridSpec(-60e-6, 30e-9, 4001)
    # co-centred grids: the widest offset is the sum of the half-spans
    assert src.dx <= required_dx(LAM, dz, 0.5 * src.span + 0.5 * target.span)
    out = propagate_direct(field, src, LAM, dz, target)
    intensity = np.abs(out) ** 2
    peaks = [
        i
        for i in range(1, intensity.size - 1)
        if intensity[i] > intensity[i - 1]
        and intensity[i] > intensity[i + 1]
        and intensity[i] > 0.3 * intensity.max()
    ]
    measured = np.diff(target.x[peaks]).mean()
    expected = LAM * dz / separation
    assert measured == pytest.approx(expected, rel=0.02)


def test_plane_wave_central_region_stays_flat():
    grid = centered_grid(4096, 2e-9)
    out = carried_from_run(np.ones(4096, dtype=complex), grid, LAM, 1e-4)
    center = np.abs(out[1548:2548]) ** 2
    assert center.max() / center.min() - 1 < 0.01


def test_paraxial_matches_direct_on_2048_point_double_slit():
    grid = centered_grid(2048, 4.2e-6 / 2048)
    field = double_slit_field(grid, 0.6e-6, 1.5e-6)
    dz = 3.06e-3
    # both kernels approximate the same linear operator, so their raw
    # complex amplitudes agree, the Fresnel prefactor and axial phase included
    direct = propagate_direct(field, grid, LAM, dz)
    paraxial = carried_from_run(field, grid, LAM, dz)
    assert np.linalg.norm(paraxial - direct) / np.linalg.norm(direct) <= 1e-4


def test_paraxial_is_linear_before_renormalization():
    # neither kernel rescales: both are linear in the field
    grid = centered_grid(2048, 2e-9)
    rng = np.random.default_rng(7)
    a1 = rng.normal(size=2048) + 1j * rng.normal(size=2048)
    a2 = rng.normal(size=2048) + 1j * rng.normal(size=2048)
    ca, cb = 0.7 - 0.2j, -1.3 + 0.5j
    for kernel in (carried_from_run, propagate_direct):
        f = lambda amp: kernel(amp, grid, LAM, 3.06e-3)
        combined = f(ca * a1 + cb * a2)
        superposed = ca * f(a1) + cb * f(a2)
        assert np.linalg.norm(combined - superposed) / np.linalg.norm(combined) < 1e-12, kernel


def padded_cyclic_convolution(amplitudes, dx, dz):
    # the paraxial operator by definition: zero-pad to 4x, multiply the
    # spectrum by the transfer function and keep the first n samples
    n = amplitudes.size
    m = fft.next_fast_len(math.ceil(4.0 * n))
    freq = fft.fftfreq(m, d=dx)
    h = np.exp(-1j * math.pi * LAM * dz * freq**2) * np.exp(2j * math.pi * dz / LAM)
    return fft.ifft(fft.fft(np.pad(amplitudes, (0, m - n))) * h)[:n]


def sub_grid_cases(n):
    # (first sample, sample count) of sub-grids of an n-sample grid: the
    # whole grid, a pair near the start, a middle run and the last samples
    cases = {(0, n), (3, 2), (n // 3, n // 2), (n - 5, 5)}
    return sorted((lo, s) for lo, s in cases if s >= 2 and lo >= 0 and lo + s <= n)


def sub_grid_field(grid, lo, s, rng):
    # support reaches both ends of the sub-grid, so the extreme taps
    # -(lo + s - 1) and n - 1 - lo are used; returns the field on the
    # sub-grid and zero-filled on the whole grid
    amp = rng.normal(size=s) + 1j * rng.normal(size=s)
    amp[[0, -1]] = [1.0 + 0.5j, -0.7 + 1.0j]
    return amp, np.pad(amp, (lo, grid.count - lo - s))


@pytest.mark.parametrize("zero_filled", [False, True])
@pytest.mark.parametrize("dz", [1e-4, 0.05])
@pytest.mark.parametrize("n", [2, 3, 16, 17, 1000, 1001])
def test_paraxial_equals_the_padded_cyclic_convolution(n, dz, zero_filled):
    # the field is carried from its sub-grid onto the grid, as the scan's
    # first leg does, or propagated as given zero-filled on the whole grid;
    # both are the same operator
    grid = centered_grid(n, 0.26e-9)
    rng = np.random.default_rng(n)
    for lo, s in sub_grid_cases(n):
        sub, whole = sub_grid_field(grid, lo, s, rng)
        expected = padded_cyclic_convolution(whole, grid.dx, dz)
        if zero_filled:
            out = carried_from_run(whole, grid, LAM, dz)
        else:
            out = carried_from_run(sub, grid, LAM, dz, lo)
        assert np.max(np.abs(out - expected)) / np.max(np.abs(expected)) <= 1e-12
        assert transfer(n, grid.dx, dz, lo, s).size == _next_fast_len(2 * max(n - lo, lo + s) - 1, real=True)


@pytest.mark.parametrize("real", [False, True])
def test_fast_length_is_scipys_next_fast_len(real):
    # scipy is the oracle only: the package transforms with numpy.fft
    targets = [*range(1, 20_001), 878_460, 442_368, 337_500]
    assert [_next_fast_len(t, real) for t in targets] == [fft.next_fast_len(t, real=real) for t in targets]


def spectrum_built_whole(n, dx, wavelength, delta_z, lo, s):
    # the live-tap spectrum as built from whole length-m arrays: taps t_d,
    # |d| < count, at d and M - d
    m = fft.next_fast_len(int(math.ceil(_PAD_FACTOR * n)))
    h = -1j * math.pi * wavelength * delta_z * fft.fftfreq(m, d=dx) ** 2
    h = np.exp(h) * np.exp(2j * math.pi * delta_z / wavelength)
    taps = fft.ifft(h)
    count = max(n - lo, lo + s)
    live = np.zeros(fft.next_fast_len(2 * count - 1, real=True), dtype=complex)
    live[:count] = taps[:count]
    live[live.size - count + 1 :] = taps[count - 1 : 0 : -1]
    return fft.fft(live)


def assert_even_spectrum_matches(spectrum, whole, tolerance):
    # ``whole`` is the natural-order spectrum. The kept rows 0 .. n2 // 2
    # of the transform-order view, and the dropped rows n2 - k2 read as
    # kept row k2 reversed, both match it
    n2, n1 = spectrum.shape
    assert spectrum.values.shape == (n2 // 2 + 1, n1)
    ordered = whole.reshape(n1, n2).T
    kept = spectrum.values
    mirrored = kept[(n2 - 1) // 2 : 0 : -1, ::-1]
    scale = np.max(np.abs(whole))
    assert np.max(np.abs(kept - ordered[: n2 // 2 + 1])) <= tolerance * scale
    assert np.max(np.abs(mirrored - ordered[n2 // 2 + 1 :]), initial=0.0) <= tolerance * scale


@pytest.mark.parametrize("n", [17, 19, 1001, 5457, 40_001, 65_600])
def test_blockwise_spectrum_equals_the_whole_array_build(n):
    # equal to rounding, not bit for bit: the build sums p = gcd(m, 2)
    # interleaved inverse FFTs of length m / p, which round differently
    # from one of length m. n = 19 and 40,001 pad to odd lengths m = 77 and
    # 160,083 (p = 1), n = 17, 1001, 5457 and 65,600 to p = 2. Rows up to
    # n = 5457 run one FFT call, so the spectrum is one kept row in natural
    # order; n = 40,001 and 65,600 run their legs and their length-m / p
    # sub-transforms as four-step FFTs, 65,600's on (405, 324)
    for lo, s in ((0, n), (n // 3, n // 2)):
        for dz in (3.06e-3, 0.05):
            built = transfer(n, 0.26e-9, dz, lo, s)
            assert (built.shape[0] > 1) == (n > 5457)
            assert_even_spectrum_matches(built, spectrum_built_whole(n, 0.26e-9, LAM, dz, lo, s), 1e-13)


def test_the_spectrum_build_runs_no_transform_of_the_padded_length(monkeypatch):
    # on a grid whose padded length m is even, a build's inverse FFTs are
    # half of m long, and no transform has length m
    n = 1001
    m = fft.next_fast_len(int(math.ceil(_PAD_FACTOR * n)))
    assert m % 2 == 0
    calls = transform_lengths(monkeypatch)
    for lo, s in ((0, n), (n // 3, n // 2)):
        transfer(n, 0.26e-9, 0.05, lo, s)
    lengths = [length for _, length in calls]
    assert lengths and max(lengths) < m
    assert lengths.count(m // 2) == 2 * 2


@pytest.mark.parametrize("leg", ["slit 2 to G1", "gap"])
def test_a_workspace_build_holds_its_kept_half_and_twiddles(monkeypatch, leg):
    # given a workspace, the build allocates the kept half of its spectrum,
    # the twiddle tables of the leg's transform and of its length-m/p
    # sub-transforms, and at most two twiddle blocks of _BATCH_BYTES.
    # pocketfft's plans and scratch are invisible to tracemalloc, so every
    # transform is also checked to be a row of at most _BATCH_BYTES: a
    # length-m/p one-call transform would allocate a scratch row that long
    cfg = BeamlineConfig()
    grid = beamline_grid(cfg)
    n = grid.count
    start, stop = _slit2_run(cfg, grid.x)
    dz, count = {"slit 2 to G1": (cfg.slit2_to_g1, max(n - start, stop)), "gap": (cfg.grating_gap, n)}[leg]
    m = _next_fast_len(int(math.ceil(_PAD_FACTOR * n)))
    sub_tables = _twiddles(*_split(m // math.gcd(m, 2)))
    lam = de_broglie_wavelength(cfg.energy)
    work = np.empty(_work_size(n), dtype=complex)
    calls = transform_lengths(monkeypatch)
    tracemalloc.start()
    try:
        spectrum = _transfer(n, grid.dx, lam, dz, count, work)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tables = sum(table.nbytes for pair in spectrum.twiddles + sub_tables for table in pair)
    assert peak <= spectrum.values.nbytes + tables + 2 * _BATCH_BYTES
    assert calls and all(16 * length <= _BATCH_BYTES for _, length in calls)


def assert_rows_are_carried_in_place_as_alone(n, leg1, batch_rows):
    # the scan's peak memory rests on every step transforming the rows in
    # place, and its bits on each row going through the same operations as
    # a field carried alone. Leg 1 (dz, lo, s) transforms a view shorter
    # than the rows, which are as long as the grating gap's FFT
    grid = centered_grid(n, 0.26e-9)
    dz, lo, s = leg1
    first = transfer(n, grid.dx, dz, lo, s)
    gap = transfer(n, grid.dx, 1e-3, 0, n)
    assert first.size < gap.size
    rng = np.random.default_rng(9)
    for rows in batch_rows:
        fields = rng.normal(size=(rows, s)) + 1j * rng.normal(size=(rows, s))
        buf = np.empty((rows, gap.size), dtype=complex)
        buf[:, lo : lo + s] = fields
        alone = [carried_from_run(field, grid, LAM, dz, lo) for field in fields]
        for spectrum, run in ((first, (lo, lo + s)), (gap, (0, n))):
            tracemalloc.start()
            try:
                _carry(buf, *run, spectrum)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            if spectrum.twiddles:
                # no step of a four-step leg copied the batch. A one-call
                # leg's spectrum multiply on several rows takes up to 128 KiB
                # of numpy's iterator buffers, more than its small batch
                assert peak < 16 * rows * spectrum.size
            assert all(np.array_equal(got, want) for got, want in zip(buf[:, :n], alone))
            alone = [carried_from_run(amp, grid, LAM, 1e-3) for amp in alone]


def test_a_leg_runs_in_the_buffer_it_is_given():
    # 9 rows also take pocketfft's multi-row SIMD path
    assert_rows_are_carried_in_place_as_alone(1001, (0.05, 1001 // 3, 1001 // 2), (1, 3, 9))


# a grid whose legs' rows are longer than one batch budget: the grating
# gap's M = 81,000, and leg 1's from slit 2's run [5000, 35001) is 72,000
FOUR_STEP_N = 40_001
FOUR_STEP_LEGS = {"leg 1": (1e-2, 5_000, 30_001), "gap": (1e-3, 0, FOUR_STEP_N)}


@pytest.mark.parametrize("leg", FOUR_STEP_LEGS)
def test_a_four_step_leg_equals_the_one_call_transform(leg):
    dz, lo, s = FOUR_STEP_LEGS[leg]
    n, dx = FOUR_STEP_N, 0.26e-9
    spectrum = transfer(n, dx, dz, lo, s)
    m = spectrum.size
    assert 16 * m > _BATCH_BYTES and spectrum.shape[0] > 1
    # one length-M FFT of the whole-array build's live taps is the
    # reference; in transform order, element (k2, k1) holds frequency
    # k2 + n2 k1
    whole = spectrum_built_whole(n, dx, LAM, dz, lo, s)
    assert_even_spectrum_matches(spectrum, whole, 1e-13)
    field = [1.0, 1j] @ np.random.default_rng(3).normal(size=(2, s))
    buf = np.zeros(m, dtype=complex)
    buf[lo : lo + s] = field
    expected = np.fft.ifft(np.fft.fft(buf) * whole)[:n]
    _carry(buf, lo, lo + s, spectrum)
    out = buf[:n]
    assert np.max(np.abs(out - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_a_four_step_leg_runs_in_place_with_the_bits_of_a_row_carried_alone():
    assert_rows_are_carried_in_place_as_alone(FOUR_STEP_N, FOUR_STEP_LEGS["leg 1"], (1, 3))


def transform_lengths(monkeypatch):
    # (name, length) of every numpy.fft.fft and ifft call from now on
    calls = []
    for name in ("fft", "ifft"):

        def counted(a, *args, name=name, transform=getattr(np.fft, name), **kwargs):
            calls.append((name, np.shape(a)[kwargs.get("axis", -1)]))
            return transform(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


@pytest.mark.parametrize("n", [1001, 32_768, 32_769, FOUR_STEP_N])
def test_only_a_row_within_the_budget_runs_a_transform_of_its_length(monkeypatch, n):
    # n = 32,768 gives M = 65,536, a row of exactly the budget, and
    # n = 32,769 the next 5-smooth length, 65,610
    spectrum = transfer(n, 0.26e-9, 1e-3, 0, n)
    m = spectrum.size
    buf = np.zeros(m, dtype=complex)
    buf[: n // 2] = 1.0
    calls = transform_lengths(monkeypatch)
    _carry(buf, 0, n, spectrum)
    if 16 * m <= _BATCH_BYTES:
        assert calls == [("fft", m), ("ifft", m)]
    else:
        n2, n1 = spectrum.shape
        assert calls == [("fft", n2), ("fft", n1), ("ifft", n1), ("ifft", n2)]
        assert m not in (length for _, length in calls)


def test_the_four_step_split_is_the_divisor_nearest_the_root():
    limit = 1 << 22
    smooth = [1]
    for p in (2, 3, 5):
        smooth = [f * p**k for f in smooth for k in range(int(math.log(limit, p)) + 1) if f * p**k <= limit]
    for m in sorted(smooth):
        n2, n1 = _split(m)
        assert n2 * n1 == m
        assert (n2 == 1) == (16 * m <= _BATCH_BYTES)
        if n2 == 1:
            continue
        # a 5-smooth m has a divisor within a factor sqrt(5) of sqrt(m), as
        # the odd powers of 5 show, and n1 is the nearest one
        root = math.sqrt(m)
        assert max(n1, n2) <= math.sqrt(5.0) * root * (1 + 1e-12)
        divisors = [d for d in smooth if d <= m and m % d == 0]
        assert abs(n1 - root) == min(abs(d - root) for d in divisors)


@pytest.mark.parametrize("dz", [1e-4, 0.05])
def test_direct_from_a_sub_grid_equals_the_zero_filled_field(dz):
    grid = centered_grid(301, 0.26e-9)
    rng = np.random.default_rng(5)
    for lo, s in sub_grid_cases(grid.count):
        sub, zero_filled = sub_grid_field(grid, lo, s, rng)
        expected = propagate_direct(zero_filled, grid, LAM, dz, grid)
        out = propagate_direct(sub, GridSpec(grid.x[lo], grid.dx, s), LAM, dz, grid)
        assert out.shape == (grid.count,)
        assert np.max(np.abs(out - expected)) / np.max(np.abs(expected)) <= 1e-12


def test_flux_conservation():
    # the Fresnel operator is unitary: a field that stays inside the window
    # keeps its flux through either kernel, with no rescaling
    grid = centered_grid(4096, 2e-9)
    gauss = np.exp(-((grid.x / 1.5e-6) ** 2)).astype(complex)
    for kernel in (carried_from_run, propagate_direct):
        out = kernel(gauss, grid, LAM, 3.06e-3)
        drift = abs(flux(out, grid.dx) - flux(gauss, grid.dx)) / flux(gauss, grid.dx)
        assert drift < 1e-6, kernel


def test_sampling_check_reference_point():
    # 13.1 pm over 3.06 mm with 10 um + 10 um half-spans needs about 1.0 nm
    grid = GridSpec(-10e-6, 10e-9, 2001)
    need = required_dx(LAM, 3.06e-3, 0.5 * grid.span + 0.5 * 20e-6)
    assert need == pytest.approx(1.0e-9, rel=0.01)
    assert not grid.dx <= need


def test_sampling_bound_linear_in_distance():
    assert required_dx(LAM, 2 * 3.06e-3, 20e-6) == pytest.approx(
        2 * required_dx(LAM, 3.06e-3, 20e-6), rel=1e-12
    )


def test_sampling_check_passes_fine_grid():
    grid = GridSpec(-1e-6, 1e-9, 2001)
    need = required_dx(LAM, 3.06e-3, 0.5 * grid.span + 0.5 * 2e-6)
    # the direct kernel applies the same criterion and runs
    assert propagate_direct(np.ones(2001, dtype=complex), grid, LAM, 3.06e-3).shape == (2001,)
    assert grid.dx <= need


def test_direct_refuses_coarse_grid_and_names_required_dx():
    grid = GridSpec(-10e-6, 10e-9, 2001)
    target = GridSpec(-10e-6, 10e-9, 2001)
    with pytest.raises(SamplingError) as err:
        propagate_direct(np.ones(2001, dtype=complex), grid, LAM, 3.06e-3, target)
    assert "required dx" in str(err.value)


def test_direct_checks_the_widest_offset_of_an_off_centre_sub_grid():
    # a source at the target's right edge reaches 20 um to its left edge,
    # twice the sum of the half-spans: the bound is 1.0021e-9, not 2.0023e-9
    target = GridSpec(-10e-6, 2e-9, 10001)
    src = GridSpec(target.x[-11], target.dx, 11)
    assert required_dx(LAM, 3.06e-3, target.span) == pytest.approx(1.0021e-9, rel=1e-4)
    with pytest.raises(SamplingError, match="required dx"):
        propagate_direct(np.ones(11, dtype=complex), src, LAM, 3.06e-3, target)


def test_reciprocity_under_reflection():
    grid = centered_grid(4096, 2e-9)
    sym = np.exp(-((grid.x / 1e-6) ** 2)) * (1 + 0.3 * np.cos(2 * np.pi * grid.x / 5e-7))
    field = sym.astype(complex)
    forward = carried_from_run(field, grid, LAM, 2e-3)
    swapped = carried_from_run(field[::-1], grid, LAM, 2e-3)
    assert np.linalg.norm(forward[::-1] - swapped) / np.linalg.norm(forward) < 1e-10


# (n, dx, dz, lo, s): a grating gap that runs one FFT call, one that runs
# a four-step FFT, and two leg-1 runs off the grid's center, the second
# with K = hi > n - lo
TRANSPOSE_LEGS = {
    "one-call gap": (5457, 1e-9, 3.06e-3, 0, 5457),
    "four-step gap": (219_607, 0.26e-9, 3.06e-3, 0, 219_607),
    "leg 1, K = n - lo": (5457, 1e-9, 0.05, 1000, 2000),
    "leg 1, K = hi": (5457, 1e-9, 0.05, 3000, 2000),
}


@pytest.mark.parametrize("leg", TRANSPOSE_LEGS)
def test_a_leg_is_transpose_symmetric(leg):
    # the taps are even, so the leg's matrix is symmetric: a . K(b) equals
    # b . K(a), with no conjugate. This checks the kept half spectrum and
    # its mirrored rows without a whole-array build
    n, dx, dz, lo, s = TRANSPOSE_LEGS[leg]
    grid = centered_grid(n, dx)
    rng = np.random.default_rng(n + lo)
    a, b = (rng.normal(size=s) + 1j * rng.normal(size=s) for _ in range(2))
    ab = a @ carried_from_run(b, grid, LAM, dz, lo)[lo : lo + s]
    ba = b @ carried_from_run(a, grid, LAM, dz, lo)[lo : lo + s]
    assert abs(ab - ba) <= 1e-13 * abs(ab)


def test_propagate_validation():
    grid = centered_grid(256, 1e-9)
    field = np.ones(256, dtype=complex)
    # linear, so no argument switches a rescale on: only the scan normalizes
    with pytest.raises(ValueError):
        propagate_direct(field, grid, LAM, 0.0)
    params = ["amplitudes", "grid", "wavelength", "delta_z", "target"]
    assert list(inspect.signature(propagate_direct).parameters) == params
    with pytest.raises(TypeError):
        propagate_direct(field, grid, LAM, 1e-3, None, True)
    # the direct kernel carries a sub-grid onto the target it is given
    sub = GridSpec(grid.x[100], grid.dx, 8)
    assert propagate_direct(np.ones(8, dtype=complex), sub, LAM, 1e-3, target=grid).shape == (256,)


def test_gridspec_validation():
    with pytest.raises(ValueError, match="at least 2 samples"):
        GridSpec(0.0, 1e-9, 1)
    for dx in (0.0, -1e-9):
        with pytest.raises(ValueError, match="dx must be positive"):
            GridSpec(0.0, dx, 4)
