import math
import os
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from dataclasses import replace
from scipy import fft

from talbotlau import (
    ApertureSpec,
    BeamEnergy,
    BeamlineConfig,
    FringeCurve,
    GratingSpec,
    GridSpec,
    PhaseModel,
    SamplingError,
    beamline_grid,
    comb_throughput,
    contrast,
    de_broglie_wavelength,
    leg_required_dx,
    misalignment_factor,
    scan_fringe,
    sweep_energy,
    translate_grating,
    transmission,
)
from talbotlau import constants as const
from talbotlau import interferometer, kinematics
from talbotlau.interferometer import _fringe_totals, _slit2_run, _source_positions
from talbotlau.propagation import _transfer

from kernels import carried_from_run, leg1_closed_form, propagate_direct

D = 1e-7


def fast_config(**overrides):
    """Narrow-slit, few-source beamline: ~5k grid points, fractions of a second."""
    kwargs = dict(second_slit=ApertureSpec(2e-6), n_sources=8)
    kwargs.update(overrides)
    return BeamlineConfig(**kwargs)


def at_step(cfg, step):
    # cfg with grid_points pinned so that its window has a step of at most ``step``
    return replace(cfg, grid_points=math.ceil(beamline_grid(cfg).span / step) + 1)


def translated(cfg, delta):
    return replace(cfg, gratings=tuple(translate_grating(g, delta) for g in cfg.gratings))


def throughput_at(cfg, offset):
    return _fringe_totals(cfg, np.array([offset]))[0]


def test_throughput_periodic_in_grating_period():
    cfg = fast_config()
    t0 = throughput_at(cfg, 0.3 * D)
    t1 = throughput_at(cfg, 1.3 * D)
    assert abs(t1 - t0) <= 1e-9 * t0


def test_translation_by_one_period_is_identity():
    cfg = fast_config()
    t0 = throughput_at(cfg, 0.3 * D)
    t1 = throughput_at(translated(cfg, D), 0.3 * D)
    assert abs(t1 - t0) <= 1e-12 * t0


def test_fractional_translation_shifts_fringe_with_comb():
    # fixed slit envelope and binary-mask quantization limit this to ~1e-3
    cfg = fast_config()
    t0 = throughput_at(cfg, 0.3 * D)
    t1 = throughput_at(translated(cfg, D / 3), 0.3 * D)
    assert abs(t1 - t0) <= 1e-2 * t0


def test_nearly_open_gratings_pass_beam():
    # the 0.1 nm bars need a sub-bar grid step or mask quantization
    # swallows a full sample per period
    open_grating = GratingSpec(period=D, open_fraction=0.999)
    cfg = at_step(fast_config(gratings=(open_grating,) * 3, n_sources=4), 2.5e-10)
    assert throughput_at(cfg, 0.0) >= 0.99


def test_direct_kernel_scan_tracks_paraxial():
    # the scan run with the direct reference kernel on every leg lands near
    # the fast kernel's fringe; the gap between the two kernels on long legs
    # is a separate convergence question
    cfg = BeamlineConfig(
        source_slit=ApertureSpec(1e-6), second_slit=ApertureSpec(1e-6), n_sources=2, grid_points=2049
    )
    paraxial = scan_fringe(cfg, 8)
    direct = FringeCurve(
        paraxial.offsets, full_grid_totals(cfg, paraxial.offsets, beamline_grid(cfg), propagate_direct), D
    )
    mean = paraxial.throughput.mean()
    assert np.max(np.abs(direct.throughput - paraxial.throughput)) <= 0.02 * mean
    assert abs(contrast(direct) - contrast(paraxial)) <= 0.01


def full_grid_totals(cfg, offsets, grid, kernel=carried_from_run, field=0.0):
    # the scan as a loop over the whole grid: every source's field is built
    # on all samples, slit 2 is applied as a 0/1 mask, and each leg
    # propagates with the linear ``kernel`` on the grid it was given, then
    # is rescaled to the flux it received; the throughput is read per unit
    # of flux at G1, which that rescaling makes the flux through slit 2.
    # A uniform ``field`` [T] over G1 -> G3 pushes the beam along x with
    # the force q v B: each grating leg takes half its momentum kick
    # q B dz before and half after, exp(i q B (dz / 2) x / hbar), which is
    # exact up to a global phase for a force uniform in x
    x = grid.x
    lam = de_broglie_wavelength(cfg.energy)
    g1, g2, g3 = cfg.gratings
    slit2 = transmission(x, cfg.second_slit)
    t1 = transmission(x, g1, cfg.phase_model, plane_index=1)
    t2 = transmission(x, g2, cfg.phase_model, plane_index=2)
    kick = np.exp(1j * -const.E_CHARGE * field * (cfg.grating_gap / 2) * x / const.HBAR)

    def leg(amp, dz):
        out = kernel(amp, grid, lam, dz)
        p_out = np.sum(np.abs(out) ** 2)
        return out * math.sqrt(np.sum(np.abs(amp) ** 2) / p_out) if p_out > 0.0 else out

    intensity = np.zeros(grid.count)
    for x_s in _source_positions(cfg):
        amp = np.exp(2j * np.pi * np.hypot(x - x_s, cfg.slit_separation) / lam) * slit2
        p_in = np.sum(np.abs(amp) ** 2)
        psi = leg(amp, cfg.slit2_to_g1)
        psi = kick * leg(kick * psi * t1, cfg.grating_gap)
        psi = kick * leg(kick * psi * t2, cfg.grating_gap)
        intensity += np.abs(psi) ** 2 / p_in
    return comb_throughput(x, intensity, g3, offsets) / cfg.n_sources


def test_a_field_inside_the_wave_shifts_the_fringe_by_q_b_gap_squared_over_p():
    # a force uniform over G1 -> G3 moves the classical path at the three
    # gratings by x1 - 2 x2 + x3 = a T^2 = q B gap^2 / p, the response of a
    # three-grating deflectometer (Oberthaler et al., PRA 54, 3165 (1996));
    # on the narrow slit the fringe moves by 0.987 and 0.991 of it. A fringe
    # f(o - s) has the first harmonic exp(-2 pi i s / d) times f's
    cfg = fast_config()
    offsets = np.arange(64) * (D / 64)
    grid = beamline_grid(cfg)
    wave = np.exp(-2j * np.pi * offsets / D)
    at_rest = np.sum(full_grid_totals(cfg, offsets, grid) * wave)
    p = const.H / de_broglie_wavelength(cfg.energy)
    for field in (1.81e-7, 3.62e-7):
        shifted = np.sum(full_grid_totals(cfg, offsets, grid, field=field) * wave)
        shift = -np.angle(shifted / at_rest) * D / (2 * np.pi)
        assert shift / (-const.E_CHARGE * field * cfg.grating_gap**2 / p) == pytest.approx(1.0, abs=0.02)


def clipped_grid(cfg, last_x):
    # the scan's grid cut short so that its last sample sits at last_x
    grid = beamline_grid(cfg)
    return GridSpec(grid.x_start, grid.dx, int(round((last_x - grid.x_start) / grid.dx)) + 1)


def assert_scan_matches_full_grid_loop(cfg, grid):
    offsets = np.arange(8) * (D / 8)
    expected = full_grid_totals(cfg, offsets, grid)
    got = _fringe_totals(cfg, offsets)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(expected)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(
            n_sources=4,
            phase_model=PhaseModel(image_charge_strength=1e-9, random_phase_max=0.5, rng_seed=3),
        ),
    ],
    ids=["paraxial"],
)
def test_scan_from_the_slit2_opening_matches_the_full_grid_loop(overrides):
    cfg = fast_config(**overrides)
    assert_scan_matches_full_grid_loop(cfg, beamline_grid(cfg))


RANDOM_AND_IMAGE_PHASE = PhaseModel(image_charge_strength=1e-9, random_phase_max=0.5, rng_seed=3)
IMAGE_PHASE = PhaseModel(image_charge_strength=1e-9)


def use_workers(monkeypatch, workers):
    monkeypatch.setattr(interferometer, "_worker_count", lambda n_sources: min(workers, n_sources))


def use_batch_rows(monkeypatch, rows):
    monkeypatch.setattr(interferometer, "_batch_rows", lambda n_sources, workers, fft_len: rows)


def assert_same_at_any_worker_count(monkeypatch, cfg):
    n_sources = cfg.n_sources
    offsets = np.arange(8) * (D / 8)
    totals = []
    for rows in sorted({1, 2, 3, n_sources}):
        use_batch_rows(monkeypatch, rows)
        for workers in (1, 2, 3):
            use_workers(monkeypatch, workers)
            totals.append(_fringe_totals(cfg, offsets))
    assert all(np.array_equal(totals[0], other) for other in totals[1:])
    expected = full_grid_totals(cfg, offsets, beamline_grid(cfg))
    assert np.max(np.abs(totals[0] - expected)) <= 1e-12 * np.max(expected)


@pytest.mark.parametrize("n_sources", [1, 4, 5])
def test_scan_is_the_same_at_any_worker_count(monkeypatch, n_sources):
    # 5 sources on 2 workers leave the last one alone in its round, and
    # batches of 2 or 3 rows leave a short last batch
    cfg = fast_config(n_sources=n_sources, phase_model=RANDOM_AND_IMAGE_PHASE)
    assert_same_at_any_worker_count(monkeypatch, cfg)


def carried_sources(monkeypatch, cfg, grid=None):
    """Sources a scan of ``cfg`` carries: the rows its legs take, three legs each."""
    rows = []
    carry = interferometer._carry

    def count(buf, *args):
        rows.append(buf.shape[0])
        return carry(buf, *args)

    with monkeypatch.context() as patch:
        patch.setattr(interferometer, "_carry", count)
        if grid is not None:
            patch.setattr(interferometer, "beamline_grid", lambda _: grid)
        _fringe_totals(cfg, np.arange(8) * (D / 8))
    assert sum(rows) % 3 == 0
    return sum(rows) // 3


def offset_gratings(cfg, *deltas):
    return replace(cfg, gratings=tuple(translate_grating(g, d) for g, d in zip(cfg.gratings, deltas)))


@pytest.mark.parametrize(
    "n_sources, grid_points", [(1, None), (4, None), (5, None), (5, 6000)], ids=["1", "4", "5", "5-even-grid"]
)
def test_mirrored_scan_is_the_same_at_any_worker_count(monkeypatch, n_sources, grid_points):
    # the image-charge phase keeps the beamline mirror-symmetric, so only
    # ceil(N / 2) sources are carried; 5 sources carry 3, whose last is the
    # middle source at x = 0, and the even grid has no sample at x = 0
    cfg = fast_config(n_sources=n_sources, phase_model=IMAGE_PHASE, grid_points=grid_points)
    assert carried_sources(monkeypatch, cfg) == (n_sources + 1) // 2
    assert_same_at_any_worker_count(monkeypatch, cfg)


@pytest.mark.parametrize("n_sources", [4, 5])
def test_a_mirror_symmetric_scan_carries_half_the_sources(monkeypatch, n_sources):
    # the G3 offset is read after the sources are summed, so it keeps the
    # shortcut
    base = fast_config(n_sources=n_sources)
    for cfg in (base, replace(base, phase_model=IMAGE_PHASE), offset_gratings(base, 0.0, 0.0, 0.2 * D)):
        assert carried_sources(monkeypatch, cfg) == (n_sources + 1) // 2


@pytest.mark.parametrize(
    "change",
    [
        lambda cfg: replace(cfg, source_slit=ApertureSpec(5e-6, center=0.2e-6)),
        lambda cfg: replace(cfg, second_slit=ApertureSpec(2e-6, center=0.3e-6)),
        lambda cfg: offset_gratings(cfg, 0.2 * D, 0.0, 0.0),
        lambda cfg: offset_gratings(cfg, 0.0, 0.2 * D, 0.0),
        lambda cfg: replace(cfg, phase_model=RANDOM_AND_IMAGE_PHASE),
    ],
    ids=["source-slit-center", "second-slit-center", "g1-offset", "g2-offset", "random-phase"],
)
def test_an_asymmetric_beamline_carries_every_source(monkeypatch, change):
    cfg = change(fast_config(n_sources=5))
    assert carried_sources(monkeypatch, cfg) == 5
    assert_scan_matches_full_grid_loop(cfg, beamline_grid(cfg))


def test_an_off_center_grid_carries_every_source(monkeypatch):
    cfg = fast_config(n_sources=5)
    grid = clipped_grid(cfg, 1.5e-6)
    assert carried_sources(monkeypatch, cfg, grid) == 5


@pytest.mark.parametrize("n_sources", [1, 2, 5, 32])
@pytest.mark.parametrize("width", [5e-6, 3.7e-6])
def test_sources_on_a_centered_slit_are_exactly_antisymmetric(n_sources, width):
    sources = _source_positions(fast_config(source_slit=ApertureSpec(width), n_sources=n_sources))
    assert np.array_equal(sources, -sources[::-1])
    # the midpoints of n equal strips across the slit
    assert sources[0] == pytest.approx((0.5 / n_sources - 0.5) * width, rel=1e-12)
    assert np.allclose(np.diff(sources), width / n_sources, rtol=1e-12, atol=0.0)


def test_more_workers_than_cpus_with_fast_thread_switching(monkeypatch):
    # a workspace shared between two workers, or a sum out of source
    # order, would change bits here
    cfg = fast_config(n_sources=8, phase_model=RANDOM_AND_IMAGE_PHASE)
    offsets = np.arange(8) * (D / 8)
    use_workers(monkeypatch, 1)
    expected = _fringe_totals(cfg, offsets)
    use_workers(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert np.array_equal(_fringe_totals(cfg, offsets), expected)
    finally:
        sys.setswitchinterval(interval)


def test_worker_count_is_the_available_cpus_capped_by_the_sources(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert [interferometer._worker_count(n) for n in (1, 2, 3, 32)] == [1, 2, 3, 3]
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert interferometer._worker_count(32) == 1


def test_batch_rows_fill_one_budget_balanced_over_the_rounds(monkeypatch):
    def fft_len(cfg):
        return fft.next_fast_len(2 * beamline_grid(cfg).count - 1, real=True)

    # a default-grid row alone is over the budget; the narrow grid's
    # 10,935-point rows fit 5, balanced to 4 per batch over 4 rounds of 2
    assert (fft_len(BeamlineConfig()), fft_len(fast_config())) == (442_368, 10_935)
    assert interferometer._batch_rows(32, 2, 442_368) == 1
    assert interferometer._batch_rows(32, 2, 10_935) == 4
    budget = interferometer._BATCH_BYTES
    for m in (100, 10_935, 65_536, 65_537, 442_368):
        fit = max(1, budget // (16 * m))
        for workers in (1, 2, 3, 8):
            for n_sources in (1, 2, 5, 7, 32, 33, 100):
                rows = interferometer._batch_rows(n_sources, workers, m)
                assert rows >= 1 and (rows == 1 or rows * 16 * m <= budget)
                # balancing keeps the rounds that full batches would take
                assert math.ceil(n_sources / (workers * rows)) == math.ceil(n_sources / (workers * fit))
    # one CPU carries multi-row batches without a helper thread
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    seen = []
    batch_rows = interferometer._batch_rows

    def spy(*args):
        seen.append(batch_rows(*args))
        return seen[-1]

    def refuse(thread):
        raise AssertionError("a helper thread was started")

    monkeypatch.setattr(interferometer, "_batch_rows", spy)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    scan_fringe(fast_config(n_sources=8), 8)
    assert seen == [4]


def test_one_cpu_starts_no_helper_thread(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)

    def refuse(thread):
        raise AssertionError("a helper thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    scan_fringe(fast_config(n_sources=4), 8)


def test_a_helper_error_leaves_scan_fringe_with_no_thread_running(monkeypatch):
    use_workers(monkeypatch, 2)
    carry = interferometer._carry

    def fail_off_the_calling_thread(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("leg failed in a helper")
        return carry(*args, **kwargs)

    monkeypatch.setattr(interferometer, "_carry", fail_off_the_calling_thread)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="leg failed in a helper"):
        scan_fringe(fast_config(n_sources=4), 8)
    assert threading.active_count() == threads


def test_a_scan_builds_each_leg_spectrum_once(monkeypatch):
    # with a second CPU, the calling thread still builds every mask and
    # both leg spectra, and builds them before the first helper starts
    use_workers(monkeypatch, 2)
    cfg = fast_config(n_sources=4)
    events = []
    build = interferometer.transmission
    start = threading.Thread.start

    def on_caller():
        return threading.current_thread() is threading.main_thread()

    def count(*args):
        events.append(("spectrum", args[3], on_caller()))
        return _transfer(*args)

    def spy(x, spec, phase=None, plane_index=0):
        events.append(("plane", plane_index, on_caller()))
        return build(x, spec, phase, plane_index)

    def started(thread):
        events.append(("thread",))
        return start(thread)

    monkeypatch.setattr(interferometer, "_transfer", count)
    monkeypatch.setattr(interferometer, "transmission", spy)
    monkeypatch.setattr(threading.Thread, "start", started)
    scan_fringe(cfg, 8)
    spectra = [e[1:] for e in events if e[0] == "spectrum"]
    assert sorted(spectra) == sorted([(cfg.slit2_to_g1, True), (cfg.grating_gap, True)])
    assert sorted(e[1:] for e in events if e[0] == "plane") == [(0, True), (1, True), (2, True)]
    threads = [i for i, e in enumerate(events) if e[0] == "thread"]
    assert threads and all(i < threads[0] for i, e in enumerate(events) if e[0] == "spectrum")


def test_a_failing_spectrum_build_starts_no_thread(monkeypatch):
    use_workers(monkeypatch, 2)
    cfg = fast_config(n_sources=4)
    gap_threads = []

    def fail_the_gap(*args):
        if args[3] == cfg.grating_gap:
            gap_threads.append(threading.current_thread())
            raise RuntimeError("gap spectrum failed")
        return _transfer(*args)

    def refuse(thread):
        raise AssertionError("a helper thread was started")

    monkeypatch.setattr(interferometer, "_transfer", fail_the_gap)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="gap spectrum failed"):
        scan_fringe(cfg, 8)
    assert threading.active_count() == threads
    assert gap_threads == [threading.main_thread()]


def test_a_closed_second_slit_is_refused_before_the_gratings_are_built(monkeypatch):
    # the 0.5 nm slit sits halfway between the samples at 0 and 1 nm; the
    # calling thread fails before it hands the helper any job
    use_workers(monkeypatch, 2)
    cfg = fast_config(second_slit=ApertureSpec(0.5e-9, center=0.5e-9), n_sources=2)
    built = []
    build = interferometer.transmission

    def spy(x, spec, *args, **kwargs):
        built.append(spec)
        return build(x, spec, *args, **kwargs)

    monkeypatch.setattr(interferometer, "transmission", spy)
    threads = threading.active_count()
    with pytest.raises(ValueError, match="no flux passes the second collimation slit"):
        throughput_at(cfg, 0.0)
    assert threading.active_count() == threads
    assert built == [cfg.second_slit]


@pytest.mark.parametrize("workers", [1, 2])
def test_the_g3_fold_starts_after_the_scan_frees_its_buffers(monkeypatch, workers):
    # on a grid whose gap leg runs as a four-step FFT (M = 81,000), only the
    # grid and the summed intensity, n floats each, are alive as the fold
    # starts: no workspace, leg spectrum, mask or batch result stacks under
    # the fold's temporaries
    use_workers(monkeypatch, workers)
    n = 40_001
    cfg = fast_config(n_sources=4, grid_points=n)
    fold = interferometer.comb_throughput
    alive = []

    def spy(*args):
        alive.append(tracemalloc.get_traced_memory()[0])
        return fold(*args)

    monkeypatch.setattr(interferometer, "comb_throughput", spy)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _fringe_totals(cfg, np.arange(8) * (D / 8))
    finally:
        tracemalloc.stop()
    assert len(alive) == 1
    assert alive[0] - before <= 2 * 8 * n + (64 << 10)


def test_a_scan_that_carries_one_source_on_two_cpus_allocates_one_workspace(monkeypatch):
    # a mirror-symmetric beamline carries one of its two sources, so a
    # second CPU would get no source and needs no workspace; one
    # workspace of this grid is about 1.3 MB
    cfg = fast_config(n_sources=2, grid_points=40_001)
    assert carried_sources(monkeypatch, cfg) == 1
    peaks = []
    for workers in (1, 2):
        use_workers(monkeypatch, workers)
        tracemalloc.start()
        try:
            _fringe_totals(cfg, np.arange(8) * (D / 8))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + (64 << 10)


def test_a_non_finite_mask_is_refused(monkeypatch):
    build = interferometer.transmission

    def nan_in_g1(x, spec, phase=None, plane_index=0):
        t = build(x, spec, phase, plane_index)
        if plane_index == 1:
            t = t.astype(float)
            t[x.size // 2] = np.nan
        return t

    monkeypatch.setattr(interferometer, "transmission", nan_in_g1)
    with pytest.raises(ValueError, match="the G1 transmission has non-finite values"):
        throughput_at(fast_config(n_sources=2), 0.0)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_g1_that_passes_no_sample_gives_an_all_zero_fringe(monkeypatch, workers):
    # no flux leaves G1, so every source's weight has a zero denominator
    use_workers(monkeypatch, workers)
    grating = GratingSpec(period=D, extent=1e-10)
    cfg = fast_config(n_sources=4, gratings=(replace(grating, offset=5e-8), grating, grating))
    x = beamline_grid(cfg).x
    assert not np.any(transmission(x, cfg.gratings[0], cfg.phase_model, plane_index=1))
    curve = scan_fringe(cfg, 8)
    assert np.array_equal(curve.throughput, np.zeros(8))


def test_a_non_finite_leg_spectrum_is_refused(monkeypatch):
    def nan_in_spectrum(*args):
        spectrum = _transfer(*args)
        values = spectrum.values.copy()
        values.flat[1] = np.nan
        return replace(spectrum, values=values)

    monkeypatch.setattr(interferometer, "_transfer", nan_in_spectrum)
    # the slit 2 to G1 spectrum is checked before the grating gap's
    with pytest.raises(ValueError, match="the slit 2 to G1 spectrum has non-finite values"):
        throughput_at(fast_config(n_sources=2), 0.0)


def test_slit2_opening_one_sample_matches_the_full_grid_loop():
    # the fast config's grid has a sample at x = 0 and a 1 nm step
    cfg = fast_config(second_slit=ApertureSpec(0.5e-9), n_sources=4)
    grid = beamline_grid(cfg)
    assert np.count_nonzero(np.abs(grid.x) <= 0.25e-9) == 1
    assert_scan_matches_full_grid_loop(cfg, grid)


@pytest.mark.parametrize("width", [0.5e-9, 2e-6], ids=["last-sample", "half-open"])
def test_slit2_clipped_by_the_window_edge_matches_the_full_grid_loop(monkeypatch, width):
    # slit 2 is centered on the last sample of the window, so the window
    # edge cuts it: it opens that one sample, or the half of it inside
    cfg = fast_config(n_sources=4)
    grid = clipped_grid(cfg, 0.3e-6)
    cfg = replace(cfg, second_slit=ApertureSpec(width, center=float(grid.x[-1])))
    monkeypatch.setattr(interferometer, "beamline_grid", lambda _: grid)
    assert_scan_matches_full_grid_loop(cfg, grid)


def test_slit2_off_the_window_is_refused(monkeypatch):
    cfg = fast_config(n_sources=2)
    grid = clipped_grid(cfg, -1.5e-6)
    monkeypatch.setattr(interferometer, "beamline_grid", lambda _: grid)
    with pytest.raises(ValueError, match="aperture does not overlap the field grid"):
        throughput_at(cfg, 0.0)


def test_slit2_between_two_samples_is_refused():
    # the 0.5 nm slit sits halfway between the samples at 0 and 1 nm
    cfg = fast_config(second_slit=ApertureSpec(0.5e-9, center=0.5e-9), n_sources=2)
    with pytest.raises(ValueError, match="no flux passes the second collimation slit"):
        throughput_at(cfg, 0.0)


def test_single_centered_source_bounded_by_open_fraction():
    cfg = fast_config(n_sources=1)
    for off in (0.0, 0.25 * D, 0.5 * D):
        t = throughput_at(cfg, off)
        assert 0.0 < t <= 0.35


def test_scan_offsets_cover_one_period():
    cfg = fast_config(n_sources=2)
    curve = scan_fringe(cfg, 8)
    assert np.allclose(curve.offsets, np.arange(8) * D / 8)
    assert curve.offsets[-1] == pytest.approx(D * 7 / 8)
    assert curve.period == D


def test_single_offset_throughput_is_its_scan_point():
    cfg = fast_config(n_sources=2)
    curve = scan_fringe(cfg, 8)
    for k in (0, 3, 7):
        assert throughput_at(cfg, curve.offsets[k]) == curve.throughput[k]


def test_scan_needs_at_least_8_offsets():
    with pytest.raises(ValueError):
        scan_fringe(fast_config(), 4)


def test_fringe_modulates_at_resonance():
    cfg = fast_config(energy=BeamEnergy(8728.0))
    curve = scan_fringe(cfg, 8)
    assert curve.throughput.max() / curve.throughput.min() > 1.2


NARROW = BeamlineConfig(second_slit=ApertureSpec(2e-6))


def fringe_64(cfg):
    return _fringe_totals(cfg, np.arange(64) * (D / 64))


@pytest.mark.parametrize(
    "cfg, g1, g2",
    [(NARROW, 0.0, 0.2), (NARROW, 0.1, -0.05), (NARROW, 0.3, -0.15), (BeamlineConfig(n_sources=4), 0.1, -0.05)],
    ids=["narrow-g2-only", "narrow-0.1", "narrow-0.3", "default-0.1"],
)
def test_negating_the_g1_and_g2_offsets_reverses_the_fringe(cfg, g1, g2):
    # mirroring x -> -x maps the beamline onto the one with both offsets
    # negated, and G3 offset k onto -k mod 64. These offsets make the scan
    # carry every source, so the full-carry path is checked against the
    # symmetry that the mirror shortcut assumes
    plus = fringe_64(offset_gratings(cfg, g1 * D, g2 * D, 0.0))
    minus = fringe_64(offset_gratings(cfg, -g1 * D, -g2 * D, 0.0))
    assert np.max(np.abs(plus - np.roll(minus[::-1], 1))) <= 1e-12 * plus.mean()


@pytest.mark.parametrize("grating", [0, 1, 2], ids=["g1", "g2", "g3"])
def test_moving_one_grating_by_a_period_leaves_the_fringe(grating):
    # each comb takes its offset modulo d: G1's and G2's transmissions
    # keep their bits, and G3's fold reads offsets shifted by d
    deltas = [0.0, 0.0, 0.0]
    deltas[grating] = D
    base = fringe_64(NARROW)
    moved = fringe_64(offset_gratings(NARROW, *deltas))
    if grating < 2:
        assert np.array_equal(moved, base)
    else:
        assert np.max(np.abs(moved - base)) <= 1e-15 * base.mean()


@pytest.mark.parametrize("cfg, bound", [(BeamlineConfig(), 2.5e-3), (NARROW, 3e-2)], ids=["default", "narrow"])
@pytest.mark.parametrize("middle", [True, False], ids=["middle-source", "edge-source"])
def test_leg_1_of_a_point_source_matches_the_closed_form(cfg, bound, middle):
    # the scan's field of one source at slit 2, carried to G1, against the
    # Fresnel integrals over slit 2's open cells, up to one fitted complex
    # constant c. The bounds are the transfer-function leg's own error:
    # 1.95e-3 and 2.44e-2 relative L2 were measured. |c| is the constant
    # that leg1_closed_form leaves out, sqrt(pi / (k alpha)) / sqrt(lambda
    # l2) = 0.6432675, matched within 3.5e-6
    grid = beamline_grid(cfg)
    x = grid.x
    lam = de_broglie_wavelength(cfg.energy)
    l1, l2 = cfg.slit_separation, cfg.slit2_to_g1
    lo, hi = _slit2_run(cfg, x)
    sources = _source_positions(cfg)
    x_s = sources[sources.size // 2] if middle else sources[0]
    amp = np.exp(2j * np.pi * np.hypot(x[lo:hi] - x_s, l1) / lam)
    got = carried_from_run(amp, grid, lam, l2, lo)
    want = leg1_closed_form(grid, lo, hi, x_s, l1, l2, lam)
    c = np.vdot(want, got) / np.vdot(want, want)
    assert np.linalg.norm(got - c * want) <= bound * np.linalg.norm(got)
    k_alpha = 2.0 * math.pi / lam * (1.0 / l1 + 1.0 / l2)
    assert abs(c) == pytest.approx(math.sqrt(math.pi / k_alpha) / math.sqrt(lam * l2), rel=1e-5)


def fringe_shift(base, moved):
    # the shift s, in periods, with moved(x) = base(x - s), from the phase
    # of the first harmonic
    return -np.angle(np.fft.fft(moved)[1] / np.fft.fft(base)[1]) / (2 * np.pi)


def test_g1_and_g2_offsets_move_the_fringe_by_the_three_grating_law():
    # a G1 offset d1 and a G2 offset d2 move the fringe by 2 d2 - d1: the
    # x1 - 2 x2 + x3 weighting of misalignment_factor. A 2 um slit lights
    # only about 20 periods, so the law holds to about 2e-3 periods here
    base = fringe_64(NARROW)
    g1 = fringe_shift(base, fringe_64(offset_gratings(NARROW, 0.1 * D, 0.0, 0.0)))
    g2 = fringe_shift(base, fringe_64(offset_gratings(NARROW, 0.0, 0.1 * D, 0.0)))
    assert g1 == pytest.approx(-0.1, abs=1e-2)
    assert g2 == pytest.approx(0.2, abs=1e-2)


@pytest.mark.parametrize("energy_ev", [1e4, 5600.0], ids=["10keV", "5.6keV"])
@pytest.mark.parametrize("s", [0.5, 2.0])
def test_the_scan_is_invariant_under_fresnel_scaling(energy_ev, s):
    # the paraxial beamline sees the wavelength and the distances only
    # through lambda z and the ratios of distances: lambda -> s lambda with
    # every distance divided by s keeps the grid and the fringe. What moves
    # is the rounding of the ~1e11 rad point-source phase: 1.8e-7 and
    # 1.0e-8 of the mean at 10 keV, 3.4e-7 and 5.0e-8 at 5.6 keV, measured
    cfg = replace(NARROW, energy=BeamEnergy(energy_ev))
    lam = de_broglie_wavelength(cfg.energy)
    scaled = replace(
        cfg,
        energy=BeamEnergy(kinematics._energy_for_wavelength(s * lam)),
        slit_separation=cfg.slit_separation / s,
        slit2_to_g1=cfg.slit2_to_g1 / s,
        grating_gap=cfg.grating_gap / s,
    )
    assert beamline_grid(scaled) == beamline_grid(cfg)
    base = scan_fringe(cfg, 16).throughput
    assert np.max(np.abs(scan_fringe(scaled, 16).throughput - base)) <= 5e-7 * base.mean()


def test_fringe_symmetric_about_extremum_with_zero_phases():
    curve = scan_fringe(fast_config(), 16)
    t = curve.throughput
    k = int(np.argmax(t))
    rolled = np.roll(t, -k)  # extremum at index 0; symmetry t[j] == t[-j]
    assert np.allclose(rolled[1:], rolled[1:][::-1], rtol=0.05, atol=0.02 * t.mean())


def test_scan_deterministic_with_random_phases():
    phase = PhaseModel(random_phase_max=0.8, rng_seed=123)
    cfg = fast_config(phase_model=phase, n_sources=4)
    a = scan_fringe(cfg, 8).throughput
    b = scan_fringe(cfg, 8).throughput
    assert np.array_equal(a, b)
    other = replace(cfg, phase_model=PhaseModel(random_phase_max=0.8, rng_seed=124))
    c = scan_fringe(other, 8).throughput
    assert not np.array_equal(a, c)


def test_strong_random_phases_wash_out_contrast():
    base = fast_config(energy=BeamEnergy(8728.0), n_sources=4)
    clean = contrast(scan_fringe(base, 8))
    noisy = replace(base, phase_model=PhaseModel(random_phase_max=2 * np.pi, rng_seed=5))
    dirty = contrast(scan_fringe(noisy, 8))
    assert dirty < clean


def test_source_count_convergence():
    cfg = fast_config(energy=BeamEnergy(5950.0))
    c32 = contrast(scan_fringe(replace(cfg, n_sources=32), 8))
    c64 = contrast(scan_fringe(replace(cfg, n_sources=64), 8))
    assert abs(c64 - c32) / c32 < 0.02


def test_contrast_basics():
    const = FringeCurve(np.arange(8) * D / 8, np.full(8, 2.0), D)
    assert contrast(const) == 0.0
    zero_min = FringeCurve(np.arange(8) * D / 8, np.array([0.0, 1, 2, 3, 3, 2, 1, 0.5]), D)
    assert contrast(zero_min) == 1.0
    phases = np.arange(64) * D / 64
    sinus = FringeCurve(phases, 5.0 * (1 + 0.3 * np.cos(2 * np.pi * phases / D)), D)
    assert contrast(sinus) == pytest.approx(0.3, abs=1e-3)
    with pytest.raises(ValueError):
        contrast(FringeCurve(np.arange(8) * D / 8, np.zeros(8), D))


def test_contrast_scale_invariance():
    phases = np.arange(16) * D / 16
    t = 1.0 + 0.4 * np.cos(2 * np.pi * phases / D)
    a = contrast(FringeCurve(phases, t, D))
    b = contrast(FringeCurve(phases, 7.3 * t, D))
    assert a == pytest.approx(b, rel=1e-12)


def test_sweep_energy_guards_gun_range():
    # the gun range is checked where a sweep is configured
    # (tests/test_config.py::test_sweep_energies_outside_the_gun_range_rejected);
    # the simulator itself runs any energy
    cfg = fast_config(n_sources=2)
    out = sweep_energy(cfg, [3000.0], n_offsets=8)
    assert len(out) == 1 and out[0][0] == 3000.0


# the automatic grids of these energies have 14,791, 5,457, 9,697, 5,457
# and 6,571 points, so the pool's workers finish out of input order
UNEVEN_ENERGIES = [400e3, 5e3, 200e3, 10e3, 100e3]


def count_thread_starts(monkeypatch):
    """The threads started from now on, each with the thread that started it."""
    started = []
    start = threading.Thread.start

    def spy(thread):
        started.append(threading.current_thread())
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    return started


@pytest.mark.parametrize("phase_model", [PhaseModel(), RANDOM_AND_IMAGE_PHASE], ids=["mirrored", "random-phase"])
def test_sweep_is_the_same_at_any_worker_count(monkeypatch, phase_model):
    cfg = fast_config(n_sources=5, phase_model=phase_model)
    sweeps = []
    for workers in (1, 2, 3):
        use_workers(monkeypatch, workers)
        sweeps.append(sweep_energy(cfg, UNEVEN_ENERGIES, n_offsets=8))
    assert sweeps[0] == sweeps[1] == sweeps[2]
    assert [e for e, _ in sweeps[0]] == UNEVEN_ENERGIES
    use_workers(monkeypatch, 1)
    for e_ev, c in sweeps[0]:
        assert c == contrast(scan_fringe(replace(cfg, energy=BeamEnergy(e_ev)), 8))


def test_a_sweep_on_two_cpus_runs_two_serial_scans(monkeypatch):
    # each scan gets one CPU, so only the sweep's two pool workers start
    use_workers(monkeypatch, 2)
    started = count_thread_starts(monkeypatch)
    sweep_energy(fast_config(n_sources=4), UNEVEN_ENERGIES, n_offsets=8)
    assert started == [threading.main_thread()] * 2


def test_a_one_cpu_sweep_starts_one_pool_worker_and_no_scan_helper(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    started = count_thread_starts(monkeypatch)
    assert len(sweep_energy(fast_config(n_sources=4), [5e3, 1e4], n_offsets=8)) == 2
    assert started == [threading.main_thread()]


def test_a_one_energy_sweep_on_two_cpus_starts_its_scans_helper(monkeypatch):
    # the pool's one worker runs the scan, on both CPUs
    use_workers(monkeypatch, 2)
    started = count_thread_starts(monkeypatch)
    sweep_energy(fast_config(n_sources=4), [1e4], n_offsets=8)
    assert len(started) == 2 and started[0] is threading.main_thread()
    assert started[1] is not threading.main_thread()


def test_the_first_failing_energy_in_input_order_leaves_sweep_energy(monkeypatch):
    # the fourth energy fails at once, the third only after a while; the
    # third's error is raised, once no scan is running
    use_workers(monkeypatch, 2)
    energies = [5e3, 6e3, 7e3, 8e3, 9e3]
    totals = interferometer._fringe_totals

    def fail_third_and_fourth(cfg, *args):
        e_ev = cfg.energy.kinetic_energy_ev
        if e_ev == energies[2]:
            time.sleep(0.2)
            raise RuntimeError("third energy failed")
        if e_ev == energies[3]:
            raise RuntimeError("fourth energy failed")
        return totals(cfg, *args)

    monkeypatch.setattr(interferometer, "_fringe_totals", fail_third_and_fourth)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="third energy failed"):
        sweep_energy(fast_config(n_sources=4), energies, n_offsets=8)
    assert threading.active_count() == threads


@pytest.mark.parametrize(
    "energies, n_offsets, message",
    [([5e3] * 19 + [0.0], 8, "beam energy must be positive"), ([5e3] * 20, 4, "n_offsets must be at least 8")],
    ids=["bad-last-energy", "too-few-offsets"],
)
def test_bad_sweep_arguments_are_refused_before_any_scan(monkeypatch, energies, n_offsets, message):
    scans = []
    totals = interferometer._fringe_totals

    def count(*args):
        scans.append(args)
        return totals(*args)

    monkeypatch.setattr(interferometer, "_fringe_totals", count)
    with pytest.raises(ValueError, match=message):
        sweep_energy(fast_config(n_sources=2), energies, n_offsets=n_offsets)
    assert scans == []


def test_misalignment_factor_values():
    assert misalignment_factor(33e-6, 0.0, D) == 1.0
    assert misalignment_factor(33e-6, 1e-3, D) == pytest.approx(0.42, abs=0.02)
    # full-period phase spread washes the fringe out completely
    assert misalignment_factor(D / 2e-3, 1e-3, D) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        misalignment_factor(0.0, 1e-3, D)


def test_beamline_grid_satisfies_sampling():
    # a slit-2-to-G1 leg shorter than the grating gap sets the automatic step
    for cfg in (fast_config(), BeamlineConfig(n_sources=2), BeamlineConfig(n_sources=2, slit2_to_g1=1e-3)):
        grid = beamline_grid(cfg)
        for name, need in leg_required_dx(cfg, grid.span):
            assert grid.dx <= need, name


def test_explicit_coarse_grid_refused_with_diagnostic():
    cfg = at_step(fast_config(), 5e-9)
    with pytest.raises(SamplingError) as err:
        throughput_at(cfg, 0.0)
    assert "required dx" in str(err.value)
    # the refusal names the key and the smallest count that passes every leg
    suggested = int(re.search(r"set \[beamline\] grid_points to at least (\d+)", str(err.value)).group(1))
    with pytest.raises(SamplingError):
        throughput_at(replace(cfg, grid_points=suggested - 1), 0.0)
    assert throughput_at(replace(cfg, grid_points=suggested), 0.0) > 0.0


def test_grid_points_override():
    cfg = fast_config(grid_points=30001)
    grid = beamline_grid(cfg)
    assert grid.count == 30001


def test_misconfigured_slit_errors():
    # beamline_grid always contains slit 2, so a slit 2 placed 1 m off axis
    # asks for a window too wide to sample; the overlap check that refuses
    # slit 2 outside the window is reached only with a substituted grid
    # (test_slit2_off_the_window_is_refused)
    cfg = fast_config(second_slit=ApertureSpec(width=2e-6, center=1.0))
    with pytest.raises(ValueError, match="would need more than 64000000 samples; the geometry"):
        throughput_at(cfg, 0.0)


def test_beamline_validation():
    with pytest.raises(ValueError):
        BeamlineConfig(gratings=(GratingSpec(period=D),) * 2)
    with pytest.raises(ValueError):
        BeamlineConfig(n_sources=0)
    with pytest.raises(TypeError):
        BeamlineConfig(propagator="angular")  # one kernel: no kernel choice
    with pytest.raises(ValueError):
        BeamlineConfig(window_factor=0.5)
    for count in (-1, 15):
        with pytest.raises(ValueError, match="grid_points"):
            BeamlineConfig(grid_points=count)


def test_fringe_curve_validation():
    with pytest.raises(ValueError):
        FringeCurve(np.array([0.0, 1e-8]), np.array([1.0]), D)
    with pytest.raises(ValueError):
        FringeCurve(np.array([1e-8, 0.0]), np.array([1.0, 1.0]), D)
    with pytest.raises(ValueError):
        FringeCurve(np.array([0.0, 1e-8]), np.array([1.0, -1.0]), D)
    for period in (0.0, -D, np.inf, np.nan):
        with pytest.raises(ValueError):
            FringeCurve(np.array([0.0, 1e-8]), np.array([1.0, 1.0]), period)
    # the offsets must fit inside one period
    with pytest.raises(ValueError):
        FringeCurve(np.array([0.0, D]), np.array([1.0, 1.0]), D)
