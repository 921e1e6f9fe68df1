"""Three-grating beamline assembly and its fringe observables.

A run carries point sources spread across the first collimation slit
through the second slit and three gratings, sums their G3 intensities
incoherently, and integrates the flux behind the third grating.
Throughput against the third grating's lateral offset is the fringe
curve; its (max - min)/(max + min) is the contrast. Every offset is read
from one fold of the summed intensity (``elements.comb_throughput``).

A scan carries its sources in batches on the calling thread and one
helper thread per further CPU. Each worker owns one workspace of rows as
long as the grating legs' FFT, one source per row, and every leg runs in
place on it. The calling thread builds the masks, then slit 2 -> G1's
spectrum in the first workspace, while with a second worker a helper
builds the grating gap's in the last; with one worker the calling thread
builds both, one after the other. Every job goes through the operations
it would on one thread and rows are summed in source order, so a scan's
result is the same bits at any worker count and batch size.
A sweep runs its energies side by side on one pool, each scan on an
equal share of the CPUs, so it is the same bits at any CPU count too.

On a beamline that is exactly mirror-symmetric about x = 0
(``_mirror_symmetric``), source -x_s gives source x_s's G3 intensity
reversed, so a scan carries only the first ceil(N / 2) sources and adds
each one twice. An off-axis slit, a G1 or G2 offset, a random slit phase
or an off-center grid breaks the symmetry, and the scan then carries
every source.

The magnetic field is not inserted into the wave propagation: a field
shifts the fringe laterally, so it is emulated downstream by translating
the third grating (see ``sensing``).
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import math
import os

import numpy as np

from .elements import ApertureSpec, GratingSpec, PhaseModel, comb_throughput, transmission
from .kinematics import BeamEnergy, de_broglie_wavelength
from .propagation import (
    _BATCH_BYTES,
    GridSpec,
    SamplingError,
    _carry,
    _fft_len,
    _transfer,
    _work_size,
    required_dx,
)

__all__ = [
    "BeamlineConfig",
    "FringeCurve",
    "beamline_grid",
    "leg_required_dx",
    "scan_fringe",
    "contrast",
    "sweep_energy",
    "misalignment_factor",
]

_DEFAULT_GRATING = GratingSpec(period=1e-7)

# most samples the shared grid may have
_MAX_SAMPLES = 64_000_000


@dataclass(frozen=True)
class FringeCurve:
    """Throughput sampled at increasing third-grating offsets.

    The fringe repeats every ``period`` [m]; the offsets lie within one
    period of the first.
    """

    offsets: np.ndarray
    throughput: np.ndarray
    period: float

    def __post_init__(self):
        off = np.asarray(self.offsets, dtype=float)
        thr = np.asarray(self.throughput, dtype=float)
        if off.ndim != 1 or off.size < 1 or off.shape != thr.shape:
            raise ValueError("offsets and throughput must be 1-D arrays of equal length")
        if off.size > 1 and not np.all(np.diff(off) > 0.0):
            raise ValueError("offsets must be strictly increasing")
        if not np.all(np.isfinite(thr)) or np.any(thr < 0.0):
            raise ValueError("throughput must be finite and nonnegative")
        if not 0.0 < self.period < math.inf:
            raise ValueError("period must be positive and finite")
        if not off[-1] < off[0] + self.period:
            raise ValueError("offsets must lie within one period of the first")
        object.__setattr__(self, "offsets", off)
        object.__setattr__(self, "throughput", thr)


@dataclass(frozen=True)
class BeamlineConfig:
    """Geometry, masks and numerics of the full beamline.

    Distances in meters: the two collimation slits sit ``slit_separation``
    apart, the first grating ``slit2_to_g1`` behind the second slit, and
    the three gratings ``grating_gap`` apart. A nonzero ``grid_points``
    pins the sample count of the shared transverse grid; 0 chooses the
    step automatically from the sampling criterion (at most 1 nm).
    """

    source_slit: ApertureSpec = ApertureSpec(width=5e-6)
    second_slit: ApertureSpec = ApertureSpec(width=30e-6)
    slit_separation: float = 0.24
    slit2_to_g1: float = 0.05
    grating_gap: float = 3.06e-3
    gratings: tuple = (_DEFAULT_GRATING, _DEFAULT_GRATING, _DEFAULT_GRATING)
    phase_model: PhaseModel = PhaseModel()
    energy: BeamEnergy = BeamEnergy(1e4)
    n_sources: int = 32
    grid_points: int = 0
    window_factor: float = 1.5

    def __post_init__(self):
        for name in ("slit_separation", "slit2_to_g1", "grating_gap"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if len(self.gratings) != 3:
            raise ValueError("exactly three gratings are required")
        if self.n_sources < 1:
            raise ValueError("n_sources must be at least 1")
        if self.grid_points and self.grid_points < 16:
            raise ValueError("grid_points must be 0 (automatic) or at least 16")
        if not self.window_factor >= 1.0:
            raise ValueError("window_factor must be at least 1")


def beamline_grid(cfg: BeamlineConfig) -> GridSpec:
    """Shared transverse grid used from the second slit through G3.

    The window is ``window_factor`` times the geometrically illuminated
    span at G3 (rays from the source-slit extremes through the second-slit
    edges). The automatic step is the tightest sampling bound over every
    leg on that window with a 0.8 safety factor, capped at 1 nm.
    """
    src_edge = abs(cfg.source_slit.center) + 0.5 * cfg.source_slit.width
    slit2_lo = cfg.second_slit.center - 0.5 * cfg.second_slit.width
    slit2_hi = cfg.second_slit.center + 0.5 * cfg.second_slit.width
    z_after = cfg.slit2_to_g1 + 2.0 * cfg.grating_gap
    half = 0.0
    for s in (-src_edge, src_edge):
        for e in (slit2_lo, slit2_hi):
            half = max(half, abs(e + (e - s) * z_after / cfg.slit_separation))
    half = max(half, 4.0 * cfg.gratings[0].period)
    span = 2.0 * half * cfg.window_factor
    need = min(dx for _, dx in leg_required_dx(cfg, span))
    # compared as products, as span / dx can overflow to inf or dx underflow
    # to 0; a window no count up to the cap samples is the geometry's fault
    unsampleable = not span <= _MAX_SAMPLES * need
    if cfg.grid_points:
        count = cfg.grid_points
        dx = span / (count - 1)
    else:
        dx = min(1e-9, 0.8 * need)
        count = int(math.ceil(span / dx)) + 1 if span <= _MAX_SAMPLES * dx else math.inf
        if count % 2 == 0:
            count += 1
    if count > _MAX_SAMPLES or unsampleable:
        fix = (
            "lower [beamline] grid_points"
            if cfg.grid_points and not unsampleable
            else "the geometry (slit centers/widths) is likely misconfigured"
        )
        raise ValueError(f"beamline grid would need more than {_MAX_SAMPLES} samples; {fix}")
    x_start = -0.5 * (count - 1) * dx
    return GridSpec(x_start=x_start, dx=dx, count=count)


def leg_required_dx(cfg: BeamlineConfig, span: float) -> list[tuple[str, float]]:
    """``required_dx`` of every propagation leg on a window ``span`` wide.

    A leg's reach is its widest source-target offset: half the window from
    the on-axis source to slit 2, the whole window on the grid-to-grid legs.
    """
    lam = de_broglie_wavelength(cfg.energy)
    legs = (
        ("source_to_slit2", cfg.slit_separation, 0.5 * span),
        ("slit2_to_g1", cfg.slit2_to_g1, span),
        ("g1_to_g2", cfg.grating_gap, span),
        ("g2_to_g3", cfg.grating_gap, span),
    )
    return [(name, required_dx(lam, dz, reach)) for name, dz, reach in legs]


def _require_sampling(cfg: BeamlineConfig, grid: GridSpec):
    # the automatic step always passes, so only a pinned grid_points fails
    needs = leg_required_dx(cfg, grid.span)
    for name, need in needs:
        if grid.dx > need:
            count = math.ceil(grid.span / min(dx for _, dx in needs)) + 1
            raise SamplingError(
                f"leg {name}: grid step {grid.dx:.4e} m too coarse; required dx <= {need:.4e} m; "
                f"set [beamline] grid_points to at least {count}, or to 0 for the automatic step"
            )


def _source_positions(cfg: BeamlineConfig) -> np.ndarray:
    """Midpoints of n_sources equal strips across the source slit.

    Each is an exact half-integer offset from the slit's center times the
    strip width, so a slit centered on 0 gives exactly antisymmetric
    sources: ``sources == -sources[::-1]``.
    """
    w = cfg.source_slit.width
    n = cfg.n_sources
    return cfg.source_slit.center + (np.arange(n) + (0.5 - 0.5 * n)) * (w / n)


def _slit2_run(cfg: BeamlineConfig, x: np.ndarray) -> tuple[int, int]:
    """Slit 2's open samples [lo, hi) on ``x``.

    The run is contiguous on the sorted grid, so lo is the mask's first
    maximum and hi is lo plus the open count; neither allocates, where an
    index array would take 8 bytes an open sample.
    """
    mask = transmission(x, cfg.second_slit)
    lo = int(np.argmax(mask))
    if mask[lo] == 0.0:
        raise ValueError("no flux passes the second collimation slit; check geometry")
    return lo, lo + int(np.count_nonzero(mask))


def _worker_count(n_jobs) -> int:
    """Threads that run n_jobs independent jobs: one per available CPU, at
    most n_jobs; ``math.inf`` jobs give every available CPU."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_jobs))


def _batch_rows(n_sources: int, workers: int, fft_len: int) -> int:
    """Sources per batch: as many FFT rows as fit ``_BATCH_BYTES``, at least
    one, spread evenly over the rounds in which every worker takes a batch."""
    fit = max(1, _BATCH_BYTES // (np.dtype(complex).itemsize * fft_len))
    rounds = math.ceil(n_sources / (workers * fit))
    return math.ceil(n_sources / (workers * rounds))


def _flux(a: np.ndarray, dx: float, scratch: np.ndarray) -> np.ndarray:
    """Total probability sum |a|^2 dx of each row, squaring into ``scratch``.

    A row is the last axis; the result keeps it with length 1, so that it
    broadcasts against ``a``.
    """
    sq = scratch[..., : a.shape[-1]]
    np.abs(a, out=sq)
    np.square(sq, out=sq)
    return np.sum(sq, axis=-1, keepdims=True) * dx


def _require_finite(amplitudes: np.ndarray, plane: str):
    if not np.all(np.isfinite(amplitudes)):
        raise ValueError(f"the {plane} has non-finite values")


def _mirror_symmetric(x, lo, hi, t1, t2, sources) -> bool:
    """Whether mirroring x -> -x maps the beamline onto itself bit for bit.

    The grid and the sources are antisymmetric, slit 2's open run [lo, hi)
    sits symmetrically on the grid, and G1 and G2 transmit palindromes.
    Then source -x_s's field at slit 2 is source x_s's reversed, since
    a - b is exactly -(b - a), and the even kernels carry that mirror image.
    """
    return (
        lo == x.size - hi
        and np.array_equal(x, -x[::-1])
        and np.array_equal(sources, -sources[::-1])
        and np.array_equal(t1, t1[::-1])
        and np.array_equal(t2, t2[::-1])
    )


def _fringe_totals(cfg: BeamlineConfig, offsets: np.ndarray, cpus=math.inf) -> np.ndarray:
    """Mean throughput over point sources at each offset, on at most ``cpus`` threads."""
    grid = beamline_grid(cfg)
    _require_sampling(cfg, grid)
    x = grid.x
    # the workspaces, spectra and masks die when the source sum returns, so
    # the fold's temporaries do not stack on them
    intensity = _summed_g3_intensity(cfg, x, grid.dx, cpus)
    return comb_throughput(x, intensity, cfg.gratings[2], offsets) / cfg.n_sources


def _summed_g3_intensity(cfg: BeamlineConfig, x: np.ndarray, dx: float, cpus) -> np.ndarray:
    """The summed G3 intensity of every point source, on at most ``cpus`` threads."""
    n = x.size
    lam = de_broglie_wavelength(cfg.energy)
    # each source's field is nonzero only where slit 2 is open, a
    # contiguous run [lo, hi) of the grid on which slit 2 transmits
    # exactly 1, so it is built there alone and carried to G1 from
    # there; the phases come from the scan's x, so they equal those of
    # the full grid. The G1 and G2 transmissions do not depend on the
    # source, so a scan builds them once, after slit 2 is found open
    lo, hi = _slit2_run(cfg, x)
    t1 = transmission(x, cfg.gratings[0], cfg.phase_model, 1)
    t2 = transmission(x, cfg.gratings[1], cfg.phase_model, 2)
    # the legs are linear, so a non-finite value can only come in with
    # an input: the chain's inputs are checked where they enter, not
    # per leg
    _require_finite(t1, "G1 transmission")
    _require_finite(t2, "G2 transmission")
    sources = _source_positions(cfg)
    # a mirror-symmetric beamline carries sources 0 .. ceil(N / 2) - 1
    # and adds each one's row again, reversed, for its partner
    # N - 1 - k; the middle source of an odd N is its own partner
    mirrored = _mirror_symmetric(x, lo, hi, t1, t2, sources)
    carried = sources[: (sources.size + 1) // 2] if mirrored else sources
    size = _fft_len(n)
    workers = min(cpus, _worker_count(carried.size))
    rows = _batch_rows(carried.size, workers, size)
    workers = min(workers, math.ceil(carried.size / rows))
    # a workspace also holds a spectrum build, so the two builds below
    # allocate only their kept halves
    spaces = [np.empty(max(rows * size, _work_size(n)), dtype=complex) for _ in range(workers)]
    s = hi - lo
    x_sub = x[lo:hi]

    def g3_intensity(space: np.ndarray, x_s: np.ndarray) -> np.ndarray:
        """The intensity at G3 of the sources at ``x_s``, one per row of ``space``.

        A row is as long as the grating gap's 2n - 1 tap FFT, so its
        tail past n holds n floats: the row's scratch, which also holds
        its returned intensity.
        """
        ws = space[: x_s.size * size].reshape(x_s.size, size)
        psi = ws[:, :n]
        scratch = ws[:, n:].view(float)
        # single-term direct kernel: unit-amplitude spherical wave from
        # one point, written at its own place on the grid
        amp = ws[:, lo:hi]
        _point_source_field(x_sub, x_s, cfg.slit_separation, lam, amp, scratch[:, :s])
        _require_finite(amp, "point-source field at slit 2")
        _carry(ws, lo, hi, first)
        arrived = _flux(psi, dx, scratch)
        if np.any(arrived <= 0.0):
            raise ValueError("no flux reaches the first grating; check geometry")
        passed = dx
        for t in (t1, t2):
            psi *= t
            passed = passed * _flux(psi, dx, scratch)
            _carry(ws, 0, n, gap)
            arrived = arrived * _flux(psi, dx, scratch)
        # a beamline that rescales each leg to its input flux, read per
        # unit of flux at G1, scales the raw |r3|^2 by dx F(t1 r1)
        # F(t2 r2) over F(r1) F(r2) F(r3), F the flux; a leg that
        # receives none passes none
        weight = np.divide(passed, arrived, out=np.zeros_like(arrived), where=arrived > 0.0)
        # the last _flux squared r3 into scratch[:, :n], and nothing has
        # written there since, so it already holds |r3|^2
        g3 = scratch[:, :n]
        g3 *= weight
        return g3

    intensity = np.zeros(n)
    # the gap spectrum builds in the last workspace: on a helper while the
    # calling thread builds slit 2 -> G1's in the first, or after it when
    # one worker's workspace is both. Then, each round, the calling thread
    # carries the first batch of sources and one helper per further worker
    # carries one of the next batches. The pool starts a thread only when
    # a job is submitted, reading a result raises a helper's error here,
    # and leaving the with block joins every helper, after an error too
    with ThreadPoolExecutor(max(1, workers - 1)) as helpers:
        build_gap = partial(_transfer, n, dx, lam, cfg.grating_gap, n, spaces[-1])
        gap_job = helpers.submit(build_gap) if workers > 1 else None
        first = _transfer(n, dx, lam, cfg.slit2_to_g1, max(n - lo, hi), spaces[0])
        gap = gap_job.result() if gap_job else build_gap()
        _require_finite(first.values, "slit 2 to G1 spectrum")
        _require_finite(gap.values, "grating gap spectrum")
        for k in range(0, carried.size, workers * rows):
            batches = [carried[j : j + rows] for j in range(k, min(k + workers * rows, carried.size), rows)]
            pending = [helpers.submit(g3_intensity, ws, x_s) for ws, x_s in zip(spaces[1:], batches[1:])]
            results = [g3_intensity(spaces[0], batches[0])] + [job.result() for job in pending]
            for i, row in enumerate((row for g3 in results for row in g3), start=k):
                intensity += row
                if mirrored and 2 * i + 1 != sources.size:
                    intensity += row[::-1]
    return intensity


def _point_source_field(x_sub, x_s, distance, lam, amp, r):
    """Unit-amplitude spherical waves exp(2 pi i r / lam) into the rows of ``amp``.

    Row j holds the wave of the source at ``x_s[j]`` on the samples
    ``x_sub``, ``distance`` downstream; ``r`` is a float scratch of
    ``amp``'s shape. The phase b = (2 pi r) (1 / lam) has the bits that
    numpy gives the imaginary part of 2 pi i r / lam, but at about 1e11
    rad libm reduces it by its slow exact path. So each row's first phase
    b0 is taken out: r = hypot(u, distance) lies in [distance, 2 distance]
    while |u| <= sqrt(3) distance, so a row's phases lie within a factor 2
    of b0, and b - b0 is exact (Sterbenz). Its cos and sin, a few hundred
    rad at most on the default grid, take the fast path, and each row is
    then turned by exp(i b0).
    """
    np.subtract(x_sub, x_s[:, None], out=r)
    np.hypot(r, distance, out=r)
    r *= 2.0 * np.pi
    r *= 1.0 / lam
    b0 = r[:, :1].copy()
    r -= b0
    np.cos(r, out=amp.real)
    np.sin(r, out=amp.imag)
    amp *= np.exp(1j * b0)


def _offsets(period: float, n_offsets: int) -> np.ndarray:
    """n_offsets uniform offsets over [0, period)."""
    if n_offsets < 8:
        raise ValueError("n_offsets must be at least 8")
    return np.arange(n_offsets) * (period / n_offsets)


def scan_fringe(cfg: BeamlineConfig, n_offsets: int = 16) -> FringeCurve:
    """Throughput at n_offsets uniform third-grating offsets over [0, d).

    The sources are propagated once; every offset is read from the same
    folded G3 intensity, so more offsets cost only a binary search each.
    """
    offsets = _offsets(cfg.gratings[2].period, n_offsets)
    return FringeCurve(offsets, _fringe_totals(cfg, offsets), cfg.gratings[2].period)


def contrast(curve: FringeCurve) -> float:
    """(max - min)/(max + min) of the sampled fringe."""
    hi = float(np.max(curve.throughput))
    lo = float(np.min(curve.throughput))
    if hi <= 0.0:
        raise ValueError("contrast is undefined for an all-zero fringe")
    return (hi - lo) / (hi + lo)


def sweep_energy(
    cfg: BeamlineConfig,
    energies_ev,
    n_offsets: int = 16,
) -> list[tuple[float, float]]:
    """Fringe contrast at each beam energy, all other parameters fixed.

    Every argument is checked before the first scan starts. If scans fail,
    the first failing energy's error is raised once every running scan
    has ended.
    """
    offsets = _offsets(cfg.gratings[2].period, n_offsets)
    energies = list(energies_ev)
    configs = [replace(cfg, energy=BeamEnergy(e_ev)) for e_ev in energies]
    workers = _worker_count(len(configs))
    cpus = _worker_count(math.inf) // workers

    def sweep_contrast(config):
        return contrast(FringeCurve(offsets, _fringe_totals(config, offsets, cpus), config.gratings[2].period))

    # each scan owns its helpers, if it has any, so no pool worker waits
    # on this pool. map raises the first error in input order and cancels
    # the energies not yet started; leaving the with block joins every
    # worker
    with ThreadPoolExecutor(workers) as pool:
        contrasts = list(pool.map(sweep_contrast, configs))
    return [(float(e_ev), c) for e_ev, c in zip(energies, contrasts)]


def misalignment_factor(beam_height: float, misalignment: float, period: float) -> float:
    """Contrast multiplier for a relative roll between the gratings.

    A roll angle spreads the fringe phase across the beam height; the
    fringe displacement span is 2 * angle * height, the x1 - 2 x2 + x3
    weighting of the three gratings, and the surviving contrast is |sinc|
    of that span over the period.
    """
    if not beam_height > 0.0 or not period > 0.0:
        raise ValueError("beam height and period must be positive")
    if misalignment < 0.0:
        raise ValueError("misalignment angle must be nonnegative")
    return abs(float(np.sinc(2.0 * misalignment * beam_height / period)))
