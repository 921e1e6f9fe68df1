"""Plane-to-plane propagation of a 1-D scalar complex wavefield.

The beamline kernel is convolution with the quadratic-phase kernel
exp(i pi (x - x')^2 / (lambda dz)), evaluated as a padded cyclic FFT
convolution on a shared uniform grid. The operator is defined on a
buffer padded to ``_PAD_FACTOR`` times the grid, but n samples in and n
kept samples out touch only the 2n - 1 central taps of that padded kernel,
so each leg runs on an FFT of the 5-smooth length
``_next_fast_len(2n - 1, real=True)``, about half the padded length, with
the same taps. A field that lives on a contiguous run of s samples of its
n-sample target grid touches only n + s - 1 taps, and its FFT shrinks to
``_next_fast_len(n + s - 1, real=True)``. One leg is one linear in-place
step, ``_carry``, on the rows of a buffer the caller supplies: each row is
one field, and one FFT call along the last axis takes every row, with the
same bits as a row carried alone. ``propagate`` passes one 1-D row on the
field's own grid; the fringe scan passes each worker's batch of sources,
and carries slit 2's open run onto the whole grid.
``propagate_direct`` is the reference that tests compare against: a full
quadrature of exp(i 2 pi r / lambda) over every source sample, with r the
exact point-to-point path length, times the 1-D Fresnel prefactor
1 / sqrt(i lambda dz), O(N_src * N_tgt).
``required_dx(wavelength, delta_z, reach)`` is the one sampling
criterion: the largest step that keeps the direct kernel's phase change
below pi per sample at ``reach``, the widest source-target offset.
``propagate_direct`` refuses a source grid coarser than that, and the
beamline checks every leg against it.
Both kernels approximate one linear operator, the Fresnel propagator, which
keeps the flux of a field that stays inside the window; neither rescales
its output. Every downstream observable is a flux ratio, and only the
fringe scan normalizes, by one weight per source.
"""

from dataclasses import dataclass

import math
import mmap

import numpy as np

__all__ = [
    "SamplingError",
    "WaveField",
    "GridSpec",
    "required_dx",
    "propagate",
    "propagate_direct",
]

# zero-padding that defines the paraxial operator: its kernel is the
# inverse FFT of the transfer function sampled on this many times the grid
# length; padding below 4x leaves percent-level wrap-around from hard-edged
# masks. Only the kernel's 2n - 1 live taps are carried to each leg.
_PAD_FACTOR = 4.0


class SamplingError(ValueError):
    """Grid too coarse for the requested propagation distance."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform transverse grid: first sample, step, number of samples."""

    x_start: float
    dx: float
    count: int

    def __post_init__(self):
        if not self.dx > 0.0:
            raise ValueError("grid step dx must be positive")
        if self.count < 2:
            raise ValueError("grid needs at least 2 samples")

    @property
    def x(self) -> np.ndarray:
        """Sample positions, as offsets from the grid's midpoint.

        Offset i - c, with c = (count - 1) / 2, is exact, and so is its
        negation, so a grid centered on 0 is exactly antisymmetric:
        ``x == -x[::-1]``.
        """
        c = 0.5 * (self.count - 1)
        return (np.arange(self.count) - c) * self.dx + (self.x_start + c * self.dx)

    @property
    def span(self) -> float:
        """Distance between the first and last sample."""
        return (self.count - 1) * self.dx


@dataclass(frozen=True)
class WaveField:
    """Complex amplitude sampled on a uniform transverse grid.

    ``amplitudes[i]`` is the amplitude at ``grid.x[i]``; lengths in meters.
    """

    amplitudes: np.ndarray
    grid: GridSpec
    wavelength: float

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.ndim != 1 or amp.size != self.grid.count:
            raise ValueError("amplitudes must be a 1-D array with one sample per grid point")
        if not np.all(np.isfinite(amp)):
            raise ValueError("amplitudes must be finite")
        if not self.wavelength > 0.0:
            raise ValueError("wavelength must be positive")
        object.__setattr__(self, "amplitudes", amp)

    @property
    def total_probability(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2) * self.grid.dx)


def required_dx(wavelength, delta_z, reach):
    """Largest grid step that keeps the kernel phase change per sample < pi.

    ``reach`` is the widest lateral source-target offset. The direct kernel
    phase 2 pi r / lambda advances fastest there, where its slope is about
    2 pi reach / (lambda dz).
    """
    if reach <= 0.0:
        return math.inf
    return wavelength * delta_z / (2.0 * reach)


def propagate_direct(
    field: WaveField,
    delta_z: float,
    target: GridSpec | None = None,
) -> WaveField:
    """Quadrature of the exact path-length phase onto ``target``.

    With the Fresnel prefactor 1 / sqrt(i lambda dz) it approximates the
    same linear operator as ``propagate``. ``target`` defaults to the field's own grid.
    O(N_src * N_tgt); use it as the oracle on small grids. Refuses to run
    when the source step exceeds ``required_dx`` at the widest offset
    between the two grids.
    """
    if not delta_z > 0.0:
        raise ValueError("delta_z must be positive")
    src = field.grid
    tgt = target or src
    reach = max(tgt.x_start + tgt.span - src.x_start, src.x_start + src.span - tgt.x_start)
    need = required_dx(field.wavelength, delta_z, reach)
    if src.dx > need:
        raise SamplingError(
            f"grid step {src.dx:.4e} m too coarse for a direct propagation "
            f"over {delta_z:.4e} m; required dx <= {need:.4e} m"
        )
    k = 2.0 * math.pi / field.wavelength
    x_src = src.x
    x_tgt = tgt.x
    out = np.empty(tgt.count, dtype=complex)
    # evaluate the (targets x sources) kernel in row blocks to bound memory
    block = max(1, 4_000_000 // src.count)
    for i0 in range(0, tgt.count, block):
        rows = slice(i0, min(i0 + block, tgt.count))
        r = np.hypot(x_tgt[rows, None] - x_src[None, :], delta_z)
        out[rows] = np.exp(1j * k * r) @ field.amplitudes
    out *= src.dx / np.sqrt(1j * field.wavelength * delta_z)
    return WaveField(out, tgt, field.wavelength)


def _next_fast_len(target: int, real: bool = False) -> int:
    """Smallest length >= ``target`` with prime factors 2, 3, 5, 7 and 11.

    Only 2, 3 and 5 when ``real``: the lengths that pocketfft transforms
    fastest, as ``scipy.fft.next_fast_len`` gives them. Each odd product
    of the other primes below the power of two that covers ``target`` is
    doubled up to ``target``; the smallest result wins.
    """
    best = 1 << (target - 1).bit_length()
    odd = [1]
    for p in (3, 5) if real else (3, 5, 7, 11):
        for f in odd[:]:
            f *= p
            while f < best:
                odd.append(f)
                f *= p
    return min(f << (-(-target // f) - 1).bit_length() for f in odd)


# block length of the transfer-function build: small temporaries, and a
# multiple of 8 so that every block starts on the same SIMD lane boundary
_BLOCK = 1 << 13


def _transfer(n, dx, wavelength, delta_z, lo, s):
    """Spectrum of the padded kernel's live taps on the short FFT length.

    The kernel is ``ifft(H)`` on the padded length m, with H the transfer
    function exp(-i pi lambda dz f^2) times the axial phase
    exp(i 2 pi dz / lambda); m depends only on the target count n. Output
    j of the target grid reads input k of a sub-grid starting at target
    sample ``lo`` through tap (j - lo - k) mod m, so an input of s
    samples uses only the n + s - 1 taps at signed offsets
    -(lo + s - 1) .. n - 1 - lo. Placed at offset + lo modulo a buffer of
    length M >= n + s - 1, they give the same sums without wrap-around.
    """
    # a fringe scan builds each leg's spectrum once and carries every
    # source with it. The length-m arrays are the largest a scan
    # allocates, so H is filled in blocks, each with the ops of
    # exp(-1j * pi * lambda * dz * fftfreq(m, dx)**2) * axial, and its
    # inverse FFT is written back into it (``out=``), so the taps take no
    # second length-m array; it dies before the live-tap FFT needs scratch.
    # H gets its own anonymous map, whose pages go back to the OS when it
    # dies: with glibc, the second H of a scan would otherwise come from
    # the heap and stay resident through the source loop (5 MB of peak
    # RSS on the default scan). Index j > m // 2 holds frequency
    # (j - m) step, whose square equals that of (m - j) step bit for bit,
    # so only 0 .. m // 2 take the exp and the rest is their mirror image
    m = _next_fast_len(int(math.ceil(_PAD_FACTOR * n)))
    scale = -1j * math.pi * wavelength * delta_z
    axial = np.exp(2j * math.pi * delta_z / wavelength)
    step = 1.0 / (m * dx)
    c = m // 2
    h = np.frombuffer(mmap.mmap(-1, m * np.dtype(complex).itemsize), dtype=complex)
    for start in range(0, c + 1, _BLOCK):
        f = np.arange(start, min(start + _BLOCK, c + 1)) * step
        np.square(f, out=f)
        block = h[start : start + f.size]
        np.multiply(scale, f, out=block)
        np.exp(block, out=block)
        block *= axial
    h[c + 1 :] = h[m - c - 1 : 0 : -1]
    taps = np.fft.ifft(h, out=h)
    del h
    # real=True restricts M to 5-smooth lengths: pocketfft's radix-11
    # passes are slow. On the default grid the 96 legs of a fringe scan
    # took 3.95 s at the complex-optimal 439,230 = 2*3*5*11^4 and 3.09 s
    # at 442,368 = 2^14*3^3 (2 vCPUs)
    live = np.zeros(_next_fast_len(n + s - 1, real=True), dtype=complex)
    live[lo:n] = taps[: n - lo]
    live[:lo] = taps[m - lo :]
    live[live.size - (s - 1) :] = taps[m - lo - (s - 1) : m - lo]
    del taps
    spectrum = np.fft.fft(live, out=live)
    spectrum.flags.writeable = False
    return spectrum


def _carry(buf, s, transfer, n) -> np.ndarray:
    """Carry one leg in place on every row of ``buf``, from its s head inputs.

    A row is the last axis; each row is one field and goes through the
    same operations as a row carried alone. Rows are at least
    ``transfer.size`` long and are overwritten: the input is zero-filled
    to the FFT length and convolved with the live taps. The leg is linear:
    it keeps no flux and rescales nothing. Returns the n outputs of every row.
    """
    work = buf[..., : transfer.size]
    work[..., s:] = 0.0
    # out=work writes each transform over its input, so the outputs end up
    # in buf[..., :n]; one call transforms every row. np.fft is looked up
    # at call time, so a wrapper put on numpy.fft.fft sees every leg
    np.fft.fft(work, axis=-1, out=work)
    work *= transfer
    return np.fft.ifft(work, axis=-1, out=work)[..., :n]


def propagate(field: WaveField, delta_z: float) -> WaveField:
    """Fast quadratic-phase convolution of ``field`` on its own grid.

    The 1-D entry to the kernel that the fringe scan carries in batches.
    The operator is the cyclic convolution with the kernel spectrum
    exp(-i pi lambda dz f^2), times the axial phase exp(i 2 pi dz / lambda),
    on the grid zero-padded to at least four times its length, so it is
    wrap-free for content that stays inside the window. It is computed from
    the 2n - 1 kernel taps that n inputs and n outputs touch, on an FFT of
    length ``_next_fast_len(2n - 1, real=True)`` (see ``_transfer``). The
    operator is linear, and the output is not rescaled.
    """
    if not delta_z > 0.0:
        raise ValueError("delta_z must be positive")
    grid = field.grid
    n = grid.count
    transfer = _transfer(n, grid.dx, field.wavelength, delta_z, 0, n)
    buf = np.empty(transfer.size, dtype=complex)
    buf[:n] = field.amplitudes
    return WaveField(_carry(buf, n, transfer, n), grid, field.wavelength)
