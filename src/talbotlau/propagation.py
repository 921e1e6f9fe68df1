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
``_next_fast_len(n + s - 1, real=True)``. ``_transfer`` builds a leg's
spectrum once; one leg is one linear in-place step, ``_carry``, on the
rows of a buffer the caller supplies: each row is one field, and one FFT
call along the last axis takes every row, with the same bits as a row
carried alone. The fringe scan carries each worker's batch of sources,
and slit 2's open run onto the whole grid.
``required_dx(wavelength, delta_z, reach)`` is the one sampling
criterion: the largest step that keeps the direct path-length kernel's
phase change below pi per sample at ``reach``, the widest source-target
offset. The beamline checks every leg against it, and so does the direct
quadrature that tests compare the legs against.
The leg approximates a linear operator, the Fresnel propagator, which
keeps the flux of a field that stays inside the window; it does not
rescale its output. Every downstream observable is a flux ratio, and only
the fringe scan normalizes, by one weight per source.
"""

from dataclasses import dataclass

import math
import mmap

import numpy as np

__all__ = [
    "SamplingError",
    "GridSpec",
    "required_dx",
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


def required_dx(wavelength, delta_z, reach):
    """Largest grid step that keeps the kernel phase change per sample < pi.

    ``reach`` is the widest lateral source-target offset. The direct kernel
    phase 2 pi r / lambda advances fastest there, where its slope is about
    2 pi reach / (lambda dz).
    """
    if reach <= 0.0:
        return math.inf
    return wavelength * delta_z / (2.0 * reach)


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

