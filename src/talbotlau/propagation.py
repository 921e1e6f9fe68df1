"""Plane-to-plane propagation of a 1-D scalar complex wavefield.

A leg is convolution with the quadratic-phase kernel
exp(i pi (x - x')^2 / (lambda dz)) on a shared uniform grid. The operator
is defined on a buffer padded to ``_PAD_FACTOR`` times the grid, but an
input on samples [lo, hi) of an n-sample grid reads only the taps t_d
with |d| < K = max(n - lo, hi). The kernel is even, so those taps sit at
d and M - d of a buffer of the 5-smooth length M = ``_fft_len(K)``, which
gives the same sums without wrap-around, and the leg's spectrum is even.

``_transfer`` builds a leg's spectrum once, inside a work buffer the
caller passes in. ``_carry`` runs the leg in place on the rows of a
caller's buffer: each row is one field, at its own place on the grid, and
goes through the same operations as a row carried alone. A transform
whose row fits ``_BATCH_BYTES`` is one FFT call; a longer one runs as a
four-step FFT of cache-sized transforms (``_split``), so numpy, which
keeps no FFT plan, builds no long plan and no long scratch on any call.

``required_dx(wavelength, delta_z, reach)`` is the one sampling
criterion: the largest step that keeps the direct path-length kernel's
phase change below pi per sample at ``reach``, the widest source-target
offset. The beamline checks every leg against it, and so does the direct
quadrature that tests compare the legs against. The leg approximates the
Fresnel propagator, which is linear and keeps the flux of a field that
stays inside the window; it does not rescale its output. Every
downstream observable is a flux ratio, and only the fringe scan
normalizes, by one weight per source.
"""

from dataclasses import dataclass

import math

import numpy as np

__all__ = [
    "SamplingError",
    "GridSpec",
    "required_dx",
]

# zero-padding that defines the paraxial operator: its kernel is the
# inverse FFT of the transfer function sampled on this many times the grid
# length; padding below 4x leaves percent-level wrap-around from hard-edged
# masks. Only the kernel's live taps, at most 2n - 1, are carried to each leg.
_PAD_FACTOR = 4.0


# workspace bytes of one worker's batch of FFT rows, about one core's L2
# cache. It also sets each transform of a leg or of a spectrum build: a
# row longer than this runs as a four-step FFT of cache-sized transforms
# (``_split``). A default-grid row alone is 7.1 MB, so that grid keeps one
# row a batch
_BATCH_BYTES = 1 << 20


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
        ``x == -x[::-1]``. The offsets are built in place in the one
        returned array.
        """
        c = 0.5 * (self.count - 1)
        x = np.arange(self.count, dtype=float)
        x -= c
        x *= self.dx
        x += self.x_start + c * self.dx
        return x

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


# block length of the transfer-function build and of the plane
# transmissions (``elements``): small temporaries, and a multiple of 8 so
# that every block starts on the same SIMD lane boundary
_BLOCK = 1 << 13


@dataclass(frozen=True)
class _Spectrum:
    """A leg's even spectrum, in the order of ``_forward`` on ``shape`` = (n2, n1).

    S[k] = S[M - k], so row n2 - k2 of that order is row k2 reversed, and
    ``values`` keeps rows 0 .. n2 // 2 only; a one-call leg (n2 = 1) keeps
    its whole row. ``twiddles`` holds a four-step leg's tables.
    """

    values: np.ndarray
    shape: tuple
    twiddles: tuple = ()

    @property
    def size(self) -> int:
        """The FFT length M."""
        return self.shape[0] * self.shape[1]


def _fft_len(count):
    """A leg's FFT length M for taps at |d| < count: 2 count - 1 of them."""
    # real=True restricts M to 5-smooth lengths: pocketfft's radix-11
    # passes are slow. On the default grid the 96 legs of a fringe scan
    # took 3.95 s at the complex-optimal 439,230 = 2*3*5*11^4 and 3.09 s
    # at 442,368 = 2^14*3^3 (2 vCPUs)
    return _next_fast_len(2 * count - 1, real=True)


def _padded_len(n):
    """The padded length m on which the paraxial operator is defined."""
    return _next_fast_len(int(math.ceil(_PAD_FACTOR * n)))


def _work_size(n):
    """Complex values of the work buffer ``_transfer`` needs on an n-sample grid.

    The live taps' FFT takes at most ``_fft_len(n)``, and the tap sum one
    row of m / gcd(m, 2) values, m the padded length.
    """
    m = _padded_len(n)
    return max(_fft_len(n), m // math.gcd(m, 2))


def _transfer(n, dx, wavelength, delta_z, count, work) -> _Spectrum:
    """Spectrum of the padded kernel's taps t_d, |d| < ``count``, built in ``work``.

    The kernel is ``ifft(H)`` on the padded length m, which depends only on
    the target count n, with H the transfer function
    exp(-i pi lambda dz f^2) times the axial phase exp(i 2 pi dz / lambda).
    ``work`` holds at least ``_work_size(n)`` values; only the kept half
    of the spectrum is allocated, and the taps are summed into it.
    """
    shape = _split(_fft_len(count))
    n2, n1 = shape
    kept = np.zeros((n2 // 2 + 1, n1), dtype=complex)
    taps = kept.reshape(-1)[:count]
    _tap_sum(_padded_len(n), dx, wavelength, delta_z, taps, work)
    size = n2 * n1
    live = work[:size]
    live[:count] = taps
    live[count : size - count + 1] = 0.0
    live[size - count + 1 :] = taps[count - 1 : 0 : -1]
    rows = live.reshape(shape)
    twiddles = _twiddles(n2, n1) if n2 > 1 else ()
    _forward(rows, twiddles)
    kept[:] = rows[: kept.shape[0]]
    kept.flags.writeable = False
    return _Spectrum(kept, shape, twiddles)


def _tap_sum(m, dx, wavelength, delta_z, taps, work):
    """The first ``taps.size`` taps of the length-m kernel, into ``taps``.

    With p = gcd(m, 2), the inverse FFT splits into p interleaved ones of
    length m / p:
    t_k = (1/p) sum_(r<p) e^(2 pi i r k / m) ifft_(m/p)(H[r::p])[k], and
    m >= 4n puts every live k below m / p, so no sub-transform wraps and
    none is as long as H. ``taps`` starts zeroed. Row r, H[r::p], holds
    H_j for j = r + p k. Its head, j <= m // 2, is exponentiated; its
    tail, j > m // 2, holds frequency (j - m) step, whose square equals
    that of (m - j) step bit for bit, and m - j is in row r too: the tail
    is the row's own head reversed, so each distinct value of H takes one
    exp. The rows are built one at a time in ``work``, transformed in
    place on their ``_split`` view, and summed in order r = 0 .. p - 1.
    """
    p = math.gcd(m, 2)
    size = m // p
    scale = -1j * math.pi * wavelength * delta_z
    axial = np.exp(2j * math.pi * delta_z / wavelength)
    step = 1.0 / (m * dx)
    shape = _split(size)
    # the rows run inverse transforms only, so only those tables are kept
    twiddles = ((), _twiddles(*shape)[1]) if shape[0] > 1 else ()
    row = work[:size]
    for r in range(p):
        head = (m // 2 - r) // p + 1
        _fill_head(row[:head], r, p, step, scale, axial)
        # tail index k reads head index (m - 2r) / p - k: size - k for
        # r = 0, size - 1 - k for r = 1
        start = 1 - r
        row[head:] = row[start : start + size - head][::-1]
        view = row.reshape(shape)
        _forward(view, twiddles, inverse=True)
        _add_twisted(taps, _natural(view), r, m)
    taps /= p


def _fill_head(head, r, p, step, scale, axial):
    """H_j, j = r + p k, into ``head[k]`` for every k.

    Each block runs the operations of exp(scale * fftfreq(m, dx)**2) *
    axial, step = 1 / (m dx), so every value has that expression's bits.
    """
    for start in range(0, head.size, _BLOCK):
        stop = min(start + _BLOCK, head.size)
        f = np.arange(r + p * start, r + p * stop, p) * step
        np.square(f, out=f)
        block = head[start:stop]
        np.multiply(scale, f, out=block)
        np.exp(block, out=block)
        block *= axial


def _natural(rows):
    """The output of ``_forward`` on ``rows`` as a natural-order 2-D view.

    Element [i, j] holds output i * fine + j, fine the view's columns: the
    transpose of a four-step output, or a one-call row cut into rows of
    the divisor of its length nearest the root.
    """
    n2, n1 = rows.shape
    if n2 > 1:
        return rows.T
    fine = _root_divisor(n1)
    return rows.reshape(n1 // fine, fine)


def _add_twisted(taps, natural, r, m):
    """Add e^(2 pi i r k / m) y[k] to ``taps[k]`` for every tap k.

    ``natural`` holds y[i * fine + j] at [i, j], so the twiddle of tap k
    is coarse[i] * fine[j], from two tables of about sqrt(m / p) values
    rather than one exp a tap. It runs over blocks of at most
    ``_BATCH_BYTES`` and a multiple of 8 rows.
    """
    count = taps.size
    fine = natural.shape[1]
    coarse = -(-count // fine)
    angle = 2.0 * math.pi / m
    fine_twiddles = np.exp(1j * angle * (r * np.arange(fine)))
    per_block = min(coarse, 8 * max(1, _BATCH_BYTES // (8 * 16 * fine)))
    block = np.empty((per_block, fine), dtype=complex)
    for a in range(0, coarse, per_block):
        b = min(a + per_block, coarse)
        twisted = block[: b - a]
        np.multiply(np.exp(1j * angle * (r * fine * np.arange(a, b) % m))[:, None], fine_twiddles, out=twisted)
        twisted *= natural[a:b]
        k = a * fine
        twisted = twisted.reshape(-1)[: min(count, b * fine) - k]
        taps[k : k + twisted.size] += twisted


def _split(m):
    """The (n2, n1) view on which a length-m transform runs.

    (1, m), one FFT call, when a row of m complex values fits
    ``_BATCH_BYTES``; else a four-step FFT, n1 the divisor of m nearest
    sqrt(m).
    """
    if m * np.dtype(complex).itemsize <= _BATCH_BYTES:
        return 1, m
    n1 = _root_divisor(m)
    return m // n1, n1


def _root_divisor(m):
    """The divisor of m nearest sqrt(m)."""
    low = next(d for d in range(math.isqrt(m), 0, -1) if m % d == 0)
    return min(low, m // low, key=lambda d: abs(d - math.sqrt(m)))


def _twiddles(n2, n1):
    """Forward and inverse twiddle tables of the four-step FFT on (n2, n1).

    Forward entry (k2, j1) is w^(k2 j1), w = e^(-2 pi i / M). With
    k2 = c f + r, f the divisor of n2 nearest sqrt(n2), it is a coarse
    table of shape (n2 / f, 1, n1) times a fine one of shape (f, n1),
    about 2 sqrt(n2) n1 values in place of M. The inverse is the conjugate.
    """
    m = n2 * n1
    f = _root_divisor(n2)
    j = np.arange(n1)
    # k j mod m is exact, so each angle is within an ulp of 2 pi / m times it
    coarse, fine = (np.exp(-2j * math.pi / m * (k[:, None] * j % m)) for k in (np.arange(0, n2, f), np.arange(f)))
    forward = (coarse[:, None, :], fine)
    inverse = tuple(table.conj() for table in forward)
    for table in forward + inverse:
        table.flags.writeable = False
    return forward, inverse


def _twist(a, tables):
    """Multiply the (..., n2, n1) rows of ``a`` by the twiddles ``tables``."""
    coarse, fine = tables
    # one row at a time: on a view of several rows that are not adjacent,
    # numpy cannot rule out self-overlap of the (rows, n2 / f, f, n1) view
    # and copies the whole batch first
    for row in a.reshape((-1,) + a.shape[-2:]):
        b = row.reshape((coarse.shape[0],) + fine.shape)
        b *= fine
        b *= coarse


def _forward(a, twiddles, inverse=False):
    """Forward FFT in place of the (..., n2, n1) rows of ``a``.

    One call along the last axis when n2 = 1. Else the four steps
    (Bailey, J. Supercomputing 4, 23 (1990)): length-n2 FFTs along axis
    -2, the twiddles, length-n1 FFTs along axis -1, which leave the
    spectrum at k2 + n2 k1 in element (k2, k1), with no transpose. With
    ``inverse`` the inverse FFT runs into the same order. np.fft is looked
    up at call time, so a wrapper put on numpy.fft.fft sees every call.
    """
    transform = np.fft.ifft if inverse else np.fft.fft
    if twiddles:
        transform(a, axis=-2, out=a)
        _twist(a, twiddles[1 if inverse else 0])
    transform(a, axis=-1, out=a)


def _inverse(a, twiddles):
    """Inverse of ``_forward``: its steps undone in reverse order, in place."""
    np.fft.ifft(a, axis=-1, out=a)
    if twiddles:
        _twist(a, twiddles[1])
        np.fft.ifft(a, axis=-2, out=a)


def _carry(buf, lo, hi, spectrum):
    """Carry one leg in place on every row of ``buf``, from its inputs at [lo, hi).

    Rows, the last axis, are at least ``spectrum.size`` long and are
    overwritten: each input is zero-filled to the FFT length, multiplied
    by the spectrum in ``_forward``'s order and brought back in natural
    order by ``_inverse``, so a row's output k lands at its index k.
    """
    work = buf[..., : spectrum.size]
    work[..., :lo] = 0.0
    work[..., hi:] = 0.0
    # a view: a row's last axis is contiguous, so it splits without a copy
    rows = work.reshape(work.shape[:-1] + spectrum.shape)
    _forward(rows, spectrum.twiddles)
    kept = spectrum.values
    # the dropped rows k2 > n2 // 2 are kept rows n2 - k2, reversed
    mirrored = kept[(spectrum.shape[0] - 1) // 2 : 0 : -1, ::-1]
    # one row at a time, as in _twist
    for row in rows.reshape((-1,) + spectrum.shape):
        row[: kept.shape[0]] *= kept
        row[kept.shape[0] :] *= mirrored
    _inverse(rows, spectrum.twiddles)
