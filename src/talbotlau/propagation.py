"""Plane-to-plane propagation of a 1-D scalar complex wavefield.

The beamline kernel is convolution with the quadratic-phase kernel
exp(i pi (x - x')^2 / (lambda dz)), evaluated as a padded cyclic FFT
convolution on a shared uniform grid. The operator is defined on a
buffer padded to ``_PAD_FACTOR`` times the grid, but n samples in and n
kept samples out touch only the 2n - 1 central taps of that padded kernel,
so each leg runs on an FFT of the 5-smooth length
``_next_fast_len(2n - 1, real=True)``, about half the padded length, with
the same taps. A field that lives on a contiguous run [lo, hi) of its
n-sample target grid touches only the taps t_d with |d| < K =
max(n - lo, hi), and its FFT shrinks to ``_fft_len(K)``, the 5-smooth
length that holds 2K - 1 taps; for a run centered on the grid that is
n + (hi - lo) - 1 taps. The kernel is even, t_d = t_-d, so each leg's
taps sit at d and M - d of its length-M buffer, and the leg's spectrum is
even too: S[k] = S[M - k].

``_transfer`` builds a leg's spectrum once, inside a work buffer the
caller passes in. At most n taps are live, so the build takes them from
p = gcd(m, 4) interleaved inverse FFTs of length m / p, m the padded
length, never from one of length m, and sums them straight into the
storage of the spectrum it returns. One leg is one linear in-place step,
``_carry``, on the rows of a buffer the caller supplies, with each input
at its own place on the grid: each row is one field and goes through the
same operations as a row carried alone. A row of M complex values that
fits ``_BATCH_BYTES`` runs one FFT call along the last axis for every
row. A longer row, each leg of the default grid, runs a four-step FFT
(Bailey, J. Supercomputing 4, 23 (1990)) on its (n2, n1) view, n1 the
divisor of M nearest sqrt(M): length-n2 FFTs along axis -2, a twiddle
multiply, length-n1 FFTs along axis -1. The build's length-m / p
sub-transforms run the same way. Every transform is then cache-sized,
and numpy, which keeps no FFT plan, rebuilds no long plan and allocates
no long scratch on any call. The spectrum stays in the four-step's
transposed order: ``_transfer`` builds it through the same forward step,
``_carry`` multiplies in that order and the inverse undoes the steps in
reverse, so the outputs come back in natural order and no transpose
runs. In that order row n2 - k2 of the (n2, n1) view is row k2 reversed,
so the spectrum keeps rows 0 .. n2 // 2 only, about half of it, and
``_carry`` reads the other rows backwards; a one-call leg keeps its whole
row. The twiddles are two small tables per direction that the spectrum
carries (``_Spectrum``), so they live as long as it does. The fringe scan
carries each worker's batch of sources, and slit 2's open run onto the
whole grid.

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
    """A leg's even spectrum, in the order of the transform that carries the leg.

    The leg's transform runs on the (n2, n1) = ``shape`` view of a row of
    M = n2 n1 values. With n2 = 1 it is one FFT call, and ``values`` is the
    whole length-M FFT of the live taps. Else it is a four-step FFT, in
    transposed order, and ``twiddles`` holds its forward and inverse
    tables. The spectrum is even, S[k] = S[M - k], so row n2 - k2 of the
    view is row k2 reversed for every k2 > 0, and ``values`` keeps only
    rows 0 .. n2 // 2.
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

    The live taps' FFT takes at most ``_fft_len(n)``; the tap sum holds
    two of its length-m / 4 rows at once when 4 divides m, one of length
    m / 2 when only 2 does, and one of length m when m is odd.
    """
    m = _padded_len(n)
    return max(_fft_len(n), m // math.gcd(m, 2))


def _transfer(n, dx, wavelength, delta_z, count, work) -> _Spectrum:
    """Spectrum of the padded kernel's live taps, built in ``work``.

    The kernel is ``ifft(H)`` on the padded length m, with H the transfer
    function exp(-i pi lambda dz f^2) times the axial phase
    exp(i 2 pi dz / lambda); m depends only on the target count n. Output
    j of the target grid reads input i through tap j - i, so an input on
    samples [lo, hi) uses only taps t_d with |d| < count = max(n - lo, hi).
    H is even, and so are its taps: t_d sits at d and at M - d of a
    buffer of length M = ``_fft_len(count)``, which gives the same sums
    without wrap-around. That buffer is even, so its spectrum is too, and
    only rows 0 .. n2 // 2 of its (n2, n1) transform-order view are kept.
    The taps are summed into that kept half, the live buffer and its
    forward transform run in ``work``, a complex buffer of at least
    ``_work_size(n)`` values, and the kept rows' last step writes the
    spectrum. Every transform is a row of at most ``_BATCH_BYTES``.
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
    if twiddles:
        np.fft.fft(rows, axis=-2, out=rows)
        _twist(rows, twiddles[0])
    np.fft.fft(rows[: kept.shape[0]], axis=-1, out=kept)
    kept.flags.writeable = False
    return _Spectrum(kept, shape, twiddles)


def _tap_sum(m, dx, wavelength, delta_z, taps, work):
    """The first ``taps.size`` taps of the length-m kernel, into ``taps``.

    With p = gcd(m, 4), the inverse FFT splits into p interleaved ones of
    length m / p:
    t_k = (1/p) sum_(r<p) e^(2 pi i r k / m) ifft_(m/p)(H[r::p])[k], and
    m >= 4n puts every live k below m / p, so no sub-transform wraps. Odd
    m gives p = 1: one transform, as long as H. ``taps`` starts zeroed.
    Row r, H[r::p], holds H_j for j = r + p k. Its head, j <= m // 2, is
    exponentiated; its tail, j > m // 2, holds frequency (j - m) step,
    whose square equals that of (m - j) step bit for bit, so it is the
    head of row (p - r) mod p reversed. Rows 0 and p / 2 mirror their own
    heads, and rows 1 and 3 each other's, so each distinct value of H
    takes one exp, and a row pair is built together in ``work`` and kept
    until its second row is summed. Each row is transformed in place by
    ``_forward`` on its ``_split`` view, so no transform is longer than a
    batch row, and the rows are summed in order r = 0 .. p - 1.
    """
    p = math.gcd(m, 4)
    size = m // p
    c = m // 2
    scale = -1j * math.pi * wavelength * delta_z
    axial = np.exp(2j * math.pi * delta_z / wavelength)
    step = 1.0 / (m * dx)
    heads = [(c - r) // p + 1 for r in range(p)]
    shape = _split(size)
    twiddles = _twiddles(*shape) if shape[0] > 1 else ()
    rows = {}
    for r in range(p):
        if r not in rows:
            # a pair's rows sit side by side at the head of work; a single
            # row takes the first place, which the last summed row freed
            pair = sorted({r, (p - r) % p})
            for slot, q in enumerate(pair):
                rows[q] = work[slot * size : (slot + 1) * size]
                _fill_head(rows[q][: heads[q]], q, p, step, scale, axial)
            for q in pair:
                # tail index k reads index size - k of row 0's head, and
                # index size - 1 - k of row p - q's
                start = 1 if q == 0 else 0
                rows[q][heads[q] :] = rows[(p - q) % p][start : start + size - heads[q]][::-1]
        row = rows.pop(r).reshape(shape)
        _forward(row, twiddles, inverse=True)
        _add_twisted(taps, _natural(row), r, m)
    taps /= p


def _fill_head(head, r, p, step, scale, axial):
    """H_j, j = r + p k, into ``head[k]`` for every k.

    Each block takes the ops of
    exp(scale * fftfreq(m, dx)**2) * axial, step = 1 / (m dx), so every
    value has the bits of that whole-array expression.
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

    Element [i, j] of the view holds output i * fine + j, fine its
    number of columns. A four-step output (n2, n1) holds output
    k2 + n2 k1 at (k2, k1), so its transpose is that view; a one-call
    row is in natural order, and is cut into rows of the divisor of its
    length nearest the root.
    """
    n2, n1 = rows.shape
    if n2 > 1:
        return rows.T
    fine = _root_divisor(n1)
    return rows.reshape(n1 // fine, fine)


def _add_twisted(taps, natural, r, m):
    """Add e^(2 pi i r k / m) y[k] to ``taps[k]`` for every tap k.

    ``natural`` holds y[i * fine + j] at [i, j], so the twiddle of tap
    k = i * fine + j is coarse[i] * fine[j], from two tables of about
    sqrt(m / p) values: an exp over all count values takes 4 ms or more
    per sub-transform on the default grid (2 vCPUs). It is built over
    blocks of whole rows, at most ``_BATCH_BYTES`` each and a multiple of
    8 rows, so every block starts on a multiple of 8 taps.
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
    ``_BATCH_BYTES``. A longer row runs as a four-step FFT on its (n2, n1)
    view, n1 the divisor of m nearest sqrt(m): its transforms of length
    n2 and n1 are cache-sized, and numpy rebuilds no length-m plan and
    allocates no length-m scratch on each call.
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

    Entry (k2, j1) of the forward twiddle is w^(k2 j1), w = e^(-2 pi i / M).
    With k2 = c f + r, f the divisor of n2 nearest sqrt(n2), it is
    w^(c f j1) w^(r j1): a coarse table of shape (n2 / f, 1, n1) times a
    fine one of shape (f, n1), about 2 sqrt(n2) n1 values in place of M.
    The inverse tables are their conjugates.
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

    One call along the last axis when n2 = 1. Else the four steps: length
    n2 FFTs along axis -2, the twiddles, length n1 FFTs along axis -1;
    element (k2, k1) of a row then holds the spectrum at k2 + n2 k1. With
    ``inverse`` the same steps run the inverse FFT, with the inverse
    twiddles, into the same order. np.fft is looked up at call time, so a
    wrapper put on numpy.fft.fft sees every transform.
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


def _carry(buf, lo, hi, spectrum, n) -> np.ndarray:
    """Carry one leg in place on every row of ``buf``, from its inputs at [lo, hi).

    A row is the last axis; each row is one field and goes through the
    same operations as a row carried alone. Rows are at least
    ``spectrum.size`` long and are overwritten: the input, at its own
    place on the target grid, is zero-filled to the FFT length and
    convolved with the live taps. Each row runs on its view of the
    spectrum's shape, is multiplied by the spectrum in the transform's
    order and comes back in natural order, so no transpose runs. The leg
    is linear: it keeps no flux and rescales nothing. Returns the n
    outputs of every row.
    """
    work = buf[..., : spectrum.size]
    work[..., :lo] = 0.0
    work[..., hi:] = 0.0
    # a view: a row's last axis is contiguous, so it splits without a copy,
    # and every step writes over its input, so the outputs end up in
    # buf[..., :n]
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
    return work[..., :n]
