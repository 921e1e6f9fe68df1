"""Beamline planes and their transmissions.

A plane element multiplies the field by its transmission A(x) exp(i phi(x)),
which ``transmission`` returns at any samples. Apertures are plain window
indicators. Gratings are periodic bar/slit combs with an open fraction, a
lateral offset and an optional finite extent; their phase term is a
phenomenological edge (image-charge) profile plus an optional per-slit
random phase. Every open edge is padded by the same relative ulp, here and
in ``comb_throughput``, which reads a comb's throughput at many offsets.
A transmission is filled in blocks of ``propagation._BLOCK`` samples, so
building one leaves no grid-length temporary behind in the heap.
"""

from dataclasses import dataclass, replace

import math
import operator

import numpy as np

from .propagation import _BLOCK

__all__ = [
    "ApertureSpec",
    "GratingSpec",
    "PhaseModel",
    "transmission",
    "comb_throughput",
    "translate_grating",
]


@dataclass(frozen=True)
class ApertureSpec:
    """Single open window: full width and center position [m]."""

    width: float
    center: float = 0.0

    def __post_init__(self):
        if not self.width > 0.0:
            raise ValueError("aperture width must be positive")


@dataclass(frozen=True)
class GratingSpec:
    """Periodic comb of open slits.

    ``offset`` translates the comb laterally (taken modulo the period);
    ``extent`` is the illuminated span of the structure, centered on the
    beam axis, beyond which the grating is opaque.
    """

    period: float
    open_fraction: float = 0.35
    offset: float = 0.0
    extent: float = math.inf

    def __post_init__(self):
        if not self.period > 0.0:
            raise ValueError("grating period must be positive")
        if not 0.0 < self.open_fraction < 1.0:
            raise ValueError("open fraction must lie strictly between 0 and 1")
        if not self.extent > 0.0:
            raise ValueError("grating extent must be positive")


@dataclass(frozen=True)
class PhaseModel:
    """Phase modulation parameters for grating planes.

    ``image_charge_strength`` [rad m] sets the wall-edge phase via
    strength/range at the wall, decaying over ``image_charge_range`` [m]
    into the slit. ``random_phase_max`` [rad] enables one uniform random
    phase per slit, derived deterministically from (seed, plane, slit): the
    first ``uniform(0, random_phase_max)`` of numpy's PCG64 generator seeded
    by ``SeedSequence(rng_seed, spawn_key=(plane, zigzag(slit)))``, with
    zigzag(n) = 2n for n >= 0 and -2n - 1 below. The stream is reproduced
    without importing ``numpy.random``.
    """

    image_charge_strength: float = 0.0
    image_charge_range: float = 2e-8
    random_phase_max: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.image_charge_strength < 0.0:
            raise ValueError("image_charge_strength must be nonnegative")
        if not self.image_charge_range > 0.0:
            raise ValueError("image_charge_range must be positive")
        if self.random_phase_max < 0.0:
            raise ValueError("random_phase_max must be nonnegative")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be nonnegative")


def _padded_half_width(width: float) -> float:
    # pad by a relative ulp so edge inclusion cannot flip with grid rounding
    return 0.5 * width * (1.0 + 1e-12)


def _comb_coordinates(x, grating: GratingSpec):
    """Slit index, signed distance from the nearest slit center, open mask.

    Slit n spans n*d + offset +- f*d/2; boundary points are open.
    """
    u = (x - grating.offset) / grating.period
    n = np.floor(u + 0.5)
    v = (u - n) * grating.period
    open_pts = np.abs(v) <= _padded_half_width(grating.open_fraction * grating.period)
    return n.astype(int), v, open_pts


def comb_throughput(x, intensity, grating: GratingSpec, offsets) -> np.ndarray:
    """Intensity summed over the open points of the comb at each lateral offset.

    Entry k equals ``np.sum(intensity * transmission(x,
    translate_grating(grating, offsets[k])))`` up to summation order, but
    the comb is folded once: the points are sorted by their phase
    (x - offset) mod d, so every offset reads its open slit as one window
    of a prefix sum, found by binary search.
    """
    xs = np.asarray(x, dtype=float)
    weights = np.asarray(intensity, dtype=float)
    if math.isfinite(grating.extent):
        inside = np.abs(xs) <= 0.5 * grating.extent
        xs, weights = xs[inside], weights[inside]
    d = grating.period
    # np.mod can round a tiny negative remainder up to d itself; such a
    # point has phase 0 and the shifted windows below still count it
    phase = np.mod(xs - grating.offset, d)
    order = np.argsort(phase)
    phase = phase[order]
    cumulative = np.concatenate(([0.0], np.cumsum(weights[order])))
    half = _padded_half_width(grating.open_fraction * grating.period)
    center = np.mod(np.asarray(offsets, dtype=float), d)
    totals = np.zeros(center.shape)
    # the open slit around the center, and its images one period either
    # side for a window that crosses 0 or d
    for shift in (-d, 0.0, d):
        lo = np.searchsorted(phase, center - half + shift, side="left")
        hi = np.searchsorted(phase, center + half + shift, side="right")
        totals += cumulative[hi] - cumulative[lo]
    return totals


def translate_grating(grating: GratingSpec, delta: float) -> GratingSpec:
    """Shift the comb laterally: the result at x matches the original at x - delta."""
    return replace(grating, offset=grating.offset + delta)


def _zigzag(n: int) -> int:
    return 2 * n if n >= 0 else -2 * n - 1


_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# PCG64's 128-bit LCG multiplier
_PCG_MULT = (2549297995355413924 << 64) | 4865540595714422341


def _words(n: int) -> list:
    """The little-endian 32-bit words of a nonnegative int; 0 is one word."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _slit_random_phase(seed: int, plane_index: int, slit_index: int, limit: float) -> float:
    """numpy's ``default_rng(SeedSequence(seed, spawn_key=(plane_index,
    _zigzag(slit_index)))).uniform(0.0, limit)``, bit for bit, without
    importing ``numpy.random``.

    Keyed by (seed, plane, slit) so evaluation order cannot matter.
    """
    seed, plane_index, slit_index = map(operator.index, (seed, plane_index, slit_index))
    # SeedSequence: the entropy is padded to the pool size because a spawn
    # key follows it, then everything is hashed into a 4-word pool
    entropy = _words(seed)
    entropy += [0] * (4 - len(entropy)) + _words(plane_index) + _words(_zigzag(slit_index))
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * 0x931E8875) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): eight 32-bit words, paired little-endian
    hash_const = 0x8B51F9DD
    state = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = (hash_const * 0x58F38DED) & _MASK32
        value = (value * hash_const) & _MASK32
        state.append(value ^ (value >> 16))
    s0, s1, s2, s3 = (state[i] | state[i + 1] << 32 for i in range(0, 8, 2))
    # PCG64 seeding, then one step and its XSL-RR output
    inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
    pcg = (inc + (s0 << 64 | s1)) & _MASK128
    pcg = (pcg * _PCG_MULT + inc) & _MASK128
    pcg = (pcg * _PCG_MULT + inc) & _MASK128
    xored, rot = ((pcg >> 64) ^ pcg) & _MASK64, pcg >> 122
    out = (xored >> rot | xored << (-rot & 63)) & _MASK64
    return 0.0 + float(limit) * ((out >> 11) * 2.0**-53)


def _filled_by_block(xs: np.ndarray, dtype, fill) -> np.ndarray:
    """A zero array shaped like ``xs``, with ``fill(x_block, out_block)``
    run on each block of at most ``_BLOCK`` samples, in order."""
    out = np.zeros(xs.shape, dtype)
    flat_x, flat_out = xs.reshape(-1), out.reshape(-1)
    for start in range(0, flat_x.size, _BLOCK):
        fill(flat_x[start : start + _BLOCK], flat_out[start : start + _BLOCK])
    return out


def transmission(x, element, phase: PhaseModel | None = None, plane_index: int = 0) -> np.ndarray:
    """A plane element's A(x) exp(i phi(x)) at the samples ``x``.

    A is 1 on an open point and 0 elsewhere. The phase acts only on a
    grating whose ``phase`` has a nonzero image-charge strength or random
    phase, and then the result is complex; otherwise it is the real mask.
    ``plane_index`` keys the per-slit random phase stream. Raises if the
    element does not geometrically overlap the span of ``x``.

    The result is filled in blocks of ``_BLOCK`` samples, each through
    the operations a whole-array build would run on it, so every value is
    the same bits and no temporary is longer than a block.
    """
    if plane_index < 0:
        raise ValueError("plane_index must be nonnegative")
    xs = np.asarray(x, dtype=float)
    lo, hi = xs.min(), xs.max()
    if isinstance(element, ApertureSpec):
        if element.center + 0.5 * element.width < lo or element.center - 0.5 * element.width > hi:
            raise ValueError("aperture does not overlap the field grid")
        half = _padded_half_width(element.width)

        def fill_window(xb, ob):
            ob[...] = np.abs(xb - element.center) <= half

        return _filled_by_block(xs, float, fill_window)
    if not isinstance(element, GratingSpec):
        raise TypeError(f"unsupported plane element {type(element).__name__}")
    edge = 0.5 * element.extent
    if math.isfinite(element.extent) and (edge < lo or -edge > hi):
        raise ValueError("grating extent does not overlap the field grid")
    strength = 0.0 if phase is None else phase.image_charge_strength
    limit = 0.0 if phase is None else phase.random_phase_max
    phased = strength > 0.0 or limit > 0.0
    # each slit's random phase, drawn when a block first finds it open, so
    # once per slit that has an open sample
    draws = {}

    def fill_comb(xb, ob):
        slit, v, open_pts = _comb_coordinates(xb, element)
        if math.isfinite(element.extent):
            open_pts &= np.abs(xb) <= edge
        if not phased:
            ob[...] = open_pts
            return
        phi = np.zeros(np.count_nonzero(open_pts))
        if strength > 0.0:
            wall_distance = 0.5 * element.open_fraction * element.period - np.abs(v[open_pts])
            decay = np.exp(-wall_distance / phase.image_charge_range)
            phi += strength / phase.image_charge_range * decay
        if limit > 0.0 and phi.size:
            # on a sorted grid the open samples come in one run per slit;
            # each run takes its slit's draw
            k = slit[open_pts]
            starts = np.flatnonzero(np.concatenate(([True], k[1:] != k[:-1])))
            runs = k[starts].tolist()
            for n in runs:
                if n not in draws:
                    draws[n] = _slit_random_phase(phase.rng_seed, plane_index, n, limit)
            phi += np.repeat([draws[n] for n in runs], np.diff(starts, append=k.size))
        ob[open_pts] = np.exp(1j * phi)

    return _filled_by_block(xs, complex if phased else float, fill_comb)
