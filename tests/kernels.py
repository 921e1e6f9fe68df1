"""Reference kernels that the tests compare the scan's legs against.

``propagate_direct`` is a full quadrature of exp(i 2 pi r / lambda) over
every source sample, with r the exact point-to-point path length, times
the 1-D Fresnel prefactor 1 / sqrt(i lambda dz): O(N_src * N_tgt), the
oracle on small grids. ``carried_from_run`` is the scan's paraxial leg
applied to one field: ``_transfer`` and ``_carry`` in a one-row buffer.
Both approximate one linear operator, the Fresnel propagator, and
neither rescales its output. ``leg1_closed_form`` is the paraxial field
at G1 of a point source behind slit 2, from the Fresnel integrals: the
one leg-1 oracle cheap enough for the default grid.
``transmission_whole`` builds a plane's transmission in one pass over the
whole array, the reference for ``elements.transmission``'s block-by-block
build. ``slit_random_phase_numpy`` is numpy's own stream for one slit's
random phase, the reference for ``elements._slit_random_phase``.
"""

import math

import numpy as np

from scipy.special import fresnel

from talbotlau.elements import ApertureSpec, _comb_coordinates, _padded_half_width, _slit_random_phase, _zigzag
from talbotlau.propagation import SamplingError, _carry, _transfer, _work_size, required_dx


def propagate_direct(amplitudes, grid, wavelength, delta_z, target=None):
    """Quadrature of the exact path-length phase from ``grid`` onto ``target``.

    ``amplitudes[i]`` is the field at ``grid.x[i]``; ``target`` defaults to
    ``grid``. Refuses to run when the source step exceeds ``required_dx``
    at the widest offset between the two grids.
    """
    if not delta_z > 0.0:
        raise ValueError("delta_z must be positive")
    tgt = target or grid
    reach = max(tgt.x_start + tgt.span - grid.x_start, grid.x_start + grid.span - tgt.x_start)
    need = required_dx(wavelength, delta_z, reach)
    if grid.dx > need:
        raise SamplingError(
            f"grid step {grid.dx:.4e} m too coarse for a direct propagation "
            f"over {delta_z:.4e} m; required dx <= {need:.4e} m"
        )
    k = 2.0 * math.pi / wavelength
    x_src = grid.x
    x_tgt = tgt.x
    out = np.empty(tgt.count, dtype=complex)
    # evaluate the (targets x sources) kernel in row blocks to bound memory
    block = max(1, 4_000_000 // grid.count)
    for i0 in range(0, tgt.count, block):
        rows = slice(i0, min(i0 + block, tgt.count))
        r = np.hypot(x_tgt[rows, None] - x_src[None, :], delta_z)
        out[rows] = np.exp(1j * k * r) @ amplitudes
    out *= grid.dx / np.sqrt(1j * wavelength * delta_z)
    return out


def carried_from_run(amplitudes, grid, wavelength, delta_z, lo=0):
    """The paraxial leg onto the whole ``grid``, as the scan carries it.

    ``amplitudes`` is the field on the s = ``len(amplitudes)`` samples of
    ``grid`` from sample ``lo``; the default carries a field given on the
    whole grid. The spectrum is built in the row's buffer, and the field
    is then written there at its own place, [lo, lo + s).
    """
    n, hi = grid.count, lo + len(amplitudes)
    buf = np.empty(_work_size(n), dtype=complex)
    transfer = _transfer(n, grid.dx, wavelength, delta_z, max(n - lo, hi), buf)
    buf[lo:hi] = amplitudes
    _carry(buf, lo, hi, transfer)
    return buf[:n]


def leg1_closed_form(grid, lo, hi, x_s, l1, l2, wavelength):
    """Paraxial field on ``grid`` of a point source at ``x_s``, ``l1`` before
    slit 2's open samples [lo, hi) and ``l2`` after them, up to one constant.

    The two quadratic phases combine into exp(ik(x - x_s)^2 / 2(l1 + l2))
    times a chirp of rate alpha = 1/l1 + 1/l2 about x0 = (x_s/l1 + x/l2) /
    alpha, whose integral over the slit is F(t_b) - F(t_a), F = C + iS the
    Fresnel integral and t = sqrt(k alpha / pi) (edge - x0). The slit's
    edges are its outer sample cells' edges, x[lo] - dx/2 and x[hi - 1] +
    dx/2. The constant left out is sqrt(pi / (k alpha)) / sqrt(i lambda
    l2) times the axial phases.
    """
    x = grid.x
    k = 2.0 * math.pi / wavelength
    alpha = 1.0 / l1 + 1.0 / l2
    x0 = (x_s / l1 + x / l2) / alpha
    scale = math.sqrt(k * alpha / math.pi)
    s_a, c_a = fresnel(scale * (x[lo] - 0.5 * grid.dx - x0))
    s_b, c_b = fresnel(scale * (x[hi - 1] + 0.5 * grid.dx - x0))
    return np.exp(0.5j * k * (x - x_s) ** 2 / (l1 + l2)) * ((c_b - c_a) + 1j * (s_b - s_a))


def transmission_whole(x, element, phase=None, plane_index=0):
    """``elements.transmission`` built on the whole array at once.

    Every operation runs on all samples, and the per-slit random phases
    come from one ``np.unique`` over the open samples' slits.
    """
    xs = np.asarray(x, dtype=float)
    if isinstance(element, ApertureSpec):
        return (np.abs(xs - element.center) <= _padded_half_width(element.width)).astype(float)
    slit, v, open_pts = _comb_coordinates(xs, element)
    if math.isfinite(element.extent):
        open_pts &= np.abs(xs) <= 0.5 * element.extent
    if phase is None or not (phase.image_charge_strength > 0.0 or phase.random_phase_max > 0.0):
        return open_pts.astype(float)
    phi = np.zeros(np.count_nonzero(open_pts))
    if phase.image_charge_strength > 0.0:
        wall_distance = 0.5 * element.open_fraction * element.period - np.abs(v[open_pts])
        decay = np.exp(-wall_distance / phase.image_charge_range)
        phi += phase.image_charge_strength / phase.image_charge_range * decay
    if phase.random_phase_max > 0.0:
        slits, which = np.unique(slit[open_pts], return_inverse=True)
        limit = phase.random_phase_max
        phi += np.array([_slit_random_phase(phase.rng_seed, plane_index, n, limit) for n in slits])[which]
    out = np.zeros(xs.shape, dtype=complex)
    out[open_pts] = np.exp(1j * phi)
    return out


def slit_random_phase_numpy(seed, plane_index, slit_index, limit):
    """One slit's random phase drawn by numpy: a PCG64 generator seeded by
    ``SeedSequence(seed, spawn_key=(plane_index, zigzag(slit_index)))``."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(plane_index, _zigzag(slit_index)))
    return float(np.random.default_rng(ss).uniform(0.0, limit))
