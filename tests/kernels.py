"""Reference kernels that the tests compare the scan's legs against.

``propagate_direct`` is a full quadrature of exp(i 2 pi r / lambda) over
every source sample, with r the exact point-to-point path length, times
the 1-D Fresnel prefactor 1 / sqrt(i lambda dz): O(N_src * N_tgt), the
oracle on small grids. ``carried_from_run`` is the scan's paraxial leg
applied to one field: ``_transfer`` and ``_carry`` on a one-row buffer.
Both approximate one linear operator, the Fresnel propagator, and
neither rescales its output.
"""

import math

import numpy as np

from talbotlau.propagation import SamplingError, _carry, _transfer, required_dx


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
    whole grid.
    """
    n, s = grid.count, len(amplitudes)
    transfer = _transfer(n, grid.dx, wavelength, delta_z, lo, s)
    buf = np.empty(transfer.size, dtype=complex)
    buf[:s] = amplitudes
    return _carry(buf, s, transfer, n)
