"""Analytic Talbot-Lau fringe of three ideal binary gratings, a test oracle.

The model of Brezger, Arndt & Zeilinger, J. Opt. B 5, S82 (2003) and
Hornberger, Sipe & Arndt, PRA 70, 053608 (2004): infinite gratings of
period d and open fraction f, two equal gaps L, paraxial propagation, and
G1 lit incoherently, by every transverse momentum alike. A binary slit
comb centered on x = 0 has the Fourier coefficients b_j = f sinc(j f).
With the Talbot parameter eps = lambda L / d^2, the flux through G3 at
lateral offset x, per unit flux arriving at G1, is

    S(x) = sum_l b_l^2 B_l(eps) exp(2 pi i l x / d),
    B_l(eps) = sum_m b_{m + 2l} b_m exp(-2 pi i l (m + l) eps).

Averaging over the incident momenta keeps only the pairs of paths whose
G1 orders differ by -l and G2 orders by 2l, where l is the harmonic of the
intensity at G3. One b_l is G1's: a binary mask is its own square, so the
autocorrelation of its coefficients is b_l again. The other is G3's comb,
through which the intensity is read. Every phase in B_l is an integer
times eps, so S is periodic in eps with period 1, and at integer eps, where
the gap is a whole number of half Talbot lengths, every B_l is real and S
is the same fringe as at eps = 0.
"""

import numpy as np

# orders of G1 and G2 kept, -orders..orders: the sums over m converge as
# 1 / orders, at this default to about 1e-5 of the mean
ORDERS = 20_000
# harmonics of the fringe kept: b_l^2 B_l falls off as l^-3 or faster
HARMONICS = 80


def talbot_parameter(wavelength: float, gap: float, period: float) -> float:
    """eps = lambda L / d^2: the gap in units of half a Talbot length 2 d^2 / lambda."""
    return wavelength * gap / (period * period)


def harmonics(open_fraction: float, eps: float, orders: int = ORDERS) -> np.ndarray:
    """b_l^2 B_l(eps) for l = 0 .. HARMONICS; those of -l are their conjugates."""
    m = np.arange(-orders, orders + 1)
    b = open_fraction * np.sinc(m * open_fraction)
    out = np.empty(HARMONICS + 1, dtype=complex)
    for l in range(HARMONICS + 1):
        # b_{m + 2l} b_m over the kept m whose partner m + 2l is kept too
        pair = b[2 * l :] * b[: b.size - 2 * l]
        # l (m + l) is an exact integer, so the phase keeps its fraction of a turn
        turns = np.mod(l * (m[: b.size - 2 * l] + l) * eps, 1.0)
        out[l] = b[orders + l] ** 2 * np.sum(pair * np.exp(-2j * np.pi * turns))
    return out


def fringe(offsets, period: float, open_fraction: float, eps: float, orders: int = ORDERS) -> np.ndarray:
    """S at each G3 offset [m], per unit flux at G1."""
    s = harmonics(open_fraction, eps, orders)
    l = np.arange(1, HARMONICS + 1)
    wave = np.exp(2j * np.pi * np.outer(np.asarray(offsets, dtype=float) / period, l))
    return s[0].real + 2.0 * (wave @ s[1:]).real
