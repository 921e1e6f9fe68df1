"""Desk-scale three-grating near-field interferometer simulator.

A scalar 1-D wavefield is carried plane to plane by one path-summation
kernel, a fast paraxial FFT convolution that the fringe scan runs in
place on batches of sources (``propagation._carry``). The tests check it
against a direct path-length quadrature that carries the Fresnel
prefactor. The field is modulated by slits and absorption gratings, and
incoherently averaged over point sources to produce throughput fringes,
contrast-vs-energy curves and a magnetometry analysis layer (field
generation, deflection, shot-noise sensitivity, device scaling). The
kernel is linear and does not rescale its output; the fringe scan alone
normalizes, per unit of flux at the first grating.
"""

from . import config, elements, interferometer, kinematics, propagation, sensing
from .config import *
from .elements import *
from .interferometer import *
from .kinematics import *
from .propagation import *
from .sensing import *

__all__ = [
    name
    for module in (config, elements, interferometer, kinematics, propagation, sensing)
    for name in module.__all__
]
__version__ = "0.1.0"
