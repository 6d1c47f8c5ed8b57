"""Numerical verification of the sharp L2 -> L4 Fourier extension inequality
on the unit sphere in R^3, and gradient-ascent search for its extremizers.

The sharp ratio ||ext f||_{L4(R^3)} / ||f||_{L2(S^2)} equals 2*pi and is
attained exactly by constants. This package computes both sides of every step
of that statement with quadrature rules sized so that band-limited inputs are
integrated exactly, turning the inequality chain into machine-precision checks.

Each module lists its public names once, in its own __all__; the package
re-exports them all.
"""

from . import convolution, forms, harmonics, legendre, maximizer, quadrature, verification
from .quadrature import *
from .legendre import *
from .harmonics import *
from .convolution import *
from .forms import *
from .maximizer import *
from .verification import *

__version__ = "0.1.0"

__all__ = (quadrature.__all__ + legendre.__all__ + harmonics.__all__ + convolution.__all__
           + forms.__all__ + maximizer.__all__ + verification.__all__)
