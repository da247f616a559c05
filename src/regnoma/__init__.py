"""Spectral analysis of regular sparse code-domain spreading.

The package computes the limiting eigenvalue density of the scaled Gram
matrix A A^T / d for N x K signature matrices with d nonzeros per column
and beta d per row, together with the total achievable throughput it
implies.  Three independent routes to the density are provided and cross
checked: the closed-form expression, a scalar cavity fixed point followed
by Stieltjes inversion, and message passing on sampled bipartite graphs.

The public names are each layer module's ``__all__``, re-exported here.
"""

from . import cavity, ensembles, quadrature, spectra, throughput
from .ensembles import *
from .quadrature import *
from .spectra import *
from .cavity import *
from .throughput import *

__version__ = "0.29.0"

__all__ = ["__version__", *ensembles.__all__, *quadrature.__all__, *spectra.__all__,
           *cavity.__all__, *throughput.__all__]
