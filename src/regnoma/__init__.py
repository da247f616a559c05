"""Spectral analysis of regular sparse code-domain spreading.

The package computes the limiting eigenvalue density of the scaled Gram
matrix A A^T / d for N x K signature matrices with d nonzeros per column
and beta d per row, together with the total achievable throughput it
implies.  Three independent routes to the density are provided and cross
checked: the closed-form expression, a scalar cavity fixed point followed
by Stieltjes inversion, and message passing on sampled bipartite graphs.
"""

from .ensembles import (EnsembleSpec, EntryMode, GenerationError,
                        SparseSignatureMatrix, generate_irregular,
                        generate_regular, stream)
from .quadrature import QuadratureError, partial_integrals, support_integral
from .spectra import (DensityParams, analytic_cdf, analytic_density,
                      empirical_spectrum, gram_transform, kesten_mckay_density, ks_distance,
                      marchenko_pastur_density, pooled_spectrum, spectrum_histogram)
from .cavity import GraphCavityMessages, cavity_on_graph, cavity_on_tree
from .throughput import (Curve, MCResult, SweepSpec, SweepVariable,
                         cover_wyner_bound, db_to_linear, dense_rs_throughput,
                         ebno_from_snr, finite_n_throughput_mc,
                         regular_throughput, snr_for_ebno, sweep)

__version__ = "0.20.0"

__all__ = [
    "__version__",
    "EnsembleSpec",
    "EntryMode",
    "GenerationError",
    "SparseSignatureMatrix",
    "generate_irregular",
    "generate_regular",
    "stream",
    "QuadratureError",
    "partial_integrals",
    "support_integral",
    "DensityParams",
    "analytic_cdf",
    "analytic_density",
    "empirical_spectrum",
    "gram_transform",
    "kesten_mckay_density",
    "ks_distance",
    "marchenko_pastur_density",
    "pooled_spectrum",
    "spectrum_histogram",
    "GraphCavityMessages",
    "cavity_on_tree",
    "cavity_on_graph",
    "Curve",
    "MCResult",
    "SweepSpec",
    "SweepVariable",
    "cover_wyner_bound",
    "db_to_linear",
    "dense_rs_throughput",
    "ebno_from_snr",
    "finite_n_throughput_mc",
    "regular_throughput",
    "snr_for_ebno",
    "sweep",
]
