"""Numerical laboratory for operator-splitting observable errors on
semiclassical grid Hamiltonians.

Submodules
----------
numkit       dense linear algebra (polished SVD, real symmetric eig, norms, Hermiticity gate)
fourier      transform conventions, circulants, factored diagonal operators, their dense form
symbols      phase-space symbols on the unit torus and their calculus
quantize     discrete Weyl quantization and semiclassical calculus checks
hamiltonian  grids on one 2 pi period; every sweep operator a torus symbol sampled there
evolve       the propagators U(t) and V = W^n U^dag, the sweeps' coherent state
frame        the time-reversal frame every error is formed in; each observable's two errors
experiments  the run defaults, one driver per command, slope fits, machine-readable tables
cli          command-line front end, JSON configuration and its validation
"""

from .evolve import SplittingScheme
from .hamiltonian import GridSpec, HamiltonianPair
from .quantize import QuantizationContext
from .symbols import TorusSymbol

__version__ = "0.1.0"

__all__ = [
    "SplittingScheme",
    "GridSpec",
    "HamiltonianPair",
    "QuantizationContext",
    "TorusSymbol",
    "__version__",
]
