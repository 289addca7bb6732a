"""Grid discretization of H = -(h^2/2) Lap + V(x) and of observables.

A grid has N nodes x_j = a + 2 pi j / N on one 2 pi period. Each sweep
operator is a real ``TorusSymbol`` of one phase-space variable, which
``sample`` turns into the factored operator of the FFT path: the position
diagonal of its values at x_j / (2 pi), or the Fourier diagonal of its values
at xi = k / N; at a = 0 these are the eigenvalues of ``quantize(symbol)``. The
kinetic symbol (hN)^2 (1 - cos 2 pi xi) / (4 pi^2) samples to the
central-difference (``fd``) stencil (hN)^2 / (8 pi^2) (2 - T - T^-1), T the
cyclic shift, so H is real symmetric; ``fourier.materialize`` forms it densely.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import fourier
from .errors import NonHermitian, NotOnePeriod, NotSplit
from .fourier import DiagonalKind, FactoredOperator
from .symbols import TorusSymbol, constant, cosine_x, cosine_xi

__all__ = [
    "GridSpec",
    "HamiltonianPair",
    "kinetic_symbol",
    "sample",
    "build_pair",
    "momentum_observable",
]

PERIOD = 2.0 * math.pi


@dataclass(frozen=True)
class GridSpec:
    """N nodes on the 2 pi period from a finite ``a_dom``, and the Planck constant
    h as given. An N that is not an integer (a bool or a float) raises TypeError.

    ``GridSpec.canonical`` builds grids on the canonical meshing N = 1/h.
    Direct construction accepts any (N, h) pair for desk-scale use and records
    how far it sits from that relation in ``relation_residual``.
    """

    a_dom: float
    N: int
    h: float

    def __post_init__(self):
        if isinstance(self.N, bool) or not isinstance(self.N, numbers.Integral):
            raise TypeError(f"need an integer N, got {self.N!r}")
        if self.N < 1:
            raise ValueError(f"need N >= 1, got {self.N}")
        if not math.isfinite(self.a_dom):
            raise ValueError(f"need a finite a_dom, got {self.a_dom}")
        if not 0 < self.h < math.inf:
            raise ValueError(f"need a finite h > 0, got {self.h}")

    @classmethod
    def canonical(cls, a: float, b: float, h: float) -> "GridSpec":
        """Grid on [a, b], which must be one 2 pi period, with N = 1/h, which
        must be a positive integer within 1e-9 N: any other domain (a NaN end
        too) raises NotOnePeriod, any other h ValueError, instead of being
        shifted or re-meshed."""
        if not abs(b - a - PERIOD) <= 1e-9 * PERIOD:
            raise NotOnePeriod(f"[{a}, {b}] has length b - a = {b - a:.17g}, not one 2 pi "
                               "period of the potential and observables")
        if not 0 < h < math.inf:
            raise ValueError(f"need a finite h > 0, got {h}")
        exact = 1.0 / h
        n = round(exact)
        if n < 1 or abs(n - exact) > 1e-9 * exact:
            raise ValueError(f"h={h} gives N=1/h={exact:.17g}, not an integer")
        return cls(a, n, h)

    @property
    def nodes(self) -> np.ndarray:
        return self.a_dom + PERIOD * np.arange(self.N) / self.N

    @property
    def relation_residual(self) -> float:
        return self.N - 1.0 / self.h


@dataclass(frozen=True)
class HamiltonianPair:
    """Split Hamiltonian H = A + B: Fourier-diagonal kinetic A, position-diagonal potential B."""

    kinetic: FactoredOperator
    potential: FactoredOperator
    grid: GridSpec

    @property
    def total(self) -> np.ndarray:
        """The dense H, formed on each call."""
        return fourier.materialize(self.kinetic) + fourier.materialize(self.potential)


def kinetic_symbol(grid: GridSpec) -> TorusSymbol:
    """(hN)^2 (1 - cos 2 pi xi) / (4 pi^2): the symbol of the fd stencil of
    -(h^2/2) d^2/dx^2 on the grid's nodes, spacing 2 pi / N."""
    return (grid.h * grid.N / PERIOD) ** 2 * (constant(1.0) - cosine_xi())


def sample(symbol: TorusSymbol, grid: GridSpec) -> FactoredOperator:
    """The factored operator of a real symbol of x alone (its values at the
    nodes over 2 pi, a position diagonal) or of xi alone (its values at
    xi = k / N, a Fourier diagonal). A symbol that is not real raises
    NonHermitian, one of both variables NotSplit."""
    if not symbol.is_real():
        raise NonHermitian("symbol is not real-valued, so its operator is not Hermitian")
    if symbol.is_x_only():
        kind, values = DiagonalKind.POSITION, symbol.evaluate(grid.nodes / PERIOD, 0.0)
    elif symbol.is_xi_only():
        kind, values = DiagonalKind.FOURIER, symbol.evaluate(0.0, np.arange(grid.N) / grid.N)
    else:
        raise NotSplit("a sampled symbol must depend on x only or on xi only")
    return FactoredOperator(kind, values.real)


def build_pair(grid: GridSpec, potential: TorusSymbol = cosine_x()) -> HamiltonianPair:
    """The split Hamiltonian of a grid: the sampled kinetic and x-only potential symbols."""
    if not potential.is_x_only():
        raise NotSplit("the potential symbol must depend on x only")
    return HamiltonianPair(sample(kinetic_symbol(grid), grid), sample(potential, grid), grid)


def momentum_observable(grid: GridSpec) -> FactoredOperator:
    """Spectral derivative observable -i h d/dx, diagonal in the Fourier basis.

    Fourier multiplier h k over k in {-N/2, ..., N/2 - 1}, in DFT bin order.
    Its symbol is a sawtooth in the frequency variable, discontinuous at
    the Nyquist wrap; worst-case (operator norm) split-step errors for it
    grow like 1/h, unlike symbol-class observables.
    """
    k = np.fft.fftfreq(grid.N) * grid.N      # native DFT bin order [0 .. N/2-1, -N/2 .. -1]
    return FactoredOperator(DiagonalKind.FOURIER, grid.h * k)
