"""Grid discretization of H = -(h^2/2) Lap + V(x) and of observables.

The kinetic part is the central-difference (``fd``) stencil on the periodic
grid over [a, b]: a circulant, diagonal in the Fourier basis, whose symbol on
the unit torus, 2 - 2 cos(2 pi xi), is smooth. The potential is diagonal in
position space. Both carry their factored form alongside the dense float64
matrix (so H is real symmetric) for the O(N log N) path. Observables are
factored operators only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import fourier
from .errors import NonRealPotential, OddN
from .fourier import DiagonalKind, FactoredOperator

__all__ = [
    "GridSpec",
    "GridOperator",
    "HamiltonianPair",
    "build_fd_kinetic",
    "build_potential",
    "build_pair",
    "momentum_observable",
    "momentum_fd_observable",
    "cosine_observable",
]


@dataclass(frozen=True)
class GridSpec:
    """Spatial domain, grid count, and Planck constant of a one-dimensional grid.

    The canonical meshing ties the grid to the Planck constant through
    N = (b - a) / (2 pi h); on [-pi, pi] that reads N = 1/h. Use
    ``GridSpec.canonical`` to construct grids obeying it. Direct
    construction accepts any (N, h) pair for desk-scale use and records
    how far it sits from the canonical relation in ``relation_residual``.
    """

    a_dom: float
    b_dom: float
    N: int
    h: float

    def __post_init__(self):
        if not self.b_dom > self.a_dom:
            raise ValueError(f"need b_dom > a_dom, got [{self.a_dom}, {self.b_dom}]")
        if self.N < 1:
            raise ValueError(f"need N >= 1, got {self.N}")
        if not self.h > 0:
            raise ValueError(f"need h > 0, got {self.h}")

    @classmethod
    def canonical(cls, a_dom: float, b_dom: float, h: float) -> "GridSpec":
        """Grid with N = (b-a)/(2 pi h), which must be a positive integer within
        1e-9 N: any other h raises ValueError instead of being re-meshed."""
        exact = (b_dom - a_dom) / (2.0 * math.pi * h)
        n = round(exact)
        if n < 1 or abs(n - exact) > 1e-9 * exact:
            raise ValueError(f"h={h} gives N=(b-a)/(2 pi h)={exact:.17g}, not an integer")
        return cls(a_dom, b_dom, n, h)

    @property
    def length(self) -> float:
        return self.b_dom - self.a_dom

    @property
    def nodes(self) -> np.ndarray:
        return self.a_dom + self.length * np.arange(self.N) / self.N

    @property
    def relation_residual(self) -> float:
        return self.N - self.length / (2.0 * math.pi * self.h)


@dataclass(frozen=True)
class GridOperator:
    """Dense matrix (float64 or complex128) together with its factored (fast) form."""

    dense: np.ndarray
    factored: FactoredOperator

    def __post_init__(self):
        arr = np.array(self.dense, copy=True)
        arr.flags.writeable = False
        object.__setattr__(self, "dense", arr)


@dataclass(frozen=True)
class HamiltonianPair:
    """Split Hamiltonian H = A + B: kinetic A (Fourier-diagonal) plus potential B."""

    kinetic: GridOperator
    potential: GridOperator
    grid: GridSpec

    @property
    def total(self) -> np.ndarray:
        return self.kinetic.dense + self.potential.dense


def build_fd_kinetic(grid: GridSpec) -> GridOperator:
    """Central-difference discretization of -(h^2/2) Lap.

    The circulant with first column (h^2 N^2 / (2 (b-a)^2)) * [2, -1, 0,
    ..., 0, -1]; its Fourier eigenvalues are
    (h^2 N^2 / (b-a)^2) (1 - cos(2 pi k / N)).
    """
    n = grid.N
    if n < 2:
        raise ValueError("finite-difference stencil needs N >= 2")
    pref = grid.h**2 * n**2 / (2.0 * grid.length**2)
    col = np.zeros(n)
    col[0] = 2.0 * pref
    col[1] = -pref
    col[-1] += -pref
    diag = 2.0 * pref * (1.0 - np.cos(2.0 * np.pi * np.arange(n) / n))
    return GridOperator(fourier.circulant(col), FactoredOperator(DiagonalKind.FOURIER, diag))


def build_potential(v: Callable[[np.ndarray], np.ndarray], grid: GridSpec) -> GridOperator:
    """Multiplication operator diag(V(x_0), ..., V(x_{N-1})) of a callable on
    physical coordinates."""
    values = np.asarray(v(grid.nodes), dtype=np.complex128)
    scale = max(np.abs(values).max(), 1.0)
    if np.abs(values.imag).max() > 1e-12 * scale:
        raise NonRealPotential("potential values have a non-negligible imaginary part")
    diag = values.real.astype(np.float64)
    op = FactoredOperator(DiagonalKind.POSITION, diag)
    return GridOperator(np.diag(diag), op)


def build_pair(grid: GridSpec, potential: Callable = np.cos) -> HamiltonianPair:
    """Assemble the split Hamiltonian of a grid: the fd kinetic plus the potential."""
    return HamiltonianPair(build_fd_kinetic(grid), build_potential(potential, grid), grid)


def momentum_observable(grid: GridSpec) -> FactoredOperator:
    """Spectral derivative observable -i h d/dx, diagonal in the Fourier basis.

    Fourier multiplier h (2 pi / (b-a)) k over k in {-N/2, ..., N/2 - 1}.
    Its symbol is a sawtooth in the frequency variable, discontinuous at
    the Nyquist wrap; worst-case (operator norm) split-step errors for it
    grow like 1/h, unlike symbol-class observables.
    """
    if grid.N % 2:
        raise OddN(f"momentum observable needs even N, got {grid.N}")
    k = np.fft.fftfreq(grid.N) * grid.N      # native DFT bin order [0 .. N/2-1, -N/2 .. -1]
    diag = grid.h * (2.0 * np.pi / grid.length) * k
    return FactoredOperator(DiagonalKind.FOURIER, diag)


def momentum_fd_observable(grid: GridSpec) -> FactoredOperator:
    """Central-difference realization of -i h d/dx, diagonal in the Fourier basis.

    Fourier multiplier (h N / (b-a)) sin(2 pi k / N): a smooth periodic
    symbol that agrees with the spectral momentum to second order in k/N.
    Because the symbol is smooth, the uniform-in-h observable error bounds
    apply to it, and the flat error curves of the h sweeps are reproduced
    with this realization.
    """
    diag = grid.h * grid.N / grid.length * np.sin(2.0 * np.pi * np.arange(grid.N) / grid.N)
    return FactoredOperator(DiagonalKind.FOURIER, diag)


def cosine_observable(grid: GridSpec, harmonic: int = 1) -> FactoredOperator:
    """Multiplication by cos(harmonic * x) at the grid nodes, diagonal in position.

    Higher harmonics carry larger derivatives and hence larger split-step
    error constants; the query-count experiment uses harmonic 3 so its
    target accuracies sit in the asymptotic second-order regime.
    """
    return FactoredOperator(DiagonalKind.POSITION, np.cos(harmonic * grid.nodes))

