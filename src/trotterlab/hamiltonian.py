"""Grid discretizations of H = -(h^2/2) Lap + V(x) and of observables.

The physical domain [a, b] with periodic boundary maps to the unit torus by
x -> (x - a)/(b - a); all domain rescaling lives here so the quantization
module can stay domain-free. Kinetic operators are circulant (diagonal in
the Fourier basis) and potentials diagonal in position space; both carry
their factored form alongside the dense (float64 for ``fd`` and potentials,
so H is real symmetric) matrix for the O(N log N) path. Observables are
factored operators only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from . import fourier
from .errors import BadCutoff, NonRealPotential, OddN
from .fourier import DiagonalKind, FactoredOperator
from .symbols import TorusSymbol

__all__ = [
    "GridSpec",
    "GridOperator",
    "HamiltonianPair",
    "build_fd_kinetic",
    "build_sp_kinetic",
    "build_modified_sp_kinetic",
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

    def to_torus(self, x) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.a_dom) / self.length


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


def _signed_bins(n: int) -> np.ndarray:
    # Native DFT bin order [0 .. N/2-1, -N/2 .. -1].
    return np.fft.fftfreq(n) * n


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


def build_sp_kinetic(grid: GridSpec) -> GridOperator:
    """Fourier-collocation discretization of -(h^2/2) Lap.

    Diagonal in the Fourier basis with entries
    (h^2 / 2) (2 pi / (b-a))^2 k^2 for k in {-N/2, ..., N/2 - 1}.
    """
    if grid.N % 2:
        raise OddN(f"collocation kinetic needs even N, got {grid.N}")
    k = _signed_bins(grid.N)
    diag = 0.5 * grid.h**2 * (2.0 * np.pi / grid.length) ** 2 * k**2
    op = FactoredOperator(DiagonalKind.FOURIER, diag)
    return GridOperator(fourier.materialize(op), op)


def _smooth_step(t: np.ndarray) -> np.ndarray:
    """C-infinity step: exactly 0 for t <= 0 and exactly 1 for t >= 1.

    Standard bump-function ratio f(t) / (f(t) + f(1-t)) with f(t) = e^{-1/t}.
    """
    t = np.asarray(t, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore"):
        fa = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        fb = np.where(1 - t > 0, np.exp(-1.0 / np.maximum(1 - t, 1e-300)), 0.0)
    return fa / (fa + fb)


def build_modified_sp_kinetic(grid: GridSpec, cutoff: float) -> GridOperator:
    """Collocation kinetic with a smooth high-frequency cutoff.

    The diagonal symbol is xi^2 chi(xi) on normalized frequencies
    xi = k/N in [-1/2, 1/2): chi is smooth, identically 1 on
    [-1/2 + c, 1/2 - c] and supported inside (-(1-c)/2, (1-c)/2).
    Interior bins match the unmodified kinetic exactly.
    """
    if not 0.0 < cutoff < 0.5:
        raise BadCutoff(f"cutoff must lie in (0, 1/2), got {cutoff}")
    if grid.N % 2:
        raise OddN(f"collocation kinetic needs even N, got {grid.N}")
    k = _signed_bins(grid.N)
    u = np.abs(np.fft.fftfreq(grid.N))            # |k|/N
    plateau = 0.5 - cutoff
    support = 0.5 * (1.0 - cutoff)
    chi = _smooth_step((support - u) / (support - plateau))
    diag = 0.5 * grid.h**2 * (2.0 * np.pi / grid.length) ** 2 * (k**2 * chi)
    op = FactoredOperator(DiagonalKind.FOURIER, diag)
    return GridOperator(fourier.materialize(op), op)


def build_potential(v: Union[Callable[[np.ndarray], np.ndarray], TorusSymbol],
                    grid: GridSpec) -> GridOperator:
    """Multiplication operator diag(V(x_0), ..., V(x_{N-1})).

    ``v`` is either a callable on physical coordinates or an x-only torus
    symbol evaluated at the rescaled nodes (x - a)/(b - a).
    """
    if isinstance(v, TorusSymbol):
        values = np.asarray(v.evaluate(grid.to_torus(grid.nodes), 0.0))
    else:
        values = np.asarray(v(grid.nodes), dtype=np.complex128)
    scale = max(np.abs(values).max(), 1.0)
    if np.abs(values.imag).max() > 1e-12 * scale:
        raise NonRealPotential("potential values have a non-negligible imaginary part")
    diag = values.real.astype(np.float64)
    op = FactoredOperator(DiagonalKind.POSITION, diag)
    return GridOperator(np.diag(diag), op)


def build_pair(grid: GridSpec,
               potential: Union[Callable, TorusSymbol] = np.cos,
               kinetic: str = "fd",
               cutoff: float = 0.125) -> HamiltonianPair:
    """Assemble the split Hamiltonian for a grid; kinetic is 'fd', 'sp' or 'sp_mod'."""
    builders = {"fd": build_fd_kinetic, "sp": build_sp_kinetic,
                "sp_mod": lambda g: build_modified_sp_kinetic(g, cutoff)}
    if kinetic not in builders:
        raise ValueError(f"unknown kinetic discretization {kinetic!r}")
    return HamiltonianPair(builders[kinetic](grid), build_potential(potential, grid), grid)


def momentum_observable(grid: GridSpec) -> FactoredOperator:
    """Spectral derivative observable -i h d/dx, diagonal in the Fourier basis.

    Fourier multiplier h (2 pi / (b-a)) k over k in {-N/2, ..., N/2 - 1}.
    Its symbol is a sawtooth in the frequency variable, discontinuous at
    the Nyquist wrap; worst-case (operator norm) split-step errors for it
    grow like 1/h, unlike symbol-class observables.
    """
    if grid.N % 2:
        raise OddN(f"momentum observable needs even N, got {grid.N}")
    diag = grid.h * (2.0 * np.pi / grid.length) * _signed_bins(grid.N)
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

