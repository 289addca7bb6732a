"""Exact and split-step propagators with Heisenberg-picture error functionals.

The exact propagator U(t) = e^{-i H t / h} comes from the cached
eigendecomposition of H (real for the real symmetric H of the grid). Each
split-step factor is diagonal in position or in the Fourier basis, so Lie's
one-step matrix W_L = e^{-i B s/h} e^{-i A s/h} is assembled in
O(N^2 log N), and G = W_L^n is formed by binary powering in O(N^3 log n).
Strang's step is Lie's conjugated by the half potential step
P = e^{-i B s/2h}: W_S = P^dag W_L P, so W_S^n = P^dag G P and one power per
step size serves both schemes. U and the relative propagator V = W^n U^dag
are the only propagators: the unitary and observable errors read V, and the
split state W^n psi is V (U psi). Observables stay factored: O V is a row
scaling in the basis that diagonalizes O, and O applies to states by FFT.

When 4 | N and the potential is antisymmetric under the half-period shift
(``cos`` and ``zero`` are, at every domain offset), V is real in the sparse
basis R of ``frame.TimeReversalFrame``. U and G are then projected into R
once per sweep point (O(N^2) by slicing) and everything after the power runs
in real arithmetic: V costs one real product per scheme, ||V - 1|| one real
``eigvalsh``, and the error of an observable that commutes with T (e.g.
``momentum_fd``) or anticommutes with it (``cos_x``, ``cos_3x``) two real
products and one real ``eigvalsh``, of the symmetric difference or of the
Gram matrix of the antisymmetric one. Other observables, odd N, N = 2 mod 4
and other potentials take the complex path.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import NonHermitian, PacketTouchesBoundary, UnnormalizedState
from .fourier import DiagonalKind, FactoredOperator, dft_cols, idft_cols
from .frame import TimeReversalFrame, real_product
from .hamiltonian import GridSpec, HamiltonianPair
from .numkit import HERMITICITY_RTOL, EigenSystem, hermitian_norm

__all__ = [
    "SplittingScheme",
    "EvolutionPlan",
    "exact_unitary",
    "trotter_step_unitary",
    "lie_power",
    "relative_propagator",
    "observable_error",
    "gaussian_wavepacket",
    "expectation_error",
]

# Errors below 1e-11 * N sit at the round-off floor of the dense algebra;
# slope fits exclude them (see experiments.roundoff_floor).
ROUNDOFF_FLOOR_PER_DIM = 1e-11


class SplittingScheme(enum.Enum):
    """First-order (Lie) or second-order (Strang) splitting."""

    LIE1 = "Lie1"
    STRANG2 = "Strang2"


@dataclass(frozen=True)
class EvolutionPlan:
    """Splitting scheme, step size s, step count n and Planck constant h.

    The total time is t = n * s by construction. n = 0 is allowed and
    leaves observables untouched.
    """

    scheme: SplittingScheme
    s: float
    n: int
    h: float

    def __post_init__(self):
        if not self.s > 0:
            raise ValueError(f"need step size s > 0, got {self.s}")
        if self.n < 0 or self.n != int(self.n):
            raise ValueError(f"need integer step count n >= 0, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        if not self.h > 0:
            raise ValueError(f"need h > 0, got {self.h}")

    @property
    def t(self) -> float:
        return self.n * self.s


def exact_unitary(eig: EigenSystem, t: float, h: float,
                  frame: TimeReversalFrame | None = None) -> np.ndarray:
    """Dense propagator U = e^{-i H t / h} from the EigenSystem of H; with a
    frame, its real projection Re R^dag (e^{i c t/2h} U) R."""
    u = eig.exp(-t / h)
    return u if frame is None else frame.project(u, frame.phase(t, h))


def _phase(op: FactoredOperator, s: float, h: float) -> FactoredOperator:
    """Unitary factor exp(-i X s / h) of a factored Hermitian X."""
    return FactoredOperator(op.kind, np.exp(-1j * s / h * op.diag))


def _apply_factors(factors, mat: np.ndarray) -> np.ndarray:
    for factor in factors:
        if factor.kind is DiagonalKind.POSITION:
            mat = factor.diag[:, None] * mat
        else:
            mat = idft_cols(factor.diag[:, None] * dft_cols(mat))
    return mat


def trotter_step_unitary(pair: HamiltonianPair, s: float, h: float) -> np.ndarray:
    """Dense matrix of Lie's split step W_L = e^{-i B s/h} e^{-i A s/h}: the
    kinetic factor A first, then the potential B, assembled through the fast path."""
    factors = (_phase(pair.kinetic.factored, s, h), _phase(pair.potential.factored, s, h))
    return _apply_factors(factors, np.eye(pair.grid.N, dtype=np.complex128))


def lie_power(pair: HamiltonianPair, s: float, n: int, h: float,
              frame: TimeReversalFrame | None = None) -> np.ndarray:
    """G = W_L^n by binary powering: the one step power behind both schemes.
    With a frame, its real projection Re R^dag (e^{i c n s/2h} G) R; the complex
    G is freed on return."""
    power = np.linalg.matrix_power(trotter_step_unitary(pair, s, h), n)
    return power if frame is None else frame.project(power, frame.phase(n * s, h))


def relative_propagator(pair: HamiltonianPair, plan: EvolutionPlan, power: np.ndarray,
                        u: np.ndarray, frame: TimeReversalFrame | None = None) -> np.ndarray:
    """V = W^n U^dag, with ``power`` = G = ``lie_power(pair, plan.s, plan.n, plan.h, frame)``
    and ``u`` = ``exact_unitary(eig, plan.t, plan.h, frame)``.

    Lie1 gives V = G U^dag. Strang2 gives V = P^dag (G (P U^dag)), since
    W_S^n = P^dag W_L^n P with the half potential step P = e^{-i B s/2h}; the
    P factors are row scalings (in the frame, rotations of row pairs), so
    either scheme costs one product. With a frame, V is the real matrix
    R^dag V R: the phases of G and U cancel. The spectral
    norm is unitarily invariant, so ||V - 1|| = ||W^n - U|| and
    ||V^dag O V - O|| = ||W^n^dag O W^n - U^dag O U||.
    """
    u_adj = u.conj().T              # a view for a real u
    if plan.scheme is SplittingScheme.LIE1:
        return power @ u_adj
    if frame is not None:
        theta = plan.s / (2.0 * plan.h) * pair.potential.factored.diag.real
        return frame.rotate(-theta, power @ frame.rotate(theta, u_adj))
    potential = pair.potential.factored
    half, back = _phase(potential, plan.s / 2.0, plan.h), _phase(potential, -plan.s / 2.0, plan.h)
    return _apply_factors((back,), power @ _apply_factors((half,), u_adj))


def _real_diagonal(observable: FactoredOperator) -> np.ndarray:
    """Real diagonal of a factored observable (Hermitian iff it is real), or NonHermitian."""
    diag = observable.diag
    imag = np.abs(diag.imag).max()
    if imag > HERMITICITY_RTOL * np.abs(diag).max():
        raise NonHermitian(f"observable diagonal has imaginary part {imag:.3e}; "
                           f"relative tolerance {HERMITICITY_RTOL:.1e}")
    return diag.real


def observable_error(observable: FactoredOperator, v: np.ndarray,
                     frame: TimeReversalFrame | None = None) -> float:
    """Spectral-norm distance between split and exact Heisenberg evolution at t = n s.

    Taken as ||V^dag O V - O|| with V the ``relative_propagator``, by
    eigenvalues since the difference is Hermitian.
    A Fourier-diagonal O = F^-1 D F is handled in the Fourier basis, where
    V becomes F V F^-1: the norm is unitarily invariant. With a frame, V is
    real and O must commute or anticommute with T; the norm is then taken in
    real arithmetic. A non-Hermitian observable raises NonHermitian before any
    compute.
    """
    diag = _real_diagonal(observable)
    if frame is not None:
        return frame.observable_error(observable, v)
    if observable.kind is DiagonalKind.FOURIER:
        v = idft_cols(dft_cols(v).T).T      # F V F^-1, as F^-1 is symmetric
    # conj(V^dag D V) = V^T (D conj(V)) has the same norm: one conjugated copy
    # of V, scaled in place, and one product with the transposed view
    scaled = v.conj()
    scaled *= diag[:, None]
    diff = v.T @ scaled
    diff[np.diag_indices_from(diff)] -= diag
    return hermitian_norm(diff)


def gaussian_wavepacket(grid: GridSpec, x0: float, p0: float, h: float) -> np.ndarray:
    """Unit-norm coherent-state samples exp(-(x-x0)^2/(2h)) exp(i p0 (x-x0)/h).

    Raises PacketTouchesBoundary when the normalized amplitude at either
    domain edge exceeds 1e-8 (the packet must be negligible there for the
    periodic grid to represent it faithfully).
    """
    x = grid.nodes
    envelope = (np.pi * h) ** -0.25 * np.exp(-((x - x0) ** 2) / (2.0 * h))
    psi = envelope * np.exp(1j * p0 * (x - x0) / h)
    psi = psi / np.linalg.norm(psi)
    edge = max(abs(psi[0]), abs(psi[-1]))
    if edge > 1e-8:
        raise PacketTouchesBoundary(
            f"normalized boundary amplitude {edge:.3e} exceeds 1e-8; "
            "move x0 inward or shrink the packet")
    return psi


def expectation_error(observables: Iterable[FactoredOperator], v: np.ndarray, u: np.ndarray,
                      state: np.ndarray, frame: TimeReversalFrame | None = None) -> list[float]:
    """|<W^n psi, O W^n psi> - <U psi, O U psi>| of each observable, for a unit state.

    The exact state is U psi and the split state W^n psi = V (U psi), with V
    the ``relative_propagator``; each observable is applied to both states
    as one N x 2 block. With a frame, both states are formed in it with the
    real V and U and lifted back by R: they carry the common phase e^{i c t/2h},
    which no expectation sees. Each error is bounded by its operator-norm error
    (Cauchy-Schwarz); acceptance criterion 7 checks it. A non-Hermitian
    observable or a state off the unit sphere raises before any compute.
    """
    observables = list(observables)
    for obs in observables:
        _real_diagonal(obs)
    psi = np.asarray(state, dtype=np.complex128)
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-10:
        raise UnnormalizedState(f"state norm {norm} is not 1 within 1e-10")
    if frame is None:
        exact_state = u @ psi
        states = np.column_stack((v @ exact_state, exact_state))
    else:
        exact_state = real_product(u, frame.to_frame(psi[:, None]))
        states = frame.from_frame(np.column_stack((real_product(v, exact_state), exact_state)))
    errors = []
    for obs in observables:
        split, exact = np.einsum("ij,ij->j", states.conj(), _apply_factors((obs,), states)).real
        errors.append(abs(split - exact))
    return errors
