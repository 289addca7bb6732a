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
split state W^n psi is V (U psi). Each function reads h from the grid it is
given (``pair.grid.h``, ``grid.h`` or the frame's); step sizes are checked
where they enter, in ``experiments.step_count``.

Every error is formed in the real basis R of the time-reversal frame (see
``frame``: 4 | N and an antisymmetric potential; the sweeps reject other grids
and potentials before any compute). U and G are projected into R once per
sweep point, so V costs one real product per scheme and ||V - 1|| one real
``eigvalsh``; an observable's error, from its frame form K = K_+ + i K_-, costs
two real products per part of K and one ``eigvalsh``, complex only when both
parts remain (``momentum_spectral``).
"""

from __future__ import annotations

import enum
from typing import Iterable

import numpy as np

from .errors import PacketTouchesBoundary, UnnormalizedState
from .fourier import DiagonalKind, FactoredOperator, dft_cols, idft_cols
from .frame import FrameObservable, TimeReversalFrame, real_product
from .hamiltonian import GridSpec, HamiltonianPair
from .numkit import EigenSystem, hermitian_norm, spectral_norm

__all__ = [
    "SplittingScheme",
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


def exact_unitary(eig: EigenSystem, t: float, frame: TimeReversalFrame) -> np.ndarray:
    """The real frame matrix Re R^dag (e^{i c t/2h} U) R of U = e^{-i H t / h},
    from the EigenSystem of H and the frame of its grid, which carries h."""
    return frame.project(eig.exp(-t / frame.h), frame.phase(t))


def _apply_factors(factors, mat: np.ndarray) -> np.ndarray:
    for factor in factors:
        if factor.kind is DiagonalKind.POSITION:
            mat = factor.diag[:, None] * mat
        else:
            mat = idft_cols(factor.diag[:, None] * dft_cols(mat))
    return mat


def trotter_step_unitary(pair: HamiltonianPair, s: float) -> np.ndarray:
    """Dense matrix of Lie's split step W_L = e^{-i B s/h} e^{-i A s/h}: the
    kinetic factor A first, then the potential B, assembled through the fast path."""
    h = pair.grid.h
    factors = [FactoredOperator(op.kind, np.exp(-1j * s / h * op.diag))
               for op in (pair.kinetic, pair.potential)]
    return _apply_factors(factors, np.eye(pair.grid.N, dtype=np.complex128))


def lie_power(pair: HamiltonianPair, s: float, n: int, frame: TimeReversalFrame) -> np.ndarray:
    """The real frame matrix Re R^dag (e^{i c n s/2h} G) R of G = W_L^n, formed by
    binary powering: the one step power behind both schemes. The complex G is
    freed on return."""
    power = np.linalg.matrix_power(trotter_step_unitary(pair, s), n)
    return frame.project(power, frame.phase(n * s))


def relative_propagator(pair: HamiltonianPair, scheme: SplittingScheme, s: float,
                        power: np.ndarray, u: np.ndarray, frame: TimeReversalFrame) -> np.ndarray:
    """The real frame matrix R^dag V R of V = W^n U^dag for n steps of size s,
    with ``power`` = ``lie_power(pair, s, n, frame)`` and ``u`` =
    ``exact_unitary(eig, n * s, frame)``: the phases of G and U cancel.

    Lie1 gives V = G U^T and Strang2 V = P^T (G (P U^T)), as W_S^n = P^dag G P
    with the half potential step P = e^{-i B s/2h}, which rotates row pairs in
    the frame: either scheme costs one real product. The spectral norm is
    unitarily invariant: ||V - 1|| = ||W^n - U||.
    """
    if scheme is SplittingScheme.LIE1:
        return power @ u.T
    theta = s / (2.0 * pair.grid.h) * pair.potential.diag.real
    return frame.rotate(-theta, power @ frame.rotate(theta, u.T))


def observable_error(observable: FrameObservable, v: np.ndarray) -> float:
    """Spectral-norm distance between split and exact Heisenberg evolution at t = n s.

    Taken as ||V^T K V - K|| with V the real ``relative_propagator`` and
    K = K_+ + i K_- the observable's frame form: ``hermitian_norm`` of the
    symmetric defect of K_+ alone, ``spectral_norm`` of the antisymmetric one of
    K_- alone, and ``hermitian_norm`` of the complex sum when both remain.
    """
    plus, minus = observable.defects(v)
    if minus is None:
        return hermitian_norm(plus)
    return spectral_norm(minus) if plus is None else hermitian_norm(plus + 1j * minus)


def gaussian_wavepacket(grid: GridSpec, x0: float, p0: float) -> np.ndarray:
    """Unit-norm coherent-state samples exp(-(x-x0)^2/(2h)) exp(i p0 (x-x0)/h).

    Raises PacketTouchesBoundary when the normalized amplitude at either
    domain edge exceeds 1e-8 (the packet must be negligible there for the
    periodic grid to represent it faithfully).
    """
    x, h = grid.nodes, grid.h
    envelope = (np.pi * h) ** -0.25 * np.exp(-((x - x0) ** 2) / (2.0 * h))
    psi = envelope * np.exp(1j * p0 * (x - x0) / h)
    psi = psi / np.linalg.norm(psi)
    edge = max(abs(psi[0]), abs(psi[-1]))
    if edge > 1e-8:
        raise PacketTouchesBoundary(
            f"normalized boundary amplitude {edge:.3e} exceeds 1e-8; "
            "move x0 inward or shrink the packet")
    return psi


def expectation_error(observables: Iterable[FrameObservable], v: np.ndarray, u: np.ndarray,
                      state: np.ndarray, frame: TimeReversalFrame) -> list[float]:
    """|<W^n psi, O W^n psi> - <U psi, O U psi>| of each observable, for a unit state.

    The exact state U psi and the split state W^n psi = V (U psi) are formed in
    the frame and lifted back by R (their common phase e^{i c t/2h} drops out),
    then each observable is applied to both as one N x 2 block by FFT. Each
    error is bounded by its operator-norm error (Cauchy-Schwarz); acceptance
    criterion 7 checks it. A state off the unit sphere raises before any compute.
    """
    psi = np.asarray(state, dtype=np.complex128)
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-10:
        raise UnnormalizedState(f"state norm {norm} is not 1 within 1e-10")
    exact_state = real_product(u, frame.to_frame(psi[:, None]))
    states = frame.from_frame(np.column_stack((real_product(v, exact_state), exact_state)))
    values = (np.einsum("ij,ij->j", states.conj(), _apply_factors((obs.operator,), states)).real
              for obs in observables)
    return [abs(split - exact) for split, exact in values]
