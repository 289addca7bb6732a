"""Exact and split-step propagators with Heisenberg-picture error functionals.

Every propagator is formed as its real matrix in the basis R of the
time-reversal frame (see ``frame``: 4 | N and an antisymmetric potential; the
sweeps reject other grids and potentials before any compute), most of it in
half-size arithmetic. H - c/2 anticommutes with T, so the frame form of
-i (H - c/2) is [[0, B], [-B^T, 0]] with B real and N/2 x N/2. From the SVD
B = X S Y^T, with X and Y polished to orthogonality once per grid, U(t) =
e^{-i H t/h} is [[X cos(th S) X^T, X sin(th S) Y^T], [-Y sin(th S) X^T,
Y cos(th S) Y^T]] at th = t/h: three half-size products per horizon.

Lie's step W_L = e^{-i B s/h} e^{-i A s/h} is formed in the frame in O(N^2):
the kinetic factor from its circulant's first column, the potential factor as
a rotation of row pairs. G = W_L^n is its float64 power by binary powering,
given one Newton-Schulz polish for n > 1. Strang's step is Lie's conjugated by
the half potential step P = e^{-i B s/2h}: W_S = P^dag W_L P, so W_S^n =
P^dag G P and one power per step size serves both schemes. U and the relative
propagator V = W^n U^dag are the only propagators: the unitary and observable
errors read V, and the split state W^n psi is V (U psi). Each function reads h
from the grid it is given (``pair.grid.h`` or the frame's); step sizes are
checked where they enter, in ``experiments.step_count``.

V costs one real product per scheme and ||V - 1|| one real ``eigvalsh``. An
observable's error is the norm of V^T K V - K for its frame form
K = K_+ + i K_-: a position observable's as the commutator K V - V K, formed
in O(N^2), and a Fourier observable's by two real products per part of K; one
``eigvalsh`` each, complex only when both parts of a Fourier observable remain
(``momentum_spectral``).
"""

from __future__ import annotations

import enum
from typing import Iterable

import numpy as np

from .errors import PacketTouchesBoundary, UnnormalizedState
from .fourier import DiagonalKind, FactoredOperator, dft_cols, idft_cols
from .frame import FrameObservable, TimeReversalFrame, real_product
from .hamiltonian import GridSpec, HamiltonianPair
from .numkit import SingularSystem, hermitian_norm, polar_polish, spectral_norm

__all__ = [
    "SplittingScheme",
    "exact_unitary",
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


def exact_unitary(spectrum: SingularSystem, t: float, frame: TimeReversalFrame) -> np.ndarray:
    """The real frame matrix Re R^dag (e^{i c t/2h} U) R = e^{th M} of
    U = e^{-i H t / h}, th = t/h, with M = [[0, B], [-B^T, 0]] the frame form of
    -i (H - c/2): from the ``polished_svd`` B = X S Y^T of
    ``frame.hamiltonian_block`` and the frame of the grid, which carries h."""
    x, sigma, y = spectrum
    angle = t / frame.h * sigma
    cos, sin = np.cos(angle), np.sin(angle)
    m = frame.size // 2
    out = np.empty((frame.size, frame.size))
    out[:m, :m] = (x * cos) @ x.T
    out[:m, m:] = (x * sin) @ y.T
    out[m:, :m] = -out[:m, m:].T
    out[m:, m:] = (y * cos) @ y.T
    return out


def _apply(op: FactoredOperator, mat: np.ndarray) -> np.ndarray:
    if op.kind is DiagonalKind.POSITION:
        return op.diag[:, None] * mat
    return idft_cols(op.diag[:, None] * dft_cols(mat))


def lie_power(pair: HamiltonianPair, s: float, n: int, frame: TimeReversalFrame) -> np.ndarray:
    """The real frame matrix Re R^dag (e^{i c n s/2h} G) R of G = W_L^n: the one
    step power behind both schemes.

    The frame step e^{i c s/2h} W_L is the kinetic circulant of first column
    F^-1 e^{-i a s/h} projected with its phase (``frame.project_circulant``),
    its row pairs then rotated by the potential step (``frame.rotate``): O(N^2).
    Its float64 power by binary powering drifts from orthogonality with every
    product, which the observable error would read at first order; for n > 1
    one ``polar_polish`` step removes the drift.
    """
    h = pair.grid.h
    kinetic = idft_cols(np.exp(-1j * s / h * pair.kinetic.diag))
    step = frame.rotate(s / h * pair.potential.diag.real,
                        frame.project_circulant(kinetic, frame.phase(s)))
    power = np.linalg.matrix_power(step, n)
    return polar_polish(power) if n > 1 else power


def relative_propagator(pair: HamiltonianPair, scheme: SplittingScheme, s: float,
                        power: np.ndarray, u: np.ndarray, frame: TimeReversalFrame) -> np.ndarray:
    """The real frame matrix R^dag V R of V = W^n U^dag for n steps of size s,
    with ``power`` = ``lie_power(pair, s, n, frame)`` and ``u`` =
    ``exact_unitary(spectrum, n * s, frame)``: the phases of G and U cancel.

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
    K = K_+ + i K_- the observable's frame form, from the defects of its parts
    (``FrameObservable.defects``). A position observable's are commutators
    K V - V K, without symmetry: ``spectral_norm`` of their sum. Otherwise
    ``hermitian_norm`` of the symmetric defect of K_+ alone, ``spectral_norm``
    of the antisymmetric one of K_- alone, and ``hermitian_norm`` of the
    complex sum when both remain.
    """
    plus, minus = observable.defects(v)
    defect = minus if plus is None else plus if minus is None else plus + 1j * minus
    if plus is None or observable.operator.kind is DiagonalKind.POSITION:
        return spectral_norm(defect)
    return hermitian_norm(defect)


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
    values = (np.einsum("ij,ij->j", states.conj(), _apply(obs.operator, states)).real
              for obs in observables)
    return [abs(split - exact) for split, exact in values]
