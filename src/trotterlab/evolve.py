"""Exact and split-step propagators, and the sweeps' coherent state.

Every propagator is formed as its real matrix in the basis R of the
time-reversal frame (see ``frame``: 4 | N and an antisymmetric potential; the
sweeps reject other grids and potentials before any compute), most of it in
half-size arithmetic. The frame is the one per-grid input: it holds H's two
real diagonals and the grid's h. H - c/2 anticommutes with T, so the frame
form of -i (H - c/2) is [[0, B], [-B^T, 0]] with B real and N/2 x N/2. From
the SVD B = X S Y^T, with X and Y polished to orthogonality once per grid,
U(t) = e^{-i H t/h} is [[X cos(th S) X^T, X sin(th S) Y^T], [-Y sin(th S) X^T,
Y cos(th S) Y^T]] at th = t/h: three half-size products per horizon.

Lie's step W_L = e^{-i B s/h} e^{-i A s/h} is formed in the frame in O(N^2):
the kinetic factor from its Fourier diagonal, the potential factor as a
rotation of row pairs. G = W_L^n is its float64 power by binary powering,
given one Newton-Schulz polish for n > 1. Strang's step is Lie's conjugated by
the half potential step P = e^{-i B s/2h}: W_S = P^dag W_L P, so W_S^n =
P^dag G P and one power per step size serves both schemes. U and the relative
propagator V = W^n U^dag are the only propagators: the unitary error
||V - 1|| and each observable's two errors (``frame.FrameObservable``) read
V, which costs one real product per scheme.
Step sizes are checked where they enter, in ``experiments.step_count``.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import PacketTouchesBoundary
from .frame import TimeReversalFrame
from .hamiltonian import GridSpec
from .numkit import SingularSystem, polar_polish

__all__ = [
    "SplittingScheme",
    "exact_unitary",
    "lie_power",
    "relative_propagator",
    "gaussian_wavepacket",
]


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


def lie_power(frame: TimeReversalFrame, s: float, n: int) -> np.ndarray:
    """The real frame matrix Re R^dag (e^{i c n s/2h} G) R of G = W_L^n: the one
    step power behind both schemes.

    The frame step e^{i c s/2h} W_L is the kinetic factor e^{-i a s/h}, a
    Fourier diagonal, projected with its phase (``frame.project_fourier``), its
    row pairs then rotated by the potential step (``frame.rotate``): O(N^2).
    Its float64 power by binary powering drifts from orthogonality with every
    product, which the observable error would read at first order; for n > 1
    one ``polar_polish`` step removes the drift.
    """
    kinetic = np.exp(-1j * s / frame.h * frame.kinetic)
    step = frame.rotate(s / frame.h * frame.potential,
                        frame.project_fourier(kinetic, frame.phase(s)))
    power = np.linalg.matrix_power(step, n)
    return polar_polish(power) if n > 1 else power


def relative_propagator(frame: TimeReversalFrame, scheme: SplittingScheme, s: float,
                        power: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The real frame matrix R^dag V R of V = W^n U^dag for n steps of size s,
    with ``power`` = ``lie_power(frame, s, n)`` and ``u`` =
    ``exact_unitary(spectrum, n * s, frame)``: the phases of G and U cancel.

    Lie1 gives V = G U^T and Strang2 V = P^T (G (P U^T)), as W_S^n = P^dag G P
    with the half potential step P = e^{-i B s/2h}, which rotates row pairs in
    the frame: either scheme costs one real product. The spectral norm is
    unitarily invariant: ||V - 1|| = ||W^n - U||.
    """
    if scheme is SplittingScheme.LIE1:
        return power @ u.T
    theta = s / (2.0 * frame.h) * frame.potential
    return frame.rotate(-theta, power @ frame.rotate(theta, u.T))


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
