"""Exact and split-step propagators with Heisenberg-picture error functionals.

The exact propagator e^{-i H t / h} goes through a dense Hermitian
eigendecomposition. Split steps never form dense products: each factor is
diagonal in position or in the Fourier basis, so applying a step to an
N x N observable costs O(N^2 log N). The error functionals compare the
step-evolved observable (or unitary, or expectation value) against the
exact dynamics in the spectral norm.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import PacketTouchesBoundary, UnnormalizedState
from .fourier import DiagonalKind, FactoredOperator, dft_cols, idft_cols
from .hamiltonian import GridSpec, HamiltonianPair
from .numkit import expm_hermitian, require_hermitian, spectral_norm

__all__ = [
    "SplittingScheme",
    "EvolutionPlan",
    "exact_unitary",
    "trotter_step_unitary",
    "heisenberg_exact",
    "heisenberg_trotter",
    "evolve_state",
    "observable_error",
    "unitary_error",
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


# One split step as (operator, fraction of s) rows in application order:
# A is the kinetic part, B the potential. Lie1 applies exp(-i A s/h) then
# exp(-i B s/h); Strang2 sandwiches the kinetic factor between two
# half-steps of the potential.
_STAGES = {
    SplittingScheme.LIE1: (("A", 1.0), ("B", 1.0)),
    SplittingScheme.STRANG2: (("B", 0.5), ("A", 1.0), ("B", 0.5)),
}


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


def exact_unitary(hamiltonian: np.ndarray, t: float, h: float) -> np.ndarray:
    """Dense propagator e^{-i H t / h} of a Hermitian matrix."""
    return expm_hermitian(hamiltonian, -t / h)


def _step_factors(pair: HamiltonianPair, scheme: SplittingScheme,
                  s: float, h: float) -> list[FactoredOperator]:
    """Unitary phase factors exp(-i X (fraction * s) / h) of one split step."""
    ops = {"A": pair.kinetic.factored, "B": pair.potential.factored}
    return [FactoredOperator(ops[name].kind, np.exp(-1j * (frac * s) / h * ops[name].diag))
            for name, frac in _STAGES[scheme]]


def _apply_left(factor: FactoredOperator, mat: np.ndarray) -> np.ndarray:
    diag = factor.diag if mat.ndim == 1 else factor.diag[:, None]
    if factor.kind is DiagonalKind.POSITION:
        return diag * mat
    return idft_cols(diag * dft_cols(mat))


def _apply_factors(factors, mat: np.ndarray) -> np.ndarray:
    for factor in factors:
        mat = _apply_left(factor, mat)
    return mat


def _dagger_factors(factors) -> list[FactoredOperator]:
    return [FactoredOperator(f.kind, np.conj(f.diag)) for f in reversed(factors)]


def trotter_step_unitary(pair: HamiltonianPair, scheme: SplittingScheme,
                         s: float, h: float) -> np.ndarray:
    """Dense matrix of one split step (assembled through the fast path)."""
    factors = _step_factors(pair, scheme, s, h)
    return _apply_factors(factors, np.eye(pair.grid.N, dtype=np.complex128))


def heisenberg_exact(observable: np.ndarray, hamiltonian: np.ndarray,
                     t: float, h: float, exact_u: np.ndarray | None = None) -> np.ndarray:
    """Exactly evolved observable U^dag O U with U = e^{-i H t / h}.

    Both the Hamiltonian and the observable must be Hermitian; the result
    then is too, with the same spectrum as the input.
    """
    require_hermitian(observable)
    u = exact_unitary(hamiltonian, t, h) if exact_u is None else exact_u
    return u.conj().T @ observable @ u


def heisenberg_trotter(observable: np.ndarray, pair: HamiltonianPair,
                       plan: EvolutionPlan) -> np.ndarray:
    """Observable conjugated by n split steps: W^dag O W with W the step power.

    Conjugation proceeds step by step, exposing the per-step evolution at
    no asymptotic cost over forming W^n first.
    """
    factors = _step_factors(pair, plan.scheme, plan.s, plan.h)
    dag = _dagger_factors(factors)
    out = np.asarray(observable, dtype=np.complex128)
    for _ in range(plan.n):
        out = _apply_factors(dag, out.conj().T)   # U^dag O^dag
        out = _apply_factors(dag, out.conj().T)   # U^dag (O U) = U^dag O U
    return out


def evolve_state(state: np.ndarray, pair: HamiltonianPair, plan: EvolutionPlan) -> np.ndarray:
    """Apply n split steps to a state vector."""
    factors = _step_factors(pair, plan.scheme, plan.s, plan.h)
    out = np.asarray(state, dtype=np.complex128)
    for _ in range(plan.n):
        out = _apply_factors(factors, out)
    return out


def observable_error(observable: np.ndarray, pair: HamiltonianPair, plan: EvolutionPlan,
                     exact_u: np.ndarray | None = None) -> float:
    """Spectral-norm distance between split and exact Heisenberg evolution at t = n s.

    ``exact_u`` lets sweeps reuse one eigendecomposition of A + B across
    many observables and schemes.
    """
    approx = heisenberg_trotter(observable, pair, plan)
    exact = heisenberg_exact(observable, pair.total, plan.t, plan.h, exact_u=exact_u)
    return spectral_norm(approx - exact)


def unitary_error(pair: HamiltonianPair, plan: EvolutionPlan,
                  exact_u: np.ndarray | None = None) -> float:
    """Spectral-norm distance between the step power and the exact propagator."""
    factors = _step_factors(pair, plan.scheme, plan.s, plan.h)
    walk = np.eye(pair.grid.N, dtype=np.complex128)
    for _ in range(plan.n):
        walk = _apply_factors(factors, walk)
    exact = exact_unitary(pair.total, plan.t, plan.h) if exact_u is None else exact_u
    return spectral_norm(walk - exact)


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


def expectation_error(observable: np.ndarray, pair: HamiltonianPair, plan: EvolutionPlan,
                      state: np.ndarray, exact_u: np.ndarray | None = None) -> float:
    """|<psi| T_split |psi> - <psi| T_exact |psi>| for a unit state.

    Always bounded by the corresponding operator-norm error
    (Cauchy-Schwarz), which sweeps assert row by row.
    """
    psi = np.asarray(state, dtype=np.complex128)
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-10:
        raise UnnormalizedState(f"state norm {norm} is not 1 within 1e-10")
    split_state = evolve_state(psi, pair, plan)
    u = exact_unitary(pair.total, plan.t, plan.h) if exact_u is None else exact_u
    exact_state = u @ psi
    split_val = np.vdot(split_state, observable @ split_state).real
    exact_val = np.vdot(exact_state, observable @ exact_state).real
    return abs(split_val - exact_val)
