"""Dense complex linear algebra: Hermitian eigendecomposition (reused for
``exp(i theta M)`` at any angle), spectral norms by SVD or, for Hermitian
input, by eigenvalues, and the Hermiticity gate.

Matrices are plain square ``numpy.ndarray`` values of dtype complex128.
All functions are pure and deterministic; nothing here mutates its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFinite, NonHermitian

__all__ = [
    "EigenSystem",
    "hermitian_eig",
    "expm_hermitian",
    "spectral_norm",
    "hermitian_norm",
    "require_hermitian",
]

# Accepted relative distance between a matrix and its adjoint. Checked with
# Frobenius norms: the gate only needs to separate round-off asymmetry
# (~1e-15) from genuinely non-Hermitian input, and Frobenius keeps it O(n^2).
HERMITICITY_RTOL = 1e-10


def _as_square(matrix) -> np.ndarray:
    arr = np.asarray(matrix, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFinite("matrix contains NaN or Inf entries")
    return arr


def require_hermitian(matrix) -> None:
    """Raise NonHermitian when the Frobenius distance to the adjoint, relative
    to the matrix norm, exceeds ``HERMITICITY_RTOL``."""
    arr = np.asarray(matrix)
    scale = np.linalg.norm(arr)
    defect = 0.0 if scale == 0.0 else float(np.linalg.norm(arr - arr.conj().T) / scale)
    if defect > HERMITICITY_RTOL:
        raise NonHermitian(
            f"relative Hermiticity defect {defect:.3e} exceeds {HERMITICITY_RTOL:.1e}")


@dataclass(frozen=True)
class EigenSystem:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` is real and sorted ascending; ``eigenvectors`` holds the
    corresponding orthonormal eigenvectors as columns, so that
    ``M = V @ diag(w) @ V.conj().T``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T

    def exp(self, theta: float) -> np.ndarray:
        """Unitary ``exp(i * theta * M)`` as ``V diag(exp(i theta w)) V^dag``."""
        v = self.eigenvectors
        return (v * np.exp(1j * theta * self.eigenvalues)) @ v.conj().T


def hermitian_eig(matrix) -> EigenSystem:
    """Eigendecompose a Hermitian matrix, eigenvalues ascending.

    Raises NonHermitian when the input is not Hermitian within
    ``HERMITICITY_RTOL`` and NonFinite on NaN/Inf entries.
    """
    arr = _as_square(matrix)
    require_hermitian(arr)
    w, v = np.linalg.eigh(arr)
    return EigenSystem(eigenvalues=w, eigenvectors=v)


def expm_hermitian(matrix, theta: float) -> np.ndarray:
    """Unitary exponential ``exp(i * theta * M)`` of a Hermitian matrix M."""
    return hermitian_eig(matrix).exp(theta)


def spectral_norm(matrix) -> float:
    """Largest singular value (the l2 -> l2 operator norm)."""
    arr = _as_square(matrix)
    if arr.shape[0] == 0:
        return 0.0
    return float(np.linalg.svd(arr, compute_uv=False)[0])


def hermitian_norm(matrix) -> float:
    """Spectral norm of a Hermitian matrix: its largest eigenvalue modulus.

    Taken of the Hermitian part (M + M^dag) / 2, which drops the round-off
    asymmetry of a matrix that is Hermitian in exact arithmetic.
    """
    arr = _as_square(matrix)
    return float(np.abs(np.linalg.eigvalsh(0.5 * (arr + arr.conj().T))).max())
