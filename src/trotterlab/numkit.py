"""Dense linear algebra: the SVD of a real square matrix with orthogonal
factors polished by one Newton-Schulz step, the eigendecomposition of a real
symmetric matrix, spectral norms from the Gram matrix or, for Hermitian input,
from the eigenvalues of one triangle, ``||V - 1||`` of a unitary, and the
Hermiticity gate.

Matrices are plain square float64 or complex128 ``numpy.ndarray`` values;
real input stays real, and the decompositions take real input only. All
functions are pure and deterministic; nothing here mutates its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NonFinite, NonHermitian

__all__ = [
    "SingularSystem",
    "polar_polish",
    "polished_svd",
    "EigenSystem",
    "hermitian_eig",
    "spectral_norm",
    "hermitian_norm",
    "unitary_distance",
    "require_hermitian",
]

# Accepted relative distance between a matrix and its adjoint. Checked with
# Frobenius norms: the gate only needs to separate round-off asymmetry
# (~1e-15) from genuinely non-Hermitian input, and Frobenius keeps it O(n^2).
HERMITICITY_RTOL = 1e-10

# ||V - 1|| from the eigenvalues of V + V^dag carries an absolute error of
# about eps N / ||V - 1|| (eps = 2.2e-16): the eigenvalue is off by about
# eps N, the unitarity defect of a computed V, and the square root divides
# that by 2 ||V - 1||. Keeping the error within a quarter of the round-off
# floor 1e-11 N needs ||V - 1|| >= 4 eps / 1e-11 = 8.9e-5; below this switch
# point the spectral norm of V - 1 is taken instead.
UNITARY_EIG_MIN = 1e-4


def _as_square(matrix) -> np.ndarray:
    arr = np.asarray(matrix)
    arr = arr.astype(np.result_type(arr, np.float64), copy=False)   # real stays real
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
    """Eigendecomposition of a real symmetric matrix.

    ``eigenvalues`` is sorted ascending; ``eigenvectors`` holds the
    corresponding real orthonormal eigenvectors as columns, so that
    ``M = V @ diag(w) @ V.T``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _as_real_square(matrix, name: str) -> np.ndarray:
    arr = _as_square(matrix)
    if np.iscomplexobj(arr):
        raise TypeError(f"{name} takes a real matrix, got dtype {arr.dtype}")
    return arr


def hermitian_eig(matrix) -> EigenSystem:
    """Eigendecompose a real symmetric matrix by real ``eigh``, eigenvalues ascending.

    Raises TypeError on complex input, NonHermitian when the input is not
    symmetric within ``HERMITICITY_RTOL`` and NonFinite on NaN/Inf entries.
    """
    arr = _as_real_square(matrix, "hermitian_eig")
    require_hermitian(arr)
    w, v = np.linalg.eigh(arr)
    # Tunnelling tails leave subnormal entries (below 2.2e-308), which slow every
    # later product with V; as round-off far below eps they are set to zero.
    v[np.abs(v) < np.finfo(np.float64).tiny] = 0.0
    return EigenSystem(eigenvalues=w, eigenvectors=v)


def polar_polish(mat: np.ndarray) -> np.ndarray:
    """One Newton-Schulz step X (3 - X^T X) / 2 toward the orthogonal polar factor
    of a nearly orthogonal real X (Bjorck-Bowie, SIAM J. Numer. Anal. 8, 1971):
    a departure X^T X = 1 + E falls to -(3/4) E^2 + E^3/4, so one step leaves
    only the round-off of its own two products."""
    gram = mat.T @ mat
    gram *= -0.5
    gram[np.diag_indices_from(gram)] += 1.5
    return mat @ gram


class SingularSystem(NamedTuple):
    """B = x diag(sigma) y^T, with orthogonal x and y and sigma descending."""

    x: np.ndarray
    sigma: np.ndarray
    y: np.ndarray


def polished_svd(matrix) -> SingularSystem:
    """SVD of a real square matrix, each orthogonal factor given one
    ``polar_polish`` step: on the sweeps' blocks (size 32 to 512) the largest
    entry of X^T X - 1 falls from 2e-15..3e-15 to 4e-16..1e-15. The observable
    errors read that departure at first order: unpolished, it moves a default
    sweep-s slope by 1.4e-6 against the dense ``eigh`` of H, polished by 2.8e-7.

    Raises TypeError on complex input and NonFinite on NaN/Inf entries.
    """
    x, sigma, yt = np.linalg.svd(_as_real_square(matrix, "polished_svd"))
    return SingularSystem(polar_polish(x), sigma, polar_polish(yt.T))


def spectral_norm(matrix) -> float:
    """Largest singular value (the l2 -> l2 operator norm) as sqrt(lambda_max(M^dag M)):
    one product and one ``eigvalsh`` instead of an SVD, at full relative accuracy
    for the largest singular value. M is first scaled by the power of two nearest
    its largest entry, which is exact and keeps the squares finite and normal.
    """
    arr = _as_square(matrix)
    peak = float(np.abs(arr).max()) if arr.size else 0.0
    if peak == 0.0:
        return 0.0
    exponent = math.frexp(peak)[1]
    scaled = arr * 2.0**-exponent
    top = np.linalg.eigvalsh(scaled.conj().T @ scaled)[-1]
    return math.ldexp(math.sqrt(max(float(top), 0.0)), exponent)


def hermitian_norm(matrix) -> float:
    """Spectral norm of a Hermitian matrix: its largest eigenvalue modulus.

    ``eigvalsh`` reads one triangle of the matrix as given, so the round-off
    asymmetry of a matrix that is Hermitian in exact arithmetic drops out
    without forming (M + M^dag) / 2.
    """
    return float(np.abs(np.linalg.eigvalsh(_as_square(matrix))).max())


def unitary_distance(matrix) -> float:
    """Spectral norm ||V - 1|| of a unitary V.

    For unitary V, (V - 1)^dag (V - 1) = 2 - (V + V^dag), so the norm is
    sqrt(2 - lambda_min(V + V^dag)): one Hermitian eigenvalue problem instead
    of an SVD. Below ``UNITARY_EIG_MIN`` the ``spectral_norm`` of V - 1 is used.
    """
    arr = _as_square(matrix)
    dist = float(np.sqrt(max(2.0 - np.linalg.eigvalsh(arr + arr.conj().T)[0], 0.0)))
    if dist >= UNITARY_EIG_MIN:
        return dist
    return spectral_norm(arr - np.eye(arr.shape[0]))
