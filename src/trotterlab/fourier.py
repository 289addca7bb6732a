"""Discrete Fourier transforms and circulant matrices.

Convention (single source of truth for the whole package): the forward
transform is unnormalized,

    (F v)_k = sum_j v_j exp(-2i pi k j / N),

and the inverse carries the 1/N factor. Transforms run through numpy's
pocketfft, which costs O(N log N) for every length N; the dense
``dft_matrix`` is kept as the oracle the fast path is checked against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, NonFinite

__all__ = [
    "DiagonalKind",
    "FactoredOperator",
    "dft_matrix",
    "dft_cols",
    "idft_cols",
    "circulant",
    "materialize",
]


def _as_vector(v) -> np.ndarray:
    arr = np.asarray(v)
    arr = arr.astype(np.result_type(arr, np.float64), copy=False)   # real stays real
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {arr.shape}")
    if arr.size == 0:
        raise EmptyInput("transform of an empty vector")
    if not np.isfinite(arr).all():
        raise NonFinite("vector contains NaN or Inf entries")
    return arr


def dft_matrix(n: int) -> np.ndarray:
    """Dense forward-transform matrix of size n."""
    if n < 1:
        raise EmptyInput("transform matrix of size 0")
    j = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(j, j) / n)


def dft_cols(mat: np.ndarray) -> np.ndarray:
    """Forward transform applied to every column (or to a vector)."""
    return np.fft.fft(mat, axis=0)


def idft_cols(mat: np.ndarray) -> np.ndarray:
    """Inverse transform applied to every column (or to a vector)."""
    return np.fft.ifft(mat, axis=0)


class DiagonalKind(enum.Enum):
    """Basis in which a factored operator is diagonal."""

    POSITION = "position"
    FOURIER = "fourier"


@dataclass(frozen=True)
class FactoredOperator:
    """Operator diagonal either in position space or in the Fourier basis.

    A position-diagonal operator materializes to ``diag(d)``; a
    Fourier-diagonal one to ``F^-1 diag(d) F``. Both admit O(N log N)
    application, which is what makes split propagators cheap.
    """

    kind: DiagonalKind
    diag: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.diag, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise EmptyInput("factored operator needs a nonempty 1-d diagonal")
        if not np.isfinite(arr).all():
            raise NonFinite("diagonal contains NaN or Inf entries")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "diag", arr)


def materialize(op: FactoredOperator) -> np.ndarray:
    """Dense matrix of a factored operator."""
    if op.kind is DiagonalKind.POSITION:
        return np.diag(op.diag).astype(np.complex128)
    return idft_cols(op.diag[:, None] * dft_matrix(op.diag.size))


def circulant(first_column) -> np.ndarray:
    """Circulant ``F^-1 diag(F c) F`` gathered exactly as c[(i - j) mod N], in c's dtype."""
    col = _as_vector(first_column)
    idx = np.arange(col.size)
    return col[np.subtract.outer(idx, idx) % col.size]
