"""Discrete Fourier transforms, circulant matrices and factored operators.

Convention (single source of truth for the whole package): the forward
transform is unnormalized,

    (F v)_k = sum_j v_j exp(-2i pi k j / N),

and the inverse carries the 1/N factor. Transforms run through numpy's
pocketfft, which costs O(N log N) for every length N. The dense transform
matrix and the dense form of a factored operator, against which this fast
path is checked, live with the test oracles (``tests/oracles.py``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, NonFinite

__all__ = [
    "DiagonalKind",
    "FactoredOperator",
    "dft_cols",
    "idft_cols",
    "circulant",
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

    A position-diagonal operator stands for ``diag(d)``, a Fourier-diagonal
    one for ``F^-1 diag(d) F``. Both admit O(N log N)
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


def circulant(first_column) -> np.ndarray:
    """Circulant ``F^-1 diag(F c) F`` gathered exactly as c[(i - j) mod N], in c's dtype."""
    col = _as_vector(first_column)
    idx = np.arange(col.size)
    return col[np.subtract.outer(idx, idx) % col.size]
