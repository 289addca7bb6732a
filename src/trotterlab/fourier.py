"""Discrete Fourier transforms, circulant matrices and factored operators.

Convention (single source of truth for the whole package): the forward
transform is unnormalized,

    (F v)_k = sum_j v_j exp(-2i pi k j / N),

and the inverse carries the 1/N factor. Transforms run through numpy's
pocketfft, which costs O(N log N) for every length N. ``materialize`` forms
the dense matrix of a factored operator on demand: a diagonal, or a circulant
gathered from its first column. The dense transform matrix, against which
this fast path is checked, lives with the test oracles (``tests/oracles.py``).
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
    "materialize",
]

# Imaginary part, relative to the largest multiplier, below which a circulant's
# first column is real: a real multiplier even in k leaves about 1e-16 there.
REAL_RTOL = 1e-13


def _as_vector(v) -> np.ndarray:
    arr = np.asarray(v)
    arr = arr.astype(np.result_type(arr, np.float64), copy=False)   # real stays real
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {arr.shape}")
    if arr.size == 0:
        raise EmptyInput("empty vector")
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
    application, which is what makes split propagators cheap. A real
    diagonal stays float64; the diagonal is a frozen copy.
    """

    kind: DiagonalKind
    diag: np.ndarray

    def __post_init__(self):
        arr = _as_vector(self.diag).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "diag", arr)


def circulant(first_column) -> np.ndarray:
    """Circulant ``F^-1 diag(F c) F`` gathered exactly as c[(i - j) mod N], in c's dtype.
    Row i is the window u[N - i : 2N - i] of u[t] = c[-t mod N], so the gather
    copies N windows of one length-2N vector, with no N x N index array."""
    col = _as_vector(first_column)
    n = col.size
    wrapped = col[-np.arange(2 * n) % n]
    return np.lib.stride_tricks.sliding_window_view(wrapped, n)[n:0:-1].copy()


def materialize(op: FactoredOperator) -> np.ndarray:
    """Dense matrix of a factored operator: ``diag(d)``, or the circulant
    ``F^-1 diag(d) F`` of first column ``F^-1 d``. That column is float64 when
    its imaginary part is round-off (``REAL_RTOL``), as for the fd kinetic."""
    if op.kind is DiagonalKind.POSITION:
        return np.diag(op.diag)
    col = idft_cols(op.diag)
    if np.abs(col.imag).max() <= REAL_RTOL * np.abs(op.diag).max():
        col = col.real
    return circulant(col)
