"""The time-reversal frame: the real basis in which every sweep forms its errors.

Let Y multiply by (-1)^j and then shift by N/2, and K conjugate. The fd
kinetic obeys Y A Y^dag = c - A and an antisymmetric potential
(b[j + N/2] = -b[j]; ``cos`` and ``zero`` at every domain offset) obeys
Y B Y^dag = -B, so the antiunitary T = Y K maps H to c - H. Hence
e^{i c t/2h} U(t) and e^{i c n s/2h} W_L^n commute with T, and so do the half
potential step P = e^{-i B s/2h} and V = W^n U^dag (its phases cancel at
t = n s). T^2 = (-1)^{N/2}; for 4 | N the columns (e_j + s_j e_{j+N/2})/sqrt 2
and i (e_j - s_j e_{j+N/2})/sqrt 2, j < N/2, s_j = (-1)^j, are an orthonormal
basis R of T-fixed vectors, and R^dag X R is real for every X that commutes
with T. R is sparse: each change of basis costs O(N^2) by slicing, and
``evolve`` runs everything after the complex step power in real arithmetic.

The frame depends on H alone, and records its grid's h for the phases: odd N
and N = 2 mod 4 (no T-fixed basis) and a potential without the antisymmetry
(V is not real in R) raise ValueError. A Hermitian observable has the frame
form R^dag O R = K_+ + i K_-, K_+ real symmetric and K_- real antisymmetric:
only K_+ remains when O commutes with T (``momentum_fd``), only K_- when it
anticommutes (``cos_x``, ``cos_3x``), and both otherwise
(``momentum_spectral``, an arbitrary diagonal).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import fourier
from .errors import NonHermitian
from .fourier import DiagonalKind, FactoredOperator
from .hamiltonian import HamiltonianPair
from .numkit import HERMITICITY_RTOL

__all__ = ["TimeReversalFrame", "FrameObservable", "real_product", "FRAME_RTOL"]

# Relative tolerance of the symmetry checks that admit the frame and
# classify observables. The pairs they compare (cos and cos 3x at x and
# x + pi, the fd kinetic's eigenvalues at k and k + N/2, the momentum_fd
# multiplier at k and N/2 - k) differ by at most 4e-15 for N up to 4096 and
# any domain offset. What the check lets through, the real projection drops
# as round-off: it moves V by about FRAME_RTOL * max|b| * t/h, at t = 1 and
# h = 1/N a hundredth of the round-off floor 1e-11 N.
FRAME_RTOL = 1e-13


def _matches(x: np.ndarray, y: np.ndarray, scale: np.ndarray) -> bool:
    return bool(np.abs(x - y).max() <= FRAME_RTOL * np.abs(scale).max())


def _parity(values: np.ndarray, partner: np.ndarray) -> int | None:
    """+1 when partner = values, -1 when partner = -values (within FRAME_RTOL), else None."""
    return next((sign for sign in (1, -1) if _matches(partner, sign * values, values)), None)


def _pair_rows(p: np.ndarray, q: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """[[p, q], [-q, p]] mat, with p and q diagonal N/2 x N/2 blocks."""
    m = p.size
    top, bottom = mat[:m], mat[m:]
    p, q = p[:, None], q[:, None]
    return np.concatenate((p * top + q * bottom, p * bottom - q * top))


def real_product(mat: np.ndarray, z: np.ndarray) -> np.ndarray:
    """mat @ z for a real mat and a complex z, without a complex copy of mat."""
    return mat @ z.real + 1j * (mat @ z.imag)


@dataclass(frozen=True)
class TimeReversalFrame:
    """The basis R of T-fixed vectors on a grid of ``size`` N (4 | N);
    ``energy_shift`` is c/2, with T H T^-1 = c - H, and ``h`` the grid's
    Planck constant."""

    size: int
    energy_shift: float
    h: float

    @classmethod
    def of(cls, pair: HamiltonianPair) -> "TimeReversalFrame":
        """The frame of a grid pair, read from its kinetic and potential diagonals.
        Raises ValueError when 4 does not divide N or a diagonal lacks its symmetry."""
        n, m = pair.grid.N, pair.grid.N // 2
        if n % 4:
            raise ValueError(f"N = {n}; the time-reversal frame needs N divisible by 4")
        a, b = pair.kinetic.diag.real, pair.potential.diag.real
        c = a[0] + a[m]
        # Y A Y^dag = c - A moves a[k] to a[k + N/2]; Y B Y^dag = -B moves b[j] to b[j + N/2]
        if not (_matches(np.roll(a, m), c - a, a) and _matches(np.roll(b, m), -b, b)):
            raise ValueError(f"on N = {n} nodes the potential is not antisymmetric under the "
                             "half-period shift, b[j + N/2] = -b[j] (or a[k + N/2] != c - a[k])")
        return cls(n, c / 2.0, pair.grid.h)

    @property
    def _signs(self) -> np.ndarray:
        return np.where(np.arange(self.size // 2) % 2, -1.0, 1.0)[:, None]

    def phase(self, t: float) -> complex:
        """e^{i c t/2h}: the factor that makes U(t) and W_L^n (t = n s) commute with T."""
        return np.exp(1j * self.energy_shift * t / self.h)

    def parity(self, observable: FactoredOperator) -> int | None:
        """+1 when the real-diagonal observable commutes with T, -1 when it
        anticommutes, None otherwise: a position diagonal needs
        d[j + N/2] = +-d[j], a Fourier diagonal d[(N/2 - k) mod N] = +-d[k]."""
        d, n = observable.diag.real, self.size
        if observable.kind is DiagonalKind.POSITION:
            return _parity(d, np.roll(d, n // 2))
        return _parity(d, d[(n // 2 - np.arange(n)) % n])

    def project(self, mat: np.ndarray, phase: complex = 1.0) -> np.ndarray:
        """Re R^dag (phase mat) R, the real frame matrix of a T-commuting phase mat."""
        m, sig = self.size // 2, self._signs
        x11, x12, x21, x22 = mat[:m, :m], mat[:m, m:], mat[m:, :m], mat[m:, m:]
        x22 = (sig * x22) * sig.T               # S X22 S, with S = diag(s_j)
        x12, x21 = x12 * sig.T, sig * x21       # X12 S and S X21
        same_plus, same_minus = phase * (x11 + x22), phase * (x11 - x22)
        cross_plus, cross_minus = phase * (x12 + x21), phase * (x12 - x21)
        out = np.empty((self.size, self.size))
        out[:m, :m] = same_plus.real + cross_plus.real
        out[m:, m:] = same_plus.real - cross_plus.real
        out[:m, m:] = cross_minus.imag - same_minus.imag
        out[m:, :m] = same_minus.imag + cross_minus.imag
        out *= 0.5
        return out

    def to_frame(self, vecs: np.ndarray) -> np.ndarray:
        """R^dag v of each column of an N x k block."""
        m = self.size // 2
        top, bottom = vecs[:m], self._signs * vecs[m:]
        return np.concatenate((top + bottom, -1j * (top - bottom))) / np.sqrt(2.0)

    def from_frame(self, vecs: np.ndarray) -> np.ndarray:
        """R x of each column of an N x k block."""
        m = self.size // 2
        top, bottom = vecs[:m], vecs[m:]
        return np.concatenate((top + 1j * bottom, self._signs * (top - 1j * bottom))) / np.sqrt(2.0)

    def rotate(self, theta: np.ndarray, mat: np.ndarray) -> np.ndarray:
        """R^dag P R mat for the diagonal P = e^{-i theta} with theta[j + N/2] = -theta[j]
        (a potential step): a rotation of each row pair (j, j + N/2) by theta[j]."""
        half = theta[: self.size // 2]
        return _pair_rows(np.cos(half), np.sin(half), mat)


@dataclass(frozen=True)
class FrameObservable:
    """A Hermitian factored observable with its frame form R^dag O R = K_+ + i K_-.
    A factored observable is Hermitian iff its diagonal is real; any other
    raises NonHermitian on construction, before any compute."""

    operator: FactoredOperator
    frame: TimeReversalFrame

    def __post_init__(self):
        diag = self.operator.diag
        imag = np.abs(diag.imag).max()
        if imag > HERMITICITY_RTOL * np.abs(diag).max():
            raise NonHermitian(f"observable diagonal has imaginary part {imag:.3e}; "
                               f"relative tolerance {HERMITICITY_RTOL:.1e}")

    @cached_property
    def parts(self) -> tuple:
        """(K_+, K_-), formed on first use and kept, so that a grid's first step
        power meets no dense K; a part is None when T's parity zeroes it (K_+ when
        O anticommutes with T, K_- when it commutes). A Fourier diagonal is
        projected as a dense circulant; a position diagonal d keeps the diagonal
        blocks (p, 0) of K_+ and (0, q) of K_-, p = (d_top + d_bottom)/2 and
        q = (d_top - d_bottom)/2, with K = [[p, q], [-q, p]]."""
        op, frame, m = self.operator, self.frame, self.frame.size // 2
        diag, parity = op.diag.real, frame.parity(op)
        if op.kind is DiagonalKind.POSITION:
            zero = np.zeros(m)
            return (((diag[:m] + diag[m:]) / 2.0, zero) if parity != -1 else None,
                    (zero, (diag[:m] - diag[m:]) / 2.0) if parity != 1 else None)
        dense = fourier.materialize(FactoredOperator(op.kind, diag))
        return (frame.project(dense) if parity != -1 else None,
                frame.project(dense, -1j) if parity != 1 else None)

    def defects(self, v: np.ndarray) -> list:
        """V^T K V - K of each part of K (None for a dropped part) for the real
        frame matrix V; diagonal blocks apply to V in O(N^2) and form K anew."""
        out = []
        for k in self.parts:
            if isinstance(k, tuple):
                out.append(v.T @ _pair_rows(*k, v) - _pair_rows(*k, np.eye(self.frame.size)))
            else:
                out.append(None if k is None else v.T @ (k @ v) - k)
        return out
