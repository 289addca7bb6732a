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
with T. R is sparse: each change of basis costs O(N^2) by slicing. A Fourier
diagonal's frame matrix is gathered from its circulant's first column, block
by block as Toeplitz windows, and the potential step rotates row pairs, so
``evolve`` forms its propagators in real arithmetic from the start. H - c/2
anticommutes with T, so -i (H - c/2) has the real antisymmetric frame form
[[0, B], [-B^T, 0]], with B of size N/2 (``hamiltonian_block``).

The frame is the sweep kernel's one per-grid input: it keeps H's two real
diagonals and the grid's h, for the phases. Odd N and N = 2 mod 4 (no T-fixed
basis) and a potential without the antisymmetry (V is not real in R) raise
ValueError. A Hermitian observable has the frame form R^dag O R = K_+ + i K_-,
K_+ real symmetric and K_- real antisymmetric: only K_+ remains when O
commutes with T (``momentum_fd``), only K_- when it anticommutes (``cos_x``,
``cos_3x``), and both otherwise (``momentum_spectral``, an arbitrary
diagonal); ``FrameObservable.error`` picks the defect and the norm of each;
``.expectation_error`` applies O to the lifted states, a second route to O.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import fourier, numkit
from .errors import NonHermitian, UnnormalizedState
from .fourier import DiagonalKind, FactoredOperator
from .hamiltonian import HamiltonianPair
from .numkit import HERMITICITY_RTOL

__all__ = ["TimeReversalFrame", "FrameObservable", "FRAME_RTOL"]

# Relative tolerance of the symmetry checks that admit the frame and
# classify observables. The pairs they compare (cos and cos 3x at x and
# x + pi, the fd kinetic's eigenvalues at k and k + N/2, the momentum_fd
# multiplier at k and N/2 - k) differ by at most 4e-15 for N up to 4096 and
# any domain offset. What the check lets through, the real projection drops
# as round-off: it moves V by about FRAME_RTOL * max|b| * t/h, at t = 1 and
# h = 1/N a hundredth of the round-off floor 1e-11 N.
FRAME_RTOL = 1e-13

# The row signs s_i = (-1)^i of the even and the odd rows, as a column.
_ROW_SIGNS = np.array([[1.0], [-1.0]])


def _matches(x: np.ndarray, y: np.ndarray, scale: np.ndarray) -> bool:
    return bool(np.abs(x - y).max() <= FRAME_RTOL * np.abs(scale).max())


def _require_real(diag: np.ndarray, what: str) -> None:
    """A factored operator is Hermitian iff its diagonal is real: raise NonHermitian
    when the imaginary part exceeds HERMITICITY_RTOL of the largest entry."""
    imag = np.abs(diag.imag).max()
    if imag > HERMITICITY_RTOL * np.abs(diag).max():
        raise NonHermitian(f"{what} diagonal has imaginary part {imag:.3e}; "
                           f"relative tolerance {HERMITICITY_RTOL:.1e}")


def _parity(values: np.ndarray, partner: np.ndarray) -> int | None:
    """+1 when partner = values, -1 when partner = -values (within FRAME_RTOL), else None."""
    return next((sign for sign in (1, -1) if _matches(partner, sign * values, values)), None)


def _swap_commutator(q: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """K mat - mat K for K = [[0, q], [-q, 0]], with q a diagonal N/2 x N/2 block."""
    m = q.size
    (a, b), (c, d) = (mat[:m, :m], mat[:m, m:]), (mat[m:, :m], mat[m:, m:])
    rows, cols = q[:, None], q          # q scales rows in K mat and columns in mat K
    out = np.empty_like(mat)
    out[:m, :m] = rows * c + b * cols
    out[:m, m:] = rows * d - a * cols
    out[m:, :m] = d * cols - rows * a
    out[m:, m:] = -(rows * b + c * cols)
    return out


def _real_product(mat: np.ndarray, z: np.ndarray) -> np.ndarray:
    """mat @ z for a real mat and a complex z, without a complex copy of mat."""
    return mat @ z.real + 1j * (mat @ z.imag)


@dataclass(frozen=True, eq=False)
class TimeReversalFrame:
    """The basis R of T-fixed vectors on a grid of ``size`` N (4 | N), with the
    grid's H: ``energy_shift`` is c/2, with T H T^-1 = c - H, ``h`` the grid's
    Planck constant, and ``kinetic`` and ``potential`` the real Fourier and
    position diagonals of H's two parts."""

    size: int
    energy_shift: float
    h: float
    kinetic: np.ndarray
    potential: np.ndarray

    @classmethod
    def of(cls, pair: HamiltonianPair) -> "TimeReversalFrame":
        """The frame of a grid pair, read from its kinetic and potential diagonals.
        Raises ValueError when 4 does not divide N or a diagonal lacks its symmetry,
        and NonHermitian when a diagonal is not real: the frame's real arithmetic
        reads the real parts alone."""
        n, m = pair.grid.N, pair.grid.N // 2
        if n % 4:
            raise ValueError(f"N = {n}; the time-reversal frame needs N divisible by 4")
        _require_real(pair.kinetic.diag, "kinetic")
        _require_real(pair.potential.diag, "potential")
        a, b = pair.kinetic.diag.real, pair.potential.diag.real
        c = a[0] + a[m]
        # Y A Y^dag = c - A moves a[k] to a[k + N/2]; Y B Y^dag = -B moves b[j] to b[j + N/2]
        if not (_matches(np.roll(a, m), c - a, a) and _matches(np.roll(b, m), -b, b)):
            raise ValueError(f"on N = {n} nodes the potential is not antisymmetric under the "
                             "half-period shift, b[j + N/2] = -b[j] (or a[k + N/2] != c - a[k])")
        return cls(n, c / 2.0, pair.grid.h, a, b)

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

    def project_fourier(self, diag: np.ndarray, phase: complex = 1.0) -> np.ndarray:
        """Re R^dag (phase C) R, the real frame matrix of a T-commuting phase C, for
        the Fourier-diagonal C = F^-1 diag(d) F, in O(N^2) from its circulant's
        first column F^-1 d: C[i, j] = column[(i - j) mod N].

        With k = i - j (|k| < N/2), a = phase column[k] and b = phase
        column[k + N/2], each block of the frame matrix is a Toeplitz matrix
        whose row i reads a + s_i b (top blocks) or a - s_i b (bottom blocks),
        s_i = (-1)^i: its real part at even k on the diagonal blocks, its
        imaginary part at odd k off them. The rows of each sign are copied from
        strided views of those vectors.
        """
        n, m = self.size, self.size // 2
        column = fourier.idft_cols(diag)
        k = np.arange(1 - m, m)
        a, b = phase * column[k % n], phase * column[(k + m) % n]
        plus, minus = a + _ROW_SIGNS * b, a - _ROW_SIGNS * b
        even = k % 2 == 0
        values = np.stack((np.where(even, plus.real, 0.0), np.where(even, 0.0, -plus.imag),
                           np.where(even, 0.0, minus.imag), np.where(even, minus.real, 0.0)))
        # the Toeplitz views [..., i, j] -> values[..., i - j + m - 1]
        toeplitz = np.lib.stride_tricks.sliding_window_view(values, m, axis=-1)[..., ::-1]
        blocks = toeplitz.reshape(2, 2, 2, m, m)               # block row, block col, sign, i, j
        out = np.empty((n, n))
        quads = out.reshape(2, m, 2, m)                        # block row, i, block col, j
        for row in (0, 1):                                     # s_i = 1 on even i, -1 on odd i
            quads[:, row::2] = blocks[:, :, row, row::2].transpose(0, 2, 1, 3)
        return out

    def hamiltonian_block(self) -> np.ndarray:
        """B of the frame form [[0, B], [-B^T, 0]] of -i (H - c/2), real N/2 x N/2,
        from H's two diagonals: the kinetic's block and the potential's
        (b_top - b_bottom)/2 on the diagonal. The eigenvalues of H are
        c/2 +- the singular values of B."""
        m = self.size // 2
        block = self.project_fourier(self.kinetic, -1j)[:m, m:]
        block[np.diag_indices(m)] += (self.potential[:m] - self.potential[m:]) / 2.0
        return block

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

    def states(self, v: np.ndarray, u: np.ndarray, psi: np.ndarray) -> np.ndarray:
        """The N x 2 block [W^n psi, U psi] of a unit state psi and the real V and
        U: U psi and W^n psi = V (U psi) formed in the frame and lifted by R
        (their phase e^{i c t/2h} drops out), once per scheme for every
        observable's ``expectation_error``. A state off the unit sphere raises
        UnnormalizedState before any compute."""
        psi = np.asarray(psi, dtype=np.complex128)
        norm = np.linalg.norm(psi)
        if abs(norm - 1.0) > 1e-10:
            raise UnnormalizedState(f"state norm {norm} is not 1 within 1e-10")
        exact_state = _real_product(u, self.to_frame(psi[:, None]))
        return self.from_frame(np.column_stack((_real_product(v, exact_state), exact_state)))

    def rotate(self, theta: np.ndarray, mat: np.ndarray) -> np.ndarray:
        """R^dag P R mat for the diagonal P = e^{-i theta} with theta[j + N/2] = -theta[j]
        (a potential step): a rotation of each row pair (j, j + N/2) by theta[j],
        [[cos, sin], [-sin, cos]] mat with diagonal N/2 x N/2 blocks."""
        m = self.size // 2
        cos, sin = np.cos(theta[:m])[:, None], np.sin(theta[:m])[:, None]
        top, bottom = mat[:m], mat[m:]
        out = np.empty(mat.shape, np.result_type(cos, mat))
        np.multiply(cos, top, out=out[:m])
        out[:m] += sin * bottom
        np.multiply(cos, bottom, out=out[m:])
        out[m:] -= sin * top
        return out


@dataclass(frozen=True)
class FrameObservable:
    """A Hermitian factored observable with its frame form R^dag O R = K_+ + i K_-.
    A factored observable is Hermitian iff its diagonal is real; any other
    raises NonHermitian on construction, before any compute."""

    operator: FactoredOperator
    frame: TimeReversalFrame

    def __post_init__(self):
        _require_real(self.operator.diag, "observable")

    @cached_property
    def parts(self) -> tuple:
        """(K_+, K_-), formed on first use and kept; a part is None when T's
        parity zeroes it (K_+ when O anticommutes with T, K_- when it commutes).
        A Fourier diagonal is projected as a dense frame matrix. A position
        diagonal d has K = [[p, q], [-q, p]] with diagonal blocks
        p = (d_top + d_bottom)/2 and q = (d_top - d_bottom)/2: K_+ is kept as p
        and K_- as q."""
        op, frame, m = self.operator, self.frame, self.frame.size // 2
        diag, parity = op.diag.real, frame.parity(op)
        if op.kind is DiagonalKind.POSITION:
            return ((diag[:m] + diag[m:]) / 2.0 if parity != -1 else None,
                    (diag[:m] - diag[m:]) / 2.0 if parity != 1 else None)
        return (frame.project_fourier(diag) if parity != -1 else None,
                frame.project_fourier(diag, -1j) if parity != 1 else None)

    def error(self, v: np.ndarray) -> float:
        """||V^T K V - K||, the distance between split and exact Heisenberg
        evolution, for V the real ``relative_propagator``. A position
        observable's defect is the commutator K V - V K = V (V^T K V - K),
        formed in O(N^2), without symmetry: ``spectral_norm``. A Fourier one's
        is V^T K V - K, two real products per part: ``hermitian_norm`` when K_+
        remains (complex when K_- does too), ``spectral_norm`` of the
        antisymmetric defect of K_- alone."""
        plus, minus = self.parts
        position = self.operator.kind is DiagonalKind.POSITION
        if position:
            if plus is not None:
                d = np.concatenate((plus, plus))
                plus = (d[:, None] - d) * v
            minus = None if minus is None else _swap_commutator(minus, v)
        else:
            plus, minus = (None if k is None else v.T @ (k @ v) - k for k in (plus, minus))
        defect = minus if plus is None else plus if minus is None else plus + 1j * minus
        if plus is None or position:
            return numkit.spectral_norm(defect)
        return numkit.hermitian_norm(defect)

    def expectation_error(self, states: np.ndarray) -> float:
        """|<W^n psi, O W^n psi> - <U psi, O U psi>| from the frame's ``states``
        block [W^n psi, U psi]. O is applied to both columns in the grid basis,
        by FFT if Fourier-diagonal, not through the frame form of ``error``,
        which bounds this error (Cauchy-Schwarz; criterion 7)."""
        diag = self.operator.diag[:, None]
        if self.operator.kind is DiagonalKind.POSITION:
            applied = diag * states
        else:
            applied = fourier.idft_cols(diag * fourier.dft_cols(states))
        split, exact = np.einsum("ij,ij->j", states.conj(), applied).real
        return abs(split - exact)
