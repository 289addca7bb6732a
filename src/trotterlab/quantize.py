"""Discrete Weyl quantization on the torus and semiclassical calculus checks.

For N grid modes the effective Planck constant is h = 1/(2 pi N) and a
torus symbol a quantizes to the N x N matrix

    A[m, j] = sum_{k, l} c(k, j - m - l N) (-1)^(k l) exp(i pi (j + m) k / N),

where c(k, kap) are the symbol's Fourier coefficients. The sums are finite:
k runs over the coefficient lattice and l over the integers with
|j - m - l N| inside it. Real symbols produce Hermitian matrices;
x-only symbols produce position diagonals and xi-only symbols circulants.
A symbol with a(x, -xi) = conj a(x, xi) (for a real symbol: even in xi)
quantizes to a real matrix at every N, which ``quantize`` returns as float64;
every other symbol gives complex128. On a (2 Kx + 1) x (2 Kxi + 1) lattice,
``quantize`` costs O(Kx (N + Kxi)) to fold the l sum and O(r N^2) to sum the
r <= min(2 Kx + 1, N) modes k mod N that occur, as one N x r by r x N product.

The *_remainder functions measure how well the discrete quantization obeys
the standard semiclassical calculus (symbol composition, commutator vs
Poisson bracket, sup-norm bound, conjugation vs classical flow) so the
expected powers of h can be verified by parameter sweeps. Remainders on one
``QuantizationContext`` share each distinct operator through ``ctx.op``. The
bracket term enters as op({a, b} / i), so for real a, b even in xi every
part of the composition, commutator and sup-norm defects is real and they
are formed and normed in float64. The sup-norm and flow-conjugation defects
of real symbols are Hermitian and take their norm by eigenvalues; the
composition and commutator defects take it from their Gram matrix.

An even symbol, a(-x, -xi) = a(x, xi), quantizes to a matrix that commutes
with the index reversal j -> -j mod N. When every symbol of a defect is even
(a and b; for Egorov a, the generator and the flowed symbol), so is the
defect, and its norm is the larger norm of its two parity blocks, of sizes
N/2 + 1 and N/2 at most. A defect with any other symbol is normed whole.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .numkit import hermitian_norm, require_hermitian, spectral_norm
from .symbols import TorusSymbol, poisson_bracket, product, pullback_split_flow

__all__ = [
    "QuantizationContext",
    "quantize",
    "composition_remainder",
    "commutator_remainder",
    "cv_gap",
    "egorov_remainder",
]


@dataclass(frozen=True)
class QuantizationContext:
    """Number of modes N; the Planck constant h = 1/(2 pi N) is derived.
    ``op`` and ``op_product`` keep each matrix they form, read-only, as long
    as the context."""

    N: int
    _ops: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.N, bool) or not isinstance(self.N, numbers.Integral):
            raise TypeError(f"need an integer N, got {self.N!r}")
        if self.N < 1:
            raise ValueError(f"need N >= 1, got {self.N}")

    @property
    def h(self) -> float:
        return 1.0 / (2.0 * math.pi * self.N)

    def op(self, symbol: TorusSymbol) -> np.ndarray:
        """``quantize(symbol, self)``, computed once per distinct coefficient lattice."""
        return self._kept(_key(symbol), lambda: quantize(symbol, self))

    def op_product(self, a: TorusSymbol, b: TorusSymbol) -> np.ndarray:
        """``op(a) @ op(b)``, formed once per ordered pair of lattices."""
        return self._kept((_key(a), _key(b)), lambda: self.op(a) @ self.op(b))

    def _kept(self, key: tuple, form) -> np.ndarray:
        if key not in self._ops:
            mat = form()
            mat.flags.writeable = False
            self._ops[key] = mat
        return self._ops[key]


def _key(symbol: TorusSymbol) -> tuple:
    return symbol.coeffs.shape, symbol.coeffs.tobytes()


def quantize(symbol: TorusSymbol, ctx: QuantizationContext) -> np.ndarray:
    """N x N matrix quantizing a torus symbol, in O(K N + r N^2).

    With delta = j - m the phase splits as exp(i pi k (j + m) / N) =
    exp(i pi k delta / N) exp(2i pi k m / N), so each diagonal delta is a
    sum over k of modes exp(2i pi k m / N), taken over the r rows k mod N
    that occur. The result is float64 when ``symbol.is_xi_hermitian()``,
    complex128 otherwise.
    """
    n = ctx.N
    kx, kxi = symbol.order_x, symbol.order_xi
    ks = np.arange(-kx, kx + 1)

    # Fold the kap axis once: g[k, delta] = sum_l c(k, delta - l N) (-1)^(k l)
    # for delta in [0, N-1], over every l that reaches the lattice.
    deltas = np.arange(n)
    g = np.zeros((2 * kx + 1, n), dtype=np.complex128)
    for l in range(math.ceil(-kxi / n), math.floor((n - 1 + kxi) / n) + 1):
        kap = deltas - l * n
        valid = np.abs(kap) <= kxi
        g[:, valid] += (-1.0) ** (ks * l)[:, None] * symbol.coeffs[:, kap[valid] + kxi]

    # Twist by exp(i pi k delta / N), looked up at the exact integer k delta
    # mod 2N; the twisted fold is N-periodic in delta (a shift by N flips both
    # signs by (-1)^k). Fold k modulo N onto the r rows that occur and sum
    # their modes: D[m, delta] = A[m, (m + delta) mod N].
    turns = np.exp(1j * np.pi * np.arange(2 * n) / n)
    g *= turns[np.multiply.outer(ks, deltas) % (2 * n)]
    rows, row_of = np.unique(ks % n, return_inverse=True)
    folded = np.zeros((rows.size, n), dtype=np.complex128)
    np.add.at(folded, row_of, g)
    modes = turns[np.multiply.outer(deltas, 2 * rows) % (2 * n)]
    # A[m, j] = [D, D][m, N - m + j]: row m of A starts N - m into row m of [D, D]
    if symbol.is_xi_hermitian():   # D = Re(modes folded), one real product
        twice = np.empty((n, 2 * n))
        np.matmul(np.hstack((modes.real, -modes.imag)), np.vstack((folded.real, folded.imag)),
                  out=twice[:, :n])
    else:
        twice = np.empty((n, 2 * n), dtype=np.complex128)
        np.matmul(modes, folded, out=twice[:, :n])
    twice[:, n:] = twice[:, :n]
    step = twice.strides[1]
    return np.lib.stride_tricks.as_strided(twice[:, n:], shape=(n, n),
                                           strides=(twice.strides[0] - step, step)).copy()


def _parity_blocks(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two blocks of a matrix that commutes with the index reversal j -> -j mod N:
    on the even basis e_0, e_{N/2} (even N) and (e_j + e_{-j}) / sqrt 2, and on
    the odd basis (e_j - e_{-j}) / sqrt 2, 0 < j < N/2. With M[-m, -j] = M[m, j]
    each entry is M[m, j] +- M[m, -j], read by N/2-sized gathers; the even
    block scales the rows and columns of e_0 and e_{N/2} by 1 / sqrt 2."""
    n = matrix.shape[0]
    even, odd = np.arange(n // 2 + 1), np.arange(1, (n + 1) // 2)
    scale = np.ones(even.size)
    scale[[0, n // 2] if n % 2 == 0 else [0]] = math.sqrt(0.5)
    block_even = matrix[np.ix_(even, even)] + matrix[np.ix_(even, -even % n)]
    block_even *= np.multiply.outer(scale, scale)
    return block_even, matrix[np.ix_(odd, odd)] - matrix[np.ix_(odd, -odd % n)]


def _defect_norm(defect: np.ndarray, symbols: tuple, hermitian: bool = False) -> float:
    """Spectral norm of a defect formed from the operators of ``symbols``: by
    eigenvalues when it is ``hermitian``, else from its Gram matrix; taken as
    the larger norm of the two parity blocks when every symbol is even."""
    norm = hermitian_norm if hermitian else spectral_norm
    if not all(symbol.is_even() for symbol in symbols):
        return norm(defect)
    return max(norm(block) for block in _parity_blocks(defect) if block.size)


def _bracket_over_i(a: TorusSymbol, b: TorusSymbol, ctx: QuantizationContext) -> np.ndarray:
    """op({a, b} / i): real when {a, b} is real and odd in xi."""
    return ctx.op(-1j * poisson_bracket(a, b))


def composition_remainder(a: TorusSymbol, b: TorusSymbol, ctx: QuantizationContext) -> float:
    """Norm defect of the leading composition rule; expected O(h^2).

    Measures || op(a) op(b) - op(a b) - (h / 2i) op({a, b}) ||, with the last
    term as (h / 2) op({a, b} / i): for real a, b even in xi every term is
    real, and the defect and its norm stay in float64.
    """
    defect = ctx.op_product(a, b) - ctx.op(product(a, b)) - (ctx.h / 2) * _bracket_over_i(a, b, ctx)
    return _defect_norm(defect, (a, b))


def commutator_remainder(a: TorusSymbol, b: TorusSymbol, ctx: QuantizationContext) -> float:
    """Norm defect of the commutator formula; expected O(h^3).

    Measures || [op(a), op(b)] - (h / i) op({a, b}) ||. For real symbols
    op(a) and op(b) are Hermitian, so the commutator is P - P^dag with
    P = op(a) op(b), the product the composition defect reads too. For real
    a, b even in xi the difference is real antisymmetric and its norm stays
    in float64.
    """
    if not (a.is_real() and b.is_real()):
        raise ValueError("commutator defect is defined for real-valued symbols")
    prod = ctx.op_product(a, b)
    return _defect_norm(prod - prod.conj().T - ctx.h * _bracket_over_i(a, b, ctx), (a, b))


def cv_gap(a: TorusSymbol, ctx: QuantizationContext) -> float:
    """Excess of || op(a) || over sup |a|; bounded by C(a) h.

    Negative values simply mean the operator norm sits below the sup norm.
    op(a) of a real symbol is Hermitian, so its norm is taken by eigenvalues
    (real ones when a is even in xi).
    """
    if not a.is_real():
        raise ValueError("sup-norm gap is defined for real-valued symbols")
    return _defect_norm(ctx.op(a), (a,), hermitian=True) - a.sup_abs()


def egorov_remainder(a: TorusSymbol, generator: TorusSymbol, t: float,
                     ctx: QuantizationContext) -> float:
    """Defect of quantum conjugation against the classical flow; expected O(h^2).

    Measures || e^{i t B / h} op(a) e^{-i t B / h} - op(a o phi_t) || where
    B = op(generator) and phi_t is the split generator's Hamiltonian flow.
    The flowed symbol interpolates M = max(256, 4 N) samples on the flowed
    axis (orders up to M/2 >= 2 N). B is diagonal or circulant; in its
    eigenbasis the conjugation is the entrywise phase e^{i t (w_k - w_l) / h}.
    The DFT commutes with the index reversal, so the parity blocks hold in
    that basis too.
    """
    if abs(t) > 1.0:
        raise ValueError(f"|t| <= 1 expected, got {t}")
    if not a.is_real():
        raise ValueError("flow conjugation defect is defined for real-valued symbols")
    flowed = pullback_split_flow(a, generator, t, max(256, 4 * ctx.N))   # NotSplit guards here
    b = ctx.op(generator)
    require_hermitian(b)
    qa, qf = ctx.op(a), ctx.op(flowed)
    if generator.is_x_only():
        w = np.diag(b).real
    else:   # a circulant: its eigenvalues are the DFT of its first column
        w = np.fft.fft(b[:, 0]).real
        qa, qf = (np.fft.ifft(np.fft.fft(m, axis=0), axis=1) for m in (qa, qf))   # F M F^-1
    phase = np.exp(1j * (t / ctx.h) * w)
    defect = phase[:, None] * qa * phase.conj()[None, :] - qf
    return _defect_norm(defect, (a, generator, flowed), hermitian=True)
