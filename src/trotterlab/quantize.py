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

Each defect is normed on the blocks of every symmetry its symbols certify
(``_defect_norm``): the index reversal j -> -j mod N (even symbols) and, at
even N, the roll X by N/2 and Xi = diag((-1)^j), which map c(k, kap) to
(-1)^k c(k, kap) and (-1)^kap c(k, kap); ``TorusSymbol.shift_signs`` reads
the signs from the lattice, and products and brackets multiply them. On the
default suite (4 | N) the composition and commutator defects are normed as
four real N/2 x N/4 blocks, op(a + b) as one N/2 block, and the Egorov defect, of
which only the [even, odd] quarter in the DFT basis is formed, as two
N/2 x N/4 blocks.
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
        """``op(a) @ op(b)``, formed once per ordered pair of lattices; when op(a)
        is diagonal (every coefficient of ``a`` off kap = 0 is exactly zero) by
        scaling the rows of op(b)."""
        def form():
            if not np.delete(a.coeffs, a.order_xi, axis=1).any():
                return np.diag(self.op(a))[:, None] * self.op(b)
            return self.op(a) @ self.op(b)
        return self._kept((_key(a), _key(b)), form)

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
    # the sign and the twist below are 2N-periodic in k: sum the rows k mod 2N first
    ks, coeffs = _fold_rows(np.arange(-kx, kx + 1), symbol.coeffs, 2 * n)

    # Fold the kap axis once: g[k, delta] = sum_l c(k, delta - l N) (-1)^(k l)
    # for delta in [0, N-1], over every l that reaches the lattice.
    deltas = np.arange(n)
    g = np.zeros((ks.size, n), dtype=np.complex128)
    for l in range(math.ceil(-kxi / n), math.floor((n - 1 + kxi) / n) + 1):
        kap = deltas - l * n
        valid = np.abs(kap) <= kxi
        g[:, valid] += (-1.0) ** (ks * l)[:, None] * coeffs[:, kap[valid] + kxi]

    # Twist by exp(i pi k delta / N), looked up at the exact integer k delta
    # mod 2N; the twisted fold is N-periodic in delta (a shift by N flips both
    # signs by (-1)^k). Fold k modulo N onto the r rows that occur and sum
    # their modes: D[m, delta] = A[m, (m + delta) mod N].
    turns = np.exp(1j * np.pi * np.arange(2 * n) / n)
    g *= turns[np.multiply.outer(ks, deltas) % (2 * n)]
    ks, folded = _fold_rows(ks, g, n)
    modes = turns[np.multiply.outer(deltas, 2 * ks) % (2 * n)]
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


def _fold_rows(ks: np.ndarray, rows: np.ndarray, period: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the consecutive indices ``ks`` summed modulo ``period``: the
    first ``period`` indices and their sums, or the input when none repeats."""
    if ks.size <= period:
        return ks, rows
    padded = np.pad(rows, ((0, -ks.size % period), (0, 0)))
    return ks[:period], padded.reshape(-1, period, rows.shape[1]).sum(axis=0)


def _signs(*symbols: TorusSymbol) -> tuple:
    """Signs of a product of the operators of ``symbols`` (or of the quantized
    product or bracket of the symbols) under the half-period shifts X (x), Xi
    (xi) and X Xi, the products of their ``shift_signs`` (0 where one is mixed),
    and under the index reversal: 1 when every symbol is even, else 0."""
    shifts = (math.prod(column) for column in zip(*(s.shift_signs() for s in symbols)))
    return (*shifts, int(all(s.is_even() for s in symbols)))


def _alternates(n: int, signs: tuple) -> bool:
    """True when the defect anticommutes with diag((-1)^j) and 4 divides N: only
    its [even, odd] and [odd, even] blocks, of size N/2, are nonzero."""
    return n % 4 == 0 and signs[1] == -1


def _block_norm(block: np.ndarray, even: bool) -> float:
    """Norm of the N/2 x N/2 [even, odd] block E of an alternating defect. For
    an even defect the index reversal maps row p to -p and column q to
    -q - 1 = N/2 - 1 - q, so ||E|| is the larger norm of L + R and L - R over
    sqrt 2, for L its left half and R its reversed right half; otherwise E is
    normed whole."""
    if not even:
        return spectral_norm(block)
    m = block.shape[0] // 2
    left, right = block[:, :m], block[:, :m - 1:-1]
    return max(spectral_norm(left + s * right) for s in (1, -1)) / math.sqrt(2.0)


def _defect_norm(defect: np.ndarray, signs: tuple, hermitian: bool = False) -> float:
    """Spectral norm of a defect with ``signs`` (``_signs``), on the blocks of the
    first rule that holds. It alternates: the [even, odd] block and, unless it
    is ``hermitian``, the transposed [odd, even] block (``_block_norm``). It is
    Hermitian and anticommutes with X Xi, which swaps the halves with the signs
    (-1)^j, and 4 | N: the N/2 block C = D11 - D12 diag((-1)^j). It is even: its
    two index-reversal blocks, on the bases e_0, e_{N/2} (even N) with
    (e_j + e_{-j}) / sqrt 2 and (e_j - e_{-j}) / sqrt 2, 0 < j < N/2, each entry
    D[m, j] +- D[m, -j]. Otherwise: whole. Off-diagonal blocks are normed from
    the Gram matrix; a Hermitian defect, whole or on its index-reversal blocks,
    from eigenvalues."""
    n = defect.shape[0]
    if _alternates(n, signs):
        blocks = [defect[0::2, 1::2]] if hermitian else [defect[0::2, 1::2], defect[1::2, 0::2].T]
        return max(_block_norm(block, signs[3]) for block in blocks)
    if n % 4 == 0 and signs[2] == -1 and hermitian:
        m = n // 2
        return spectral_norm(defect[:m, :m] - defect[:m, m:] * (-1.0) ** np.arange(m))
    norm = hermitian_norm if hermitian else spectral_norm
    if not signs[3]:
        return norm(defect)
    plus, minus = np.arange(n // 2 + 1), np.arange(1, (n + 1) // 2)
    scale = np.ones(plus.size)
    scale[[0, n // 2] if n % 2 == 0 else [0]] = math.sqrt(0.5)
    block_plus = defect[np.ix_(plus, plus)] + defect[np.ix_(plus, -plus % n)]
    block_plus *= np.multiply.outer(scale, scale)
    block_minus = defect[np.ix_(minus, minus)] - defect[np.ix_(minus, -minus % n)]
    return max(norm(block) for block in (block_plus, block_minus) if block.size)


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
    return _defect_norm(defect, _signs(a, b))


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
    return _defect_norm(prod - prod.conj().T - ctx.h * _bracket_over_i(a, b, ctx), _signs(a, b))


def cv_gap(a: TorusSymbol, ctx: QuantizationContext) -> float:
    """Excess of || op(a) || over sup |a|; bounded by C(a) h.

    Negative values simply mean the operator norm sits below the sup norm.
    op(a) of a real symbol is Hermitian, so its norm is taken by eigenvalues
    (real ones when a is even in xi).
    """
    if not a.is_real():
        raise ValueError("sup-norm gap is defined for real-valued symbols")
    return _defect_norm(ctx.op(a), _signs(a), hermitian=True) - a.sup_abs()


def egorov_remainder(a: TorusSymbol, generator: TorusSymbol, t: float,
                     ctx: QuantizationContext) -> float:
    """Defect of quantum conjugation against the classical flow; expected O(h^2).

    Measures || e^{i t B / h} op(a) e^{-i t B / h} - op(a o phi_t) || where
    B = op(generator) and phi_t is the split generator's Hamiltonian flow.
    The flowed symbol interpolates M = max(256, 4 N) samples on the flowed
    axis (orders up to M/2 >= 2 N). B is diagonal or circulant; in its
    eigenbasis the conjugation is the entrywise phase e^{i t (w_k - w_l) / h}.
    The DFT commutes with the index reversal and swaps the two half-period
    shifts, so the symmetry blocks hold in that basis too; when the defect
    alternates there, only the [even, odd] quarter of F op F^-1 and of the
    phases is formed.
    """
    if abs(t) > 1.0:
        raise ValueError(f"|t| <= 1 expected, got {t}")
    if not a.is_real():
        raise ValueError("flow conjugation defect is defined for real-valued symbols")
    flowed = pullback_split_flow(a, generator, t, max(256, 4 * ctx.N))   # NotSplit guards here
    b = ctx.op(generator)
    require_hermitian(b)
    qa, qf = ctx.op(a), ctx.op(flowed)
    # a symmetry counts when it leaves B fixed and a and the flowed symbol share its sign
    signs = tuple(sa if sb == 1 and sa == sf else 0
                  for sa, sb, sf in zip(_signs(a), _signs(generator), _signs(flowed)))
    circulant = not generator.is_x_only()
    if circulant:   # the DFT swaps the roll by N/2 and the signs (-1)^j
        signs = (signs[1], signs[0], *signs[2:])
    # B's eigenvalues: its diagonal, or for a circulant the DFT of its first column
    w = np.fft.fft(b[:, 0]).real if circulant else np.diag(b).real
    phase = np.exp(1j * (t / ctx.h) * w)
    if _alternates(ctx.N, signs):   # the [even, odd] block alone
        qa, qf = ((_dft_quarter(m) if circulant else m[0::2, 1::2]) for m in (qa, qf))
        return _block_norm(phase[0::2, None] * qa * phase[1::2].conj() - qf, signs[3])
    if circulant:
        qa, qf = (np.fft.ifft(np.fft.fft(m, axis=0), axis=1) for m in (qa, qf))   # F M F^-1
    defect = phase[:, None] * qa * phase.conj()[None, :] - qf
    return _defect_norm(defect, signs, hermitian=True)


def _dft_quarter(matrix: np.ndarray) -> np.ndarray:
    """The [even, odd] block of F M F^-1 (F the DFT, ``fft`` along axis 0 and
    ``ifft`` along axis 1) by two N/2-point transforms: even rows of F read the
    sum of M's two row halves, odd columns of F^-1 the difference of its two
    column halves twisted by e^{2 i pi j / N}."""
    n = matrix.shape[0]
    m = n // 2
    rows = matrix[:m] + matrix[m:]
    cols = (rows[:, :m] - rows[:, m:]) * np.exp(2j * np.pi * np.arange(m) / n)
    return np.fft.ifft(np.fft.fft(cols, axis=0), axis=1) / 2.0
