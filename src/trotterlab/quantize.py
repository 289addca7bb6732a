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
every other symbol gives complex128.

At even N ``quantize`` also forms one stride-2 block A[r0::2, c0::2] alone,
and the whole matrix is the stride-1 case of the same routine. A block reads
the diagonals delta = j - m of one parity, and its rows m = r0 + 2p the
modes exp(2i pi k r0 / N) exp(2i pi k p / (N/2)). On a (2 Kx + 1) x
(2 Kxi + 1) lattice the diagonals that reach it (at most 2 Kxi + 1) are
folded once over l; the r = min(2 Kx + 1, 2 N) rows k are twisted by
exp(2i pi k r0 / N), folded modulo the block size and summed by one inverse
FFT. A block that no diagonal reaches is zero.

The DFT F (``fft`` along axis 0, ``ifft`` along axis 1) is covariant with
this quantization: F op(a) F^-1 = op(a o rho) with rho(x, xi) = (-xi, x), the
lattice coeffs[::-1, :].T. It maps a generator of xi to one of x.

The *_remainder functions measure how well the discrete quantization obeys
the standard semiclassical calculus (symbol composition, commutator vs
Poisson bracket, sup-norm bound, conjugation vs classical flow) so the
expected powers of h can be verified by parameter sweeps. Remainders on one
``QuantizationContext`` share each distinct operator and block through
``ctx.op``. The bracket term enters as op({a, b} / i), so for real a, b even
in xi every part of the composition, commutator and sup-norm defects is real
and they are formed and normed in float64. The sup-norm and flow-conjugation
defects of real symbols are Hermitian and take their norm by eigenvalues;
the composition and commutator defects take it from their Gram matrix.

Each defect is normed on the blocks of the symmetries its symbols certify
(``_defect_norm``). At even N the roll X by N/2 and Xi = diag((-1)^j) map
c(k, kap) to (-1)^k c(k, kap) and (-1)^kap c(k, kap); ``TorusSymbol.shift_signs``
reads the signs from exact zeros of the lattice, and products and brackets
multiply them. The rules apply when 4 | N. A defect that alternates
(anticommutes with Xi) is formed only as its [even, odd] and [odd, even]
blocks, from the blocks of its operators, and a block of an even defect (of
symbols even under the index reversal j -> -j mod N) is normed on two
N/2 x N/4 halves. A Hermitian defect that anticommutes with X Xi is normed
on one N/2 block of the whole matrix. Every other defect, and every defect
when 4 does not divide N, is formed and normed whole. On the default suite
(4 | N) the composition defect is normed as four real N/2 x N/4 blocks, the
commutator defect and the Egorov defect (of the rotated symbols) as two,
and op(a + b) as one N/2 block of the whole matrix.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import NonHermitian
from .numkit import hermitian_norm, spectral_norm
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
    ``op`` and ``op_product`` keep each matrix or block they form, read-only,
    as long as the context."""

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

    def op(self, symbol: TorusSymbol, block: tuple[int, int] | None = None) -> np.ndarray:
        """``quantize(symbol, self, block)``, computed once per distinct
        coefficient lattice and block."""
        return self._kept((_key(symbol), block), lambda: quantize(symbol, self, block))

    def op_product(self, a: TorusSymbol, b: TorusSymbol,
                   block: tuple[int, int] | None = None) -> np.ndarray:
        """``op(a) @ op(b)``, or its block ``(r, c)`` (``quantize``) when op(a)
        commutes (+1) or anticommutes (-1) with Xi = diag((-1)^j): then only
        the block ``(r, s)`` of op(a) is nonzero in its rows, s = r or 1 - r,
        and the block is the one N/2 product op(a)[r, s] op(b)[s, c]. Formed
        once per ordered pair of lattices and block."""
        left = right = None
        if block is not None:
            sign = a.shift_signs()[1]
            if not sign:
                raise ValueError("a block of op(a) op(b) needs op(a) to commute or "
                                 "anticommute with diag((-1)^j)")
            r, c = block
            inner = r if sign == 1 else 1 - r
            left, right = (r, inner), (inner, c)
        return self._kept((_key(a), _key(b), block),
                          lambda: self.op(a, left) @ self.op(b, right))

    def _kept(self, key: tuple, form) -> np.ndarray:
        if key not in self._ops:
            mat = form()
            mat.flags.writeable = False
            self._ops[key] = mat
        return self._ops[key]


def _key(symbol: TorusSymbol) -> tuple:
    return symbol.coeffs.shape, symbol.coeffs.tobytes()


def quantize(symbol: TorusSymbol, ctx: QuantizationContext,
             block: tuple[int, int] | None = None) -> np.ndarray:
    """N x N matrix quantizing a torus symbol or, at even N, its N/2 x N/2
    block ``(r0, c0)``: rows r0::2 and columns c0::2.

    With delta = j - m the phase splits as exp(i pi k (j + m) / N) =
    exp(i pi k delta / N) exp(2i pi k m / N), so each diagonal delta is a
    sum over k of modes exp(2i pi k m / N). A block reads the diagonals of
    the parity of c0 - r0 alone, and only those within Kxi of a multiple of
    N are nonzero. Its rows m = r0 + 2p read the modes
    exp(2i pi k r0 / N) exp(2i pi k p / (N/2)); the whole matrix is the
    stride-1 case, r0 = c0 = 0. The rows k are twisted by
    exp(2i pi k r0 / N), folded modulo the block size and summed by one
    inverse FFT. The result is float64 when ``symbol.is_xi_hermitian()``,
    complex128 otherwise.
    """
    n = ctx.N
    stride = 1 if block is None else 2
    r0, c0 = block or (0, 0)
    if n % stride:
        raise ValueError(f"a stride-2 block needs an even N, got {n}")
    size = n // stride
    kx, kxi = symbol.order_x, symbol.order_xi
    ks, coeffs = np.arange(-kx, kx + 1), symbol.coeffs
    if ks.size > 2 * n:   # the sign and the twists below are 2N-periodic in k
        ks, coeffs = np.arange(2 * n), _fold_rows(ks, coeffs, 2 * n)

    # The block's diagonals are deltas[i] = d0 + stride i, i < size; those
    # within kxi of 0 or N (i in cols) reach the lattice. Fold the kap axis
    # once onto them: g[k, i] = sum_l c(k, deltas[i] - l N) (-1)^(k l).
    deltas = np.arange((c0 - r0) % stride, n, stride)
    cols = np.flatnonzero(np.minimum(deltas, n - deltas) <= kxi)
    real = symbol.is_xi_hermitian()   # then every entry is real
    if not cols.size:   # no diagonal reaches the block
        return np.zeros((size, size), dtype=np.float64 if real else np.complex128)
    g = np.zeros((ks.size, cols.size), dtype=np.complex128)
    for l in range(math.ceil(-kxi / n), math.floor((n - 1 + kxi) / n) + 1):
        kap = deltas[cols] - l * n
        valid = np.abs(kap) <= kxi
        g[:, valid] += (-1.0) ** (ks * l)[:, None] * coeffs[:, kap[valid] + kxi]

    # Twist by exp(i pi k delta / N), looked up at the exact integer k delta
    # mod 2N; the twisted fold is N-periodic in delta (a shift by N flips both
    # signs by (-1)^k). Sum the modes of the rows m = r0 + stride p into
    # diags, the columns i in cols of D[p, i] = A[m, (m + deltas[i]) mod N].
    turns = np.exp(1j * np.pi * np.arange(2 * n) / n)
    g *= turns[np.multiply.outer(ks, deltas[cols]) % (2 * n)]
    if r0:
        g *= turns[2 * r0 * ks % (2 * n)][:, None]
    diags = size * np.fft.ifft(_fold_rows(ks, g, size), axis=0)
    diags = diags.real if real else diags
    # D[p, i] is the block's entry (p, q) with q = p + i - shift (mod size):
    # shift = 0, except -1 for the [odd, even] block, where the diagonal
    # deltas[i] = 1 + 2 i joins row 1 + 2p to column 2 (p + i + 1)
    shift = (c0 - r0 - deltas[0]) // stride
    out = np.zeros((size, size), dtype=diags.dtype)
    p = np.arange(size)[:, None]
    out[p, (p + cols - shift) % size] = diags
    return out


def _fold_rows(ks: np.ndarray, rows: np.ndarray, period: int) -> np.ndarray:
    """Rows of the consecutive indices ``ks`` summed modulo ``period``: row i
    holds the sum over k = i mod ``period`` (zero where none occurs)."""
    lead = ks[0] % period
    padded = np.pad(rows, ((lead, -(lead + ks.size) % period), (0, 0)))
    return padded.reshape(-1, period, rows.shape[1]).sum(axis=0)


def _signs(*symbols: TorusSymbol) -> tuple:
    """Signs of a product of the operators of ``symbols`` (or of the quantized
    product or bracket of the symbols) under the half-period shifts X (x), Xi
    (xi) and X Xi, the products of their ``shift_signs`` (0 where one is mixed),
    and under the index reversal: 1 when every symbol is even, else 0."""
    shifts = (math.prod(column) for column in zip(*(s.shift_signs() for s in symbols)))
    return (*shifts, int(all(s.is_even() for s in symbols)))


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


def _defect_norm(n: int, defect, signs: tuple, adjoint: int = 0) -> float:
    """Spectral norm of a defect with ``signs`` (``_signs``), of which
    ``defect(block)`` forms the block of ``quantize`` or, for None, the whole
    matrix; ``adjoint`` is +1 when the defect is Hermitian, -1 when it is
    anti-Hermitian, 0 otherwise. It is normed on the blocks of the first rule
    that holds. It alternates (anticommutes with Xi = diag((-1)^j)) and 4 | N,
    so only its [even, odd] and [odd, even] blocks, of size N/2, are nonzero:
    the [even, odd] block and, unless its adjoint is +-itself, the transposed
    [odd, even] block (``_block_norm``). It is Hermitian and anticommutes with
    X Xi, which swaps the halves with the signs (-1)^j, and 4 | N: the N/2
    block C = D11 - D12 diag((-1)^j). Otherwise it is normed whole.
    Off-diagonal blocks are normed from the Gram matrix, a whole Hermitian
    defect from eigenvalues."""
    if n % 4 == 0 and signs[1] == -1:
        blocks = [defect((0, 1))] if adjoint else [defect((0, 1)), defect((1, 0)).T]
        return max(_block_norm(block, signs[3]) for block in blocks)
    defect = defect(None)
    if n % 4 == 0 and signs[2] == -1 and adjoint == 1:
        m = n // 2
        return spectral_norm(defect[:m, :m] - defect[:m, m:] * (-1.0) ** np.arange(m))
    return (hermitian_norm if adjoint == 1 else spectral_norm)(defect)


def composition_remainder(a: TorusSymbol, b: TorusSymbol, ctx: QuantizationContext) -> float:
    """Norm defect of the leading composition rule; expected O(h^2).

    Measures || op(a) op(b) - op(a b) - (h / 2i) op({a, b}) ||, with the last
    term as (h / 2) op({a, b} / i): for real a, b even in xi every term is
    real, and the defect and its norm stay in float64.
    """
    ab, bracket = product(a, b), -1j * poisson_bracket(a, b)

    def defect(block):
        return (ctx.op_product(a, b, block) - ctx.op(ab, block)
                - (ctx.h / 2) * ctx.op(bracket, block))
    return _defect_norm(ctx.N, defect, _signs(a, b))


def commutator_remainder(a: TorusSymbol, b: TorusSymbol, ctx: QuantizationContext) -> float:
    """Norm defect of the commutator formula; expected O(h^3).

    Measures || [op(a), op(b)] - (h / i) op({a, b}) ||. For real symbols
    op(a) and op(b) are Hermitian, so the commutator is P - P^dag with
    P = op(a) op(b), the product the composition defect reads too, and the
    defect is anti-Hermitian: its [even, odd] block P[e, o] - P[o, e]^dag -
    h op({a, b} / i)[e, o] holds its norm when it alternates. For real a, b
    even in xi the difference is real antisymmetric and its norm stays in
    float64.
    """
    if not (a.is_real() and b.is_real()):
        raise ValueError("commutator defect is defined for real-valued symbols")
    bracket = -1j * poisson_bracket(a, b)

    def defect(block):
        flipped = None if block is None else block[::-1]
        return (ctx.op_product(a, b, block) - ctx.op_product(a, b, flipped).conj().T
                - ctx.h * ctx.op(bracket, block))
    return _defect_norm(ctx.N, defect, _signs(a, b), adjoint=-1)


def cv_gap(a: TorusSymbol, ctx: QuantizationContext) -> float:
    """Excess of || op(a) || over sup |a|; bounded by C(a) h.

    Negative values simply mean the operator norm sits below the sup norm.
    op(a) of a real symbol is Hermitian, so its norm is taken by eigenvalues
    (real ones when a is even in xi).
    """
    if not a.is_real():
        raise ValueError("sup-norm gap is defined for real-valued symbols")
    return _defect_norm(ctx.N, lambda block: ctx.op(a, block), _signs(a), adjoint=1) - a.sup_abs()


def egorov_remainder(a: TorusSymbol, generator: TorusSymbol, t: float,
                     ctx: QuantizationContext) -> float:
    """Defect of quantum conjugation against the classical flow; expected O(h^2).

    Measures || e^{i t B / h} op(a) e^{-i t B / h} - op(a o phi_t) || where
    B = op(generator) and phi_t is the split generator's Hamiltonian flow.
    The flowed symbol interpolates M = max(256, 4 N) samples on the flowed
    axis (orders up to M/2 >= 2 N). For an x-only generator B is the diagonal
    of its values w_j at x = j / N, and the conjugation is the entrywise phase
    e^{i t (w_m - w_j) / h}. A generator of xi is made x-only by the DFT
    covariance F op(s) F^-1 = op(s o rho), rho(x, xi) = (-xi, x): the norm of
    the defect is that of its DFT conjugate, so a, the generator and the
    flowed symbol are rotated and the x-only rule applies.
    """
    if abs(t) > 1.0:
        raise ValueError(f"|t| <= 1 expected, got {t}")
    if not a.is_real():
        raise ValueError("flow conjugation defect is defined for real-valued symbols")
    flowed = pullback_split_flow(a, generator, t, max(256, 4 * ctx.N))   # NotSplit guards here
    if not generator.is_real():
        raise NonHermitian("flow generator must be real-valued")
    if not generator.is_x_only():
        a, generator, flowed = (TorusSymbol(s.coeffs[::-1, :].T) for s in (a, generator, flowed))
    # a symmetry counts when it leaves B fixed and a and the flowed symbol share its sign
    signs = tuple(sa if sb == 1 and sa == sf else 0
                  for sa, sb, sf in zip(_signs(a), _signs(generator), _signs(flowed)))
    phase = np.exp(1j * (t / ctx.h) * generator.evaluate(np.arange(ctx.N) / ctx.N, 0.0).real)

    def defect(block):
        rows, cols = (slice(None), slice(None)) if block is None else \
            (slice(block[0], None, 2), slice(block[1], None, 2))
        return phase[rows, None] * ctx.op(a, block) * phase[cols].conj() - ctx.op(flowed, block)
    return _defect_norm(ctx.N, defect, signs, adjoint=1)
