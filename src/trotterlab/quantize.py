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
``quantize`` costs O(Kx (N + Kxi)) to fold the l sum and O(N^2 log N) for
one inverse DFT per diagonal j - m mod N.

The *_remainder functions measure how well the discrete quantization obeys
the standard semiclassical calculus (symbol composition, commutator vs
Poisson bracket, sup-norm bound, conjugation vs classical flow) so the
expected powers of h can be verified by parameter sweeps. Remainders on one
``QuantizationContext`` share each distinct operator through ``ctx.op``. The
bracket term enters as op({a, b} / i), so for real a, b even in xi every
part of the composition, commutator and sup-norm defects is real and they
are formed and normed in float64. The sup-norm and flow-conjugation defects
of real symbols are Hermitian and take their norm by eigenvalues; the
composition and commutator defects take an SVD.
"""

from __future__ import annotations

import math
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
    ``op`` keeps each operator it quantizes, read-only, as long as the context."""

    N: int
    _ops: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"need N >= 1, got {self.N}")

    @property
    def h(self) -> float:
        return 1.0 / (2.0 * math.pi * self.N)

    def op(self, symbol: TorusSymbol) -> np.ndarray:
        """``quantize(symbol, self)``, computed once per distinct coefficient lattice."""
        key = (symbol.coeffs.shape, symbol.coeffs.tobytes())
        if key not in self._ops:
            mat = quantize(symbol, self)
            mat.flags.writeable = False
            self._ops[key] = mat
        return self._ops[key]


def quantize(symbol: TorusSymbol, ctx: QuantizationContext) -> np.ndarray:
    """N x N matrix quantizing a torus symbol, in O(K N + N^2 log N).

    With delta = j - m the phase splits as exp(i pi k (j + m) / N) =
    exp(i pi k delta / N) exp(2i pi k m / N), so each diagonal delta is
    one inverse DFT over k, taken after folding k modulo N. The result is
    float64 when ``symbol.is_xi_hermitian()``, complex128 otherwise.
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
    # signs by (-1)^k). Fold k modulo N and transform: D[m, delta] = A[m, (m + delta) mod N].
    g *= np.exp(1j * np.pi * np.arange(2 * n) / n)[np.multiply.outer(ks, deltas) % (2 * n)]
    folded = np.zeros((n, n), dtype=np.complex128)
    np.add.at(folded, ks % n, g)
    diagonals = n * np.fft.ifft(folded, axis=0)
    if symbol.is_xi_hermitian():
        diagonals = diagonals.real
    idx = np.arange(n)
    return diagonals[idx[:, None], (idx[None, :] - idx[:, None]) % n]


def _bracket_over_i(a: TorusSymbol, b: TorusSymbol, ctx: QuantizationContext) -> np.ndarray:
    """op({a, b} / i): real when {a, b} is real and odd in xi."""
    return ctx.op(-1j * poisson_bracket(a, b))


def composition_remainder(a: TorusSymbol, b: TorusSymbol, ctx: QuantizationContext) -> float:
    """Norm defect of the leading composition rule; expected O(h^2).

    Measures || op(a) op(b) - op(a b) - (h / 2i) op({a, b}) ||, with the last
    term as (h / 2) op({a, b} / i): for real a, b even in xi every term is
    real, and the defect and its SVD stay in float64.
    """
    qa, qb = ctx.op(a), ctx.op(b)
    return spectral_norm(qa @ qb - ctx.op(product(a, b)) - (ctx.h / 2) * _bracket_over_i(a, b, ctx))


def commutator_remainder(a: TorusSymbol, b: TorusSymbol, ctx: QuantizationContext) -> float:
    """Norm defect of the commutator formula; expected O(h^3).

    Measures || [op(a), op(b)] - (h / i) op({a, b}) ||. For real symbols
    op(a) and op(b) are Hermitian, so the commutator is P - P^dag with
    P = op(a) op(b): one product. For real a, b even in xi the difference
    is real antisymmetric and its SVD stays in float64.
    """
    if not (a.is_real() and b.is_real()):
        raise ValueError("commutator defect is defined for real-valued symbols")
    prod = ctx.op(a) @ ctx.op(b)
    return spectral_norm(prod - prod.conj().T - ctx.h * _bracket_over_i(a, b, ctx))


def cv_gap(a: TorusSymbol, ctx: QuantizationContext) -> float:
    """Excess of || op(a) || over sup |a|; bounded by C(a) h.

    Negative values simply mean the operator norm sits below the sup norm.
    op(a) of a real symbol is Hermitian, so its norm is taken by eigenvalues
    (real ones when a is even in xi).
    """
    if not a.is_real():
        raise ValueError("sup-norm gap is defined for real-valued symbols")
    return hermitian_norm(ctx.op(a)) - a.sup_abs()


def egorov_remainder(a: TorusSymbol, generator: TorusSymbol, t: float,
                     ctx: QuantizationContext) -> float:
    """Defect of quantum conjugation against the classical flow; expected O(h^2).

    Measures || e^{i t B / h} op(a) e^{-i t B / h} - op(a o phi_t) || where
    B = op(generator) and phi_t is the split generator's Hamiltonian flow.
    The flowed symbol interpolates M = max(256, 4 N) samples on the flowed
    axis (orders up to M/2 >= 2 N). B is diagonal or circulant; in its
    eigenbasis the conjugation is the entrywise phase e^{i t (w_k - w_l) / h}.
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
    return hermitian_norm(phase[:, None] * qa * phase.conj()[None, :] - qf)
