"""Discrete Weyl quantization on the torus and semiclassical calculus checks.

For N grid modes the effective Planck constant is h = 1/(2 pi N) and a
torus symbol a quantizes to the N x N matrix

    A[m, j] = sum_{k, l} c(k, j - m - l N) (-1)^(k l) exp(i pi (j + m) k / N),

where c(k, kap) are the symbol's Fourier coefficients. The sums are finite:
k runs over the coefficient lattice and l over the integers with
|j - m - l N| inside it. Real symbols produce Hermitian matrices;
x-only symbols produce position diagonals and xi-only symbols circulants.
On a (2 Kx + 1) x (2 Kxi + 1) lattice, ``quantize`` costs O(Kx (N + Kxi))
to fold the l sum and O(N^2 log N) for one inverse DFT per diagonal j - m.

The *_remainder functions measure how well the discrete quantization obeys
the standard semiclassical calculus (symbol composition, commutator vs
Poisson bracket, sup-norm bound, conjugation vs classical flow) so the
expected powers of h can be verified by parameter sweeps. The commutator
and flow-conjugation defects of real symbols are Hermitian and take their
norm by eigenvalues; the composition defect is not normal and takes an SVD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """Number of modes N; the Planck constant h = 1/(2 pi N) is derived."""

    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"need N >= 1, got {self.N}")

    @property
    def h(self) -> float:
        return 1.0 / (2.0 * math.pi * self.N)


def quantize(symbol: TorusSymbol, ctx: QuantizationContext) -> np.ndarray:
    """N x N matrix quantizing a torus symbol, in O(K N + N^2 log N).

    With delta = j - m the phase splits as exp(i pi k (j + m) / N) =
    exp(i pi k delta / N) exp(2i pi k m / N), so each diagonal delta is
    one inverse DFT over k, taken after folding k modulo N.
    """
    n = ctx.N
    kx, kxi = symbol.order_x, symbol.order_xi
    ks = np.arange(-kx, kx + 1)

    # Fold the kap axis once: g[k, delta] = sum_l c(k, delta - l N) (-1)^(k l)
    # for delta = j - m in [-(N-1), N-1], over every l that reaches the lattice.
    deltas = np.arange(-(n - 1), n)
    g = np.zeros((2 * kx + 1, deltas.size), dtype=np.complex128)
    for l in range(math.ceil((1 - n - kxi) / n), math.floor((n - 1 + kxi) / n) + 1):
        kap = deltas - l * n
        valid = np.abs(kap) <= kxi
        g[:, valid] += (-1.0) ** (ks * l)[:, None] * symbol.coeffs[:, kap[valid] + kxi]

    # Twist by exp(i pi k delta / N), looked up at the exact integer k delta
    # mod 2N, then fold k modulo N and transform: D[m, delta] = A[m, m + delta].
    g *= np.exp(1j * np.pi * np.arange(2 * n) / n)[np.multiply.outer(ks, deltas) % (2 * n)]
    folded = np.zeros((n, deltas.size), dtype=np.complex128)
    np.add.at(folded, ks % n, g)
    diagonals = n * np.fft.ifft(folded, axis=0)
    idx = np.arange(n)
    return diagonals[idx[:, None], idx[None, :] - idx[:, None] + (n - 1)]


def composition_remainder(a: TorusSymbol, b: TorusSymbol, ctx: QuantizationContext) -> float:
    """Norm defect of the leading composition rule; expected O(h^2).

    Measures || op(a) op(b) - op(a b) - (h / 2i) op({a, b}) ||.
    """
    qa, qb = quantize(a, ctx), quantize(b, ctx)
    leading = quantize(product(a, b), ctx)
    bracket = quantize(poisson_bracket(a, b), ctx)
    return spectral_norm(qa @ qb - leading - (ctx.h / 2j) * bracket)


def commutator_remainder(a: TorusSymbol, b: TorusSymbol, ctx: QuantizationContext) -> float:
    """Norm defect of the commutator formula; expected O(h^3).

    Measures || [op(a), op(b)] - (h / i) op({a, b}) ||. For real symbols
    i times that difference is Hermitian, so its norm is taken by eigenvalues.
    """
    if not (a.is_real() and b.is_real()):
        raise ValueError("commutator defect is defined for real-valued symbols")
    qa, qb = quantize(a, ctx), quantize(b, ctx)
    bracket = quantize(poisson_bracket(a, b), ctx)
    return hermitian_norm(1j * (qa @ qb - qb @ qa) - ctx.h * bracket)


def cv_gap(a: TorusSymbol, ctx: QuantizationContext) -> float:
    """Excess of || op(a) || over sup |a|; bounded by C(a) h.

    Negative values simply mean the operator norm sits below the sup norm.
    op(a) of a real symbol is Hermitian, so its norm is taken by eigenvalues.
    """
    if not a.is_real():
        raise ValueError("sup-norm gap is defined for real-valued symbols")
    return hermitian_norm(quantize(a, ctx)) - a.sup_abs()


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
    b = quantize(generator, ctx)
    require_hermitian(b)
    qa, qf = quantize(a, ctx), quantize(flowed, ctx)
    if generator.is_x_only():
        w = np.diag(b).real
    else:   # a circulant: its eigenvalues are the DFT of its first column
        w = np.fft.fft(b[:, 0]).real
        qa, qf = (np.fft.ifft(np.fft.fft(m, axis=0), axis=1) for m in (qa, qf))   # F M F^-1
    phase = np.exp(1j * (t / ctx.h) * w)
    return hermitian_norm(phase[:, None] * qa * phase.conj()[None, :] - qf)
