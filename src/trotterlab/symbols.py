"""Phase-space symbols on the unit torus and their calculus.

A symbol is a trigonometric polynomial

    a(x, xi) = sum_{|k| <= Kx, |kap| <= Kxi} c_{k,kap} exp(2i pi (k x + kap xi))

stored as its finite coefficient lattice. Products and Poisson brackets are
computed exactly in coefficient space, so every calculus identity below is
exact up to round-off. A pullback under a split classical flow leaves one
axis's orders unchanged and is interpolated on the other from M grid
samples, so it is again a ``TorusSymbol``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFinite, NotSplit

__all__ = [
    "TorusSymbol",
    "constant",
    "cosine_x",
    "cosine_xi",
    "sine_x",
    "sine_xi",
    "harmonic",
    "product",
    "poisson_bracket",
    "pullback_split_flow",
]

_REALITY_TOL = 1e-12


@dataclass(frozen=True)
class TorusSymbol:
    """Trigonometric polynomial on the phase-space torus.

    ``coeffs[k + order_x, kap + order_xi]`` is the coefficient of
    ``exp(2i pi (k x + kap xi))``. Both array extents are odd.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=np.complex128)   # an owned copy, frozen below
        if arr.ndim != 2 or arr.shape[0] % 2 == 0 or arr.shape[1] % 2 == 0:
            raise ValueError(f"coefficient lattice must have odd extents, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise NonFinite("symbol coefficients contain NaN or Inf")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @property
    def order_x(self) -> int:
        return (self.coeffs.shape[0] - 1) // 2

    @property
    def order_xi(self) -> int:
        return (self.coeffs.shape[1] - 1) // 2

    def evaluate(self, x, xi):
        """Evaluate at (x, xi); broadcasts over array arguments.

        Modes are formed on x and xi as given, then contracted as
        sum_k E_x[k] (C E_xi)[k]: a tensor grid costs no exponential per
        point. Evaluation is automatically 1-periodic in both variables.
        """
        x = np.asarray(x, dtype=np.float64)
        xi = np.asarray(xi, dtype=np.float64)
        folded = _modes(xi, self.order_xi) @ self.coeffs.T
        out = np.einsum("...k,...k->...", _modes(x, self.order_x), folded)
        if out.ndim == 0:
            return complex(out)
        return out

    def dx(self) -> "TorusSymbol":
        """Partial derivative in x (a lattice multiplication)."""
        k = np.arange(-self.order_x, self.order_x + 1)
        return TorusSymbol(self.coeffs * (2j * np.pi * k)[:, None])

    def dxi(self) -> "TorusSymbol":
        """Partial derivative in xi."""
        kap = np.arange(-self.order_xi, self.order_xi + 1)
        return TorusSymbol(self.coeffs * (2j * np.pi * kap)[None, :])

    def is_real(self) -> bool:
        """True when the symbol is real-valued: c_{-k,-kap} = conj(c_{k,kap})."""
        return self._equals(np.conj(self.coeffs[::-1, ::-1]))

    def is_xi_hermitian(self) -> bool:
        """True when a(x, -xi) = conj a(x, xi): c_{k,kap} = conj(c_{-k,kap}).
        For a real symbol this is evenness in xi; op(a) is then real at every N."""
        return self._equals(np.conj(self.coeffs[::-1, :]))

    def is_even(self) -> bool:
        """True when a(-x, -xi) = a(x, xi): c_{-k,-kap} = c_{k,kap}. op(a) then
        commutes with the index reversal j -> -j mod N at every N."""
        return self._equals(self.coeffs[::-1, ::-1])

    def shift_signs(self) -> tuple[int, int, int]:
        """Signs s of a(x + 1/2, xi) = s a(x, xi), a(x, xi + 1/2) = s a(x, xi)
        and a(x + 1/2, xi + 1/2) = s a(x, xi), read from the lattice: +1 when
        k, kap or k + kap is even at every nonzero coefficient c(k, kap), -1
        when it is odd at every one, 0 when mixed. A coefficient counts when it
        is not exactly zero: a sign decides which blocks of op(a) are formed at
        all. At even N, op(a) then commutes (+1) or anticommutes (-1) with the
        roll by N/2, with diag((-1)^j) and with their product."""
        occupied = [(p, q) for p in (0, 1) for q in (0, 1)
                    if self.coeffs[(self.order_x + p) % 2::2, (self.order_xi + q) % 2::2].any()]
        signs = []
        for in_x, in_xi in ((1, 0), (0, 1), (1, 1)):
            flips = {(in_x * p + in_xi * q) % 2 for p, q in occupied}
            signs.append(0 if len(flips) > 1 else -1 if flips == {1} else 1)
        return tuple(signs)

    def _equals(self, coeffs: np.ndarray) -> bool:
        scale = max(np.abs(self.coeffs).max(), 1.0)
        return bool(np.abs(self.coeffs - coeffs).max() <= _REALITY_TOL * scale)

    def is_x_only(self) -> bool:
        kxi = self.order_xi
        off = np.delete(self.coeffs, kxi, axis=1)
        return off.size == 0 or np.abs(off).max() <= _REALITY_TOL

    def is_xi_only(self) -> bool:
        kx = self.order_x
        off = np.delete(self.coeffs, kx, axis=0)
        return off.size == 0 or np.abs(off).max() <= _REALITY_TOL

    def sup_abs(self) -> float:
        """sup |a| over the torus by dense sampling, kept on the (immutable) symbol.

        Single-variable symbols are sampled at 4096 points along their axis;
        genuinely mixed symbols on a 1024 x 1024 lattice, as two matrix
        products E_x C E_xi^T (extrema of low-order trigonometric polynomials
        are lattice-commensurate, so this is ample). A real separable sum
        f(x) + g(xi) takes the lattice's sup from two 1024-point samples:
        max(max f + max g, -(min f + min g)).
        """
        if "_sup" not in self.__dict__:
            self.__dict__["_sup"] = self._sampled_sup()
        return self.__dict__["_sup"]

    def _sampled_sup(self) -> float:
        if self.is_x_only() or self.is_xi_only():
            grid = np.arange(4096) / 4096
            axes = (grid, 0.0) if self.is_x_only() else (0.0, grid)
            return float(np.abs(self.evaluate(*axes)).max())
        grid = np.arange(1024) / 1024
        kx, kxi = self.order_x, self.order_xi
        cross = np.delete(np.delete(self.coeffs, kx, axis=0), kxi, axis=1)
        if self.is_real() and np.abs(cross).max() <= _REALITY_TOL:
            f = (_modes(grid, kx) @ self.coeffs[:, kxi]).real
            g = (_modes(grid, kxi) @ self.coeffs[kx]).real - self.coeffs[kx, kxi].real
            return float(max(f.max() + g.max(), -(f.min() + g.min())))
        return float(np.abs(_modes(grid, kx) @ self.coeffs @ _modes(grid, kxi).T).max())

    def __add__(self, other: "TorusSymbol") -> "TorusSymbol":
        kx = max(self.order_x, other.order_x)
        kxi = max(self.order_xi, other.order_xi)
        return TorusSymbol(_pad(self, kx, kxi) + _pad(other, kx, kxi))

    def __sub__(self, other: "TorusSymbol") -> "TorusSymbol":
        return self + (-1.0) * other

    def __mul__(self, scalar):
        return TorusSymbol(self.coeffs * complex(scalar))

    __rmul__ = __mul__


def _modes(values: np.ndarray, order: int) -> np.ndarray:
    """exp(2i pi k v) for k = -order .. order along a new last axis."""
    return np.exp(2j * np.pi * np.multiply.outer(values, np.arange(-order, order + 1)))


def _pad(symbol: TorusSymbol, kx: int, kxi: int) -> np.ndarray:
    px, pxi = kx - symbol.order_x, kxi - symbol.order_xi
    return np.pad(symbol.coeffs, ((px, px), (pxi, pxi)))


def constant(value: complex = 1.0) -> TorusSymbol:
    return TorusSymbol(np.array([[value]], dtype=np.complex128))


def harmonic(k: int, kap: int, coefficient: complex = 1.0) -> TorusSymbol:
    """Single Fourier mode coefficient * exp(2i pi (k x + kap xi))."""
    kx, kxi = abs(k), abs(kap)
    coeffs = np.zeros((2 * kx + 1, 2 * kxi + 1), dtype=np.complex128)
    coeffs[k + kx, kap + kxi] = coefficient
    return TorusSymbol(coeffs)


def cosine_x(m: int = 1, amplitude: float = 1.0) -> TorusSymbol:
    """amplitude * cos(2 pi m x)."""
    return harmonic(m, 0, amplitude / 2) + harmonic(-m, 0, amplitude / 2)


def cosine_xi(m: int = 1, amplitude: float = 1.0) -> TorusSymbol:
    """amplitude * cos(2 pi m xi)."""
    return harmonic(0, m, amplitude / 2) + harmonic(0, -m, amplitude / 2)


def sine_x(m: int = 1, amplitude: float = 1.0) -> TorusSymbol:
    """amplitude * sin(2 pi m x)."""
    return harmonic(m, 0, amplitude / 2j) + harmonic(-m, 0, -amplitude / 2j)


def sine_xi(m: int = 1, amplitude: float = 1.0) -> TorusSymbol:
    """amplitude * sin(2 pi m xi)."""
    return harmonic(0, m, amplitude / 2j) + harmonic(0, -m, -amplitude / 2j)


def product(a: TorusSymbol, b: TorusSymbol) -> TorusSymbol:
    """Pointwise product; exact coefficient-space (full 2-D) convolution."""
    rows, cols = a.coeffs.shape
    out = np.zeros((rows + b.coeffs.shape[0] - 1, cols + b.coeffs.shape[1] - 1), dtype=complex)
    for (i, j), c in np.ndenumerate(b.coeffs):
        out[i:i + rows, j:j + cols] += c * a.coeffs
    return TorusSymbol(out)


def poisson_bracket(a: TorusSymbol, b: TorusSymbol) -> TorusSymbol:
    """{a, b} = da/dxi * db/dx - da/dx * db/dxi, exact in coefficient space."""
    return product(a.dxi(), b.dx()) - product(a.dx(), b.dxi())


def _real_values(arr: np.ndarray, what: str) -> np.ndarray:
    scale = max(np.abs(arr).max(), 1.0)
    if np.abs(arr.imag).max() > 1e-10 * scale:
        raise ValueError(f"{what} must be real-valued")
    return arr.real


def _spectrum(samples: np.ndarray) -> np.ndarray:
    """Orders -(M//2) .. M//2 of the interpolant of M samples along axis 0; an
    even M's Nyquist bin is split between +-M/2, so real samples stay real."""
    m = samples.shape[0]
    out = (np.fft.fft(samples, axis=0) / m)[np.arange(-(m // 2), m // 2 + 1) % m]
    if m % 2 == 0:
        out[[0, -1]] /= 2
    return out


def pullback_split_flow(a: TorusSymbol, generator: TorusSymbol, t: float,
                        resolution: int) -> TorusSymbol:
    """``a`` composed with the time-t Hamiltonian flow of a split generator.

    For a generator b(x) the flow is (x, xi) -> (x, xi - t b'(x)); for b(xi)
    it is (x, xi) -> (x + t b'(xi), xi). Generators depending on both
    variables are rejected (NotSplit). The unmoved variable keeps ``a``'s
    orders exactly; along the other the result is the trigonometric
    interpolant of M = ``resolution`` samples at i/M, so it equals the flowed
    symbol at every point (i/M, j/M) and has order M // 2 on that axis. The
    flowed points wrap modulo 1 because ``a`` is a 1-periodic polynomial.
    """
    grid = np.arange(resolution) / resolution
    if generator.is_x_only():
        # a(x_i, xi - t r_i) = sum_kap [sum_k c E_x[i, k] e^{-2i pi kap t r_i}] e^{2i pi kap xi}
        rate = _real_values(np.asarray(generator.dx().evaluate(grid, 0.0)), "generator derivative")
        return TorusSymbol(_spectrum((_modes(grid, a.order_x) @ a.coeffs)
                                     * _modes(-t * rate, a.order_xi)))
    if generator.is_xi_only():
        # a(x + t r_j, xi_j) = sum_k e^{2i pi k x} [e^{2i pi k t r_j} (C E_xi)[j, k]]
        rate = _real_values(np.asarray(generator.dxi().evaluate(0.0, grid)), "generator derivative")
        return TorusSymbol(_spectrum(_modes(t * rate, a.order_x)
                                     * (_modes(grid, a.order_xi) @ a.coeffs.T)).T)
    raise NotSplit("flow generator must depend on x only or on xi only")
