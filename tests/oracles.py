"""Dense and sample-based oracles shared by the test modules.

``expm_hermitian`` forms exp(i theta M) densely from an eigendecomposition,
``pullback_samples`` writes a split-flow pullback as its M x M grid samples,
and ``from_samples`` truncates such samples to a coefficient lattice by one
2-D DFT. The library reaches the same results by cheaper routes.
"""

import numpy as np

from trotterlab.numkit import hermitian_eig
from trotterlab.symbols import TorusSymbol


def expm_hermitian(matrix, theta: float) -> np.ndarray:
    """Unitary exponential ``exp(i * theta * M)`` of a Hermitian matrix M."""
    return hermitian_eig(matrix).exp(theta)


def from_samples(values: np.ndarray) -> TorusSymbol:
    """Truncated coefficient lattice of samples values[i, j] = a(i/M, j/M).

    The cutoff M/4 guards against aliasing: coefficients beyond half
    the Nyquist order of the sample grid are discarded.
    """
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValueError(f"expected square sample grid, got shape {values.shape}")
    m = values.shape[0]
    idx = np.arange(-(m // 4), m // 4 + 1) % m
    return TorusSymbol((np.fft.fft2(values) / m**2)[np.ix_(idx, idx)])


def _modes(values, order):
    return np.exp(2j * np.pi * np.multiply.outer(values, np.arange(-order, order + 1)))


def pullback_samples(a: TorusSymbol, generator: TorusSymbol, t: float, m: int) -> np.ndarray:
    """M x M samples of ``a`` after the time-t flow of a split generator,
    entry [i, j] at (i/M, j/M), formed as one (M x K) @ (K x M) product."""
    grid = np.arange(m) / m
    on_x, on_xi = _modes(grid, a.order_x), _modes(grid, a.order_xi)
    if generator.is_x_only():   # (x, xi) -> (x, xi - t b'(x))
        rate = generator.dx().evaluate(grid, 0.0).real
        return ((on_x @ a.coeffs) * _modes(-t * rate, a.order_xi)) @ on_xi.T
    rate = generator.dxi().evaluate(0.0, grid).real   # (x, xi) -> (x + t b'(xi), xi)
    return on_x @ (_modes(t * rate, a.order_x) * (on_xi @ a.coeffs.T)).T
