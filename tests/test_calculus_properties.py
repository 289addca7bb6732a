"""Property tests of the quantization and symbol-sampling kernels on any grid.

Grid sizes N run over 3..40 (1..64 for the real typing), odd and
non-power-of-two included. Coefficient lattices reach past N in both
directions, so the fold of k modulo N and the fold of kap over l are both
exercised. Sample grids M x M run over every M up to 64, not only powers of
two; a flowed symbol is evaluated on the same grid. Examples are
derandomized so that every run draws the same cases.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import dense_quantize, from_samples, pullback_samples
from test_quantize import brute_force_quantize

from trotterlab.fourier import dft_matrix
from trotterlab.quantize import QuantizationContext, quantize
from trotterlab.symbols import TorusSymbol, pullback_split_flow

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)

sizes = st.integers(3, 40)
seeds = st.integers(0, 2**32 - 1)


@st.composite
def grid_and_orders(draw):
    """N with lattice orders up to N/2 + 2, so 2K + 1 exceeds N for most draws."""
    n = draw(sizes)
    return n, draw(st.integers(0, n // 2 + 2)), draw(st.integers(0, n // 2 + 2))


def random_symbol(seed: int, kx: int, kxi: int, real: bool = False) -> TorusSymbol:
    rng = np.random.default_rng(seed)
    shape = (2 * kx + 1, 2 * kxi + 1)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if real:
        coeffs = (coeffs + np.conj(coeffs[::-1, ::-1])) / 2
    return TorusSymbol(coeffs)


def pointwise(symbol: TorusSymbol, x: float, xi: float) -> complex:
    """Oracle: the trigonometric sum written out at one point."""
    k = np.arange(-symbol.order_x, symbol.order_x + 1)[:, None]
    kap = np.arange(-symbol.order_xi, symbol.order_xi + 1)[None, :]
    return complex(np.sum(symbol.coeffs * np.exp(2j * np.pi * (k * x + kap * xi))))


@PROPERTY
@given(shape=grid_and_orders(), seed=seeds)
@example(shape=(5, 4, 7), seed=1)   # odd N, both lattice extents wider than N
def test_quantize_matches_coordinate_sum(shape, seed):
    n, kx, kxi = shape
    sym = random_symbol(seed, kx, kxi)
    fast = quantize(sym, QuantizationContext(n))
    assert np.abs(fast - brute_force_quantize(sym, n)).max() <= 1e-10


def with_xi_parity(symbol: TorusSymbol, parity: str) -> TorusSymbol:
    """The xi-even or xi-odd part of a symbol (both stay real), or the symbol itself."""
    flipped = symbol.coeffs[:, ::-1]
    sign = {"even": 1.0, "odd": -1.0, "mixed": None}[parity]
    return symbol if sign is None else TorusSymbol((symbol.coeffs + sign * flipped) / 2)


@PROPERTY
@given(n=st.integers(1, 64), seed=seeds, kx=st.integers(0, 6), kxi=st.integers(1, 6),
       parity=st.sampled_from(["even", "odd", "mixed"]))
@example(n=1, seed=3, kx=2, kxi=3, parity="odd")
@example(n=4, seed=5, kx=6, kxi=6, parity="even")   # both lattice extents wider than N
def test_real_typing_matches_dense_quantization(n, seed, kx, kxi, parity):
    # a real symbol quantizes to float64 exactly when it is even in xi (real
    # symmetric); odd in xi it is i times a real antisymmetric matrix
    sym = with_xi_parity(random_symbol(seed, kx, kxi, real=True), parity)
    mat = quantize(sym, QuantizationContext(n))
    assert (mat.dtype == np.float64) == (parity == "even")
    assert mat.dtype in (np.float64, np.complex128)
    assert np.abs(mat - dense_quantize(sym, n)).max() <= 1e-12 * n


@PROPERTY
@given(shape=grid_and_orders(), seed=seeds)
def test_real_symbols_quantize_hermitian(shape, seed):
    n, kx, kxi = shape
    mat = quantize(random_symbol(seed, kx, kxi, real=True), QuantizationContext(n))
    assert np.abs(mat - mat.conj().T).max() <= 1e-12 * max(1.0, np.abs(mat).max())


@PROPERTY
@given(shape=grid_and_orders(), seed=seeds)
def test_x_only_symbols_quantize_to_diagonals(shape, seed):
    n, kx, _ = shape
    sym = random_symbol(seed, kx, 0)
    mat = quantize(sym, QuantizationContext(n))
    nodes = np.arange(n) / n
    assert np.abs(mat - np.diag(sym.evaluate(nodes, 0.0))).max() <= 1e-12 * (2 * kx + 1)


@PROPERTY
@given(shape=grid_and_orders(), seed=seeds)
def test_xi_only_symbols_quantize_to_circulants(shape, seed):
    n, _, kxi = shape
    sym = random_symbol(seed, 0, kxi)
    mat = quantize(sym, QuantizationContext(n))
    idx = np.arange(n)
    assert np.abs(mat - mat[0, (idx[None, :] - idx[:, None]) % n]).max() <= 1e-12 * n
    f = dft_matrix(n)
    symbol_on_grid = np.diag(sym.evaluate(0.0, idx / n))
    assert np.abs(mat - np.linalg.inv(f) @ symbol_on_grid @ f).max() <= 1e-10 * n


@PROPERTY
@given(kx=st.integers(0, 6), kxi=st.integers(0, 6), seed=seeds,
       rows=st.integers(1, 9), cols=st.integers(1, 9))
def test_tensor_grid_evaluate_matches_pointwise_sum(kx, kxi, seed, rows, cols):
    sym = random_symbol(seed, kx, kxi)
    rng = np.random.default_rng(seed + 1)
    x, xi = rng.uniform(-2.0, 2.0, rows), rng.uniform(-2.0, 2.0, cols)
    want = np.array([[pointwise(sym, a, b) for b in xi] for a in x])
    assert np.abs(sym.evaluate(x[:, None], xi[None, :]) - want).max() <= 1e-11
    # inputs of different ndim broadcast: a vector against a scalar, either way
    assert np.abs(sym.evaluate(x, xi[0]) - want[:, 0]).max() <= 1e-11
    assert np.abs(sym.evaluate(x[0], xi) - want[0, :]).max() <= 1e-11
    assert abs(sym.evaluate(x[0], xi[0]) - want[0, 0]) <= 1e-11


@PROPERTY
@given(kx=st.integers(0, 5), kxi=st.integers(0, 5), order=st.integers(0, 3),
       on_x=st.booleans(), t=st.floats(-1.0, 1.0), m=st.integers(1, 64), seed=seeds)
def test_pullback_matches_evaluation_at_flowed_points(kx, kxi, order, on_x, t, m, seed):
    a = random_symbol(seed, kx, kxi)
    generator = random_symbol(seed + 1, order, 0, real=True) if on_x else \
        random_symbol(seed + 1, 0, order, real=True)
    grid = np.arange(m) / m
    if on_x:    # (x, xi) -> (x, xi - t b'(x))
        rate = generator.dx().evaluate(grid, 0.0).real
        x, xi = grid[:, None], grid[None, :] - t * rate[:, None]
    else:       # (x, xi) -> (x + t b'(xi), xi)
        rate = generator.dxi().evaluate(0.0, grid).real
        x, xi = grid[:, None] + t * rate[None, :], grid[None, :]
    want = np.array([[pointwise(a, p, q) for p, q in zip(row_x, row_xi)]
                     for row_x, row_xi in zip(*np.broadcast_arrays(x, xi))])
    flowed = pullback_split_flow(a, generator, t, m).evaluate(grid[:, None], grid[None, :])
    assert np.abs(flowed - want).max() <= 1e-10


@PROPERTY
@given(kx=st.integers(0, 5), kxi=st.integers(0, 5), order=st.integers(0, 3),
       on_x=st.booleans(), t=st.floats(-1.0, 1.0), m=st.integers(1, 64), seed=seeds)
@example(kx=2, kxi=3, order=2, on_x=False, t=0.7, m=64, seed=3)   # even M: Nyquist bin split
@example(kx=2, kxi=3, order=2, on_x=True, t=-0.7, m=33, seed=4)
def test_pullback_symbol_matches_sample_formula(kx, kxi, order, on_x, t, m, seed):
    # the flowed TorusSymbol keeps a's orders on the unmoved axis, has order
    # M // 2 on the other (x for a constant generator, which counts as x-only),
    # and reproduces the M x M sample formula on the grid
    a = random_symbol(seed, kx, kxi)
    generator = random_symbol(seed + 1, order, 0, real=True) if on_x else \
        random_symbol(seed + 1, 0, order, real=True)
    flowed = pullback_split_flow(a, generator, t, m)
    moved_x = on_x or order == 0
    assert (flowed.order_x, flowed.order_xi) == ((m // 2, kxi) if moved_x else (kx, m // 2))
    grid = np.arange(m) / m
    want = pullback_samples(a, generator, t, m)
    assert np.abs(flowed.evaluate(grid[:, None], grid[None, :]) - want).max() <= 1e-12
    # an even M's Nyquist order is split evenly, so a real symbol flows to a real one
    assert pullback_split_flow(random_symbol(seed, kx, kxi, real=True), generator, t, m).is_real()


@PROPERTY
@given(m=st.integers(2, 64), data=st.data(), seed=seeds)
def test_from_samples_recovers_band_limited_symbols(m, data, seed):
    # orders up to the cutoff M/4 are recovered exactly from M x M samples, any M
    kx, kxi = data.draw(st.integers(0, m // 4)), data.draw(st.integers(0, m // 4))
    sym = random_symbol(seed, kx, kxi)
    grid = np.arange(m) / m
    back = from_samples(sym.evaluate(grid[:, None], grid[None, :]))
    assert back.order_x == back.order_xi == m // 4
    assert np.abs((back - sym).coeffs).max() <= 1e-12 * (2 * kx + 1) * (2 * kxi + 1)
