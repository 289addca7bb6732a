"""Property tests of the quantization and symbol-sampling kernels on any grid.

Grid sizes N run over 3..40 (1..64 for the real typing, 1..70 for the
symmetry-block norms, the even 2..80 for the stride-2 blocks), odd and
non-power-of-two included. Coefficient lattices reach past N in both
directions, so the folds of k (modulo 2N, and modulo the block size before
the inverse-FFT mode sum) and the fold of kap over l are all exercised.
Sample grids M x M run over every M up to 64, not only powers of two; a
flowed symbol is evaluated on the same grid. Examples are derandomized so
that every run draws the same cases.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import dense_quantize, dft_matrix, expm_hermitian, from_samples, pullback_samples

from trotterlab.numkit import spectral_norm
from trotterlab.quantize import (
    QuantizationContext,
    commutator_remainder,
    composition_remainder,
    cv_gap,
    egorov_remainder,
    quantize,
)
from trotterlab.symbols import (
    TorusSymbol,
    cosine_x,
    cosine_xi,
    poisson_bracket,
    product,
    pullback_split_flow,
    sine_x,
)

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
    assert np.abs(fast - dense_quantize(sym, n)).max() <= 1e-10


@PROPERTY
@given(n=st.integers(1, 40).map(lambda half: 2 * half), seed=seeds,
       kx=st.one_of(st.integers(0, 6), st.integers(16, 90)), kxi=st.integers(0, 44),
       real=st.booleans())
@example(n=8, seed=1, kx=2, kxi=1, real=True)      # 4 | N, fewer rows k than the block size
@example(n=10, seed=2, kx=3, kxi=7, real=False)    # N = 2 mod 4, kap lattice wider than N
@example(n=20, seed=3, kx=40, kxi=2, real=True)    # rows folded mod 2N first
@example(n=18, seed=4, kx=20, kxi=9, real=False)   # N = 2 mod 4, rows folded mod the block size
@example(n=2, seed=5, kx=16, kxi=3, real=True)     # blocks of one entry
@example(n=16, seed=6, kx=20, kxi=0, real=True)    # x-only: no diagonal reaches [even, odd]
def test_blocks_match_slices_of_the_whole_matrix(n, seed, kx, kxi, real):
    # each stride-2 block (r0, c0) is the slice [r0::2, c0::2] of the whole
    # matrix, for every N = 0 or 2 mod 4, whether the min(2 Kx + 1, 2 N) mode
    # rows fill the block or not, and when no diagonal reaches it (zero)
    sym = random_symbol(seed, kx, kxi, real=real)
    ctx = QuantizationContext(n)
    whole = quantize(sym, ctx)
    scale = np.abs(sym.coeffs).sum()
    for r0 in (0, 1):
        for c0 in (0, 1):
            block = quantize(sym, ctx, (r0, c0))
            assert block.shape == (n // 2, n // 2) and block.dtype == whole.dtype
            assert np.abs(block - whole[r0::2, c0::2]).max() <= 1e-13 * scale


@PROPERTY
@given(n=st.integers(1, 40), seed=seeds, kx=st.integers(0, 22), kxi=st.integers(0, 22))
@example(n=15, seed=1, kx=2, kxi=3)
@example(n=16, seed=2, kx=3, kxi=2)
@example(n=20, seed=3, kx=1, kxi=30)   # rotated lattice summed by FFT, wider than 2N
def test_dft_conjugation_rotates_the_symbol(n, seed, kx, kxi):
    # F op(a) F^-1 = op(a o rho) with rho(x, xi) = (-xi, x), F the DFT (fft
    # along the rows, ifft along the columns): the rotated lattice is
    # coeffs[::-1, :].T, at odd and even N
    sym = random_symbol(seed, kx, kxi)
    ctx = QuantizationContext(n)
    op = quantize(sym, ctx).astype(np.complex128)
    rotated = quantize(TorusSymbol(sym.coeffs[::-1, :].T), ctx)
    conjugated = np.fft.ifft(np.fft.fft(op, axis=0), axis=1)
    assert np.abs(conjugated - rotated).max() <= 1e-13 * spectral_norm(op)


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


# A parity class (k mod 2, kap mod 2) of lattice points, or None for all of them.
classes = st.sampled_from([None, (0, 0), (0, 1), (1, 0), (1, 1)])


def in_classes(symbol: TorusSymbol, *keep) -> TorusSymbol:
    """The symbol's coefficients on the parity classes ``keep`` (all when None)."""
    if None in keep:
        return symbol
    k = np.arange(-symbol.order_x, symbol.order_x + 1)[:, None] % 2
    kap = np.arange(-symbol.order_xi, symbol.order_xi + 1)[None, :] % 2
    mask = np.zeros(symbol.coeffs.shape, dtype=bool)
    for p, q in keep:
        mask |= (k == p) & (kap == q)
    return TorusSymbol(np.where(mask, symbol.coeffs, 0.0))


@PROPERTY
@given(seed=seeds, kx=st.integers(0, 4), kxi=st.integers(0, 4),
       keep=st.sets(st.sampled_from([(0, 0), (0, 1), (1, 0), (1, 1)]), min_size=1))
@example(seed=1, kx=2, kxi=2, keep={(1, 0), (0, 1)})   # cos 2 pi x + cos 2 pi xi: only X Xi has a sign
def test_shift_signs_match_evaluation(seed, kx, kxi, keep):
    # a(x + 1/2, xi), a(x, xi + 1/2) and a(x + 1/2, xi + 1/2) against +-a(x, xi)
    # at random points: a sign must hold there, and a 0 must fail both ways
    sym = in_classes(random_symbol(seed, kx, kxi), *keep)
    rng = np.random.default_rng(seed)
    x, xi = rng.random(32), rng.random(32)
    value = sym.evaluate(x, xi)
    tol = 1e-12 * max(np.abs(sym.coeffs).sum(), 1.0)
    for sign, (dx, dxi) in zip(sym.shift_signs(), [(0.5, 0.0), (0.0, 0.5), (0.5, 0.5)]):
        shifted = sym.evaluate(x + dx, xi + dxi)
        if sign:
            assert np.abs(shifted - sign * value).max() <= tol
        else:
            assert min(np.abs(shifted - value).max(), np.abs(shifted + value).max()) > tol


def even_symbol(seed: int, kx: int, kxi: int, keep=None) -> TorusSymbol:
    """A real symbol with a(-x, -xi) = a(x, xi): real coefficients, c_{-k,-kap} = c_{k,kap},
    on the parity class ``keep`` (all when None)."""
    coeffs = random_symbol(seed, kx, kxi, real=True).coeffs.real
    return in_classes(TorusSymbol((coeffs + coeffs[::-1, ::-1]) / 2), keep)


def even_generator(seed: int, order: int, on_x: bool, parity: int | None = None) -> TorusSymbol:
    """A real even symbol of x alone or of xi alone (a cosine series), with
    harmonics of one ``parity`` (all when None)."""
    if on_x:
        return even_symbol(seed, order, 0, None if parity is None else (parity, 0))
    return even_symbol(seed, 0, order, None if parity is None else (0, parity))


@PROPERTY
@given(n=st.integers(1, 70), seed=seeds, kx=st.integers(0, 3), kxi=st.integers(0, 3),
       order=st.integers(0, 2), on_x=st.booleans(), t=st.floats(-1.0, 1.0),
       a_keep=classes, b_keep=classes, g_parity=st.sampled_from([None, 0, 1]))
@example(n=1, seed=1, kx=2, kxi=1, order=1, on_x=True, t=0.5,
         a_keep=None, b_keep=None, g_parity=None)
@example(n=2, seed=2, kx=1, kxi=2, order=2, on_x=False, t=-0.7,   # the odd block is empty
         a_keep=None, b_keep=None, g_parity=None)
@example(n=6, seed=3, kx=3, kxi=3, order=2, on_x=True, t=0.9,     # N = 2 mod 4
         a_keep=None, b_keep=None, g_parity=None)
@example(n=33, seed=4, kx=1, kxi=1, order=1, on_x=False, t=0.5,
         a_keep=None, b_keep=None, g_parity=None)
@example(n=70, seed=5, kx=2, kxi=3, order=2, on_x=False, t=1.0,
         a_keep=None, b_keep=None, g_parity=None)
# odd-k a and odd-kap b, as cos 2 pi x and cos 2 pi xi: composition and
# commutator alternate, a + b anticommutes with X Xi, and Egorov under an
# odd xi generator alternates in the DFT basis; at N odd, N = 2 mod 4 and 4 | N
@example(n=15, seed=6, kx=3, kxi=2, order=2, on_x=False, t=0.5,
         a_keep=(1, 0), b_keep=(0, 1), g_parity=1)
@example(n=30, seed=7, kx=3, kxi=2, order=2, on_x=False, t=0.5,
         a_keep=(1, 0), b_keep=(0, 1), g_parity=1)
@example(n=36, seed=8, kx=3, kxi=2, order=2, on_x=False, t=0.5,
         a_keep=(1, 0), b_keep=(0, 1), g_parity=1)
# Egorov alternating with a sign under the roll as well (DFT and position
# basis), under an odd x generator, and with a + b of one class
@example(n=36, seed=9, kx=3, kxi=3, order=1, on_x=True, t=-0.8,
         a_keep=(1, 1), b_keep=(0, 1), g_parity=0)
@example(n=44, seed=10, kx=2, kxi=3, order=2, on_x=False, t=0.7,
         a_keep=(1, 1), b_keep=(1, 0), g_parity=0)
@example(n=40, seed=11, kx=3, kxi=3, order=2, on_x=True, t=0.6,
         a_keep=(0, 1), b_keep=(1, 1), g_parity=1)
@example(n=28, seed=12, kx=2, kxi=2, order=1, on_x=True, t=0.4,
         a_keep=(1, 0), b_keep=(1, 0), g_parity=1)
def test_parity_block_norms_match_dense_norms(n, seed, kx, kxi, order, on_x, t, a_keep, b_keep,
                                              g_parity):
    # every symbol is even; symbols on one parity class also have signs under
    # the half-period shifts, so each remainder is normed on the blocks those
    # certify; the oracle forms the same defect as one complex N x N matrix and
    # takes its spectral norm whole
    a, b = even_symbol(seed, kx, kxi, a_keep), even_symbol(seed + 1, kxi, kx, b_keep)
    assert_defects_match_dense_norms(a, b, even_generator(seed + 2, order, on_x, g_parity), t, n)


@pytest.mark.parametrize("n", [15, 30, 16, 36])
@pytest.mark.parametrize("a, b, generator", [
    (sine_x(), cosine_xi(), cosine_xi()),
    (sine_x() + 0.4 * cosine_x(3), cosine_xi() + 0.3 * cosine_xi(3), cosine_xi() + 0.5 * cosine_xi(3)),
    (product(sine_x(), cosine_xi()) + 0.5 * product(cosine_x(), cosine_xi(3)), cosine_x(),
     cosine_x()),
], ids=["odd", "mixed-in-x", "mixed-in-x-and-xi"])
def test_block_norms_of_defects_that_are_not_even(n, a, b, generator):
    # a is odd (op(a) anticommutes with the index reversal) or neither even nor
    # odd, so no defect below is even; at 4 | N the composition and commutator
    # defects with b, and the Egorov defect of a under the generator (in the
    # DFT basis for a generator of xi), still alternate, and their [even, odd]
    # and [odd, even] blocks are normed whole
    assert not a.is_even() and a.is_real()
    assert_defects_match_dense_norms(a, b, generator, 0.5, n)


def assert_defects_match_dense_norms(a, b, generator, t, n):
    """Each remainder of a, b and the generator within 1e-11 N of the same
    defect formed as one complex N x N matrix and normed whole."""
    ctx = QuantizationContext(n)
    qa, qb = (quantize(sym, ctx).astype(np.complex128) for sym in (a, b))
    bracket = quantize(poisson_bracket(a, b), ctx)
    u = expm_hermitian(quantize(generator, ctx).astype(np.complex128), t / ctx.h)
    flowed = pullback_split_flow(a, generator, t, max(256, 4 * n))
    pairs = [
        (composition_remainder(a, b, ctx),
         spectral_norm(qa @ qb - quantize(product(a, b), ctx) - (ctx.h / 2j) * bracket)),
        (commutator_remainder(a, b, ctx), spectral_norm(qa @ qb - qb @ qa - (ctx.h / 1j) * bracket)),
        (cv_gap(a, ctx), spectral_norm(qa) - a.sup_abs()),
        (cv_gap(a + b, ctx), spectral_norm(qa + qb) - (a + b).sup_abs()),
        (egorov_remainder(a, generator, t, ctx),
         spectral_norm(u @ qa @ u.conj().T - quantize(flowed, ctx))),
    ]
    for value, oracle in pairs:
        assert abs(value - oracle) <= 1e-11 * n


@PROPERTY
@given(seed=seeds, kx=st.integers(0, 3), kxi=st.integers(0, 3), order=st.integers(0, 3),
       on_x=st.booleans(), t=st.floats(-1.0, 1.0), m=st.integers(1, 64))
def test_evenness_survives_the_calculus(seed, kx, kxi, order, on_x, t, m):
    # products, brackets over i and flows under an even split generator of
    # even symbols are even: the parity norms apply to every part of a defect
    a, b = even_symbol(seed, kx, kxi), even_symbol(seed + 1, kxi, kx)
    assert a.is_even() and b.is_even()
    assert product(a, b).is_even()
    assert (-1j * poisson_bracket(a, b)).is_even()
    assert pullback_split_flow(a, even_generator(seed + 2, order, on_x), t, m).is_even()


def test_odd_and_mixed_symbols_are_not_even():
    assert cosine_x().is_even() and cosine_xi().is_even() and (cosine_x() + cosine_xi()).is_even()
    assert not sine_x(2).is_even()
    assert not (product(cosine_x(), cosine_xi()) + 0.5 * sine_x() + 0.3 * cosine_xi()).is_even()


@PROPERTY
@given(n=st.sampled_from([7, 16, 33]), seed=seeds, kx=st.integers(0, 3),
       kxi=st.integers(0, 3), order=st.integers(1, 3), t=st.floats(-1.0, 1.0),
       m=st.integers(2 * 33, 96))
def test_quantize_folds_rows_of_x_generator_flows(n, seed, kx, kxi, order, t, m):
    # a flow under an x-only generator has order M/2 in x, so 2 Kx + 1 > N:
    # rows fold modulo 2N, and at N = 16 and 33, whose 2N rows are summed by
    # inverse FFT, modulo N before it
    flowed = pullback_split_flow(random_symbol(seed, kx, kxi),
                                 random_symbol(seed + 1, order, 0, real=True), t, m)
    assert 2 * flowed.order_x + 1 > n
    ctx = QuantizationContext(n)
    assert np.abs(quantize(flowed, ctx) - dense_quantize(flowed, n)).max() <= 1e-10 * n
