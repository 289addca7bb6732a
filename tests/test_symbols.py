import tracemalloc

import numpy as np
import pytest
from oracles import from_samples

from trotterlab.errors import NonFinite, NotSplit
from trotterlab.symbols import (
    TorusSymbol,
    constant,
    cosine_x,
    cosine_xi,
    harmonic,
    poisson_bracket,
    product,
    pullback_split_flow,
    sine_x,
    sine_xi,
)


def samples(a, m):
    """a(i/m, j/m) on the uniform m x m torus grid."""
    grid = np.arange(m) / m
    return a.evaluate(grid[:, None], grid[None, :])


def fd_bracket(a, b, x, xi, step=1e-5):
    """Central finite-difference oracle for the Poisson bracket at one point."""
    def dx(f, u, v):
        return (f.evaluate(u + step, v) - f.evaluate(u - step, v)) / (2 * step)

    def dxi(f, u, v):
        return (f.evaluate(u, v + step) - f.evaluate(u, v - step)) / (2 * step)

    return dxi(a, x, xi) * dx(b, x, xi) - dx(a, x, xi) * dxi(b, x, xi)


class TestTorusSymbol:
    def test_eval_cosine_zero(self):
        a = cosine_x()
        assert a.evaluate(0.25, 0.8) == pytest.approx(0.0, abs=1e-14)

    def test_eval_constant(self):
        assert constant(1.0).evaluate(0.3, 0.9) == pytest.approx(1.0)

    def test_eval_product_at_origin(self):
        a = product(cosine_x(), cosine_xi())
        assert a.evaluate(0.0, 0.0) == pytest.approx(1.0)

    def test_periodicity(self):
        a = product(cosine_x(), sine_xi(2))
        assert a.evaluate(1.3, 2.4) == pytest.approx(a.evaluate(0.3, 0.4), abs=1e-12)

    def test_reality_flags(self):
        assert cosine_x().is_real()
        assert sine_xi().is_real()
        assert not harmonic(1, 0, 1.0).is_real()

    def test_axis_flags(self):
        assert cosine_x().is_x_only() and not cosine_x().is_xi_only()
        assert cosine_xi().is_xi_only() and not cosine_xi().is_x_only()
        assert constant(2.0).is_x_only() and constant(2.0).is_xi_only()

    def test_derivatives(self):
        a = cosine_x(2)   # cos(4 pi x) -> d/dx = -4 pi sin(4 pi x)
        x = 0.13
        assert a.dx().evaluate(x, 0.0) == pytest.approx(
            -4 * np.pi * np.sin(4 * np.pi * x), abs=1e-12)

    def test_sup_abs(self):
        assert cosine_x().sup_abs() == pytest.approx(1.0, abs=1e-6)
        mixed = cosine_x() + cosine_xi()
        assert mixed.sup_abs() == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("seed", range(4))
    def test_separable_sup_matches_lattice(self, seed):
        # a real f(x) + g(xi) takes the sup of the 1024 x 1024 lattice from two
        # 1-D samples: same value as the lattice, and no 16 MB temporary
        rng = np.random.default_rng(seed)
        parts = [harmonic(k, 0, rng.standard_normal()) + harmonic(-k, 0, rng.standard_normal())
                 for k in (1, 2, 3)]
        parts += [harmonic(0, q, rng.standard_normal()) + harmonic(0, -q, rng.standard_normal())
                  for q in (1, 2)]
        sym = sum(parts[1:], parts[0]) + constant(rng.standard_normal())
        sym = TorusSymbol((sym.coeffs + np.conj(sym.coeffs[::-1, ::-1])) / 2)   # real
        lattice = np.abs(samples(sym, 1024)).max()
        tracemalloc.start()
        sup = sym.sup_abs()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert sup == pytest.approx(lattice, rel=1e-13)
        assert peak < 1 << 20

    def test_coefficients_immutable(self):
        a = cosine_x()
        with pytest.raises(ValueError):
            a.coeffs[0, 0] = 5.0


class TestCalculus:
    def test_product_is_pointwise(self):
        rng = np.random.default_rng(41)
        a = cosine_x() + 0.5 * sine_xi(2)
        b = cosine_xi() + 0.25 * sine_x()
        pts = rng.random((10, 2))
        prod = product(a, b)
        for x, xi in pts:
            assert prod.evaluate(x, xi) == pytest.approx(
                a.evaluate(x, xi) * b.evaluate(x, xi), abs=1e-12)

    def test_product_matches_coefficient_loop(self):
        # reference: c[k + k', kap + kap'] accumulates a[k, kap] * b[k', kap']
        rng = np.random.default_rng(5)
        a = TorusSymbol(rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5)))
        b = TorusSymbol(rng.standard_normal((5, 1)) + 1j * rng.standard_normal((5, 1)))
        want = np.zeros((7, 5), dtype=complex)
        for (i, j), x in np.ndenumerate(a.coeffs):
            for (k, m), y in np.ndenumerate(b.coeffs):
                want[i + k, j + m] += x * y
        assert np.abs(product(a, b).coeffs - want).max() <= 1e-14
        # an x-only by xi-only product has one term per coefficient: exact
        ax, bxi = cosine_x(3), sine_xi(2)
        assert np.array_equal(product(ax, bxi).coeffs, ax.coeffs @ bxi.coeffs)

    def test_bracket_antisymmetry(self):
        a = cosine_x() + sine_xi(2)
        assert np.abs(poisson_bracket(a, a).coeffs).max() < 1e-12

    def test_bracket_of_two_position_symbols_vanishes(self):
        assert np.abs(poisson_bracket(cosine_x(), sine_x(3)).coeffs).max() < 1e-12

    def test_bracket_matches_finite_difference_oracle(self):
        a, b = cosine_xi(), cosine_x()
        pb = poisson_bracket(a, b)
        grid = np.arange(64) / 64
        for x in grid[::9]:
            for xi in grid[::9]:
                assert pb.evaluate(x, xi) == pytest.approx(
                    fd_bracket(a, b, x, xi), abs=1e-6)

    def test_bracket_bilinearity(self):
        a, b, c = cosine_x(), cosine_xi(), sine_x(2)
        lhs = poisson_bracket(a + 2.0 * c, b)
        rhs = poisson_bracket(a, b) + 2.0 * poisson_bracket(c, b)
        kx = max(lhs.order_x, rhs.order_x)
        kxi = max(lhs.order_xi, rhs.order_xi)
        diff = (lhs - rhs).coeffs
        assert np.abs(diff).max() < 1e-10 and kx >= 0 and kxi >= 0

    def test_bracket_leibniz_rule(self):
        # {a, bc} = {a, b} c + b {a, c} as a coefficient-space identity
        rng = np.random.default_rng(42)

        def random_symbol():
            coeffs = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            coeffs = (coeffs + np.conj(coeffs[::-1, ::-1])) / 2
            return TorusSymbol(coeffs)

        for _ in range(5):
            a, b, c = random_symbol(), random_symbol(), random_symbol()
            lhs = poisson_bracket(a, product(b, c))
            rhs = product(poisson_bracket(a, b), c) + product(b, poisson_bracket(a, c))
            assert np.abs((lhs - rhs).coeffs).max() < 1e-10


class TestSampledSymbol:
    """The from_samples oracle turns an M x M sample array into coefficients."""

    def test_round_trip_band_limited(self):
        # orders 2 and 1 sit inside the default cutoff 64 // 4 = 16
        a = product(cosine_x(), cosine_xi()) + 0.3 * sine_x(2)
        values = samples(a, 64)
        back = from_samples(values)
        assert np.abs(samples(back, 64) - values).max() < 1e-8
        assert np.abs((back - a).coeffs).max() < 1e-12

    def test_default_truncation_order(self):
        sym = from_samples(samples(cosine_x(), 256))
        assert sym.order_x == sym.order_xi == 64

    def test_non_square_grid_rejected(self):
        with pytest.raises(ValueError):
            from_samples(np.zeros((12, 16)))

    def test_non_finite_sample_rejected(self):
        values = samples(cosine_x(), 16)
        values[3, 5] = np.nan
        with pytest.raises(NonFinite):
            from_samples(values)


class TestPullback:
    def test_time_zero_is_identity(self):
        a = product(cosine_x(), cosine_xi())
        flow = samples(pullback_split_flow(a, cosine_x(), 0.0, resolution=64), 64)
        assert np.abs(flow - samples(a, 64)).max() < 1e-12

    def test_zero_generator_is_identity(self):
        a = cosine_xi()
        flow = samples(pullback_split_flow(a, constant(0.0), 0.37, resolution=64), 64)
        assert np.abs(flow - samples(a, 64)).max() < 1e-12

    def test_position_generator_closed_form(self):
        # generator cos(2 pi x) tilts xi by -t b'(x) = 2 pi t sin(2 pi x)
        a, b, t = cosine_xi(), cosine_x(), 0.1
        flow = samples(pullback_split_flow(a, b, t, resolution=64), 64)
        grid = np.arange(64) / 64
        x, xi = grid[:, None], grid[None, :]
        expected = np.cos(2 * np.pi * (xi + t * 2 * np.pi * np.sin(2 * np.pi * x)))
        assert np.abs(flow - expected).max() < 1e-12

    def test_against_symplectic_euler_oracle(self):
        # integrate xdot = d_xi b, xidot = -d_x b with step 1e-4
        a, b, t = cosine_xi(), cosine_x(), 0.1
        steps = int(round(t / 1e-4))
        grid = np.arange(16) / 16
        flow = samples(pullback_split_flow(a, b, t, resolution=16), 16)
        # all 16 x 16 start points integrated at once, one array per variable
        x, xi = np.meshgrid(grid, grid, indexing="ij")
        b_dx, b_dxi = b.dx(), b.dxi()
        for _ in range(steps):
            x = x + 1e-4 * np.real(b_dxi.evaluate(x, xi))
            xi = xi - 1e-4 * np.real(b_dx.evaluate(x, xi))
        assert flow == pytest.approx(a.evaluate(x % 1.0, xi % 1.0), abs=1e-6)

    def test_momentum_generator_direction(self):
        # generator cos(2 pi xi) moves x by t b'(xi) = -2 pi t sin(2 pi xi)
        a, b, t = cosine_x(), cosine_xi(), 0.25
        flow = samples(pullback_split_flow(a, b, t, resolution=32), 32)
        grid = np.arange(32) / 32
        x, xi = grid[:, None], grid[None, :]
        expected = np.cos(2 * np.pi * (x - t * 2 * np.pi * np.sin(2 * np.pi * xi)))
        assert np.abs(flow - expected).max() < 1e-12

    def test_sup_norm_preserved(self):
        a = product(cosine_x(), cosine_xi())
        flow = samples(pullback_split_flow(a, cosine_xi(), 0.4, resolution=256), 256)
        assert np.abs(flow).max() == pytest.approx(
            np.abs(samples(a, 256)).max(), abs=1e-2)

    def test_mixed_generator_rejected(self):
        with pytest.raises(NotSplit):
            pullback_split_flow(cosine_x(), cosine_x() + cosine_xi(), 0.1, 64)
