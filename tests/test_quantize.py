import numpy as np
import pytest
from oracles import dense_quantize, dft_matrix, expm_hermitian, from_samples, pullback_samples

from trotterlab.errors import NotSplit
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


class TestQuantize:
    def test_constant_is_identity(self):
        ctx = QuantizationContext(4)
        assert np.abs(quantize(constant(1.0), ctx) - np.eye(4)).max() < 1e-14

    def test_position_cosine_diagonal(self):
        # cos(2 pi x) at N=4 quantizes to diag(1, 0, -1, 0)
        mat = quantize(cosine_x(), QuantizationContext(4))
        assert np.abs(mat - np.diag([1.0, 0.0, -1.0, 0.0])).max() < 1e-12

    def test_momentum_cosine_circulant(self):
        # oracle: assemble F^-1 diag(cos(2 pi k / 4)) F directly
        n = 4
        mat = quantize(cosine_xi(), QuantizationContext(n))
        f = dft_matrix(n)
        oracle = np.linalg.inv(f) @ np.diag(np.cos(2 * np.pi * np.arange(n) / n)) @ f
        assert np.abs(mat - oracle).max() <= 1e-10 * n
        assert np.abs(mat[:, 0] - np.array([0.0, 0.5, 0.0, 0.5])).max() < 1e-12

    def test_mixed_symbol_matches_brute_force(self):
        n = 8
        sym = product(cosine_x(), cosine_xi())
        fast = quantize(sym, QuantizationContext(n))
        assert np.abs(fast - dense_quantize(sym, n)).max() < 1e-10

    def test_wraparound_sign_matches_brute_force(self):
        # high-order symbol exercises nonzero l with odd k (the sign factor)
        n = 4
        sym = product(sine_x(3), cosine_xi(5))
        fast = quantize(sym, QuantizationContext(n))
        assert np.abs(fast - dense_quantize(sym, n)).max() < 1e-10

    def test_x_only_specialization_exact(self):
        for n in (4, 8, 16):
            sym = cosine_x() + 0.5 * cosine_x(2)
            mat = quantize(sym, QuantizationContext(n))
            nodes = np.arange(n) / n
            expected = np.diag(sym.evaluate(nodes, 0.0))
            assert np.abs(mat - expected).max() <= 1e-12

    def test_xi_only_specialization(self):
        for n in (8, 16):
            sym = cosine_xi(2)
            mat = quantize(sym, QuantizationContext(n))
            f = dft_matrix(n)
            expected = np.linalg.inv(f) @ np.diag(sym.evaluate(0.0, np.arange(n) / n)) @ f
            assert np.abs(mat - expected).max() <= 1e-10 * n

    def test_linearity(self):
        n = 8
        ctx = QuantizationContext(n)
        a, b = cosine_x(), product(cosine_x(), cosine_xi())
        lhs = quantize(0.7 * a + 1.3 * b, ctx)
        rhs = 0.7 * quantize(a, ctx) + 1.3 * quantize(b, ctx)
        assert np.abs(lhs - rhs).max() <= 1e-12 * n

    def test_real_symbol_hermitian(self):
        n = 16
        sym = product(cosine_x(), cosine_xi()) + 0.4 * sine_x(2)
        mat = quantize(sym, QuantizationContext(n))
        assert spectral_norm(mat - mat.conj().T) <= 1e-12 * n

    def test_random_symbols_match_brute_force_any_n(self):
        # seeded property check, including grid sizes that are not powers
        # of two (the quantization sum never touches an FFT)
        rng = np.random.default_rng(77)
        from trotterlab.symbols import TorusSymbol
        for n in (3, 5, 6, 7, 9):
            coeffs = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            coeffs = (coeffs + np.conj(coeffs[::-1, ::-1])) / 2   # real symbol
            sym = TorusSymbol(coeffs)
            fast = quantize(sym, QuantizationContext(n))
            assert np.abs(fast - dense_quantize(sym, n)).max() < 1e-10
            assert np.abs(fast - fast.conj().T).max() < 1e-12

    def test_planck_constant_relation(self):
        ctx = QuantizationContext(64)
        assert ctx.h * 2 * np.pi * 64 == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("n", [16.0, True, "16", None])
    def test_context_rejects_non_integer_n(self, n):
        with pytest.raises(TypeError, match="integer N"):
            QuantizationContext(n)

    @pytest.mark.parametrize("n", [5, 16, 33])
    def test_diagonal_product_scales_rows(self, n):
        # op(a) of an x-only a is diagonal: op(a) op(b) by row scaling is
        # bit-identical to the matrix product
        ctx = QuantizationContext(n)
        a, b = cosine_x(2) + 0.3 * cosine_x(), product(cosine_x(), cosine_xi()) + cosine_xi(3)
        assert np.array_equal(ctx.op_product(a, b), ctx.op(a) @ ctx.op(b))

    def test_nearly_diagonal_product_is_a_matrix_product(self):
        # a xi coefficient far below any tolerance still leaves op(a) off the
        # diagonal, so the product is formed in full
        ctx = QuantizationContext(16)
        a, b = cosine_x() + 1e-14 * cosine_xi(), cosine_xi(3)
        assert np.count_nonzero(ctx.op(a) - np.diag(np.diag(ctx.op(a))))
        assert np.array_equal(ctx.op_product(a, b), ctx.op(a) @ ctx.op(b))

    def test_context_accepts_numpy_integer_n(self):
        ctx = QuantizationContext(np.int64(16))
        assert ctx.h == QuantizationContext(16).h
        assert np.array_equal(ctx.op(cosine_xi()), quantize(cosine_xi(), QuantizationContext(16)))


class TestQuantizeSampled:
    """Samples quantize through the from_samples oracle at the default order M/4;
    a flowed symbol quantizes directly."""

    @staticmethod
    def quantize_samples(a, m, ctx):
        grid = np.arange(m) / m
        return quantize(from_samples(a.evaluate(grid[:, None], grid[None, :])), ctx)

    def test_sampled_constant_identity(self):
        ctx = QuantizationContext(8)
        assert np.abs(self.quantize_samples(constant(1.0), 64, ctx) - np.eye(8)).max() < 1e-12

    def test_sampled_position_cosine(self):
        ctx = QuantizationContext(8)
        expected = np.diag(np.cos(2 * np.pi * np.arange(8) / 8))
        assert np.abs(self.quantize_samples(cosine_x(), 64, ctx) - expected).max() < 1e-10

    def test_sampled_matches_analytic_mixed(self):
        ctx = QuantizationContext(8)
        sym = product(cosine_x(), cosine_xi())
        assert np.abs(self.quantize_samples(sym, 64, ctx) - quantize(sym, ctx)).max() < 1e-10

    def test_identity_flow_pullback_matches_analytic(self):
        ctx = QuantizationContext(8)
        sym = product(cosine_x(), cosine_xi())
        flowed = pullback_split_flow(sym, constant(0.0), 1.0, 64)
        assert np.abs(quantize(flowed, ctx) - quantize(sym, ctx)).max() < 1e-10


class TestCalculusRemainders:
    def test_composition_position_pair_exact(self):
        ctx = QuantizationContext(16)
        assert composition_remainder(cosine_x(), sine_x(2), ctx) < 1e-10

    def test_composition_momentum_pair_exact(self):
        ctx = QuantizationContext(16)
        assert composition_remainder(cosine_xi(), cosine_xi(2), ctx) < 1e-9

    def test_composition_order(self):
        vals = {n: composition_remainder(cosine_x(), cosine_xi(), QuantizationContext(n))
                for n in (16, 32, 64, 128)}
        slope = np.polyfit(np.log([1 / n for n in vals]), np.log(list(vals.values())), 1)[0]
        assert slope >= 1.8

    def test_commutator_same_symbol_zero(self):
        ctx = QuantizationContext(16)
        a = product(cosine_x(), cosine_xi())
        assert commutator_remainder(a, a, ctx) < 1e-10

    def test_commutator_position_pair_zero(self):
        ctx = QuantizationContext(16)
        assert commutator_remainder(cosine_x(), sine_x(3), ctx) < 1e-10

    def test_commutator_order(self):
        vals = {n: commutator_remainder(cosine_x(), cosine_xi(), QuantizationContext(n))
                for n in (16, 32, 64, 128, 256)}
        slope = np.polyfit(np.log([1 / n for n in vals]), np.log(list(vals.values())), 1)[0]
        assert slope >= 2.7

    def test_cv_gap_constant_symbol(self):
        assert cv_gap(constant(2.5), QuantizationContext(8)) == pytest.approx(0.0, abs=1e-9)

    def test_cv_gap_position_symbol_nonpositive(self):
        assert cv_gap(cosine_x(), QuantizationContext(8)) <= 1e-12

    def test_cv_gap_matches_svd_norm(self):
        sym = cosine_x() + cosine_xi() + 0.3 * product(sine_x(2), cosine_xi())
        for n in (16, 33, 64):
            ctx = QuantizationContext(n)
            by_svd = spectral_norm(quantize(sym, ctx)) - sym.sup_abs()
            assert cv_gap(sym, ctx) == pytest.approx(by_svd, abs=1e-12)

    def test_cv_gap_ratio_bounded(self):
        # norm <= sup + C h with one C across the sweep; measured ratios are
        # negative (about -19), so C = 25 has ample margin
        for n in (8, 16, 32, 64, 128, 256):
            ctx = QuantizationContext(n)
            assert cv_gap(cosine_x() + cosine_xi(), ctx) / ctx.h <= 25.0

    def test_egorov_zero_time(self):
        ctx = QuantizationContext(16)
        assert egorov_remainder(product(cosine_x(), cosine_xi()), cosine_x(), 0.0, ctx) < 1e-9

    def test_egorov_position_pair_trivial(self):
        ctx = QuantizationContext(16)
        assert egorov_remainder(cosine_x(), sine_x(2), 0.7, ctx) < 1e-9

    def test_egorov_order(self):
        vals = {n: egorov_remainder(cosine_x(), cosine_xi(), 0.5, QuantizationContext(n))
                for n in (16, 32, 64, 128)}
        slope = np.polyfit(np.log([1 / n for n in vals]), np.log(list(vals.values())), 1)[0]
        assert slope >= 1.8

    def test_egorov_order_position_generator(self):
        # flow generated by an x-only symbol (tilts the momentum variable)
        vals = {n: egorov_remainder(cosine_xi(), cosine_x(), 0.5, QuantizationContext(n))
                for n in (16, 32, 64)}
        slope = np.polyfit(np.log([1 / n for n in vals]), np.log(list(vals.values())), 1)[0]
        assert slope >= 1.8

    @pytest.mark.parametrize("n", [96, 100])
    def test_egorov_at_non_power_of_two_n(self, n):
        # the flowed grid has 4 N = 384 and 400 samples per axis
        value = egorov_remainder(cosine_x(), cosine_xi(), 0.5, QuantizationContext(n))
        assert np.isfinite(value) and value < 1e-2

    def test_egorov_rejects_mixed_generator(self):
        ctx = QuantizationContext(16)
        with pytest.raises(NotSplit):
            egorov_remainder(cosine_x(), cosine_x() + cosine_xi(), 0.5, ctx)

    def test_norm_bounded_uniformly_in_n(self):
        sym = cosine_x() + cosine_xi()
        sup = sym.sup_abs()
        for n in (8, 16, 32, 64, 128, 256):
            ctx = QuantizationContext(n)
            assert spectral_norm(quantize(sym, ctx)) <= sup + 25.0 * ctx.h


class TestRemaindersAgainstDenseOracles:
    """The fast remainders against the dense forms they replace.

    The Egorov oracle samples the flowed symbol on the M x M grid, truncates
    it to order M/4, forms e^{itB/h} from a complex eigendecomposition and
    takes the norm by SVD. The commutator and composition oracles quantize
    every part densely in complex arithmetic and take a complex SVD, also
    for pairs even in xi, whose defects the library forms in float64. All
    must agree within the round-off floor 1e-11 N. At t = 0.3 the flowed
    symbol's coefficients beyond order M/4 >= 64 are below 1e-15, so the
    oracle's truncation does not show.
    """

    a = product(cosine_x(), cosine_xi()) + 0.5 * sine_x() + 0.3 * cosine_xi()

    @pytest.mark.parametrize("generator", [cosine_xi() + 0.2 * sine_xi(2),
                                           cosine_x() + 0.2 * sine_x(2)],
                             ids=["xi_only", "x_only"])
    @pytest.mark.parametrize("n", [7, 16, 33, 96])
    def test_egorov_matches_dense_oracle(self, n, generator):
        t, ctx = 0.3, QuantizationContext(n)
        flowed = from_samples(pullback_samples(self.a, generator, t, max(256, 4 * n)))
        u = expm_hermitian(quantize(generator, ctx).astype(np.complex128), t / ctx.h)
        oracle = spectral_norm(u @ quantize(self.a, ctx) @ u.conj().T - quantize(flowed, ctx))
        assert abs(egorov_remainder(self.a, generator, t, ctx) - oracle) <= 1e-11 * n

    @pytest.mark.parametrize("b", [cosine_xi() + 0.3 * product(sine_x(), cosine_xi()),
                                   cosine_xi() + 0.2 * sine_xi(2)],
                             ids=["xi_even", "mixed"])
    @pytest.mark.parametrize("n", [7, 16, 33, 96])
    def test_composition_matches_dense_oracle(self, n, b):
        # xi_even: every part is real and the defect is normed in float64
        ctx = QuantizationContext(n)
        qa, qb, leading, bracket = (dense_quantize(sym, n) for sym in (
            self.a, b, product(self.a, b), poisson_bracket(self.a, b)))
        oracle = spectral_norm(qa @ qb - leading - (ctx.h / 2j) * bracket)
        assert abs(composition_remainder(self.a, b, ctx) - oracle) <= 1e-11 * n

    @pytest.mark.parametrize("n", [7, 16, 33, 96])
    def test_commutator_matches_svd_form(self, n):
        ctx = QuantizationContext(n)
        # the first b gives a complex defect, the second (even in xi) a float64 one
        for b in (cosine_xi() + 0.2 * sine_xi(2) + 0.3 * product(sine_x(), cosine_xi()),
                  cosine_xi() + 0.3 * product(sine_x(), cosine_xi())):
            qa, qb, bracket = (dense_quantize(sym, n) for sym in (
                self.a, b, poisson_bracket(self.a, b)))
            oracle = spectral_norm(qa @ qb - qb @ qa - (ctx.h / 1j) * bracket)
            assert abs(commutator_remainder(self.a, b, ctx) - oracle) <= 1e-11 * n

    def test_complex_symbols_rejected(self):
        # the Hermitian norms hold only for real symbols
        ctx, wave = QuantizationContext(8), harmonic(1, 0)
        with pytest.raises(ValueError, match="real-valued"):
            commutator_remainder(wave, cosine_xi(), ctx)
        with pytest.raises(ValueError, match="real-valued"):
            egorov_remainder(wave, cosine_xi(), 0.5, ctx)
