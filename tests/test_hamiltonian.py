import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import materialize

from trotterlab import experiments
from trotterlab.cli import THRESHOLDS
from trotterlab.errors import NonHermitian, NotSplit
from trotterlab.fourier import DiagonalKind, FactoredOperator
from trotterlab.fourier import materialize as dense
from trotterlab.hamiltonian import (
    GridSpec,
    build_pair,
    kinetic_symbol,
    momentum_observable,
    sample,
)
from trotterlab.numkit import hermitian_eig, spectral_norm
from trotterlab.quantize import QuantizationContext, quantize
from trotterlab.symbols import cosine_x, harmonic, sine_xi

# The symbol behind each sampled observable of experiments.OBSERVABLES.
OBSERVABLE_SYMBOLS = {
    "cos_x": lambda grid: cosine_x(),
    "cos_3x": lambda grid: cosine_x(3),
    "momentum_fd": lambda grid: grid.h * grid.N * sine_xi(amplitude=1 / (2 * np.pi)),
}

# The kinetic and every symbol entry of POTENTIALS and OBSERVABLES, by name.
SYMBOL_ENTRIES = {
    "kinetic": kinetic_symbol,
    **{f"potential/{name}": (lambda grid, s=symbol: s)
       for name, symbol in experiments.POTENTIALS.items()},
    **{f"observable/{name}": symbol for name, symbol in OBSERVABLE_SYMBOLS.items()},
}


def stencil(grid: GridSpec) -> np.ndarray:
    """Oracle: the fd stencil (hN)^2 / (8 pi^2) (2 I - T - T^-1), T the cyclic shift."""
    shift = np.roll(np.eye(grid.N), 1, axis=1)
    return (grid.h * grid.N) ** 2 / (8 * np.pi**2) * (2 * np.eye(grid.N) - shift - shift.T)


class TestGridSpec:
    def test_canonical_relation(self):
        grid = GridSpec.canonical(-np.pi, np.pi, 2.0**-6)
        assert grid.N == 64

    def test_nodes(self):
        grid = GridSpec(-np.pi, 4, 1.0)
        assert np.allclose(grid.nodes, [-np.pi, -np.pi / 2, 0.0, np.pi / 2])

    def test_canonical_rejects_empty_grid(self):
        # h so large the canonical count rounds to zero
        with pytest.raises(ValueError):
            GridSpec.canonical(-np.pi, np.pi, 4.0)

    def test_canonical_rejects_non_integral_count(self):
        # N = 1/h = 72.99... would otherwise be re-meshed to 73 silently
        with pytest.raises(ValueError, match="not an integer"):
            GridSpec.canonical(-np.pi, np.pi, 0.0137)

    @pytest.mark.parametrize("h", [0.0, -0.1, np.nan, np.inf])
    def test_invalid_h(self, h):
        # h enters with its grid; every function below reads it from there
        with pytest.raises(ValueError, match="finite h > 0"):
            GridSpec(0.0, 8, h)

    @pytest.mark.parametrize("h", [0.0, -0.1, np.nan, np.inf])
    def test_canonical_invalid_h(self, h):
        # checked before N = 1/h is formed, so h = 0 divides nothing
        with pytest.raises(ValueError, match="finite h > 0"):
            GridSpec.canonical(-np.pi, np.pi, h)

    def test_invalid_domain(self):
        # a domain that is not one 2 pi period is not shifted onto one; with a
        # NaN or infinite end, b - a - 2 pi is NaN, which no "> tolerance" test catches
        for a, b in ((0.0, 6.0), (1.0, 0.0), (np.nan, np.nan), (np.inf, np.inf), (0.0, np.nan)):
            with pytest.raises(ValueError, match="2 pi period"):
                GridSpec.canonical(a, b, 0.125)

    @pytest.mark.parametrize("n", [8.5, 8.0, True])
    def test_rejects_non_integer_n(self, n):
        # 8.5 would lay out 9 nodes, and a float 8.0 fails the frame's slicing
        with pytest.raises(TypeError, match="integer N"):
            GridSpec(0.0, n, 0.125)

    def test_accepts_numpy_integer_n(self):
        assert GridSpec(0.0, np.int64(8), 0.125).nodes.size == 8

    @pytest.mark.parametrize("a", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_offset(self, a):
        with pytest.raises(ValueError, match="finite a_dom"):
            GridSpec(a, 8, 0.125)


class TestFdKinetic:
    def test_unit_prefactor_row_pattern(self):
        # N = 4, h = 1: prefactor (hN)^2 / (8 pi^2) = 2 / pi^2
        op = build_pair(GridSpec(0.0, 4, 1.0)).kinetic
        row = dense(op)[0]
        assert np.abs(row - 2 / np.pi**2 * np.array([2, -1, 0, -1])).max() < 1e-15

    def test_eigenvalues_match_dense(self):
        # oracle: hermitian_eig of the dense stencil
        grid = GridSpec(0.0, 8, 1.0)
        op = build_pair(grid).kinetic
        dense_eigs = hermitian_eig(stencil(grid)).eigenvalues
        assert np.abs(dense_eigs - np.sort(op.diag)).max() < 1e-14

    def test_constant_vector_in_kernel(self):
        grid = GridSpec(-np.pi, 16, 1.0 / 16)
        assert np.abs(dense(build_pair(grid).kinetic) @ np.ones(16)).max() < 1e-16

    def test_factored_matches_dense(self):
        # the library's dense form is the stencil, real, and matches the DFT oracle
        for h in (2.0**-2, 2.0**-4, 1.0 / 12):
            grid = GridSpec.canonical(-np.pi, np.pi, h)
            op = build_pair(grid).kinetic
            assert dense(op).dtype == np.float64
            assert np.abs(dense(op) - stencil(grid)).max() <= 1e-16 * grid.N
            assert np.abs(materialize(op) - stencil(grid)).max() <= 1e-16 * grid.N

    def test_matches_torus_quantization(self):
        # the fd kinetic is op_N of its symbol (hN)^2 (1 - cos 2 pi xi) / (4 pi^2)
        grid = GridSpec.canonical(-np.pi, np.pi, 2.0**-5)
        torus = quantize(kinetic_symbol(grid), QuantizationContext(grid.N))
        assert np.abs(stencil(grid) - torus).max() <= 1e-16 * grid.N

    def test_norm_bounded_under_canonical_meshing(self):
        for h in (2.0**-3, 2.0**-6, 2.0**-8):
            grid = GridSpec.canonical(-np.pi, np.pi, h)
            assert spectral_norm(dense(build_pair(grid).kinetic)) <= 1 / (2 * np.pi**2) + 1e-12

    def test_accepted_h_scales_the_multiplier(self):
        # h within 1e-9 of 1/N is accepted and kept: the kinetic multiplier
        # carries (hN)^2 = (1 + 5e-10)^2, not 1
        h = (1 + 5e-10) / 64
        grid = GridSpec.canonical(-np.pi, np.pi, h)
        assert (grid.N, grid.h) == (64, h)
        snapped = build_pair(GridSpec(-np.pi, 64, 1.0 / 64)).kinetic.diag
        got = build_pair(grid).kinetic.diag
        k = np.arange(64)
        assert np.abs(got - (h * 64) ** 2 * (1 - np.cos(2 * np.pi * k / 64)) / (4 * np.pi**2)).max() \
            <= 1e-17
        assert np.abs(got - (h * 64) ** 2 * snapped).max() <= 1e-17
        assert np.abs(got - snapped).max() >= 0.5e-9 * np.abs(snapped).max()


class TestPotential:
    def test_zero_potential(self):
        grid = GridSpec(-np.pi, 8, 0.125)
        op = build_pair(grid, potential=experiments.POTENTIALS["zero"]).potential
        assert op.kind is DiagonalKind.POSITION and np.abs(dense(op)).max() == 0.0

    def test_cosine_nodes(self):
        grid = GridSpec(-np.pi, 4, 0.25)
        op = build_pair(grid).potential
        assert np.allclose(np.diag(dense(op)), [-1.0, 0.0, 1.0, 0.0], atol=1e-15)

    def test_norm_is_node_max(self):
        grid = GridSpec.canonical(-np.pi, np.pi, 2.0**-5)
        op = build_pair(grid).potential
        assert spectral_norm(dense(op)) == pytest.approx(np.abs(np.cos(grid.nodes)).max())

    def test_complex_potential_rejected(self):
        # e^{2 pi i x} is not real: sample rejects it instead of keeping its real part
        grid = GridSpec(-np.pi, 8, 0.125)
        with pytest.raises(NonHermitian, match="not real"):
            build_pair(grid, potential=harmonic(1, 0))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(a=st.floats(-np.pi, np.pi), quarter=st.integers(1, 256))
    def test_sampled_cosine_at_any_offset(self, a, quarter):
        grid = GridSpec(a, 4 * quarter, 1.0 / (4 * quarter))
        op = sample(experiments.POTENTIALS["cos"], grid)
        assert np.abs(op.diag - np.cos(grid.nodes)).max() <= 4e-15


class TestObservables:
    def test_momentum_annihilates_constants(self):
        grid = GridSpec.canonical(-np.pi, np.pi, 2.0**-4)
        p = materialize(momentum_observable(grid))
        assert np.abs(p @ np.ones(grid.N)).max() < 1e-12

    def test_momentum_plane_wave_eigenvalue(self):
        grid = GridSpec.canonical(-np.pi, np.pi, 2.0**-4)
        p = materialize(momentum_observable(grid))
        wave = np.exp(1j * (grid.nodes - grid.a_dom))
        assert np.abs(p @ wave - grid.h * wave).max() < 1e-12

    def test_momentum_norm(self):
        grid = GridSpec.canonical(-np.pi, np.pi, 2.0**-6)
        p = materialize(momentum_observable(grid))
        expected = grid.h * grid.N / 2
        assert spectral_norm(p) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.5)   # O(1) under canonical meshing

    def test_momentum_hermitian(self):
        grid = GridSpec.canonical(-np.pi, np.pi, 2.0**-4)
        observables = (momentum_observable(grid), experiments.OBSERVABLES["momentum_fd"](grid))
        for p in map(materialize, observables):
            assert spectral_norm(p - p.conj().T) <= 1e-12 * grid.N

    def test_fd_momentum_agrees_at_low_frequency(self):
        grid = GridSpec.canonical(-np.pi, np.pi, 2.0**-5)
        p_sp = materialize(momentum_observable(grid))
        p_fd = materialize(experiments.OBSERVABLES["momentum_fd"](grid))
        wave = np.exp(1j * (grid.nodes - grid.a_dom))
        lam_sp = (p_sp @ wave / wave)[0]
        lam_fd = (p_fd @ wave / wave)[0]
        assert lam_fd == pytest.approx(lam_sp, rel=1e-2)

    def test_cosine_observable_values(self):
        grid = GridSpec(-np.pi, 4, 0.25)
        obs = materialize(experiments.OBSERVABLES["cos_x"](grid))
        assert np.allclose(np.diag(obs).real, [-1.0, 0.0, 1.0, 0.0], atol=1e-15)
        assert spectral_norm(obs) <= 1.0 + 1e-12

    def test_cosine_matches_potential_builder(self):
        # cos_x and the cos potential are one symbol, sampled once each
        grid = GridSpec.canonical(-np.pi, np.pi, 2.0**-4)
        assert np.array_equal(dense(experiments.OBSERVABLES["cos_x"](grid)),
                              dense(build_pair(grid).potential))


class TestOneRepresentation:
    """Every sweep operator but momentum_spectral is a torus symbol sampled on
    the grid; at offset 0 its dense form is the quantization of that symbol."""

    @pytest.mark.parametrize("entry", sorted(SYMBOL_ENTRIES))
    def test_dense_sample_equals_quantize(self, entry):
        for n in range(4, 65, 4):
            grid = GridSpec(0.0, n, 1.0 / n)
            symbol = SYMBOL_ENTRIES[entry](grid)
            got = dense(sample(symbol, grid))
            assert np.abs(got - quantize(symbol, QuantizationContext(n))).max() <= 1e-14 * n

    @pytest.mark.parametrize("name", sorted(OBSERVABLE_SYMBOLS))
    def test_observables_are_sampled_symbols(self, name):
        grid = GridSpec(-np.pi + 0.3, 32, 1.0 / 32)
        got = experiments.OBSERVABLES[name](grid)
        expected = sample(OBSERVABLE_SYMBOLS[name](grid), grid)
        assert got.kind is expected.kind and np.array_equal(got.diag, expected.diag)

    def test_total_is_real(self):
        for potential in experiments.POTENTIALS.values():
            pair = build_pair(GridSpec(0.7, 12, 1.0 / 12), potential=potential)
            assert pair.total.dtype == np.float64
            assert np.array_equal(pair.total, dense(pair.kinetic) + np.diag(pair.potential.diag))

    def test_sample_rejects_non_real_and_mixed_symbols(self):
        grid = GridSpec(0.0, 8, 0.125)
        for symbol in (harmonic(1, 0), 1j * cosine_x(), sine_xi() + harmonic(0, 1, 1e-3j)):
            with pytest.raises(NonHermitian):
                sample(symbol, grid)
        with pytest.raises(NotSplit):
            sample(cosine_x() + sine_xi(), grid)
        with pytest.raises(NotSplit):
            build_pair(grid, potential=sine_xi())

    def test_dense_form_of_factored_operators(self):
        # diag(d), or the circulant of F^-1 d: real only when d is real and even in k
        rng = np.random.default_rng(4)
        d = rng.standard_normal(8)
        even = d + d[-np.arange(8)]
        for diag, dtype in ((d, np.complex128), (even, np.float64), (1j * even, np.complex128)):
            op = FactoredOperator(DiagonalKind.FOURIER, diag)
            assert dense(op).dtype == dtype
            assert np.abs(dense(op) - materialize(op)).max() <= 1e-15 * 8
        position = FactoredOperator(DiagonalKind.POSITION, d)
        assert np.array_equal(dense(position), np.diag(d))


class TestBuilderInvariants:
    @pytest.mark.parametrize("kinetic", ["fd"])   # the one kinetic discretization
    def test_all_builders_hermitian(self, kinetic):
        grid = GridSpec.canonical(-np.pi, np.pi, 2.0**-5)
        pair = build_pair(grid)
        n = grid.N
        for op in map(dense, (pair.kinetic, pair.potential)):
            assert spectral_norm(op - op.conj().T) <= 1e-12 * n

    def test_norm_scaling_of_scaled_operators(self):
        # A/h, B/h and nested commutators all scale like 1/h
        norms = {name: [] for name in ("A", "B", "AB", "AAB", "BAB")}
        hs = [2.0**-k for k in range(3, 9)]
        for h in hs:
            grid = GridSpec.canonical(-np.pi, np.pi, h)
            pair = build_pair(grid)
            a, b = dense(pair.kinetic) / h, dense(pair.potential) / h
            comm = a @ b - b @ a
            norms["A"].append(spectral_norm(a))
            norms["B"].append(spectral_norm(b))
            norms["AB"].append(spectral_norm(comm))
            norms["AAB"].append(spectral_norm(a @ comm - comm @ a))
            norms["BAB"].append(spectral_norm(b @ comm - comm @ b))
        lo, hi = THRESHOLDS["norm_scaling"]
        for name, vals in norms.items():
            slope = np.polyfit(np.log(hs), np.log(vals), 1)[0]
            assert lo <= slope <= hi, (name, slope)
