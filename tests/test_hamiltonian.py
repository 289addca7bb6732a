import numpy as np
import pytest
from oracles import materialize

from trotterlab.cli import THRESHOLDS
from trotterlab.errors import NonRealPotential, OddN
from trotterlab.hamiltonian import (
    GridSpec,
    build_fd_kinetic,
    build_pair,
    build_potential,
    cosine_observable,
    momentum_fd_observable,
    momentum_observable,
)
from trotterlab.numkit import hermitian_eig, spectral_norm
from trotterlab.quantize import QuantizationContext, quantize
from trotterlab.symbols import constant, cosine_xi


class TestGridSpec:
    def test_canonical_relation(self):
        grid = GridSpec.canonical(-np.pi, np.pi, 2.0**-6)
        assert grid.N == 64
        assert grid.relation_residual == pytest.approx(0.0, abs=1e-9)

    def test_nodes(self):
        grid = GridSpec(-np.pi, np.pi, 4, 1.0)
        assert np.allclose(grid.nodes, [-np.pi, -np.pi / 2, 0.0, np.pi / 2])

    def test_canonical_rejects_empty_grid(self):
        # h so large the canonical count rounds to zero
        with pytest.raises(ValueError):
            GridSpec.canonical(-np.pi, np.pi, 4.0)

    def test_canonical_rejects_non_integral_count(self):
        # N = 1/h = 72.99... would otherwise be re-meshed to 73 silently
        with pytest.raises(ValueError, match="not an integer"):
            GridSpec.canonical(-np.pi, np.pi, 0.0137)

    def test_invalid_domain(self):
        with pytest.raises(ValueError):
            GridSpec(1.0, 0.0, 4, 1.0)


class TestFdKinetic:
    def test_unit_prefactor_row_pattern(self):
        # N=4, h=1 on [0, 1]: prefactor h^2 N^2 / (2 (b-a)^2) = 8
        grid = GridSpec(0.0, 1.0, 4, 1.0)
        op = build_fd_kinetic(grid)
        assert np.abs(op.dense[0] - 8.0 * np.array([2, -1, 0, -1])).max() < 1e-12

    def test_eigenvalues_match_dense(self):
        # oracle: hermitian_eig of the dense stencil
        grid = GridSpec(0.0, 1.0, 8, 1.0)
        op = build_fd_kinetic(grid)
        dense_eigs = hermitian_eig(op.dense).eigenvalues
        factored_eigs = np.sort(op.factored.diag.real)
        assert np.abs(dense_eigs - factored_eigs).max() < 1e-10

    def test_constant_vector_in_kernel(self):
        grid = GridSpec(-np.pi, np.pi, 16, 1.0 / 16)
        op = build_fd_kinetic(grid)
        assert np.abs(op.dense @ np.ones(16)).max() < 1e-12

    def test_factored_matches_dense(self):
        grid = GridSpec.canonical(-np.pi, np.pi, 2.0**-4)
        op = build_fd_kinetic(grid)
        assert np.abs(materialize(op.factored) - op.dense).max() < 1e-12

    def test_matches_torus_quantization(self):
        # fd kinetic = prefactor * op_N(2 - 2 cos(2 pi xi)) after rescaling
        grid = GridSpec.canonical(-np.pi, np.pi, 2.0**-5)
        op = build_fd_kinetic(grid)
        sym = 2.0 * constant(1.0) - 2.0 * cosine_xi()
        pref = grid.h**2 * grid.N**2 / (2.0 * grid.length**2)
        torus = pref * quantize(sym, QuantizationContext(grid.N))
        assert np.abs(op.dense - torus).max() <= 1e-9

    def test_norm_bounded_under_canonical_meshing(self):
        for h in (2.0**-3, 2.0**-6, 2.0**-8):
            grid = GridSpec.canonical(-np.pi, np.pi, h)
            assert spectral_norm(build_fd_kinetic(grid).dense) <= 1 / (2 * np.pi**2) + 1e-12


class TestPotential:
    def test_zero_potential(self):
        grid = GridSpec(-np.pi, np.pi, 8, 0.125)
        op = build_potential(lambda x: np.zeros_like(x), grid)
        assert np.abs(op.dense).max() == 0.0

    def test_cosine_nodes(self):
        grid = GridSpec(-np.pi, np.pi, 4, 0.25)
        op = build_potential(np.cos, grid)
        assert np.allclose(np.diag(op.dense).real, [-1.0, 0.0, 1.0, 0.0], atol=1e-15)

    def test_norm_is_node_max(self):
        grid = GridSpec.canonical(-np.pi, np.pi, 2.0**-5)
        op = build_potential(np.cos, grid)
        assert spectral_norm(op.dense) == pytest.approx(np.abs(np.cos(grid.nodes)).max())

    def test_complex_potential_rejected(self):
        grid = GridSpec(-np.pi, np.pi, 8, 0.125)
        with pytest.raises(NonRealPotential):
            build_potential(lambda x: np.exp(1j * x), grid)


class TestObservables:
    def test_momentum_annihilates_constants(self):
        grid = GridSpec.canonical(-np.pi, np.pi, 2.0**-4)
        p = materialize(momentum_observable(grid))
        assert np.abs(p @ np.ones(grid.N)).max() < 1e-12

    def test_momentum_plane_wave_eigenvalue(self):
        grid = GridSpec.canonical(-np.pi, np.pi, 2.0**-4)
        p = materialize(momentum_observable(grid))
        wave = np.exp(1j * 2 * np.pi * (grid.nodes - grid.a_dom) / grid.length)
        expected = grid.h * 2 * np.pi / grid.length
        assert np.abs(p @ wave - expected * wave).max() < 1e-12

    def test_momentum_odd_n_rejected(self):
        with pytest.raises(OddN):
            momentum_observable(GridSpec(-np.pi, np.pi, 7, 0.1))

    def test_momentum_norm(self):
        grid = GridSpec.canonical(-np.pi, np.pi, 2.0**-6)
        p = materialize(momentum_observable(grid))
        expected = grid.h * (2 * np.pi / grid.length) * grid.N / 2
        assert spectral_norm(p) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.5)   # O(1) under canonical meshing

    def test_momentum_hermitian(self):
        grid = GridSpec.canonical(-np.pi, np.pi, 2.0**-4)
        for p in map(materialize, (momentum_observable(grid), momentum_fd_observable(grid))):
            assert spectral_norm(p - p.conj().T) <= 1e-12 * grid.N

    def test_fd_momentum_agrees_at_low_frequency(self):
        grid = GridSpec.canonical(-np.pi, np.pi, 2.0**-5)
        p_sp = materialize(momentum_observable(grid))
        p_fd = materialize(momentum_fd_observable(grid))
        wave = np.exp(1j * 2 * np.pi * (grid.nodes - grid.a_dom) / grid.length)
        lam_sp = (p_sp @ wave / wave)[0]
        lam_fd = (p_fd @ wave / wave)[0]
        assert lam_fd == pytest.approx(lam_sp, rel=1e-2)

    def test_cosine_observable_values(self):
        grid = GridSpec(-np.pi, np.pi, 4, 0.25)
        obs = materialize(cosine_observable(grid))
        assert np.allclose(np.diag(obs).real, [-1.0, 0.0, 1.0, 0.0], atol=1e-15)
        assert spectral_norm(obs) <= 1.0 + 1e-12

    def test_cosine_matches_potential_builder(self):
        grid = GridSpec.canonical(-np.pi, np.pi, 2.0**-4)
        assert np.array_equal(materialize(cosine_observable(grid)), build_potential(np.cos, grid).dense)


class TestBuilderInvariants:
    @pytest.mark.parametrize("kinetic", ["fd"])   # the one kinetic discretization
    def test_all_builders_hermitian(self, kinetic):
        grid = GridSpec.canonical(-np.pi, np.pi, 2.0**-5)
        pair = build_pair(grid)
        n = grid.N
        assert spectral_norm(pair.kinetic.dense - pair.kinetic.dense.conj().T) <= 1e-12 * n
        assert spectral_norm(pair.potential.dense - pair.potential.dense.conj().T) <= 1e-12 * n

    def test_norm_scaling_of_scaled_operators(self):
        # A/h, B/h and nested commutators all scale like 1/h
        norms = {name: [] for name in ("A", "B", "AB", "AAB", "BAB")}
        hs = [2.0**-k for k in range(3, 9)]
        for h in hs:
            grid = GridSpec.canonical(-np.pi, np.pi, h)
            pair = build_pair(grid)
            a, b = pair.kinetic.dense / h, pair.potential.dense / h
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
