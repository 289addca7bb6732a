import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import expm_hermitian

from trotterlab.errors import NonFinite, NonHermitian
from trotterlab.numkit import (
    EigenSystem,
    hermitian_eig,
    polar_polish,
    polished_svd,
    spectral_norm,
)


def reconstruct(eig):
    """Oracle: V diag(w) V^dag of an EigenSystem."""
    v = eig.eigenvectors
    return (v * eig.eigenvalues) @ v.conj().T


def random_hermitian(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2


def random_symmetric(rng, n):
    m = rng.standard_normal((n, n))
    return (m + m.T) / 2


class TestHermitianEig:
    def test_identity(self):
        eig = hermitian_eig(np.eye(2))
        assert np.allclose(eig.eigenvalues, [1.0, 1.0])

    def test_pauli_x_spectrum(self):
        eig = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(eig.eigenvalues, [-1.0, 1.0])

    def test_reconstruction_residual(self):
        # oracle: rebuild V diag(w) V^dag by direct multiplication
        rng = np.random.default_rng(7)
        m = random_symmetric(rng, 8)
        eig = hermitian_eig(m)
        rebuilt = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.conj().T
        assert np.abs(rebuilt - m).max() <= 1e-10 * 8 * spectral_norm(m)

    def test_eigenvalues_ascending(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            w = hermitian_eig(random_symmetric(rng, 6)).eigenvalues
            assert np.all(np.diff(w) >= 0)

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(11)
        eig = hermitian_eig(random_symmetric(rng, 8))
        v = eig.eigenvectors
        assert spectral_norm(v.conj().T @ v - np.eye(8)) <= 1e-10 * 8

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitian):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_complex_input(self):
        # the eigendecomposition is real-only: a complex Hermitian matrix is
        # refused, naming its dtype, rather than decomposed
        rng = np.random.default_rng(6)
        for m in (random_hermitian(rng, 4), np.eye(3, dtype=complex)):
            with pytest.raises(TypeError, match="complex128"):
                hermitian_eig(m)

    def test_rejects_nan(self):
        with pytest.raises(NonFinite):
            hermitian_eig(np.array([[np.nan, 0], [0, 1]]))

    def test_reconstruct_helper(self):
        rng = np.random.default_rng(8)
        m = random_symmetric(rng, 5)
        eig = hermitian_eig(m)
        assert isinstance(eig, EigenSystem)
        assert np.abs(reconstruct(eig) - m).max() < 1e-12


class TestPolishedSvd:
    def test_reconstruction_and_orthogonal_factors(self):
        # B = X diag(sigma) Y^T, sigma descending, X and Y orthogonal at round-off
        rng = np.random.default_rng(12)
        for n in (1, 2, 7, 32):
            b = rng.standard_normal((n, n))
            x, sigma, y = polished_svd(b)
            assert np.abs((x * sigma) @ y.T - b).max() <= 1e-14 * n * spectral_norm(b)
            assert np.all(np.diff(sigma) <= 0) and np.all(sigma >= 0)
            for q in (x, y):
                assert np.abs(q.T @ q - np.eye(n)).max() <= 1e-15 * n

    def test_polish_squares_the_departure(self):
        # X^T X = 1 + E falls to 1 - (3/4) E^2 + E^3/4, and an entry of E^2 is
        # at most n max|E|^2: a departure of about 1e-6 falls below n 1e-12
        n = 16
        rng = np.random.default_rng(13)
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        x = q @ (np.eye(n) + 5e-7 * random_symmetric(rng, n))
        before = np.abs(x.T @ x - np.eye(n)).max()
        after = np.abs(polar_polish(x).T @ polar_polish(x) - np.eye(n)).max()
        assert 1e-7 < before < 1e-5 and after <= n * before**2

    def test_rejects_complex_and_nan(self):
        with pytest.raises(TypeError, match="complex128"):
            polished_svd(np.eye(3, dtype=complex))
        with pytest.raises(NonFinite):
            polished_svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestExpmHermitian:
    def test_zero_angle_is_identity(self):
        rng = np.random.default_rng(5)
        m = random_hermitian(rng, 4)
        assert np.abs(expm_hermitian(m, 0.0) - np.eye(4)).max() < 1e-14

    def test_diagonal_phases(self):
        u = expm_hermitian(np.diag([np.pi, 0.0]).astype(complex), 1.0)
        assert np.allclose(u, np.diag([-1.0, 1.0]), atol=1e-14)

    def test_pauli_x_quarter_turn(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        assert np.allclose(expm_hermitian(x, np.pi / 2), 1j * x, atol=1e-14)

    def test_unitary(self):
        rng = np.random.default_rng(9)
        m = random_hermitian(rng, 16)
        u = expm_hermitian(m, 0.37)
        assert spectral_norm(u.conj().T @ u - np.eye(16)) <= 1e-9 * 16

    def test_angle_additivity(self):
        rng = np.random.default_rng(13)
        m = random_hermitian(rng, 8)
        lhs = expm_hermitian(m, 0.3) @ expm_hermitian(m, 0.45)
        assert spectral_norm(lhs - expm_hermitian(m, 0.75)) <= 1e-8 * 8


class TestSpectralNorm:
    def test_diagonal(self):
        assert spectral_norm(np.diag([1.0, 0.0, -1.0, 0.0])) == pytest.approx(1.0)

    def test_nilpotent(self):
        assert spectral_norm(np.array([[0, 2], [0, 0]], dtype=complex)) == pytest.approx(2.0)

    def test_matches_gram_eigenvalue_oracle(self):
        # oracle: sqrt of the largest eigenvalue of M^dag M
        rng = np.random.default_rng(21)
        for _ in range(5):
            m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
            gram_top = np.linalg.eigvalsh(m.conj().T @ m)[-1]
            assert spectral_norm(m) == pytest.approx(np.sqrt(gram_top), rel=1e-9)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(1, 40), rank=st.integers(0, 40), complex_=st.booleans(),
           scale=st.floats(1e-10, 1e3), seed=st.integers(0, 2**32 - 1))
    @example(n=12, rank=3, complex_=True, scale=1e-200, seed=4)   # squares underflow
    @example(n=12, rank=12, complex_=False, scale=1e200, seed=5)  # squares overflow
    def test_gram_form_matches_svd(self, n, rank, complex_, scale, seed):
        # random real or complex M = scale * X Y of rank min(rank, n), against
        # the largest singular value from LAPACK's SVD
        rng = np.random.default_rng(seed)
        rank = min(rank, n)
        shape_x, shape_y = (n, rank), (rank, n)
        x, y = rng.standard_normal(shape_x), rng.standard_normal(shape_y)
        if complex_:
            x = x + 1j * rng.standard_normal(shape_x)
            y = y + 1j * rng.standard_normal(shape_y)
        m = x @ y
        m *= scale / max(np.abs(m).max(), 1e-300)
        oracle = np.linalg.svd(m, compute_uv=False)[0]
        assert spectral_norm(m) == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("peak", [1e-310, 5e-324, 1.7e308])
    def test_extreme_peaks(self, peak):
        # a subnormal largest entry needs a scale factor beyond the float range
        m = np.array([[peak, 0.0], [0.0, peak / 4]])
        assert spectral_norm(m) == peak
        assert spectral_norm(1j * m) == peak

    @pytest.mark.parametrize("shape", [(7, 3), (3, 7), (1, 5)])
    def test_rectangular_matches_svd(self, shape):
        # the Gram matrix of the shorter side: an N/2 x N/4 block norms as N/4
        rng = np.random.default_rng(sum(shape))
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert spectral_norm(m) == pytest.approx(np.linalg.svd(m, compute_uv=False)[0], rel=1e-12)
        sizes = []
        eigvalsh = np.linalg.eigvalsh

        def counted(matrix):
            sizes.append(matrix.shape[0])
            return eigvalsh(matrix)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.linalg, "eigvalsh", counted)
            spectral_norm(m)
        assert sizes == [min(shape)]

    def test_empty_and_zero(self):
        assert spectral_norm(np.zeros((0, 0))) == 0.0
        assert spectral_norm(np.zeros((3, 3), dtype=complex)) == 0.0

    def test_submultiplicative_and_triangle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            assert spectral_norm(a @ b) <= spectral_norm(a) * spectral_norm(b) + 1e-9
            assert spectral_norm(a + b) <= spectral_norm(a) + spectral_norm(b) + 1e-9

    def test_unitary_conjugation_preserves_spectrum(self):
        rng = np.random.default_rng(17)
        m = random_symmetric(rng, 8)
        u = np.linalg.qr(rng.standard_normal((8, 8)))[0]   # real orthogonal
        w1 = hermitian_eig(m).eigenvalues
        w2 = hermitian_eig(u @ m @ u.T).eigenvalues
        assert np.abs(w1 - w2).max() <= 1e-8

