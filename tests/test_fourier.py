import numpy as np
import pytest
from oracles import dft_matrix, materialize

from trotterlab.errors import EmptyInput
from trotterlab.fourier import (
    DiagonalKind,
    FactoredOperator,
    circulant,
    dft_cols,
    idft_cols,
)

# Powers of two and other lengths share one transform path.
LENGTHS = (3, 5, 8, 12, 16)


def naive_forward(v):
    """Independent double-loop oracle for the unnormalized forward transform."""
    n = len(v)
    out = np.zeros(n, dtype=complex)
    for k in range(n):
        for j in range(n):
            out[k] += v[j] * np.exp(-2j * np.pi * k * j / n)
    return out


def naive_inverse(v):
    n = len(v)
    out = np.zeros(n, dtype=complex)
    for j in range(n):
        for k in range(n):
            out[j] += v[k] * np.exp(2j * np.pi * k * j / n)
    return out / n


class TestTransforms:
    def test_delta_to_constant(self):
        assert np.allclose(dft_cols([1, 0, 0, 0]), [1, 1, 1, 1])

    def test_constant_to_scaled_delta(self):
        assert np.allclose(dft_cols([1, 1, 1, 1]), [4, 0, 0, 0], atol=1e-14)

    def test_matches_double_loop_oracle(self):
        # the fast path and the dense oracle matrix both agree with the loop
        rng = np.random.default_rng(31)
        for n in LENGTHS:
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert np.abs(dft_cols(v) - naive_forward(v)).max() < 1e-12 * n
            assert np.abs(dft_matrix(n) @ v - naive_forward(v)).max() < 1e-11

    def test_inverse_matches_double_loop_oracle(self):
        rng = np.random.default_rng(32)
        for n in LENGTHS:
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert np.abs(idft_cols(v) - naive_inverse(v)).max() < 1e-12 * n

    def test_round_trip(self):
        rng = np.random.default_rng(33)
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        assert np.abs(idft_cols(dft_cols(v)) - v).max() <= 1e-12 * 16

    def test_scaled_delta_to_ones(self):
        n = 8
        v = np.zeros(n)
        v[0] = n
        assert np.allclose(idft_cols(v), np.ones(n))

    def test_normalized_forward_is_isometry(self):
        rng = np.random.default_rng(34)
        for n in (4, 32, 128):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert np.linalg.norm(dft_cols(v) / np.sqrt(n)) == pytest.approx(
                np.linalg.norm(v), abs=1e-12 * n)

    def test_normalized_inverse_matrix_unitary(self):
        # Q = sqrt(N) * F^-1 is unitary
        n = 16
        q = np.sqrt(n) * idft_cols(np.eye(n))
        assert np.abs(q.conj().T @ q - np.eye(n)).max() < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            circulant([])
        with pytest.raises(EmptyInput):
            dft_matrix(0)


class TestCirculant:
    def test_unit_first_column_is_identity(self):
        assert np.abs(circulant([1, 0, 0, 0]) - np.eye(4)).max() < 1e-12

    def test_shift_generator(self):
        # first column e_1 -> cyclic down-shift matrix
        shift = circulant([0, 1, 0, 0])
        expected = np.zeros((4, 4))
        for i in range(4):
            expected[i, (i - 1) % 4] = 1.0
        assert np.abs(shift - expected).max() < 1e-12

    def test_matches_index_arithmetic_oracle(self):
        # oracle: direct assembly M[i, j] = col[(i - j) mod N]
        col = np.array([2.0, -1.0, 0.0, -1.0])
        built = circulant(col)
        expected = np.empty((4, 4))
        for i in range(4):
            for j in range(4):
                expected[i, j] = col[(i - j) % 4]
        assert np.abs(built - expected).max() < 1e-10

    def test_first_column_preserved(self):
        rng = np.random.default_rng(36)
        col = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert np.abs(circulant(col)[:, 0] - col).max() < 1e-10

    def test_convolution_theorem(self):
        # circulant(u) circulant(v) = circulant(w) with w_hat = u_hat * v_hat
        rng = np.random.default_rng(37)
        for n in LENGTHS:
            u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            w = idft_cols(dft_cols(u) * dft_cols(v))
            assert np.abs(circulant(u) @ circulant(v) - circulant(w)).max() <= 1e-9 * n


class TestFactoredOperator:
    def test_position_materialize(self):
        d = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.abs(materialize(FactoredOperator(DiagonalKind.POSITION, d)) - np.diag(d)).max() == 0

    def test_fourier_materialize_against_direct(self):
        rng = np.random.default_rng(38)
        n = 8
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        f = dft_matrix(n)
        expected = np.linalg.inv(f) @ np.diag(d) @ f
        built = materialize(FactoredOperator(DiagonalKind.FOURIER, d))
        assert np.abs(built - expected).max() <= 1e-10 * n

    def test_apply_position_identity(self):
        op = FactoredOperator(DiagonalKind.POSITION, np.ones(8))
        v = np.arange(8, dtype=complex)
        assert np.array_equal(materialize(op) @ v, v)

    def test_apply_fourier_identity(self):
        # applying a Fourier-diagonal operator: F^-1 diag(d) F v
        rng = np.random.default_rng(39)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert np.abs(idft_cols(np.ones(8) * dft_cols(v)) - v).max() < 1e-12

    def test_apply_matches_dense(self):
        rng = np.random.default_rng(40)
        for n in LENGTHS:
            d = np.exp(1j * rng.standard_normal(n))
            op = FactoredOperator(DiagonalKind.FOURIER, d)
            mat = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
            fast = idft_cols(d[:, None] * dft_cols(mat))
            assert np.abs(fast - materialize(op) @ mat).max() <= 1e-10 * n

    def test_diag_immutable(self):
        op = FactoredOperator(DiagonalKind.POSITION, np.ones(4))
        with pytest.raises(ValueError):
            op.diag[0] = 2.0
