"""Property tests of the propagator-power engine on any grid size.

Grid sizes N run over 3..40, odd and non-power-of-two included, with the
canonical relation N = 1/h on [-pi, pi]. Examples are derandomized so that
every run draws the same cases. The real-arithmetic and structured fast
paths are checked against complex dense oracles within the round-off floor
1e-11 N.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trotterlab.evolve import (
    EvolutionPlan,
    SplittingScheme,
    _apply_factors,
    _step_factors,
    exact_unitary,
    observable_error,
    relative_propagator,
    step_power,
    unitary_error,
)
from trotterlab.fourier import DiagonalKind, FactoredOperator, materialize
from trotterlab.hamiltonian import (
    GridSpec,
    build_pair,
    cosine_observable,
    momentum_fd_observable,
)
from trotterlab.numkit import (
    UNITARY_EIG_MIN,
    expm_hermitian,
    hermitian_eig,
    hermitian_norm,
    spectral_norm,
    unitary_distance,
)

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True)

sizes = st.integers(3, 40)
schemes = st.sampled_from(list(SplittingScheme))
step_sizes = st.floats(0.01, 0.5)


def grid_pair(n: int):
    grid = GridSpec(-np.pi, np.pi, n, 1.0 / n)
    return grid, build_pair(grid)


def stepped(pair, plan) -> np.ndarray:
    """Oracle: the n split steps applied one at a time through the factored path."""
    factors = _step_factors(pair, plan.scheme, plan.s, plan.h)
    walk = np.eye(pair.grid.N, dtype=np.complex128)
    for _ in range(plan.n):
        walk = _apply_factors(factors, walk)
    return walk


@PROPERTY
@given(n=sizes, scheme=schemes, s=step_sizes, count=st.integers(0, 64))
def test_powering_equals_stepping(n, scheme, s, count):
    grid, pair = grid_pair(n)
    plan = EvolutionPlan(scheme, s, count, grid.h)
    assert spectral_norm(step_power(pair, plan) - stepped(pair, plan)) <= 1e-11 * n


@PROPERTY
@given(n=sizes, times=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4))
def test_cached_eig_propagator_matches_expm(n, times):
    grid, pair = grid_pair(n)
    eig = hermitian_eig(pair.total)
    for t in times:
        cached = exact_unitary(eig, t, grid.h)
        assert spectral_norm(cached - expm_hermitian(pair.total, -t / grid.h)) <= 1e-11 * n
        assert spectral_norm(cached.conj().T @ cached - np.eye(n)) <= 1e-11 * n


@PROPERTY
@given(n=sizes, seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-9, 1e3))
def test_hermitian_norm_equals_svd_norm(n, seed, scale):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = scale * (m + m.conj().T)
    assert hermitian_norm(m) == pytest.approx(spectral_norm(m), rel=1e-12)


@PROPERTY
@given(n=sizes, scheme=schemes, s=step_sizes, count=st.integers(0, 16),
       build=st.sampled_from([cosine_observable, momentum_fd_observable]))
def test_relative_form_equals_two_sided_difference(n, scheme, s, count, build):
    # ||V^dag O V - O|| and ||V - 1|| with V = W^n U^dag against the direct forms
    grid, pair = grid_pair(n)
    obs = build(grid)
    dense = materialize(obs)
    plan = EvolutionPlan(scheme, s, count, grid.h)
    w, u = step_power(pair, plan), exact_unitary(pair.total, plan.t, plan.h)
    direct = spectral_norm(w.conj().T @ dense @ w - u.conj().T @ dense @ u)
    v = relative_propagator(pair, plan, exact_u=u)
    assert observable_error(obs, pair, plan, v) == pytest.approx(direct, abs=1e-11 * n)
    assert unitary_error(pair, plan, v) == pytest.approx(spectral_norm(w - u), abs=1e-11 * n)


@PROPERTY
@given(n=sizes, times=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4))
def test_real_engine_matches_complex_expm(n, times):
    # H is real symmetric, so its eigenvectors stay float64; a fall back to
    # complex arithmetic shows as a complex128 eigenvector matrix
    grid, pair = grid_pair(n)
    assert pair.total.dtype == np.float64
    eig = hermitian_eig(pair.total)
    assert eig.eigenvectors.dtype == np.float64
    for t in times:
        oracle = expm_hermitian(pair.total.astype(np.complex128), -t / grid.h)
        assert spectral_norm(exact_unitary(eig, t, grid.h) - oracle) <= 1e-11 * n


@PROPERTY
@given(n=sizes, seed=st.integers(0, 2**32 - 1),
       dist=st.one_of(st.floats(1e-9, 2.0),
                      st.sampled_from([0.5 * UNITARY_EIG_MIN, 0.99 * UNITARY_EIG_MIN,
                                       1.01 * UNITARY_EIG_MIN, 2.0 * UNITARY_EIG_MIN])))
def test_unitary_distance_equals_svd_norm(n, seed, dist):
    # V = exp(i theta K) with ||V - 1|| = 2 sin(theta ||K|| / 2) = dist, on
    # both sides of the switch between eigenvalues and the SVD
    rng = np.random.default_rng(seed)
    k = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    k = k + k.conj().T
    theta = 2.0 * np.arcsin(dist / 2.0) / np.abs(np.linalg.eigvalsh(k)).max()
    v = expm_hermitian(k, theta)
    oracle = spectral_norm(v - np.eye(n))
    assert oracle == pytest.approx(dist, rel=1e-6, abs=1e-11 * n)
    assert unitary_distance(v) == pytest.approx(oracle, abs=1e-11 * n)


@PROPERTY
@given(n=sizes, scheme=schemes, s=step_sizes, count=st.integers(0, 16),
       kind=st.sampled_from(list(DiagonalKind)), seed=st.integers(0, 2**32 - 1))
def test_factored_observable_error_equals_dense_form(n, scheme, s, count, kind, seed):
    # ||V^dag O V - O|| for a random real diagonal in either basis, against
    # the dense product with the materialized O
    grid, pair = grid_pair(n)
    obs = FactoredOperator(kind, np.random.default_rng(seed).standard_normal(n))
    dense = materialize(obs)
    plan = EvolutionPlan(scheme, s, count, grid.h)
    v = relative_propagator(pair, plan)
    direct = spectral_norm(v.conj().T @ dense @ v - dense)
    assert observable_error(obs, pair, plan, v) == pytest.approx(direct, abs=1e-11 * n)
