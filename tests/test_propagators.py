"""Property tests of the propagator-power engine on any grid size.

Grid sizes N run over 3..40, odd and non-power-of-two included, with the
canonical relation N = 1/h on [-pi, pi]. Examples are derandomized so that
every run draws the same cases.
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
from trotterlab.hamiltonian import (
    GridSpec,
    build_pair,
    cosine_observable,
    momentum_fd_observable,
)
from trotterlab.numkit import expm_hermitian, hermitian_eig, hermitian_norm, spectral_norm

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
    plan = EvolutionPlan(scheme, s, count, grid.h)
    w, u = step_power(pair, plan), exact_unitary(pair.total, plan.t, plan.h)
    direct = spectral_norm(w.conj().T @ obs @ w - u.conj().T @ obs @ u)
    v = relative_propagator(pair, plan, exact_u=u)
    assert observable_error(obs, pair, plan, v) == pytest.approx(direct, abs=1e-11 * n)
    assert unitary_error(pair, plan, v) == pytest.approx(spectral_norm(w - u), abs=1e-11 * n)
