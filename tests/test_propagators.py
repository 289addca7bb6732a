"""Property tests of the propagator-power engine.

The propagators and errors run in the time-reversal frame, so their grid
sizes N are the multiples of 4 up to 40 (64 for the step power and the block
U), non-powers of two included; the norms of ``numkit`` take any N in 3..40.
Grids keep the canonical relation N = 1/h, on [-pi, pi] or on a random
domain offset. Examples are derandomized so that every run draws the same
cases. The real frame matrices, lifted by the dense basis R, and the frame
errors are checked against complex dense oracles within the round-off floor
1e-11 N; the polished step power is checked for orthogonality at round-off. The expectation error, read from V (U psi), is checked against
a state stepped one split step at a time and against the dense Heisenberg
form. Random real diagonals commute with T only by accident, so they
exercise the complex frame form K = K_+ + i K_-.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    apply_stages,
    expm_hermitian,
    lift,
    materialize,
    project,
    split_step,
    stage_factors,
    trotter_step_unitary,
)

from trotterlab.evolve import (
    SplittingScheme,
    exact_unitary,
    lie_power,
    relative_propagator,
)
from trotterlab.fourier import DiagonalKind, FactoredOperator
from trotterlab.frame import FrameObservable, TimeReversalFrame
from trotterlab.experiments import OBSERVABLES
from trotterlab.hamiltonian import GridSpec, build_pair
from trotterlab.numkit import (
    UNITARY_EIG_MIN,
    hermitian_norm,
    polished_svd,
    spectral_norm,
    unitary_distance,
)

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True)

sizes = st.integers(3, 40)
frame_sizes = st.integers(1, 10).map(lambda quarter: 4 * quarter)
wide_frame_sizes = st.integers(1, 16).map(lambda quarter: 4 * quarter)
offsets = st.floats(-np.pi, np.pi)
schemes = st.sampled_from(list(SplittingScheme))
step_sizes = st.floats(0.01, 0.5)
step_counts = st.sampled_from([0, 1, 2, 3, 50])


def grid_pair(n: int, offset: float = 0.0):
    grid = GridSpec(-np.pi + offset, n, 1.0 / n)
    return grid, build_pair(grid)


def spectrum(frame):
    """The polished SVD of the frame's half-size block of H, as a sweep forms it."""
    return polished_svd(frame.hamiltonian_block())


def frame_setup(n: int, plan_t: float):
    """Grid, pair, frame, and U at time plan_t as the real frame matrix."""
    grid, pair = grid_pair(n)
    frame = TimeReversalFrame.of(pair)
    return grid, pair, frame, exact_unitary(spectrum(frame), plan_t, frame)


def propagator(pair, scheme, s, count, u, frame) -> np.ndarray:
    """V = W^n U^dag in the frame as a sweep forms it, from the Lie power."""
    power = lie_power(frame, s, count)
    return relative_propagator(frame, scheme, s, power, u)


def stepped(pair, scheme, s, count) -> np.ndarray:
    """Oracle: the n split steps applied one at a time through the factored path."""
    factors = stage_factors(pair, scheme, s, pair.grid.h)
    walk = np.eye(pair.grid.N, dtype=np.complex128)
    for _ in range(count):
        walk = apply_stages(factors, walk)
    return walk


def stepped_state(pair, scheme, s, count, psi) -> np.ndarray:
    """Oracle: the state vector stepped n times, one factor at a time by FFT."""
    factors = stage_factors(pair, scheme, s, pair.grid.h)
    for _ in range(count):
        for factor in factors:
            if factor.kind is DiagonalKind.POSITION:
                psi = factor.diag * psi
            else:
                psi = np.fft.ifft(factor.diag * np.fft.fft(psi))
    return psi


@PROPERTY
@given(n=frame_sizes, scheme=schemes, s=step_sizes, count=st.integers(0, 64))
def test_powering_equals_stepping(n, scheme, s, count):
    # with U = 1 the relative propagator is the step power W^n itself, whose
    # frame matrix carries the phase e^{i c n s/2h}
    grid, pair, frame, _ = frame_setup(n, 0.0)
    powered = lift(frame, propagator(pair, scheme, s, count, np.eye(n), frame), count * s)
    assert spectral_norm(powered - stepped(pair, scheme, s, count)) <= 1e-11 * n


@PROPERTY
@given(n=frame_sizes, scheme=schemes, s=st.sampled_from([0.01, 0.1, 0.37, 1.0]),
       count=st.sampled_from([0, 1, 2, 3, 50]))
def test_propagator_equals_powered_stage_product(n, scheme, s, count):
    # Strang's W^n read as the half-step conjugate P^dag W_L^n P of Lie's power,
    # against the three-stage product raised to the n-th power, times U^dag
    grid, pair, frame, u = frame_setup(n, count * s)
    oracle = (np.linalg.matrix_power(split_step(pair, scheme, s, grid.h), count)
              @ expm_hermitian(pair.total, count * s / grid.h))
    v = propagator(pair, scheme, s, count, u, frame)
    assert spectral_norm(lift(frame, v) - oracle) <= 1e-11 * n


@PROPERTY
@given(n=wide_frame_sizes, offset=offsets,
       times=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4))
def test_block_propagator_matches_expm(n, offset, times):
    # U from the SVD B = X S Y^T of the frame's block of H, against expm of the
    # dense H; c/2 +- S are the eigenvalues of H
    grid, pair = grid_pair(n, offset)
    frame = TimeReversalFrame.of(pair)
    svd = spectrum(frame)
    eigenvalues = np.concatenate((frame.energy_shift - svd.sigma, frame.energy_shift + svd.sigma))
    assert np.abs(np.sort(eigenvalues) - np.linalg.eigvalsh(pair.total)).max() <= 1e-11 * n
    for t in times:
        block = exact_unitary(svd, t, frame)
        oracle = expm_hermitian(pair.total, -t / grid.h)
        assert spectral_norm(lift(frame, block, t) - oracle) <= 1e-11 * n
        assert spectral_norm(block.T @ block - np.eye(n)) <= 1e-11 * n


@PROPERTY
@given(n=wide_frame_sizes, offset=offsets, s=st.sampled_from([0.01, 0.1, 0.37, 1.0]),
       count=step_counts)
def test_real_power_matches_projected_complex_power(n, offset, s, count):
    # the frame-native step raised in float64 (and polished for n > 1), against
    # the frame projection of the complex power of Lie's FFT-assembled step
    grid, pair = grid_pair(n, offset)
    frame = TimeReversalFrame.of(pair)
    oracle = project(frame, np.linalg.matrix_power(trotter_step_unitary(pair, s), count),
                     frame.phase(count * s))
    assert np.abs(lie_power(frame, s, count) - oracle).max() <= 1e-11 * n


# Orthogonality of the polished power, fixed from a round-off argument before
# the first run. Each entry of a float64 product of two matrices with unit rows
# and columns carries a rounding error of about sqrt(N) u (u = eps/2, errors of
# random sign). The polish X (3 - X^T X)/2 takes two such products, which
# leaves about 1.5 sqrt(N) u in each entry of G; an entry of G^T G - 1 sums N
# such errors times entries of size 1/sqrt(N), about 3 sqrt(N) u, and the test's
# own product adds sqrt(N) u: 2 sqrt(N) eps in all. The largest of N^2 such
# entries lies within about 4 standard deviations; a factor 2 of margin gives
# 16 sqrt(N) eps. The input's departure d enters only as (3/4) d^2.
POLISHED_ORTHOGONALITY = 16.0 * np.finfo(np.float64).eps


@PROPERTY
@given(n=wide_frame_sizes, offset=offsets, s=st.sampled_from([0.01, 0.1, 0.37, 1.0]),
       count=st.sampled_from([0, 1, 2, 3, 50, 2048]))
def test_polished_power_is_orthogonal(n, offset, s, count):
    # unpolished, the power at n = 2048 departs by about 3e-13 at N = 16..512
    grid, pair = grid_pair(n, offset)
    power = lie_power(TimeReversalFrame.of(pair), s, count)
    assert np.abs(power.T @ power - np.eye(n)).max() <= POLISHED_ORTHOGONALITY * np.sqrt(n)


@PROPERTY
@given(n=sizes, seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-9, 1e3))
def test_hermitian_norm_equals_svd_norm(n, seed, scale):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = scale * (m + m.conj().T)
    assert hermitian_norm(m) == pytest.approx(spectral_norm(m), rel=1e-12)


@PROPERTY
@given(n=frame_sizes, scheme=schemes, s=step_sizes, count=st.integers(0, 16),
       build=st.sampled_from([OBSERVABLES["cos_x"], OBSERVABLES["momentum_fd"]]))
def test_relative_form_equals_two_sided_difference(n, scheme, s, count, build):
    # ||V^T K V - K|| and ||V - 1|| with the frame's V = W^n U^dag against the
    # direct forms
    grid, pair, frame, u = frame_setup(n, count * s)
    obs = build(grid)
    dense = materialize(obs)
    w = np.linalg.matrix_power(split_step(pair, scheme, s, grid.h), count)
    u_dense = expm_hermitian(pair.total, -count * s / grid.h)
    direct = spectral_norm(w.conj().T @ dense @ w - u_dense.conj().T @ dense @ u_dense)
    v = propagator(pair, scheme, s, count, u, frame)
    got = FrameObservable(obs, frame).error(v)
    assert got == pytest.approx(direct, abs=1e-11 * n)
    assert unitary_distance(v) == pytest.approx(spectral_norm(w - u_dense), abs=1e-11 * n)


@PROPERTY
@given(n=frame_sizes, times=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4))
def test_real_engine_matches_complex_expm(n, times):
    # the frame's block of H is real, so its singular vectors stay float64 and U
    # is a float64 frame matrix; a fall back to complex arithmetic shows as complex128
    grid, pair, frame, _ = frame_setup(n, 0.0)
    assert pair.total.dtype == np.float64
    svd = spectrum(frame)
    assert svd.x.dtype == svd.y.dtype == np.float64
    for t in times:
        oracle = expm_hermitian(pair.total.astype(np.complex128), -t / grid.h)
        cached = exact_unitary(svd, t, frame)
        assert cached.dtype == np.float64
        assert spectral_norm(lift(frame, cached, t) - oracle) <= 1e-11 * n


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
@given(n=frame_sizes, scheme=schemes, s=step_sizes, count=st.integers(0, 16),
       kind=st.sampled_from(list(DiagonalKind)), seed=st.integers(0, 2**32 - 1))
def test_factored_observable_error_equals_dense_form(n, scheme, s, count, kind, seed):
    # ||V^T K V - K|| for the complex frame form K of a random real diagonal in
    # either basis, against ||V^dag O V - O|| with the lifted V and the materialized O
    grid, pair, frame, u = frame_setup(n, count * s)
    obs = FactoredOperator(kind, np.random.default_rng(seed).standard_normal(n))
    form = FrameObservable(obs, frame)
    assert all(part is not None for part in form.parts)
    dense = materialize(obs)
    v_frame = propagator(pair, scheme, s, count, u, frame)
    v = lift(frame, v_frame)
    direct = spectral_norm(v.conj().T @ dense @ v - dense)
    assert form.error(v_frame) == pytest.approx(direct, abs=1e-11 * n)


@PROPERTY
@given(n=frame_sizes, scheme=schemes, s=step_sizes, count=st.integers(0, 64),
       kind=st.sampled_from(list(DiagonalKind)), seed=st.integers(0, 2**32 - 1))
def test_expectation_error_matches_stepping_and_dense(n, scheme, s, count, kind, seed):
    # |<W^n psi, O W^n psi> - <U psi, O U psi>| read from W^n psi = V (U psi),
    # against the state stepped n times and against <psi, (W^n)^dag O W^n psi>,
    # for a random unit state and a random real diagonal in either basis
    grid, pair, frame, u = frame_setup(n, count * s)
    rng = np.random.default_rng(seed)
    obs = FactoredOperator(kind, rng.standard_normal(n))
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    psi /= np.linalg.norm(psi)
    v = propagator(pair, scheme, s, count, u, frame)
    got = FrameObservable(obs, frame).expectation_error(frame.states(v, u, psi))

    dense = materialize(obs)
    exact_state = expm_hermitian(pair.total, -count * s / grid.h) @ psi
    exact = np.vdot(exact_state, dense @ exact_state).real
    split_state = stepped_state(pair, scheme, s, count, psi)
    w = stepped(pair, scheme, s, count)
    for split in (np.vdot(split_state, dense @ split_state).real,
                  np.vdot(psi, w.conj().T @ dense @ w @ psi).real):
        assert got == pytest.approx(abs(split - exact), abs=1e-11 * n)
