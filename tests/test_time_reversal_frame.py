"""The time-reversal frame: real error norms checked against the dense oracle.

When 4 | N and the potential is antisymmetric under the half-period shift,
the sweeps form V, U and G as real matrices in the basis R of
``frame.TimeReversalFrame``. These tests run the driver's per-point kernel
(``experiments._error_rows``) on random domain offsets and compare every
unitary, observable and expectation error with the stage product of
``tests/oracles.py`` within the round-off floor 1e-11 N. Grids, potentials
and observables without the symmetry must take the complex path and still
match. Examples are derandomized so that every run draws the same cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import expm_hermitian, frame_basis, split_step

from trotterlab import experiments
from trotterlab.evolve import (
    EvolutionPlan,
    SplittingScheme,
    exact_unitary,
    lie_power,
    observable_error,
    relative_propagator,
)
from trotterlab.fourier import materialize
from trotterlab.frame import TimeReversalFrame
from trotterlab.hamiltonian import GridSpec, build_pair
from trotterlab.numkit import hermitian_eig, spectral_norm

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)

FRAME_OBSERVABLES = ("cos_x", "cos_3x", "momentum_fd")
STEP_SIZES = st.sampled_from([0.01, 0.1, 0.37, 1.0])
STEP_COUNTS = st.sampled_from([0, 1, 2, 3, 50])


def cos_2x(x):
    """A potential symmetric under the half-period shift: no frame."""
    return np.cos(2.0 * x)


def shifted_grid(n: int, delta: float) -> GridSpec:
    return GridSpec(-np.pi + delta, np.pi + delta, n, 1.0 / n)


def unit_state(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return psi / np.linalg.norm(psi)


def driver_errors(grid, potential, names, psi, scheme, s, n) -> dict:
    """Errors of one sweep point as ``_error_rows`` forms them, keyed by
    (observable, metric), for the unit state psi in place of the packet and
    the potential named in ``experiments.POTENTIALS``."""
    pair = build_pair(grid, potential=experiments.POTENTIALS[potential])
    ops = {name: experiments.OBSERVABLES[name](grid) for name in names}
    setup = (grid, pair, ops, psi, hermitian_eig(pair.total),
             TimeReversalFrame.of(pair, ops.values()))
    rows = experiments._error_rows(setup, [scheme], s, n, grid.h, with_unitary=True)
    return {(row[4], row[5]): row[6] for row in rows}


def oracle_errors(grid, potential, names, psi, scheme, s, n) -> dict:
    """The same errors from the powered stage product W^n and U = expm(-i H t/h)."""
    pair = build_pair(grid, potential=experiments.POTENTIALS[potential])
    w = np.linalg.matrix_power(split_step(pair, scheme, s, grid.h), n)
    u = expm_hermitian(pair.total, -n * s / grid.h)
    out = {("-", "unitary_error"): spectral_norm(w - u)}
    for name in names:
        dense = materialize(experiments.OBSERVABLES[name](grid))
        out[(name, "observable_error")] = spectral_norm(
            w.conj().T @ dense @ w - u.conj().T @ dense @ u)
        split, exact = w @ psi, u @ psi
        out[(name, "expectation_error")] = abs(np.vdot(split, dense @ split).real
                                               - np.vdot(exact, dense @ exact).real)
    return out


def assert_matches_oracle(grid, potential, names, psi, scheme, s, n):
    got = driver_errors(grid, potential, names, psi, scheme, s, n)
    want = oracle_errors(grid, potential, names, psi, scheme, s, n)
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert got[key] == pytest.approx(value, abs=1e-11 * grid.N), key


@PROPERTY
@given(quarter=st.integers(1, 16), delta=st.floats(-np.pi, np.pi),
       scheme=st.sampled_from(list(SplittingScheme)), s=STEP_SIZES, count=STEP_COUNTS,
       names=st.lists(st.sampled_from(FRAME_OBSERVABLES), min_size=1, max_size=3, unique=True),
       seed=st.integers(0, 2**32 - 1))
def test_frame_errors_match_stage_product(quarter, delta, scheme, s, count, names, seed):
    n = 4 * quarter
    grid = shifted_grid(n, delta)
    pair = build_pair(grid)
    frame = TimeReversalFrame.of(pair)
    assert frame is not None
    assert all(frame.parity(experiments.OBSERVABLES[name](grid)) is not None for name in names)
    assert_matches_oracle(grid, "cos", names, unit_state(n, seed), scheme, s, count)


@pytest.mark.parametrize("n, potential, names, routed", [
    (10, "cos", FRAME_OBSERVABLES, "N = 2 mod 4"),
    (30, "cos", FRAME_OBSERVABLES, "N = 2 mod 4"),
    (9, "cos", FRAME_OBSERVABLES, "odd N"),
    (33, "cos", ("cos_x", "momentum_fd"), "odd N"),
    (16, "cos", ("momentum_spectral", "cos_x"), "momentum_spectral"),
    (32, "cos", ("momentum_spectral",), "momentum_spectral"),
    (16, "cos_2x", FRAME_OBSERVABLES, "symmetric potential"),
    (32, "cos_2x", ("cos_x", "momentum_fd"), "symmetric potential"),
])
@pytest.mark.parametrize("scheme", list(SplittingScheme))
def test_routed_cases_take_complex_path_and_match(monkeypatch, n, potential, names, routed,
                                                  scheme):
    monkeypatch.setitem(experiments.POTENTIALS, "cos_2x", cos_2x)
    grid = shifted_grid(n, 0.37)
    pair = build_pair(grid, potential=experiments.POTENTIALS[potential])
    assert TimeReversalFrame.of(pair, [experiments.OBSERVABLES[name](grid) for name in names]) \
        is None
    if routed == "momentum_spectral":      # the grid and potential alone admit the frame
        assert TimeReversalFrame.of(pair) is not None
    psi = unit_state(n, n)
    for s, count in ((0.1, 1), (0.37, 3), (0.02, 50)):
        assert_matches_oracle(grid, potential, names, psi, scheme, s, count)


@pytest.mark.parametrize("n", [4, 8, 12, 64])
@pytest.mark.parametrize("delta", [0.0, 0.37, -2.9])
def test_frame_matches_dense_basis(n, delta):
    # R is unitary and T-fixed (Y conj(R) = R); the sliced changes of basis
    # match the dense R; the real V is R^dag V R of the complex V
    rng = np.random.default_rng(n)
    basis = frame_basis(n)
    assert np.abs(basis.conj().T @ basis - np.eye(n)).max() <= 1e-15
    half_shift = np.roll(np.eye(n), n // 2, axis=1)         # (S v)_j = v_{j + N/2}
    y = half_shift @ np.diag((-1.0) ** np.arange(n))
    assert np.abs(y @ basis.conj() - basis).max() <= 1e-15
    grid = shifted_grid(n, delta)
    pair = build_pair(grid)
    frame = TimeReversalFrame.of(pair)
    mat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    phase = np.exp(0.7j)
    assert np.abs(frame.project(mat, phase) - (basis.conj().T @ (phase * mat) @ basis).real).max() \
        <= 1e-14 * n
    block = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    assert np.abs(frame.to_frame(block) - basis.conj().T @ block).max() <= 1e-14
    assert np.abs(frame.from_frame(block) - basis @ block).max() <= 1e-14
    eig = hermitian_eig(pair.total)
    for scheme in SplittingScheme:
        plan = EvolutionPlan(scheme, 0.3, 5, grid.h)
        complex_v = relative_propagator(pair, plan, lie_power(pair, plan.s, plan.n, plan.h),
                                        exact_unitary(eig, plan.t, plan.h))
        real_v = relative_propagator(pair, plan, lie_power(pair, plan.s, plan.n, plan.h, frame),
                                     exact_unitary(eig, plan.t, plan.h, frame), frame)
        assert real_v.dtype == np.float64
        assert spectral_norm(basis @ real_v @ basis.conj().T - complex_v) <= 1e-11 * n


def test_frame_chosen_from_operator_data():
    assert TimeReversalFrame.of(build_pair(shifted_grid(16, 1.3))) is not None
    assert TimeReversalFrame.of(build_pair(shifted_grid(16, 1.3), potential=np.zeros_like)) \
        is not None
    for n in (6, 7, 18):
        assert TimeReversalFrame.of(build_pair(shifted_grid(n, 0.0))) is None
    assert TimeReversalFrame.of(build_pair(shifted_grid(16, 0.0), potential=cos_2x)) is None
    # cos x + 1e-6 cos 2x breaks the antisymmetry far above the tolerance
    nearly = build_pair(shifted_grid(16, 0.0), potential=lambda x: np.cos(x) + 1e-6 * np.cos(2 * x))
    assert TimeReversalFrame.of(nearly) is None


def test_observable_classes():
    grid = shifted_grid(32, 0.61)
    frame = TimeReversalFrame.of(build_pair(grid))
    parities = {name: frame.parity(build(grid)) for name, build in experiments.OBSERVABLES.items()}
    assert parities == {"cos_x": -1, "cos_3x": -1, "momentum_fd": 1, "momentum_spectral": None}
    with pytest.raises(ValueError):
        observable_error(experiments.OBSERVABLES["momentum_spectral"](grid), np.eye(32), frame)


class TestFrameIsUsed:
    """On 4 | N grids with a default potential, every Hermitian eigensolve
    after the power runs on a float64 matrix."""

    @pytest.fixture
    def eig_dtypes(self, monkeypatch):
        dtypes = []
        eigvalsh = np.linalg.eigvalsh

        def recorded(matrix, *args, **kwargs):
            dtypes.append(np.asarray(matrix).dtype)
            return eigvalsh(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
        return dtypes

    @pytest.mark.parametrize("mode, s_fixed", [("local", 0.1), ("global", 0.25)])
    @pytest.mark.parametrize("potential", ["cos", "zero"])
    def test_sweep_h_eigensolves_are_real(self, eig_dtypes, mode, s_fixed, potential):
        experiments.sweep_h(h_values=[2.0**-k for k in range(3, 7)], s_fixed=s_fixed, mode=mode,
                            domain=(-np.pi + 0.37, np.pi + 0.37), potential=potential,
                            observables=FRAME_OBSERVABLES)
        assert eig_dtypes and set(eig_dtypes) == {np.dtype(np.float64)}

    def test_sweep_timestep_eigensolves_are_real(self, eig_dtypes):
        experiments.sweep_timestep(s_values=[2.0**-k for k in range(2, 6)], h=2.0**-5,
                                   domain=(-np.pi + 0.6, np.pi + 0.6))
        assert eig_dtypes and set(eig_dtypes) == {np.dtype(np.float64)}

    @pytest.mark.parametrize("observable", FRAME_OBSERVABLES)
    def test_query_count_eigensolves_are_real(self, eig_dtypes, observable):
        experiments.query_count(3e-2, "Strang2", 2.0**-4, observable=observable,
                                domain=(-np.pi + 0.2, np.pi + 0.2))
        assert eig_dtypes and set(eig_dtypes) == {np.dtype(np.float64)}

    def test_routed_observable_keeps_complex_path(self, eig_dtypes):
        experiments.sweep_h(h_values=[2.0**-4], s_fixed=0.1, observables=("momentum_spectral",))
        assert np.dtype(np.complex128) in eig_dtypes
