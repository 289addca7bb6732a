"""The time-reversal frame: real error norms checked against the dense oracle.

Every sweep forms V, U and G as real matrices in the basis R of
``frame.TimeReversalFrame``, which needs 4 | N and a potential antisymmetric
under the half-period shift. These tests run the sweeps' per-point kernel
(``experiments._error_rows``) on random domain offsets and compare every
unitary, observable and expectation error with the stage product of
``tests/oracles.py`` within the round-off floor 1e-11 N, for observables
that commute with T, anticommute with it, or neither (``momentum_spectral``).
Grids and potentials without the symmetry are rejected before any compute,
naming the field. Examples are derandomized so that every run draws the same
cases.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import expm_hermitian, frame_basis, lift, materialize, split_step

from trotterlab import experiments, numkit
from trotterlab.cli import _dispatch, parse_config
from trotterlab.errors import ValidationError
from trotterlab.evolve import (
    SplittingScheme,
    exact_unitary,
    lie_power,
    relative_propagator,
)
from trotterlab.fourier import DiagonalKind, FactoredOperator
from trotterlab.frame import FrameObservable, TimeReversalFrame
from trotterlab.hamiltonian import GridSpec, build_pair, sample
from trotterlab.numkit import polished_svd, spectral_norm
from trotterlab.symbols import constant, cosine_x, cosine_xi, sine_xi

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)

FRAME_OBSERVABLES = ("cos_x", "cos_3x", "momentum_fd")
STEP_SIZES = st.sampled_from([0.01, 0.1, 0.37, 1.0])
STEP_COUNTS = st.sampled_from([0, 1, 2, 3, 50])


# cos 2x: a potential symmetric under the half-period shift, which admits no frame.
COS_2X = cosine_x(2)


def shifted_grid(n: int, delta: float) -> GridSpec:
    return GridSpec(-np.pi + delta, n, 1.0 / n)


def unit_state(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return psi / np.linalg.norm(psi)


def driver_errors(grid, potential, names, psi, scheme, s, n) -> dict:
    """Errors of one sweep point as ``_error_rows`` forms them, keyed by
    (observable, metric), for the unit state psi in place of the packet and
    the potential named in ``experiments.POTENTIALS``."""
    setup = experiments._build_setup(grid, potential, names)
    rows = experiments._error_rows(setup, psi, [scheme], s, n, with_unitary=True)
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
       names=st.lists(st.sampled_from(sorted(experiments.OBSERVABLES)), min_size=1, max_size=3,
                      unique=True),
       seed=st.integers(0, 2**32 - 1))
@example(quarter=4, delta=0.37, scheme=SplittingScheme.LIE1, s=0.1, count=1,
         names=["momentum_spectral", "cos_x"], seed=16)
@example(quarter=8, delta=0.37, scheme=SplittingScheme.STRANG2, s=0.02, count=50,
         names=["momentum_spectral"], seed=32)
def test_frame_errors_match_stage_product(quarter, delta, scheme, s, count, names, seed):
    n = 4 * quarter
    assert_matches_oracle(shifted_grid(n, delta), "cos", names, unit_state(n, seed), scheme, s,
                          count)


@pytest.fixture
def no_eigensolve(monkeypatch):
    """Fails any decomposition of H (the SVD of its frame block): a rejection
    must come before it."""
    monkeypatch.setattr(numkit, "polished_svd", lambda matrix: pytest.fail("SVD ran"))


# Each experiments entry point that forms errors, run on a grid of step size h
# with a given potential, and the field that names h. The query count runs on h
# alone, and with two schemes after a grid that admits the frame.
ENTRY_POINTS = {
    "sweep_h": (lambda h, potential: experiments.sweep_h(
        h_values=[2.0**-3, h], s_fixed=0.1, potential=potential), "h_values"),
    "sweep_timestep": (lambda h, potential: experiments.sweep_timestep(
        s_values=[0.1], h=h, potential=potential), "h"),
    "query_count_study": (lambda h, potential: experiments.query_count_study(
        epsilons=[3e-2], h_values=[h], potential=potential), "h_values"),
    "query_count_study_two_grids": (lambda h, potential: experiments.query_count_study(
        epsilons=[3e-2], h_values=[2.0**-3, h], schemes=["Lie1", "Strang2"],
        potential=potential), "h_values"),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("n", [9, 10, 30, 33])
def test_grids_without_frame_rejected(no_eigensolve, n, entry):
    # odd N has no half shift and N = 2 mod 4 gives T^2 = -1: each entry point
    # names the field of the step size that gave N
    run, field = ENTRY_POINTS[entry]
    with pytest.raises(ValidationError) as err:
        run(1.0 / n, "cos")
    assert err.value.field == field
    assert f"N = {n}" in str(err.value) and "divisible by 4" in str(err.value)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_potential_without_antisymmetry_rejected(monkeypatch, no_eigensolve, entry):
    monkeypatch.setitem(experiments.POTENTIALS, "cos_2x", COS_2X)
    with pytest.raises(ValidationError) as err:
        ENTRY_POINTS[entry][0](2.0**-4, "cos_2x")
    assert err.value.field == "potential"
    assert "'cos_2x'" in str(err.value) and "antisymmetric" in str(err.value)


@pytest.mark.parametrize("n", [4, 8, 12, 64])
@pytest.mark.parametrize("delta", [0.0, 0.37, -2.9])
def test_frame_matches_dense_basis(n, delta):
    # R is unitary and T-fixed (Y conj(R) = R); the sliced changes of basis and
    # the gathered projection of a circulant match the dense R; the real V is
    # R^dag V R of the complex V
    rng = np.random.default_rng(n)
    basis = frame_basis(n)
    assert np.abs(basis.conj().T @ basis - np.eye(n)).max() <= 1e-15
    half_shift = np.roll(np.eye(n), n // 2, axis=1)         # (S v)_j = v_{j + N/2}
    y = half_shift @ np.diag((-1.0) ** np.arange(n))
    assert np.abs(y @ basis.conj() - basis).max() <= 1e-15
    grid = shifted_grid(n, delta)
    pair = build_pair(grid)
    frame = TimeReversalFrame.of(pair)
    diag = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    phase = np.exp(0.7j)
    circulant = materialize(FactoredOperator(DiagonalKind.FOURIER, diag))   # F^-1 diag(d) F
    assert np.abs(frame.project_fourier(diag, phase)
                  - (basis.conj().T @ (phase * circulant) @ basis).real).max() <= 1e-14 * n
    block = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    assert np.abs(frame.to_frame(block) - basis.conj().T @ block).max() <= 1e-14
    assert np.abs(frame.from_frame(block) - basis @ block).max() <= 1e-14
    svd = polished_svd(frame.hamiltonian_block())
    for scheme in SplittingScheme:
        real_v = relative_propagator(frame, scheme, 0.3, lie_power(frame, 0.3, 5),
                                     exact_unitary(svd, 5 * 0.3, frame))
        complex_v = (np.linalg.matrix_power(split_step(pair, scheme, 0.3, grid.h), 5)
                     @ expm_hermitian(pair.total, 5 * 0.3 / grid.h))
        assert real_v.dtype == np.float64
        assert spectral_norm(basis @ real_v @ basis.conj().T - complex_v) <= 1e-11 * n
        assert spectral_norm(lift(frame, real_v) - complex_v) <= 1e-11 * n


def test_frame_chosen_from_operator_data():
    assert TimeReversalFrame.of(build_pair(shifted_grid(16, 1.3))).size == 16
    assert TimeReversalFrame.of(build_pair(shifted_grid(16, 1.3), potential=constant(0.0))).size \
        == 16
    for n in (6, 7, 18):
        with pytest.raises(ValueError, match=f"N = {n}"):
            TimeReversalFrame.of(build_pair(shifted_grid(n, 0.0)))
    # cos 2x is symmetric; cos x + 1e-6 cos 2x breaks the antisymmetry far above the tolerance
    for potential in (COS_2X, cosine_x() + cosine_x(2, amplitude=1e-6)):
        with pytest.raises(ValueError, match="antisymmetric"):
            TimeReversalFrame.of(build_pair(shifted_grid(16, 0.0), potential=potential))


# The parts of K = K_+ + i K_- that remain for each T-parity of the observable.
KEPT_PARTS = {-1: (False, True), 1: (True, False), None: (True, True)}

# A sampled observable of each (kind, T-parity) case: +1 commutes with T, -1
# anticommutes, None neither. A position diagonal commutes when d[j + N/2] = d[j]
# (cos 2x), a Fourier one when d[N/2 - k] = d[k] (sin 2 pi xi, cos 2 pi xi odd).
PARITY_CASES = {
    (DiagonalKind.POSITION, 1): COS_2X,
    (DiagonalKind.POSITION, -1): cosine_x(),
    (DiagonalKind.POSITION, None): cosine_x() + cosine_x(2, amplitude=0.5),
    (DiagonalKind.FOURIER, 1): sine_xi(),
    (DiagonalKind.FOURIER, -1): cosine_xi(),
    (DiagonalKind.FOURIER, None): cosine_xi() + sine_xi(),
}


def test_observable_classes():
    # the parity of T picks which real parts of K = K_+ + i K_- remain
    grid = shifted_grid(32, 0.61)
    frame = TimeReversalFrame.of(build_pair(grid))
    parities = {name: frame.parity(build(grid)) for name, build in experiments.OBSERVABLES.items()}
    assert parities == {"cos_x": -1, "cos_3x": -1, "momentum_fd": 1, "momentum_spectral": None}
    for name, build in experiments.OBSERVABLES.items():
        form = FrameObservable(build(grid), frame)
        assert tuple(part is not None for part in form.parts) == KEPT_PARTS[parities[name]]


@pytest.mark.parametrize("kind, parity", sorted(PARITY_CASES, key=str))
def test_error_matches_dense_defect(kind, parity):
    # ||V^T K V - K|| with K = R^dag O R through the dense basis, for random
    # orthogonal V: a position observable's error is formed from the commutator
    # K V - V K = V (V^T K V - K), a Fourier one's from V^T K V - K of each part.
    # For random orthogonal U and a unit state psi, the expectation error is
    # |<W^n psi, O W^n psi> - <U psi, O U psi>| with U and W^n = V U lifted by R.
    grid = shifted_grid(32, 0.61)
    frame = TimeReversalFrame.of(build_pair(grid))
    form = FrameObservable(sample(PARITY_CASES[kind, parity], grid), frame)
    assert form.operator.kind is kind and frame.parity(form.operator) == parity
    assert tuple(part is not None for part in form.parts) == KEPT_PARTS[parity]
    basis = frame_basis(32)
    dense = materialize(form.operator)
    k = basis.conj().T @ dense @ basis
    rng = np.random.default_rng(32)
    for seed in range(3):
        v, u = (np.linalg.qr(rng.standard_normal((32, 32)))[0] for _ in range(2))
        assert form.error(v) == pytest.approx(spectral_norm(v.T @ k @ v - k), abs=1e-13 * 32)
        psi = unit_state(32, seed)
        split, exact = (basis @ mat @ basis.conj().T @ psi for mat in (v @ u, u))
        direct = abs(np.vdot(split, dense @ split).real - np.vdot(exact, dense @ exact).real)
        assert form.expectation_error(v, u, psi) == pytest.approx(direct, abs=1e-13 * 32)


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
        experiments.query_count_study(epsilons=[3e-2], h_values=[2.0**-4],
                                      observables=[observable], domain=(-np.pi + 0.2, np.pi + 0.2))
        assert eig_dtypes and set(eig_dtypes) == {np.dtype(np.float64)}

    def test_momentum_spectral_takes_the_frame(self, eig_dtypes):
        # its complex K makes its own norm the one complex eigensolve of each
        # scheme at each grid
        experiments.sweep_h(h_values=[2.0**-4, 2.0**-5], s_fixed=0.1,
                            observables=("cos_x", "momentum_spectral"))
        assert eig_dtypes.count(np.dtype(np.complex128)) == 2 * 2
        assert set(eig_dtypes) == {np.dtype(np.float64), np.dtype(np.complex128)}


def test_frame_forms_built_once_per_grid(monkeypatch):
    # besides the one step of each step power, one projected circulant for the
    # kinetic part of H and one per Fourier-diagonal observable (momentum_fd) on
    # each of the 8 default grids, and the same for a query count, whatever the
    # number of trial step counts
    calls, powers = [], []
    project_fourier = TimeReversalFrame.project_fourier
    lie_power = experiments.lie_power

    def counted(frame, diag, phase=1.0):
        calls.append(len(diag))
        return project_fourier(frame, diag, phase)

    def counted_power(frame, s, n):
        powers.append(frame.size)
        return lie_power(frame, s, n)

    monkeypatch.setattr(TimeReversalFrame, "project_fourier", counted)
    monkeypatch.setattr(experiments, "lie_power", counted_power)

    def forms() -> list:
        rest = list(calls)
        for n in powers:
            rest.remove(n)
        return sorted(rest)

    _dispatch(parse_config(json.dumps({}), command="sweep-h"), 1)
    assert forms() == sorted(2 * [2**k for k in range(3, 11)])
    calls.clear()
    powers.clear()
    experiments.query_count_study(epsilons=[3e-2], h_values=[2.0**-4],
                                  observables=["momentum_fd"])
    assert len(powers) > 1 and forms() == [16, 16]
