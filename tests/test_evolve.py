import numpy as np
import pytest
from oracles import STAGES, expm_hermitian, lift, materialize, split_step, trotter_step_unitary

from trotterlab.cli import THRESHOLDS
from trotterlab.errors import NonHermitian, PacketTouchesBoundary, UnnormalizedState
from trotterlab.fourier import DiagonalKind, FactoredOperator
from trotterlab.evolve import (
    SplittingScheme,
    exact_unitary,
    gaussian_wavepacket,
    lie_power,
    relative_propagator,
)
from trotterlab.frame import FrameObservable, TimeReversalFrame
from trotterlab.experiments import OBSERVABLES, POTENTIALS
from trotterlab.hamiltonian import GridSpec, HamiltonianPair, build_pair, momentum_observable
from trotterlab.numkit import hermitian_eig, polished_svd, spectral_norm, unitary_distance

cos_x = OBSERVABLES["cos_x"]


@pytest.fixture(scope="module")
def setup():
    h = 2.0**-5
    grid = GridSpec.canonical(-np.pi, np.pi, h)
    pair = build_pair(grid)
    return h, grid, pair


def commuting_pair(grid):
    """Split pair with a real zero kinetic part: both pieces commute."""
    zero = FactoredOperator(DiagonalKind.FOURIER, np.zeros(grid.N))
    return HamiltonianPair(zero, build_pair(grid).potential, grid)


def exact(hamiltonian, t, h):
    """U(t) = e^{-i H t / h} from the eigendecomposition of H, as a complex matrix."""
    return expm_hermitian(hamiltonian, -t / h)


def spectrum(frame):
    """The polished SVD of the frame's half-size block of H, as a sweep forms it."""
    return polished_svd(frame.hamiltonian_block())


def propagators(pair, scheme, s, n):
    """V = W^n U^dag and U at t = n s in the time-reversal frame, as a sweep
    forms them, and the frame."""
    frame = TimeReversalFrame.of(pair)
    u = exact_unitary(spectrum(frame), n * s, frame)
    power = lie_power(frame, s, n)
    return relative_propagator(frame, scheme, s, power, u), u, frame


def obs_error(obs, pair, scheme, s, n):
    """The observable error of a factored observable, through its frame form."""
    v, _, frame = propagators(pair, scheme, s, n)
    return FrameObservable(obs, frame).error(v)


def library_step(pair, scheme, s):
    """The library's one-step matrix of a scheme, lifted from the frame: V at
    n = 1 with U = 1 (Lie's step itself, or its half-step conjugate for Strang)."""
    frame = TimeReversalFrame.of(pair)
    v = relative_propagator(frame, scheme, s, lie_power(frame, s, 1), np.eye(pair.grid.N))
    return lift(frame, v, s)


def heisenberg_exact(observable, hamiltonian, t, h):
    """Oracle: the exactly evolved observable U^dag O U with U = e^{-i H t / h}."""
    u = exact(hamiltonian, t, h)
    return u.conj().T @ observable @ u


def heisenberg_trotter(observable, pair, scheme, s, n):
    """Oracle: the observable conjugated by n split steps, (W^n)^dag O W^n."""
    w = np.linalg.matrix_power(split_step(pair, scheme, s, pair.grid.h), n)
    return w.conj().T @ observable @ w


def dense_step(pair, scheme, s, h):
    """Independent dense eigendecomposition product for one split step."""
    ua = expm_hermitian(materialize(pair.kinetic), -s / h)
    ub = expm_hermitian(materialize(pair.potential), -s / h)
    if scheme is SplittingScheme.LIE1:
        return ub @ ua
    ub_half = expm_hermitian(materialize(pair.potential), -s / (2 * h))
    return ub_half @ ua @ ub_half


class TestExactUnitary:
    def test_zero_time_identity(self, setup):
        h, grid, pair = setup
        assert np.abs(exact(pair.total, 0.0, h) - np.eye(grid.N)).max() < 1e-12

    def test_diagonal_hamiltonian_phases(self):
        ham = np.diag([1.0, 2.0, 3.0])
        u = exact(ham, 0.5, 0.25)
        assert np.allclose(np.diag(u), np.exp(-1j * 2.0 * np.diag(ham))), u

    def test_composition(self, setup):
        # the frame phases e^{i c t/2h} compose as U does, so the real frame
        # matrices compose too
        h, grid, pair = setup
        frame = TimeReversalFrame.of(pair)
        svd = spectrum(frame)
        u1 = exact_unitary(svd, 0.3, frame)
        u2 = exact_unitary(svd, 0.2, frame)
        u12 = exact_unitary(svd, 0.5, frame)
        assert spectral_norm(u1 @ u2 - u12) <= 1e-8 * grid.N
        assert spectral_norm(lift(frame, u12, 0.5) - exact(pair.total, 0.5, h)) <= 1e-11 * grid.N

    def test_unitarity(self, setup):
        h, grid, pair = setup
        u = exact(pair.total, 0.7, h)
        assert spectral_norm(u.conj().T @ u - np.eye(grid.N)) <= 1e-9 * grid.N

    def test_rejects_non_hermitian(self, setup):
        # exact_unitary reads the SVD of the frame's block of H, and the frame
        # reads the pair's diagonals: a diagonal that is not real is rejected there
        h, grid, pair = setup
        leaky = FactoredOperator(DiagonalKind.POSITION, pair.potential.diag + 1e-3j)
        with pytest.raises(NonHermitian, match="potential"):
            TimeReversalFrame.of(HamiltonianPair(pair.kinetic, leaky, grid))
        bad = np.zeros((4, 4))
        bad[0, 1] = 1.0
        with pytest.raises(NonHermitian):
            hermitian_eig(bad)


class TestTrotterStep:
    @pytest.mark.parametrize("scheme", [SplittingScheme.LIE1, SplittingScheme.STRANG2])
    def test_matches_dense_oracle(self, setup, scheme):
        h, grid, pair = setup
        s = 0.17
        fast = library_step(pair, scheme, s)
        assert spectral_norm(fast - dense_step(pair, scheme, s, h)) <= 1e-9 * grid.N

    @pytest.mark.parametrize("scheme", [SplittingScheme.LIE1, SplittingScheme.STRANG2])
    def test_unitary(self, setup, scheme):
        h, grid, pair = setup
        u = library_step(pair, scheme, 0.25)
        assert spectral_norm(u.conj().T @ u - np.eye(grid.N)) <= 1e-9 * grid.N

    def test_zero_potential_reduces_to_kinetic_flow(self, setup):
        h, grid, _ = setup
        pair = build_pair(grid, potential=POTENTIALS["zero"])
        for scheme in SplittingScheme:
            u = library_step(pair, scheme, 0.3)
            expected = expm_hermitian(materialize(pair.kinetic), -0.3 / h)
            assert spectral_norm(u - expected) <= 1e-9 * grid.N

    def test_commuting_split_is_exact(self, setup):
        h, grid, _ = setup
        pair = commuting_pair(grid)
        for scheme in SplittingScheme:
            u = library_step(pair, scheme, 0.4)
            expected = exact(pair.total, 0.4, h)
            assert spectral_norm(u - expected) <= 1e-9 * grid.N

    def test_strang_time_symmetry(self, setup):
        h, grid, pair = setup
        # the library's forward step against the oracle's time-reversed stages
        forward = library_step(pair, SplittingScheme.STRANG2, 0.3)
        backward = split_step(pair, SplittingScheme.STRANG2, -0.3, h)
        assert spectral_norm(forward @ backward - np.eye(grid.N)) <= 1e-9 * grid.N

    def test_every_scheme_spends_one_full_step_per_operator(self):
        # the stage table of the oracle that the library's steps are checked against
        for scheme in SplittingScheme:
            stages = STAGES[scheme]
            for op in ("A", "B"):
                assert sum(frac for name, frac in stages if name == op) == 1.0


class TestHeisenberg:
    def test_exact_zero_time(self, setup):
        h, grid, pair = setup
        obs = materialize(cos_x(grid))
        assert np.abs(heisenberg_exact(obs, pair.total, 0.0, h) - obs).max() < 1e-12

    def test_exact_identity_invariant(self, setup):
        h, grid, pair = setup
        evolved = heisenberg_exact(np.eye(grid.N, dtype=complex), pair.total, 0.9, h)
        assert spectral_norm(evolved - np.eye(grid.N)) <= 1e-10 * grid.N

    def test_conserved_observable(self, setup):
        # [O, H] = 0 for O = f(H)
        h, grid, pair = setup
        eig = hermitian_eig(pair.total)
        obs = (eig.eigenvectors * np.cos(eig.eigenvalues)) @ eig.eigenvectors.conj().T
        evolved = heisenberg_exact(obs, pair.total, 0.8, h)
        assert spectral_norm(evolved - obs) <= 1e-9 * grid.N

    def test_trotter_zero_steps(self, setup):
        h, grid, pair = setup
        obs = materialize(cos_x(grid))
        assert np.abs(heisenberg_trotter(obs, pair, SplittingScheme.LIE1, 0.1, 0) - obs).max() == 0.0

    @pytest.mark.parametrize("scheme", [SplittingScheme.LIE1, SplittingScheme.STRANG2])
    def test_trotter_matches_dense_conjugation(self, setup, scheme):
        h, grid, pair = setup
        obs = materialize(momentum_observable(grid))
        w = np.linalg.matrix_power(dense_step(pair, scheme, 0.2, h), 3)
        expected = w.conj().T @ obs @ w
        got = heisenberg_trotter(obs, pair, scheme, 0.2, 3)
        assert spectral_norm(got - expected) <= 1e-9 * grid.N

    def test_two_steps_equal_squared_step(self, setup):
        h, grid, pair = setup
        obs = materialize(cos_x(grid))
        u = split_step(pair, SplittingScheme.STRANG2, 0.15, h)
        w = u @ u
        assert spectral_norm(heisenberg_trotter(obs, pair, SplittingScheme.STRANG2, 0.15, 2)
                             - w.conj().T @ obs @ w) <= 1e-8 * grid.N

    def test_preserves_hermiticity_and_spectrum(self, setup):
        h, grid, pair = setup
        obs = materialize(cos_x(grid))
        evolved = heisenberg_trotter(obs, pair, SplittingScheme.LIE1, 0.1, 5)
        assert spectral_norm(evolved - evolved.conj().T) <= 1e-10 * grid.N
        w1 = np.linalg.eigvalsh(obs)
        w2 = np.linalg.eigvalsh(evolved)
        assert np.abs(w1 - w2).max() <= 1e-8


class TestErrorFunctionals:
    def test_commuting_split_zero_observable_error(self, setup):
        h, grid, _ = setup
        pair = commuting_pair(grid)
        obs = cos_x(grid)
        assert obs_error(obs, pair, SplittingScheme.LIE1, 0.2, 4) < 1e-9

    def test_observable_error_bounded(self, setup):
        h, grid, pair = setup
        obs = cos_x(grid)
        assert obs_error(obs, pair, SplittingScheme.LIE1, 0.5, 2) <= 2 * spectral_norm(materialize(obs)) + 1e-12

    def test_single_step_error_orders(self, setup):
        # halving s divides the one-step error by ~4 (first order scheme)
        # and ~8 (second order scheme)
        h, grid, pair = setup
        obs = cos_x(grid)
        for scheme, factor in ((SplittingScheme.LIE1, 4.0), (SplittingScheme.STRANG2, 8.0)):
            errs = [obs_error(obs, pair, scheme, s, 1)
                    for s in (2.0**-5, 2.0**-6)]
            assert errs[0] / errs[1] == pytest.approx(factor, rel=0.1)

    def test_non_hermitian_observable_rejected_before_compute(self, setup):
        # a factored observable is Hermitian exactly when its diagonal is real;
        # the gate runs where the observable enters, as its frame form is built
        h, grid, pair = setup
        diag = np.cos(grid.nodes).astype(complex)
        diag[1] += 1e-3j
        frame = TimeReversalFrame.of(pair)
        for kind in DiagonalKind:
            with pytest.raises(NonHermitian):
                FrameObservable(FactoredOperator(kind, diag), frame)

    def test_commuting_split_zero_unitary_error(self, setup):
        h, grid, _ = setup
        pair = commuting_pair(grid)
        v = propagators(pair, SplittingScheme.STRANG2, 0.25, 4)[0]
        assert unitary_distance(v) < 1e-9

    def test_unitary_error_bounded_by_two(self, setup):
        h, grid, pair = setup
        v = propagators(pair, SplittingScheme.LIE1, 0.9, 8)[0]
        assert unitary_distance(v) <= 2.0 + 1e-12

    def test_unitary_error_grows_inversely_with_h(self):
        errs = []
        hs = [2.0**-3, 2.0**-6]
        for h in hs:
            grid = GridSpec.canonical(-np.pi, np.pi, h)
            pair = build_pair(grid)
            errs.append(unitary_distance(propagators(pair, SplittingScheme.LIE1, 0.1, 1)[0]))
        slope = np.log(errs[1] / errs[0]) / np.log(hs[1] / hs[0])
        lo, hi = THRESHOLDS["unitary_growth"]
        assert lo <= slope <= hi


class TestWavepacket:
    def test_unit_norm(self, setup):
        h, grid, _ = setup
        psi = gaussian_wavepacket(grid, 0.0, 0.5)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)

    def test_zero_momentum_real_up_to_phase(self, setup):
        h, grid, _ = setup
        psi = gaussian_wavepacket(grid, 0.0, 0.0)
        phase = psi[np.argmax(np.abs(psi))]
        aligned = psi * np.conj(phase) / abs(phase)
        assert np.abs(aligned.imag).max() < 1e-12

    def test_position_expectation(self, setup):
        # oracle: grid quadrature of x |psi|^2
        h, grid, _ = setup
        x0 = 0.3
        psi = gaussian_wavepacket(grid, x0, 0.5)
        mean_x = float(np.sum(grid.nodes * np.abs(psi) ** 2))
        assert abs(mean_x - x0) <= 10 * np.sqrt(h)

    def test_boundary_rejected(self, setup):
        h, grid, _ = setup
        with pytest.raises(PacketTouchesBoundary):
            gaussian_wavepacket(grid, grid.a_dom + 0.01, 0.0)


class TestExpectationError:
    def test_commuting_split_zero(self, setup):
        h, grid, _ = setup
        pair = commuting_pair(grid)
        obs = cos_x(grid)
        psi = gaussian_wavepacket(grid, 0.0, 0.5)
        v, u, frame = propagators(pair, SplittingScheme.LIE1, 0.2, 4)
        assert FrameObservable(obs, frame).expectation_error(v, u, psi) < 1e-10

    @pytest.mark.parametrize("scheme", [SplittingScheme.LIE1, SplittingScheme.STRANG2])
    def test_dominated_by_observable_error(self, setup, scheme):
        h, grid, pair = setup
        psi = gaussian_wavepacket(grid, 0.0, 0.5)
        observables = (cos_x(grid), momentum_observable(grid))
        for s, n in ((0.25, 1), (0.1, 4)):
            v, u, frame = propagators(pair, scheme, s, n)
            for obs in observables:
                form = FrameObservable(obs, frame)
                assert form.expectation_error(v, u, psi) <= form.error(v) + 1e-12

    def test_matches_matrix_expectation(self, setup):
        h, grid, pair = setup
        obs = cos_x(grid)
        psi = gaussian_wavepacket(grid, 0.0, 0.5)
        t_trot = heisenberg_trotter(materialize(obs), pair, SplittingScheme.LIE1, 0.2, 2)
        t_exact = heisenberg_exact(materialize(obs), pair.total, 0.4, h)
        direct = abs(np.vdot(psi, t_trot @ psi).real - np.vdot(psi, t_exact @ psi).real)
        v, u, frame = propagators(pair, SplittingScheme.LIE1, 0.2, 2)
        got = FrameObservable(obs, frame).expectation_error(v, u, psi)
        assert got == pytest.approx(direct, abs=1e-12)

    def test_unnormalized_state_rejected(self, setup):
        # the gate runs before the None propagators are touched
        h, grid, pair = setup
        frame = TimeReversalFrame.of(pair)
        form = FrameObservable(cos_x(grid), frame)
        with pytest.raises(UnnormalizedState):
            form.expectation_error(None, None, np.ones(grid.N))


class TestNonPowerOfTwoGrid:
    def test_full_stack_on_n_ten(self):
        # h = 0.1 on [-pi, pi] gives N = 10 and h = 1/25 gives the odd
        # N = 25; the FFT step of the oracles needs no frame and handles any length
        for h, n in ((0.1, 10), (1.0 / 25, 25)):
            grid = GridSpec.canonical(-np.pi, np.pi, h)
            assert grid.N == n
            pair = build_pair(grid)
            fast = trotter_step_unitary(pair, 0.2)
            dense = dense_step(pair, SplittingScheme.LIE1, 0.2, h)
            assert spectral_norm(fast - dense) <= 1e-9 * grid.N
        # the errors run in the frame, which needs 4 | N: N = 12 and N = 20
        for h in (1.0 / 12, 1.0 / 20):
            grid = GridSpec.canonical(-np.pi, np.pi, h)
            pair = build_pair(grid)
            fast = library_step(pair, SplittingScheme.STRANG2, 0.2)
            dense = dense_step(pair, SplittingScheme.STRANG2, 0.2, h)
            assert spectral_norm(fast - dense) <= 1e-9 * grid.N
            err = obs_error(cos_x(grid), pair, SplittingScheme.STRANG2, 0.2, 1)
            assert 0.0 < err < 2.0
