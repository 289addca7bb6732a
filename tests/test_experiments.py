import csv
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import expm_hermitian, materialize, split_step

import trotterlab.quantize
from trotterlab import experiments, fourier, numkit
from trotterlab.cli import THRESHOLDS, _dispatch, evaluate_criteria, parse_config
from trotterlab.errors import NonMonotone, TooFewPoints, Unreachable, ValidationError
from trotterlab.evolve import SplittingScheme
from trotterlab.fourier import DiagonalKind
from trotterlab.frame import FrameObservable, TimeReversalFrame
from trotterlab.experiments import (
    COMMAND_DEFAULTS,
    FIT_WINDOW_LOCAL_S,
    ExperimentResult,
    SweepTable,
    commutator_scan,
    calculus_suite,
    fit_loglog_slope,
    query_count_study,
    roundoff_floor,
    sweep_h,
    sweep_timestep,
)
from trotterlab.hamiltonian import GridSpec, build_pair
from trotterlab.symbols import TorusSymbol, cosine_x, cosine_xi

# Examples are derandomized so that every run draws the same domain offsets.
PROPERTY = settings(max_examples=10, deadline=None, derandomize=True)


@pytest.fixture
def svd_calls(monkeypatch):
    """The grid size N of every SVD of the half-size block of H that a driver makes."""
    calls = []
    polished_svd = numkit.polished_svd

    def counted(matrix):
        calls.append(2 * matrix.shape[0])
        return polished_svd(matrix)

    monkeypatch.setattr(numkit, "polished_svd", counted)
    return calls


class TestFitLoglogSlope:
    def test_exact_square_law(self):
        xs = [0.5**k for k in range(6)]
        fit = fit_loglog_slope([(x, x**2) for x in xs])
        assert fit.slope == pytest.approx(2.0, abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_series(self):
        xs = [0.5**k for k in range(5)]
        fit = fit_loglog_slope([(x, 3.7) for x in xs])
        assert fit.slope == pytest.approx(0.0, abs=1e-10)

    def test_noisy_cubic(self):
        # 1% multiplicative noise, fixed seed
        rng = np.random.default_rng(1234)
        xs = np.array([0.5**k for k in range(8)])
        ys = xs**3 * (1.0 + 0.01 * rng.standard_normal(8))
        fit = fit_loglog_slope(list(zip(xs, ys)))
        assert 2.9 <= fit.slope <= 3.1

    def test_window_filtering(self):
        pts = [(1.0, 1.0), (0.5, 0.25), (0.25, 0.0625), (0.125, 0.015625), (8.0, 100.0)]
        fit = fit_loglog_slope(pts, window=(0.1, 1.0))
        assert fit.points_used == 4
        assert fit.window == (0.125, 1.0)
        assert fit.slope == pytest.approx(2.0, abs=1e-10)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            fit_loglog_slope([(1.0, 1.0), (0.5, 0.5)])

    def test_nonpositive_values_skipped(self):
        pts = [(1.0, 1.0), (0.5, 0.5), (0.25, 0.25), (0.125, 0.0)]
        fit = fit_loglog_slope(pts)
        assert fit.points_used == 3


class TestSweepTable:
    def test_rows_sorted_and_immutable_layout(self):
        table = SweepTable.build(("x", "name", "value"),
                                 [(2.0, "b", 1.0), (1.0, "a", 2.0), (1.0, "b", 0.5)])
        assert table.rows[0][0] == 1.0 and table.rows[-1][0] == 2.0

    def test_select_and_series(self):
        table = SweepTable.build(("x", "name", "value"),
                                 [(1.0, "a", 2.0), (2.0, "a", 4.0), (1.0, "b", 9.0)])
        assert table.series("x", name="a") == [(1.0, 2.0), (2.0, 4.0)]

    def test_csv_formatting(self):
        table = SweepTable.build(("x", "n", "value"), [(0.1, 4, 1.0 / 3.0)])
        text = table.csv_text()
        lines = text.split("\n")
        assert lines[0] == "x,n,value"
        assert lines[1] == "0.10000000000000001,4,0.33333333333333331"
        assert text.endswith("\n")

    def test_determinism(self):
        rows = [(0.5, "m", 1.25), (0.25, "m", 2.5)]
        t1 = SweepTable.build(("x", "name", "value"), rows)
        t2 = SweepTable.build(("x", "name", "value"), list(reversed(rows)))
        assert t1.csv_text() == t2.csv_text()


@pytest.fixture(scope="module")
def small_local_sweep():
    return sweep_timestep(s_values=[2.0**-k for k in range(4, 12)], h=2.0**-5,
                          mode="local", observables=("cos_x",),
                          schemes=("Lie1", "Strang2"))


class TestSweepTimestep:
    def test_row_count(self, small_local_sweep):
        # 8 s values x 2 schemes x 1 observable x 2 metrics
        assert len(small_local_sweep.table.rows) == 32

    def test_local_orders(self, small_local_sweep):
        fits = small_local_sweep.fits
        assert 1.8 <= fits["Lie1/cos_x/observable_error"].slope <= 2.2
        assert 2.7 <= fits["Strang2/cos_x/observable_error"].slope <= 3.3

    def test_expectation_never_exceeds_observable(self, small_local_sweep):
        table = small_local_sweep.table
        for s, obs_err in table.series("s", scheme="Lie1", observable="cos_x",
                                       metric="observable_error"):
            exp_err = dict(table.series("s", scheme="Lie1", observable="cos_x",
                                        metric="expectation_error"))[s]
            assert exp_err <= obs_err + 1e-12

    def test_error_monotone_in_step_size(self, small_local_sweep):
        # error(s) >= error(s/2) for consecutive tested steps, except at
        # the round-off floor where ordering is meaningless
        table = small_local_sweep.table
        floor = roundoff_floor(32)
        for scheme in ("Lie1", "Strang2"):
            series = dict(table.series("s", scheme=scheme, observable="cos_x",
                                       metric="observable_error"))
            ss = sorted(series)
            for coarse, fine in zip(ss[1:], ss[:-1]):
                if series[coarse] > floor and series[fine] > floor:
                    assert series[coarse] >= series[fine]

    def test_expectation_has_same_order(self, small_local_sweep):
        fit = small_local_sweep.fits["Lie1/cos_x/expectation_error"]
        assert 1.8 <= fit.slope <= 2.2

    def test_floor_exclusions_reported(self, small_local_sweep):
        # at h = 2^-5 the smallest Strang2 errors sit below the floor
        assert small_local_sweep.excluded["Strang2/cos_x/observable_error"] >= 1

    def test_fit_window_applied(self, small_local_sweep):
        fit = small_local_sweep.fits["Lie1/cos_x/observable_error"]
        assert fit.window[1] <= FIT_WINDOW_LOCAL_S[1]

    def test_determinism(self, small_local_sweep):
        again = sweep_timestep(s_values=[2.0**-k for k in range(4, 12)], h=2.0**-5,
                               mode="local", observables=("cos_x",),
                               schemes=("Lie1", "Strang2"))
        assert again.table.csv_text() == small_local_sweep.table.csv_text()

    def test_threaded_merge_identical(self, small_local_sweep):
        threaded = sweep_timestep(s_values=[2.0**-k for k in range(4, 12)], h=2.0**-5,
                                  mode="local", observables=("cos_x",),
                                  schemes=("Lie1", "Strang2"), threads=4)
        assert threaded.table.csv_text() == small_local_sweep.table.csv_text()

    def test_global_mode_orders(self):
        res = sweep_timestep(s_values=[2.0**-k for k in range(2, 7)], h=2.0**-5,
                             mode="global", t_total=1.0, observables=("cos_x",),
                             schemes=("Lie1", "Strang2"))
        assert 0.8 <= res.fits["Lie1/cos_x/observable_error"].slope <= 1.2
        assert 1.8 <= res.fits["Strang2/cos_x/observable_error"].slope <= 2.2

    def test_global_mode_rejects_non_divisor(self):
        with pytest.raises(ValidationError):
            sweep_timestep(s_values=[0.3], h=2.0**-4, mode="global", t_total=1.0,
                           observables=("cos_x",), schemes=("Lie1",))


class TestSweepH:
    def test_reduced_sweep_structure(self):
        res = sweep_h(h_values=[2.0**-k for k in range(4, 8)], s_fixed=0.1,
                      mode="local", observables=("cos_x",), schemes=("Lie1",))
        # per h: 1 unitary row + 2 observable metric rows
        assert len(res.table.rows) == 4 * 3
        assert "Lie1/unitary_error" in res.fits
        assert res.fits["Lie1/unitary_error"].slope <= -0.7

    def test_observable_flat_in_window(self):
        res = sweep_h(h_values=[2.0**-k for k in range(5, 9)], s_fixed=0.1,
                      mode="local", observables=("cos_x",), schemes=("Lie1",))
        assert -0.25 <= res.fits["Lie1/cos_x/observable_error"].slope <= 0.25

    def test_packet_checked_on_every_grid_before_compute(self, svd_calls):
        # h = 1/4 gives N = 4, where the packet reaches the domain edge; the
        # finer grid sorted before it must not be decomposed first
        with pytest.raises(ValidationError) as err:
            sweep_h(h_values=[2.0**-6, 0.25], s_fixed=0.1)
        assert err.value.field == "h_values" and "h = 0.25" in str(err.value)
        assert svd_calls == []

    def test_global_mode_rejects_non_divisor_before_compute(self, monkeypatch):
        # 0.3 does not divide t = 1: three steps would stop at t = 0.9
        def no_compute(*args, **kwargs):
            raise AssertionError("grid built before the step was validated")

        monkeypatch.setattr(experiments, "build_pair", no_compute)
        with pytest.raises(ValidationError) as err:
            sweep_h(h_values=[2.0**-4], s_fixed=0.3, mode="global", t_total=1.0,
                    observables=("cos_x",), schemes=("Lie1",))
        assert err.value.field == "s_fixed"


class TestStepValidation:
    @pytest.mark.parametrize("s", [-0.1, -0.5, 0.0, math.nan, math.inf])
    @pytest.mark.parametrize("run, field", [
        (lambda s: sweep_timestep(s_values=[0.1, s], h=2.0**-6), "s_values"),
        (lambda s: sweep_timestep(s_values=[s], h=2.0**-6, mode="global"), "s_values"),
        (lambda s: sweep_h(h_values=[2.0**-4], s_fixed=s), "s_fixed"),
        (lambda s: sweep_h(h_values=[2.0**-4], s_fixed=s, mode="global"), "s_fixed"),
    ], ids=["sweep_timestep", "sweep_timestep_global", "sweep_h", "sweep_h_global"])
    def test_bad_step_rejected_before_compute(self, svd_calls, run, field, s):
        # a step that is not finite and positive is named as such in either
        # mode, not reported as a non-divisor of t or raised after the eigensolve
        with pytest.raises(ValidationError) as err:
            run(s)
        assert err.value.field == field
        assert "finite positive" in str(err.value)
        assert svd_calls == []


# Each driver, valid list arguments for it (the mode of sweep_timestep is not:
# it is read after the lists) and the list keys it reads.
DRIVER_LISTS = {
    "sweep_timestep": ({"s_values": [0.25], "h": 2.0**-4, "mode": "lcoal"},
                       ("s_values", "observables", "schemes")),
    "sweep_h": ({"h_values": [2.0**-4], "s_fixed": 0.1}, ("h_values", "observables", "schemes")),
    "commutator_scan": ({"h_values": [2.0**-4]}, ("h_values",)),
    "calculus_suite": ({"N_values": [16]}, ("N_values",)),
    "query_count_study": ({"epsilons": [0.03], "h_values": [2.0**-4]},
                          ("epsilons", "h_values", "observables", "schemes")),
}


class TestDriverValidation:
    """Each driver checks the numbers it reads, before any decomposition."""

    @pytest.mark.parametrize("run, field", [
        *[pytest.param(lambda t=t: query_count_study(epsilons=[0.03], h_values=[2.0**-4],
                                                     t_total=t),
                       "t_total", id=f"query_count_study-t_total={t}") for t in (0.0, -1.0, math.inf)],
        *[pytest.param(lambda t=t: sweep_h(h_values=[2.0**-4], s_fixed=0.02, mode="global",
                                           t_total=t),
                       "t_total", id=f"sweep_h_global-t_total={t}") for t in (0.0, -1.0, math.inf)],
        pytest.param(lambda: sweep_timestep(s_values=[0.25], h=2.0**-4, mode="lcoal"), "mode",
                     id="sweep_timestep-mode"),
        pytest.param(lambda: calculus_suite(N_values=[0]), "N_values", id="calculus_suite-N_values"),
        pytest.param(lambda: query_count_study(epsilons=[0.03], h_values=[2.0**-4],
                                               observables=("cos_3x", "cos_x")),
                     "observables", id="query_count_study-observables"),
        pytest.param(lambda: sweep_h(h_values=[0.0], s_fixed=0.1), "h_values", id="sweep_h-h=0"),
        pytest.param(lambda: commutator_scan([0.0]), "h_values", id="commutator_scan-h=0"),
    ])
    def test_bad_value_rejected_before_compute(self, svd_calls, run, field):
        with pytest.raises(ValidationError) as err:
            run()
        assert err.value.field == field
        assert svd_calls == []

    @pytest.mark.parametrize("driver, key", [
        pytest.param(driver, key, id=f"{driver}-{key}")
        for driver, (_, keys) in DRIVER_LISTS.items() for key in keys])
    def test_empty_list_rejected_before_compute(self, svd_calls, driver, key):
        # an empty list is named before any other value of the call is checked
        kwargs, _ = DRIVER_LISTS[driver]
        with pytest.raises(ValidationError) as err:
            getattr(experiments, driver)(**{**kwargs, key: []})
        assert err.value.field == key
        assert svd_calls == []



def _global_sweep(sweep: str, schemes) -> SweepTable:
    """A four-point global sweep of either kind, both observables."""
    common = {"mode": "global", "t_total": 1.0, "observables": ("cos_x", "momentum_fd"),
              "schemes": schemes}
    if sweep == "sweep_timestep":
        return sweep_timestep(s_values=[2.0**-k for k in range(2, 6)], h=2.0**-5, **common).table
    return sweep_h(h_values=[2.0**-k for k in range(3, 7)], s_fixed=0.25, **common).table


class TestOneStepPowerPerPoint:
    """Both schemes read the one Lie power W_L^n of a sweep point."""

    @pytest.mark.parametrize("sweep", ["sweep_timestep", "sweep_h"])
    def test_strang_rows_identical_with_and_without_lie(self, sweep):
        alone = _global_sweep(sweep, ("Strang2",))
        both = _global_sweep(sweep, ("Lie1", "Strang2"))
        assert len(alone.rows) > 0
        assert alone.rows == tuple(both.select(scheme="Strang2"))   # bit for bit

    @pytest.mark.parametrize("sweep", ["sweep_timestep", "sweep_h"])
    @pytest.mark.parametrize("schemes", [("Lie1",), ("Strang2",), ("Lie1", "Strang2")])
    def test_one_matrix_power_per_point(self, monkeypatch, sweep, schemes):
        powers = []
        matrix_power = np.linalg.matrix_power

        def counted(mat, n):
            powers.append(n)
            return matrix_power(mat, n)

        monkeypatch.setattr(np.linalg, "matrix_power", counted)
        _global_sweep(sweep, schemes)
        assert len(powers) == 4


class TestOnePropagatorPerHorizon:
    """A grid's setup makes one SVD and forms U once per distinct horizon."""

    @pytest.fixture
    def horizons(self, monkeypatch):
        calls = []
        exact_unitary = experiments.exact_unitary

        def counted(spectrum, t, frame):
            calls.append(t)
            return exact_unitary(spectrum, t, frame)

        monkeypatch.setattr(experiments, "exact_unitary", counted)
        return calls

    def test_default_long_time_forms_u_once(self, svd_calls, horizons):
        # every step size of the long-time run reaches the one horizon t_total
        sweep_timestep(mode="global", **COMMAND_DEFAULTS["long-time"])
        assert svd_calls == [256] and horizons == [1.0]

    def test_default_sweep_s_forms_u_per_step_size(self, svd_calls, horizons):
        # a single step of size s reaches the horizon s: one U per step size
        defaults = COMMAND_DEFAULTS["sweep-s"]
        sweep_timestep(mode="local", **defaults)
        assert svd_calls == [64] and sorted(horizons) == sorted(defaults["s_values"])


class TestGridRelation:
    # h = 0.0137 on [-pi, pi] asks for N = 72.99..., which no grid has
    @pytest.mark.parametrize("sweep, field", [
        (lambda: sweep_timestep(s_values=[0.1], h=0.0137), "h"),
        (lambda: sweep_h(h_values=[2.0**-4, 0.0137], s_fixed=0.1), "h_values"),
        (lambda: commutator_scan([2.0**-4, 0.0137]), "h_values"),
        (lambda: query_count_study(epsilons=[0.1], h_values=[2.0**-4, 0.0137]), "h_values"),
    ], ids=["sweep_timestep", "sweep_h", "commutator_scan", "query_count_study"])
    def test_off_lattice_h_rejected_before_compute(self, monkeypatch, sweep, field):
        def no_compute(*args, **kwargs):
            raise AssertionError("grid built before h was validated")

        monkeypatch.setattr(experiments, "build_pair", no_compute)
        with pytest.raises(ValidationError) as err:
            sweep()
        assert err.value.field == field

    def test_shifted_domain_accepted(self):
        grid = experiments.canonical_grid(2.0**-8, (-np.pi + 0.37, np.pi + 0.37), "h")
        assert grid.N == 256 and abs(grid.relation_residual) <= 1e-9 * 256

    # [-pi, pi/2] with h = 3/128 .. 3/1024 gives integral N = 32 .. 256, but
    # cos x and cos_x then wrap discontinuously and leave the symbol class
    @pytest.mark.parametrize("sweep", [
        lambda: sweep_timestep(s_values=[0.1], h=3 / 128, domain=(-math.pi, math.pi / 2)),
        lambda: sweep_h(h_values=[3 / 128, 3 / 256, 3 / 512, 3 / 1024], s_fixed=0.1,
                        domain=(-math.pi, math.pi / 2)),
        lambda: commutator_scan([3 / 128, 3 / 256], domain=(-math.pi, math.pi / 2)),
        lambda: query_count_study(epsilons=[0.1], h_values=[3 / 128],
                                  domain=(-math.pi, math.pi / 2)),
    ], ids=["sweep_timestep", "sweep_h", "commutator_scan", "query_count_study"])
    def test_domain_of_other_length_rejected_before_compute(self, monkeypatch, sweep):
        def no_compute(*args, **kwargs):
            raise AssertionError("grid built before the domain was validated")

        monkeypatch.setattr(experiments, "build_pair", no_compute)
        with pytest.raises(ValidationError) as err:
            sweep()
        assert err.value.field == "domain"

    # a domain of one entry or of three is neither indexed out of range nor truncated
    @pytest.mark.parametrize("domain", [(0.0,), (0.0, 2 * math.pi, 9.0), 0.0, ("0", "6.3")],
                             ids=["one", "three", "number", "strings"])
    @pytest.mark.parametrize("sweep", [
        lambda domain: sweep_timestep(s_values=[0.1], h=2.0**-4, domain=domain),
        lambda domain: sweep_h(h_values=[2.0**-4], s_fixed=0.1, domain=domain),
        lambda domain: commutator_scan([2.0**-4], domain=domain),
        lambda domain: query_count_study(epsilons=[0.1], h_values=[2.0**-4], domain=domain),
    ], ids=["sweep_timestep", "sweep_h", "commutator_scan", "query_count_study"])
    def test_domain_not_a_pair_rejected_before_compute(self, monkeypatch, sweep, domain):
        def no_compute(*args, **kwargs):
            raise AssertionError("grid built before the domain was validated")

        monkeypatch.setattr(experiments, "build_pair", no_compute)
        with pytest.raises(ValidationError) as err:
            sweep(domain)
        assert err.value.field == "domain" and "needs a pair [a, b]" in str(err.value)


@pytest.fixture(scope="module")
def scan():
    return commutator_scan([2.0**-k for k in range(3, 9)])


class TestMomentumRealizations:
    def test_flatness_check_fails_on_the_spectral_control(self):
        # The spectral-derivative momentum has a sawtooth symbol whose Nyquist
        # jump puts it outside the smooth symbol class: its worst-case errors
        # grow like 1/h, unlike the central-difference realization of the
        # default sweeps. Both run through the shipped sweep-h checks, which
        # must fail on the control and pass on momentum_fd.
        doc = {"command": "sweep-h", "h_values": [2.0**-k for k in range(5, 9)],
               "schemes": ["Lie1"], "observables": ["momentum_spectral", "momentum_fd"]}
        cfg = parse_config(json.dumps(doc))
        result = _dispatch(cfg, threads=1)
        passed = {check.name: check.passed for check in evaluate_criteria(cfg, result)}
        for name in ("h-flat-slope", "h-flat-ratio"):
            assert not passed[f"{name}/Lie1/momentum_spectral"]
            assert passed[f"{name}/Lie1/momentum_fd"]
        lo, hi = THRESHOLDS["unitary_growth"]
        assert lo <= result.fits["Lie1/momentum_spectral/observable_error"].slope <= hi


class TestCommutatorScan:
    def test_all_slopes_in_range(self, scan):
        lo, hi = THRESHOLDS["norm_scaling"]
        for key, fit in scan.fits.items():
            assert lo <= fit.slope <= hi, (key, fit.slope)

    def test_doubling_ratio(self, scan):
        series = dict(scan.table.series("h", metric="norm_comm_AB"))
        ratio = series[2.0**-4] / series[2.0**-3]
        assert 1.5 <= 1.0 / ratio <= 2.7 or 1.5 <= ratio <= 2.7

    @PROPERTY
    @given(delta=st.floats(0.0, 2 * math.pi))
    @example(delta=0.0)
    @example(delta=0.37)
    @pytest.mark.parametrize("n", [5, 6, 10, 12, 16])
    def test_rows_match_dense_oracle(self, n, delta):
        # at N that 4 divides and N that it does not, on random domain offsets
        domain = (-math.pi + delta, math.pi + delta)
        scan = commutator_scan([1.0 / n], domain=domain)
        grid = GridSpec.canonical(*domain, 1.0 / n)
        pair = build_pair(grid)
        a, b = (materialize(op) / grid.h for op in (pair.kinetic, pair.potential))
        comm = a @ b - b @ a
        expected = {"norm_A_over_h": a, "norm_B_over_h": b, "norm_comm_AB": comm,
                    "norm_comm_A_AB": a @ comm - comm @ a, "norm_comm_B_AB": b @ comm - comm @ b}
        for _, size, metric, value in scan.table.rows:
            assert size == n
            assert abs(value - np.linalg.norm(expected[metric], 2)) <= roundoff_floor(n), metric

    def test_three_norms_and_one_dense_kinetic_per_grid(self, monkeypatch):
        norms, dense = [], []
        spectral_norm, materialize_op = numkit.spectral_norm, fourier.materialize

        def counted_norm(matrix):
            norms.append(matrix.shape[0])
            return spectral_norm(matrix)

        def counted_materialize(op):
            dense.append(op.kind)
            return materialize_op(op)

        monkeypatch.setattr(numkit, "spectral_norm", counted_norm)
        monkeypatch.setattr(fourier, "materialize", counted_materialize)
        h_values = COMMAND_DEFAULTS["commutator-scan"]["h_values"]
        commutator_scan(h_values)
        assert sorted(norms) == sorted(3 * [round(1 / h) for h in h_values])   # each N
        assert dense == [DiagonalKind.FOURIER] * len(h_values)

    def test_potential_self_commutator_vanishes(self):
        # [B/h, B/h] = 0 exactly
        import numpy as np
        from trotterlab.fourier import materialize
        from trotterlab.hamiltonian import GridSpec, build_pair
        from trotterlab.numkit import spectral_norm
        grid = GridSpec.canonical(-np.pi, np.pi, 2.0**-4)
        b = materialize(build_pair(grid).potential) / grid.h
        assert spectral_norm(b @ b - b @ b) == 0.0

    def test_metric_set(self, scan):
        metrics = {row[2] for row in scan.table.rows}
        assert metrics == {"norm_A_over_h", "norm_B_over_h", "norm_comm_AB",
                           "norm_comm_A_AB", "norm_comm_B_AB"}


class TestCalculusSuite:
    def test_small_suite_passes_orders(self):
        res = calculus_suite([16, 32, 64])
        assert res.fits["composition_remainder"].slope >= 1.8
        assert res.fits["commutator_remainder"].slope >= 2.7
        assert res.fits["egorov_remainder"].slope >= 1.8

    def test_each_operator_quantized_once(self, monkeypatch):
        # per grid (4 | N), each (lattice, block) a defect reads is quantized
        # once: op(a + b) whole; the [even, odd] blocks of the rotated a (the
        # lattice of b) and of the rotated flowed symbol; the [even, even] and
        # [odd, odd] blocks of the diagonal op(a) and the [odd, even] block of
        # b, and both alternating blocks of a b and {a, b} / i. sup|a + b| is
        # sampled once for the whole run
        calls, mixed_sup = [], []
        quantize, sampled_sup = trotterlab.quantize.quantize, TorusSymbol._sampled_sup

        def counted_quantize(symbol, ctx, block=None):
            calls.append((ctx.N, symbol.coeffs.shape, symbol.coeffs.tobytes(), block))
            return quantize(symbol, ctx, block)

        def counted_sup(symbol):
            mixed_sup.append(not (symbol.is_x_only() or symbol.is_xi_only()))
            return sampled_sup(symbol)

        monkeypatch.setattr(trotterlab.quantize, "quantize", counted_quantize)
        monkeypatch.setattr(TorusSymbol, "_sampled_sup", counted_sup)
        calculus_suite([16, 32, 64, 128, 256, 512])
        assert len(calls) == len(set(calls)) == 10 * 6 and sum(mixed_sup) == 1
        assert [n for n, *_, block in calls if block is None] == [16, 32, 64, 128, 256, 512]

    def test_product_formed_once_per_grid(self, monkeypatch):
        # the composition and commutator defects both read the [even, odd] and
        # [odd, even] blocks of op(a) op(b): each grid forms each block once and
        # hands the same array to both
        calls, formed = [], []
        op_product = trotterlab.quantize.QuantizationContext.op_product

        def counted(ctx, a, b, block=None):
            prod = op_product(ctx, a, b, block)
            calls.append((ctx.N, block))
            if not any(prod is seen for seen in formed):
                formed.append(prod)
            return prod

        monkeypatch.setattr(trotterlab.quantize.QuantizationContext, "op_product", counted)
        calculus_suite([16, 32, 64])
        assert calls == [(n, block) for n in (16, 32, 64) for block in [(0, 1), (1, 0)] * 2]
        assert len(formed) == 6

    @pytest.mark.parametrize("n", [16, 33, 64])
    def test_norms_taken_on_parity_blocks(self, monkeypatch, n):
        # when 4 divides N the half-period shifts cut the defects into blocks:
        # composition, commutator and Egorov (in the DFT basis) alternate and
        # their symbols are even, so they are normed on Gram matrices of N/4
        # (the anti-Hermitian commutator and the Hermitian Egorov defect on
        # their [even, odd] block alone), and op(a + b) anticommutes with X Xi,
        # one N/2 block. A fallback to a whole norm shows as a larger or an
        # extra eigvalsh. At odd N no rule applies: each of the four defects
        # is normed whole, by one eigvalsh of size N.
        sizes = []
        eigvalsh = np.linalg.eigvalsh

        def counted(matrix, *args, **kwargs):
            sizes.append(matrix.shape[0])
            return eigvalsh(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        ctx = trotterlab.quantize.QuantizationContext(n)
        a, b = cosine_x(), cosine_xi()
        quarter, half = (n // 4 + 1, n // 2) if n % 4 == 0 else (n, n)
        for remainder, bound in [
            (lambda: trotterlab.quantize.composition_remainder(a, b, ctx), quarter),
            (lambda: trotterlab.quantize.commutator_remainder(a, b, ctx), quarter),
            (lambda: trotterlab.quantize.cv_gap(a + b, ctx), half),
            (lambda: trotterlab.quantize.egorov_remainder(a, b, experiments.CALCULUS_T_FLOW, ctx),
             quarter),
        ]:
            sizes.clear()
            remainder()
            assert sizes and max(sizes) <= bound
        sizes.clear()
        calculus_suite([n])
        assert len(sizes) == (9 if n % 4 == 0 else 4)

    def test_traced_peak_of_the_largest_grid(self):
        # at 4 | N the defects are formed on their N/2 blocks from the start:
        # no N x N array but op(a + b) of cv_gap (2 MB at N = 512) and its
        # quantization temporaries. Forming each operator whole and slicing
        # its blocks traced a 22 MB peak
        calculus_suite([16])
        tracemalloc.start()
        try:
            calculus_suite([512])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 14e6

    def test_rows_match_committed_reference(self):
        # the benchmark's reference table, recorded from the dense-norm code,
        # read only: every row within the round-off floor 1e-11 N
        path = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "calculus.csv"
        with open(path, newline="") as fh:
            reference = {(int(r["N"]), r["metric"]): float(r["value"]) for r in csv.DictReader(fh)}
        rows = calculus_suite([16, 32, 64, 128, 256, 512]).table.rows
        assert {(n, metric) for n, _, metric, _ in rows} == set(reference)
        for n, _, metric, value in rows:
            assert abs(value - reference[n, metric]) <= 1e-11 * n, (n, metric)

    @pytest.mark.parametrize("entry", [16.0, True, "16"])
    def test_non_integer_N_rejected_before_quantization(self, monkeypatch, entry):
        calls = []
        monkeypatch.setattr(trotterlab.quantize, "quantize", lambda *args: calls.append(args))
        with pytest.raises(ValidationError) as err:
            calculus_suite([32, entry])
        assert err.value.field == "N_values" and calls == []

    def test_numpy_integer_N_accepted(self):
        res = calculus_suite([np.int64(16), np.int32(32)])
        assert res.table.rows == calculus_suite([16, 32]).table.rows

    def test_cv_rows_present(self):
        res = calculus_suite([16, 32])
        ratios = [v for _, v in res.table.series("N", metric="cv_gap_over_h")]
        assert len(ratios) == 2 and all(np.isfinite(r) for r in ratios)
        assert res.fits == {}   # two points cannot support a slope fit


def _steps(result: ExperimentResult, epsilon: float) -> int:
    """The one step count of ``result`` at target error ``epsilon``."""
    (row,) = result.table.select(epsilon=epsilon)
    return row[-1]


class TestQueryCount:
    def test_trivial_epsilon(self):
        # the one-step error of cos_x at h = 2^-4 lies below 0.99
        res = query_count_study(epsilons=[0.99], h_values=[2.0**-4], observables=["cos_x"])
        assert _steps(res, 0.99) == 1

    def test_minimality(self):
        from trotterlab.evolve import exact_unitary, lie_power, relative_propagator
        from trotterlab.experiments import OBSERVABLES
        from trotterlab.numkit import polished_svd
        eps, h = 1e-2, 2.0**-6
        n = _steps(query_count_study(epsilons=[eps], h_values=[h]), eps)
        grid = GridSpec.canonical(-np.pi, np.pi, h)
        pair = build_pair(grid)
        frame = TimeReversalFrame.of(pair)
        obs = FrameObservable(OBSERVABLES["cos_3x"](grid), frame)
        u = exact_unitary(polished_svd(frame.hamiltonian_block()), 1.0, frame)
        err_at = lambda m: obs.error(relative_propagator(
            frame, SplittingScheme.STRANG2, 1.0 / m, lie_power(frame, 1.0 / m, m), u))
        assert err_at(n) <= eps
        if n > 1:
            assert err_at(n - 1) > eps

    def test_unreachable(self):
        with pytest.raises(Unreachable):
            query_count_study(epsilons=[1e-13], h_values=[2.0**-4], schemes=["Lie1"])

    def test_non_monotone_curve_detected(self, monkeypatch):
        # at epsilon = 0.1 the search lands on n = 4, but the error rises past
        # epsilon at n = 5; its companion epsilon / 4 finds n = 6 first (the stand-in
        # power and propagator are the step count, which the error looks up)
        errors = {1: 0.5, 2: 0.3, 3: 0.2, 4: 0.05, 5: 0.2}
        monkeypatch.setattr(experiments, "lie_power", lambda frame, s, n: n)
        monkeypatch.setattr(experiments, "relative_propagator",
                            lambda frame, scheme, s, power, u: power)
        monkeypatch.setattr(FrameObservable, "error", lambda obs, v: errors.get(v, 0.01))
        with pytest.raises(NonMonotone, match="n=4 reaches error 0.1 but n=5 does not"):
            query_count_study(epsilons=[0.1], h_values=[2.0**-3])

    def test_bad_epsilon_rejected_before_compute(self, svd_calls):
        with pytest.raises(ValidationError) as err:
            query_count_study(epsilons=[0.03, 2.0], h_values=[2.0**-6])
        assert err.value.field == "epsilons"
        assert svd_calls == []

    def test_default_study_shares_setup_and_error_curve(self, monkeypatch, svd_calls):
        # one SVD per grid, and one step power per distinct
        # (N, n) that the searches of every epsilon and its companion visit
        powers = []
        lie_power = experiments.lie_power

        def counted(frame, s, n):
            powers.append((frame.size, n))
            return lie_power(frame, s, n)

        monkeypatch.setattr(experiments, "lie_power", counted)
        defaults = COMMAND_DEFAULTS["query-count"]
        query_count_study(epsilons=defaults["epsilons"], h_values=defaults["h_values"])
        assert sorted(svd_calls) == [64, 256]
        assert len(powers) == 21 and len(set(powers)) == 21

    def test_schemes_share_each_step_power(self, monkeypatch):
        # Lie1 and Strang2 read one power W_L^n of each (N, n) that either search
        # visits: both searches double through n = 1, 2, 4, ... on every grid
        powers = []
        lie_power = experiments.lie_power

        def counted(frame, s, n):
            powers.append((frame.size, n))
            return lie_power(frame, s, n)

        monkeypatch.setattr(experiments, "lie_power", counted)
        query_count_study(epsilons=(3e-2, 1e-2), h_values=(2.0**-4, 2.0**-5),
                          schemes=("Lie1", "Strang2"))
        assert len(powers) == len(set(powers)) == 78

    def test_searches_match_linear_scan(self):
        # every count of a two-scheme study is the smallest n whose error, formed
        # densely from the stage product and expm, reaches its target
        h = 2.0**-4
        res = query_count_study(epsilons=(3e-2, 1e-2), h_values=(h,), schemes=("Lie1", "Strang2"))
        assert len(res.table.rows) == 8
        grid = GridSpec.canonical(-np.pi, np.pi, h)
        pair = build_pair(grid)
        dense = materialize(experiments.OBSERVABLES["cos_3x"](grid))
        u = expm_hermitian(pair.total, -1.0 / h)
        exact = u.conj().T @ dense @ u
        for scheme in SplittingScheme:
            errors = []
            for n in range(1, 1 + max(row[-1] for row in res.table.select(scheme=scheme.value))):
                w = np.linalg.matrix_power(split_step(pair, scheme, 1.0 / n, h), n)
                errors.append(np.linalg.norm(w.conj().T @ dense @ w - exact, 2))
            for eps, _, _, _, steps in res.table.select(scheme=scheme.value):
                assert steps == 1 + next(i for i, err in enumerate(errors) if err <= eps)

    def test_study_contains_quarter_epsilons(self):
        res = query_count_study(epsilons=(3e-2,), h_values=(2.0**-5,), schemes=("Strang2",))
        eps_seen = sorted({row[0] for row in res.table.rows})
        assert eps_seen == [3e-2 / 4, 3e-2]


class TestRoundoffFloor:
    def test_scaling(self):
        assert roundoff_floor(1024) == pytest.approx(1.024e-8)

    def test_result_container(self):
        res = ExperimentResult(SweepTable.build(("a",), [(1.0,)]))
        assert res.fits == {} and res.excluded == {}
