import math

import numpy as np
import pytest

import trotterlab.quantize
from trotterlab import experiments
from trotterlab.cli import THRESHOLDS
from trotterlab.errors import NonMonotone, TooFewPoints, Unreachable, ValidationError
from trotterlab.experiments import (
    FIT_WINDOW_LOCAL_S,
    ExperimentResult,
    SweepTable,
    commutator_scan,
    calculus_suite,
    fit_loglog_slope,
    query_count,
    query_count_study,
    roundoff_floor,
    sweep_h,
    sweep_timestep,
)
from trotterlab.symbols import TorusSymbol


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

    def test_global_mode_rejects_non_divisor_before_compute(self, monkeypatch):
        # 0.3 does not divide t = 1: three steps would stop at t = 0.9
        def no_compute(*args, **kwargs):
            raise AssertionError("grid built before the step was validated")

        monkeypatch.setattr(experiments, "build_pair", no_compute)
        with pytest.raises(ValidationError) as err:
            sweep_h(h_values=[2.0**-4], s_fixed=0.3, mode="global", t_total=1.0,
                    observables=("cos_x",), schemes=("Lie1",))
        assert err.value.field == "s_fixed"


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


@pytest.fixture(scope="module")
def scan():
    return commutator_scan([2.0**-k for k in range(3, 9)])


class TestMomentumRealizations:
    def test_spectral_momentum_not_h_uniform(self):
        # The spectral-derivative momentum has a sawtooth symbol whose
        # Nyquist jump puts it outside the smooth symbol class: its
        # worst-case errors grow like 1/h, unlike the central-difference
        # realization used by the default sweeps. Recorded here as a fact.
        hs = [2.0**-k for k in range(5, 9)]
        res = sweep_h(h_values=hs, s_fixed=0.1, mode="local",
                      observables=("momentum_spectral",), schemes=("Lie1",))
        fit = res.fits["Lie1/momentum_spectral/observable_error"]
        vals = [v for _, v in res.table.series(
            "h", scheme="Lie1", observable="momentum_spectral",
            metric="observable_error")]
        assert fit.slope < -0.7
        assert max(vals) / min(vals) > THRESHOLDS["h_flat_ratio"]

    def test_fd_momentum_h_uniform(self):
        hs = [2.0**-k for k in range(5, 9)]
        res = sweep_h(h_values=hs, s_fixed=0.1, mode="local",
                      observables=("momentum_fd",), schemes=("Lie1",))
        vals = [v for _, v in res.table.series(
            "h", scheme="Lie1", observable="momentum_fd",
            metric="observable_error")]
        assert max(vals) / min(vals) <= THRESHOLDS["h_flat_ratio"]


class TestCommutatorScan:
    def test_all_slopes_in_range(self, scan):
        lo, hi = THRESHOLDS["norm_scaling"]
        for key, fit in scan.fits.items():
            assert lo <= fit.slope <= hi, (key, fit.slope)

    def test_doubling_ratio(self, scan):
        series = dict(scan.table.series("h", metric="norm_comm_AB"))
        ratio = series[2.0**-4] / series[2.0**-3]
        assert 1.5 <= 1.0 / ratio <= 2.7 or 1.5 <= ratio <= 2.7

    def test_potential_self_commutator_vanishes(self):
        # [B/h, B/h] = 0 exactly
        import numpy as np
        from trotterlab.hamiltonian import GridSpec, build_pair
        from trotterlab.numkit import spectral_norm
        grid = GridSpec.canonical(-np.pi, np.pi, 2.0**-4)
        b = build_pair(grid).potential.dense / grid.h
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
        # per grid: a, b, a b, {a, b} / i, a + b and the flowed symbol, each
        # quantized once; sup|a + b| sampled once for the whole run
        calls = {"quantize": 0, "mixed_sup": 0}
        quantize, sampled_sup = trotterlab.quantize.quantize, TorusSymbol._sampled_sup

        def counted_quantize(symbol, ctx):
            calls["quantize"] += 1
            return quantize(symbol, ctx)

        def counted_sup(symbol):
            calls["mixed_sup"] += not (symbol.is_x_only() or symbol.is_xi_only())
            return sampled_sup(symbol)

        monkeypatch.setattr(trotterlab.quantize, "quantize", counted_quantize)
        monkeypatch.setattr(TorusSymbol, "_sampled_sup", counted_sup)
        calculus_suite([16, 32, 64, 128, 256, 512])
        assert calls["quantize"] <= 36 and calls["mixed_sup"] == 1

    def test_cv_rows_present(self):
        res = calculus_suite([16, 32])
        ratios = [v for _, v in res.table.series("N", metric="cv_gap_over_h")]
        assert len(ratios) == 2 and all(np.isfinite(r) for r in ratios)
        assert res.fits == {}   # two points cannot support a slope fit


class TestQueryCount:
    def test_trivial_epsilon(self):
        # error is bounded by 2||O||, so eps >= 2 is reached with one step
        assert query_count(0.99, "Strang2", 2.0**-4, observable="cos_x") == 1

    def test_minimality(self):
        from trotterlab.evolve import (EvolutionPlan, SplittingScheme, exact_unitary,
                                       observable_error, relative_propagator)
        from trotterlab.hamiltonian import GridSpec, build_pair
        from trotterlab.experiments import OBSERVABLES
        from trotterlab.numkit import hermitian_eig
        eps, h = 1e-2, 2.0**-6
        n = query_count(eps, "Strang2", h)
        grid = GridSpec.canonical(-np.pi, np.pi, h)
        pair = build_pair(grid)
        obs = OBSERVABLES["cos_3x"](grid)
        u = exact_unitary(hermitian_eig(pair.total), 1.0, h)
        err_at = lambda m: observable_error(obs, relative_propagator(pair, EvolutionPlan(
            SplittingScheme.STRANG2, 1.0 / m, m, h), u))
        assert err_at(n) <= eps
        if n > 1:
            assert err_at(n - 1) > eps

    def test_unreachable(self):
        with pytest.raises(Unreachable):
            query_count(1e-13, "Lie1", 2.0**-4)

    def test_non_monotone_curve_detected(self, monkeypatch):
        # the search lands on n = 4, but the error rises past epsilon at n = 5
        # (the stand-in propagator is the step count, which the error looks up)
        errors = {1: 0.5, 2: 0.3, 3: 0.2, 4: 0.05, 5: 0.2}
        monkeypatch.setattr(experiments, "relative_propagator", lambda pair, plan, u: plan.n)
        monkeypatch.setattr(experiments, "observable_error", lambda obs, v: errors.get(v, 0.01))
        with pytest.raises(NonMonotone):
            query_count(0.1, "Strang2", 2.0**-3)

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
