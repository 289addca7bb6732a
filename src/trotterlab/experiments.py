"""Parameter sweeps, log-log slope fits and machine-readable result tables.

Each driver returns an ``ExperimentResult`` holding a deterministic
``SweepTable`` (identical configuration gives bit-identical rows), the
least-squares slope fits of every error series, and the count of points
excluded from each fit because they sat at the round-off floor.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from . import numkit
from . import quantize as qz
from .errors import NonMonotone, PacketTouchesBoundary, TooFewPoints, Unreachable, ValidationError
from .evolve import (
    ROUNDOFF_FLOOR_PER_DIM,
    EvolutionPlan,
    SplittingScheme,
    exact_unitary,
    expectation_error,
    gaussian_wavepacket,
    observable_error,
    relative_propagator,
)
from .fourier import FactoredOperator
from .hamiltonian import (
    GridSpec,
    build_pair,
    cosine_observable,
    momentum_fd_observable,
    momentum_observable,
)
from .quantize import QuantizationContext
from .symbols import cosine_x, cosine_xi

__all__ = [
    "FitReport",
    "SweepTable",
    "ExperimentResult",
    "fit_loglog_slope",
    "roundoff_floor",
    "sweep_timestep",
    "sweep_h",
    "step_count",
    "canonical_grid",
    "wavepacket",
    "commutator_scan",
    "calculus_suite",
    "query_count",
    "query_count_study",
    "SWEEP_COLUMNS",
    "COMMAND_DEFAULTS",
    "FIT_WINDOW_LOCAL_S",
    "FIT_WINDOW_H",
]

WAVEPACKET_X0 = 0.0
WAVEPACKET_P0 = 0.5

# Local single-step fits drop the two coarsest steps of the canonical
# s = 2^-4 .. 2^-11 ladder, where the asymptotic regime may not hold yet.
FIT_WINDOW_LOCAL_S = (2.0**-11, 2.0**-6)

# Planck-constant fits and flatness ratios likewise drop the two coarsest
# grids of the canonical h = 2^-3 .. 2^-10 ladder: at N = 8 and N = 16 the
# dynamics is under-resolved and observable errors sit well below their
# h -> 0 plateau, which would read as spurious growth.
FIT_WINDOW_H = (0.0, 2.0**-5)

SWEEP_COLUMNS = ("s", "h", "N", "scheme", "observable", "metric", "value")

# Flow time of the calculus suite's Egorov term.
CALCULUS_T_FLOW = 0.5

# Largest step count the query-count search tries before giving up.
QUERY_STEP_CAP = 2**15

POTENTIALS: dict[str, Callable] = {
    "cos": np.cos,
    "zero": lambda x: np.zeros_like(np.asarray(x, dtype=np.float64)),
}

# The default momentum entry is the central-difference realization: its
# symbol is smooth on the frequency torus, so the uniform-in-h observable
# bounds cover it and the flat h-sweep curves are reproduced. The spectral
# realization has a sawtooth symbol whose Nyquist jump makes worst-case
# errors grow like 1/h; it stays available for side-by-side runs.
OBSERVABLES: dict[str, Callable[[GridSpec], FactoredOperator]] = {
    "cos_x": cosine_observable,
    "cos_3x": lambda grid: cosine_observable(grid, harmonic=3),
    "momentum_fd": momentum_fd_observable,
    "momentum_spectral": momentum_observable,
}

_S_LADDER = tuple(2.0**-k for k in range(4, 12))

# Keys of the commands that build a grid Hamiltonian, of those that also
# evolve observables, and of those that run to a horizon t_total.
_GRID = {"domain": (-math.pi, math.pi), "potential": "cos"}
_EVOLVE = {**_GRID, "observables": ("cos_x", "momentum_fd"), "schemes": ("Lie1", "Strang2")}
_HORIZON = {**_EVOLVE, "t_total": 1.0}

# The one table of run defaults, keyed by CLI command. Each key is a keyword
# parameter of the command's driver, which takes its default from here; a
# {mode: value} entry gives the default in each mode.
COMMAND_DEFAULTS: dict[str, dict] = {
    "sweep-s": {**_EVOLVE, "s_values": _S_LADDER, "h": 2.0**-6, "mode": "local"},
    "long-time": {**_HORIZON, "s_values": _S_LADDER, "h": 2.0**-8, "mode": "global"},
    "sweep-h": {**_HORIZON, "h_values": tuple(2.0**-k for k in range(3, 11)), "mode": "local",
                "s_fixed": {"local": 0.1, "global": 0.02}},   # global: the long-horizon step
    "commutator-scan": {**_GRID, "h_values": tuple(2.0**-k for k in range(3, 9))},
    "calculus-check": {"N_values": (16, 32, 64, 128, 256)},
    "query-count": {**_HORIZON, "epsilons": (3e-2, 1e-2), "h_values": (2.0**-6, 2.0**-8),
                    "schemes": ("Strang2",), "observables": ("cos_3x",)},
}
_QUERY = COMMAND_DEFAULTS["query-count"]


def roundoff_floor(n: int) -> float:
    """Error level below which dense-algebra results are pure round-off."""
    return ROUNDOFF_FLOOR_PER_DIM * n


@dataclass(frozen=True)
class FitReport:
    """Ordinary least squares on (log x, log y)."""

    slope: float
    intercept: float
    r_squared: float
    points_used: int
    window: tuple[float, float]


@dataclass(frozen=True)
class SweepTable:
    """Tabulated sweep results: named columns, sorted rows."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    @staticmethod
    def build(columns: Sequence[str], rows: Iterable[tuple]) -> "SweepTable":
        return SweepTable(tuple(columns), tuple(sorted(rows)))

    def select(self, **filters) -> list[tuple]:
        idx = {name: self.columns.index(name) for name in filters}
        return [row for row in self.rows
                if all(row[idx[name]] == value for name, value in filters.items())]

    def series(self, x: str, y: str = "value", **filters) -> list[tuple[float, float]]:
        xi, yi = self.columns.index(x), self.columns.index(y)
        return [(row[xi], row[yi]) for row in self.select(**filters)]

    def csv_text(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_format_cell(cell) for cell in row))
        return "\n".join(lines) + "\n"


def _format_cell(cell) -> str:
    if isinstance(cell, bool):
        return str(cell)
    if isinstance(cell, (int, np.integer)):
        return str(int(cell))
    if isinstance(cell, (float, np.floating)):
        return f"{float(cell):.17g}"
    return str(cell)


@dataclass(frozen=True)
class ExperimentResult:
    table: SweepTable
    fits: dict[str, FitReport] = field(default_factory=dict)
    excluded: dict[str, int] = field(default_factory=dict)


def fit_loglog_slope(points: Iterable[tuple[float, float]],
                     window: tuple[float, float] | None = None) -> FitReport:
    """Fit log y = slope * log x + intercept over the points inside the window.

    Points with y <= 0 cannot enter the log fit and are skipped; at least
    three usable points are required.
    """
    usable = [(x, y) for x, y in points
              if y > 0 and (window is None or window[0] <= x <= window[1])]
    if len(usable) < 3:
        raise TooFewPoints(f"slope fit needs >= 3 positive points, got {len(usable)}")
    lx = np.log(np.array([p[0] for p in usable]))
    ly = np.log(np.array([p[1] for p in usable]))
    design = np.vstack([lx, np.ones_like(lx)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, ly, rcond=None)
    fitted = design @ np.array([slope, intercept])
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    used_x = [p[0] for p in usable]
    return FitReport(slope=float(slope), intercept=float(intercept), r_squared=r2,
                     points_used=len(usable), window=(min(used_x), max(used_x)))


def _fit_series(table: SweepTable, series: dict[str, list], window=None,
                floor: float = 0.0) -> ExperimentResult:
    """Fit each named series after dropping its round-off-floor points.

    Every key gets its count of excluded points. A series whose usable
    points shrink below three (everything at the floor, e.g. expectation
    errors of a high-order scheme, or too short a sweep) yields no fit
    instead of failing the whole run.
    """
    fits, excluded = {}, {}
    for key, points in series.items():
        kept = [(x, y) for x, y in points if y > floor]
        excluded[key] = len(points) - len(kept)
        try:
            fits[key] = fit_loglog_slope(kept, window=window)
        except TooFewPoints:
            pass
    return ExperimentResult(table, fits, excluded)


def _map_ordered(fn, items, threads: int):
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _map_rows(rows_for, items, threads: int) -> list[tuple]:
    """Concatenate the row lists of every sweep point, in item order."""
    return [row for chunk in _map_ordered(rows_for, items, threads) for row in chunk]


def step_count(s: float, mode: str, t_total: float, field: str) -> int:
    """Steps of size s in one run: 1 in ``local`` mode, t_total / s in ``global``.

    Raises ValidationError naming ``field`` when s does not divide t_total,
    so that the horizon reached is exactly t_total.
    """
    if mode == "local":
        return 1
    n = round(t_total / s)
    if n < 1 or abs(n * s - t_total) > 1e-9 * t_total:
        raise ValidationError(field, f"step {s} does not divide t={t_total}")
    return n


def canonical_grid(h: float, domain, field: str) -> GridSpec:
    """GridSpec.canonical on ``domain``; a non-integral N, or N < 2, which the
    finite-difference stencil cannot use, raises ValidationError naming ``field``;
    a domain that is not one 2 pi period of the potential and observables
    raises it naming ``domain``."""
    length = domain[1] - domain[0]
    if abs(length - 2.0 * math.pi) > 1e-9 * 2.0 * math.pi:
        raise ValidationError("domain", f"length b - a = {length:.17g} must be 2 pi, "
                                        "one period of the potential and observables")
    try:
        grid = GridSpec.canonical(domain[0], domain[1], h)
    except ValueError as err:
        raise ValidationError(field, str(err)) from None
    if grid.N < 2:
        raise ValidationError(field, f"h={h} gives N = {grid.N}; the grid needs N >= 2")
    return grid


def wavepacket(grid: GridSpec, field: str) -> np.ndarray:
    """The sweeps' coherent state on ``grid``; one that touches the domain edge
    raises ValidationError naming ``field``."""
    try:
        return gaussian_wavepacket(grid, WAVEPACKET_X0, WAVEPACKET_P0, grid.h)
    except PacketTouchesBoundary as err:
        raise ValidationError(field, f"at h = {grid.h:g}: {err}") from None


def _build_setup(grid: GridSpec, potential: str, observables, field: str):
    pair = build_pair(grid, potential=POTENTIALS[potential])
    ops = {name: OBSERVABLES[name](grid) for name in observables}
    packet = wavepacket(grid, field)
    return grid, pair, ops, packet, numkit.hermitian_eig(pair.total)


def _error_rows(setup, schemes, s: float, n: int, h: float,
                with_unitary: bool = False) -> list[tuple]:
    """Error rows of one sweep point: n steps of size s on one grid setup."""
    grid, pair, observables, packet, eig = setup
    u = exact_unitary(eig, n * s, h)
    out = []
    for scheme in schemes:
        v = relative_propagator(pair, EvolutionPlan(scheme, s, n, h), u)
        if with_unitary:
            out.append((s, h, grid.N, scheme.value, "-", "unitary_error",
                        numkit.unitary_distance(v)))
        exp_errs = expectation_error(observables.values(), v, u, packet)
        for (name, obs), exp_err in zip(observables.items(), exp_errs):
            err = observable_error(obs, v)
            out.append((s, h, grid.N, scheme.value, name, "observable_error", err))
            out.append((s, h, grid.N, scheme.value, name, "expectation_error", exp_err))
    return out


def _fit_table(table: SweepTable, x: str, window, floor: float) -> ExperimentResult:
    """Fit every (scheme, observable, metric) series of a sweep table against x.

    Keys read ``scheme/metric`` for observable-free series (observable
    ``-``) and ``scheme/observable/metric`` otherwise.
    """
    idx = [table.columns.index(c) for c in ("scheme", "observable", "metric")]
    series = {}
    for scheme, obs, metric in sorted({tuple(row[i] for i in idx) for row in table.rows}):
        key = f"{scheme}/{metric}" if obs == "-" else f"{scheme}/{obs}/{metric}"
        series[key] = table.series(x, scheme=scheme, observable=obs, metric=metric)
    return _fit_series(table, series, window, floor)


def sweep_timestep(*, s_values: Sequence[float], h: float,
                   mode: str = COMMAND_DEFAULTS["sweep-s"]["mode"],
                   t_total: float = _HORIZON["t_total"], domain=_GRID["domain"],
                   potential: str = _GRID["potential"],
                   observables: Sequence[str] = _EVOLVE["observables"],
                   schemes: Sequence = _EVOLVE["schemes"],
                   threads: int = 1) -> ExperimentResult:
    """Observable and expectation errors versus the step size s.

    ``local`` mode runs a single step of size s (short-time error);
    ``global`` mode runs to t_total with n = t_total / s steps, which must
    be integral.
    """
    schemes = [SplittingScheme(s) for s in schemes]
    steps = {s: step_count(s, mode, t_total, "s_values") for s in s_values}
    setup = _build_setup(canonical_grid(h, domain, "h"), potential, observables, "h")
    rows = _map_rows(lambda s: _error_rows(setup, schemes, s, steps[s], h),
                     sorted(s_values), threads)
    table = SweepTable.build(SWEEP_COLUMNS, rows)
    window = FIT_WINDOW_LOCAL_S if mode == "local" else None
    return _fit_table(table, "s", window, roundoff_floor(setup[0].N))


def sweep_h(*, h_values: Sequence[float], s_fixed: float,
            mode: str = COMMAND_DEFAULTS["sweep-h"]["mode"],
            t_total: float = _HORIZON["t_total"], domain=_GRID["domain"],
            potential: str = _GRID["potential"],
            observables: Sequence[str] = _EVOLVE["observables"],
            schemes: Sequence = _EVOLVE["schemes"],
            threads: int = 1) -> ExperimentResult:
    """Unitary, observable and expectation errors versus the Planck constant.

    The grid follows the canonical relation N = (b-a)/(2 pi h) at every h.
    ``local`` runs one step of size s_fixed; ``global`` runs to t_total,
    which s_fixed must divide.
    """
    schemes = [SplittingScheme(s) for s in schemes]
    n = step_count(s_fixed, mode, t_total, "s_fixed")
    grids = [canonical_grid(h, domain, "h_values") for h in sorted(h_values)]

    def rows_for(grid: GridSpec) -> list[tuple]:
        setup = _build_setup(grid, potential, observables, "h_values")
        return _error_rows(setup, schemes, s_fixed, n, grid.h, with_unitary=True)

    rows = _map_rows(rows_for, grids, threads)
    table = SweepTable.build(SWEEP_COLUMNS, rows)
    return _fit_table(table, "h", FIT_WINDOW_H, roundoff_floor(max(row[2] for row in rows)))


def commutator_scan(h_values: Sequence[float], domain=_GRID["domain"],
                    potential: str = _GRID["potential"], threads: int = 1) -> ExperimentResult:
    """Norms of the h-scaled split operators and their nested commutators.

    With A and B the kinetic/potential discretizations, tabulates the
    spectral norms of A/h, B/h, [A/h, B/h] and both nested commutators;
    each is expected to scale like 1/h under the canonical meshing.
    """
    metrics = ("norm_A_over_h", "norm_B_over_h", "norm_comm_AB",
               "norm_comm_A_AB", "norm_comm_B_AB")
    grids = [canonical_grid(h, domain, "h_values") for h in sorted(h_values)]

    def rows_for(grid: GridSpec) -> list[tuple]:
        h = grid.h
        pair = build_pair(grid, potential=POTENTIALS[potential])
        a, b = pair.kinetic.dense / h, pair.potential.dense / h
        comm = a @ b - b @ a
        values = (
            numkit.spectral_norm(a),
            numkit.spectral_norm(b),
            numkit.spectral_norm(comm),
            numkit.spectral_norm(a @ comm - comm @ a),
            numkit.spectral_norm(b @ comm - comm @ b),
        )
        return [(h, grid.N, metric, val) for metric, val in zip(metrics, values)]

    rows = _map_rows(rows_for, grids, threads)
    table = SweepTable.build(("h", "N", "metric", "value"), rows)
    return _fit_series(table, {m: table.series("h", metric=m) for m in metrics})


def calculus_suite(N_values: Sequence[int], threads: int = 1) -> ExperimentResult:
    """Composition, commutator, sup-norm and flow-conjugation defects over N.

    Runs the canonical pair a = cos(2 pi x), b = cos(2 pi xi) through the
    quantization remainders at each N and fits the h-scaling of each. Each N
    has one context, so each distinct operator is quantized once per grid and
    freed with it; a + b is one symbol, so sup|a + b| is sampled once per run.
    """
    a, b = cosine_x(), cosine_xi()
    mixed = a + b

    def rows_for(n: int) -> list[tuple]:
        ctx = QuantizationContext(n)
        h = ctx.h
        # Egorov first: its complex temporaries, the run's peak, meet only op(a), op(b)
        egorov = qz.egorov_remainder(a, b, CALCULUS_T_FLOW, ctx)
        gap = qz.cv_gap(mixed, ctx)
        return [
            (n, h, "composition_remainder", qz.composition_remainder(a, b, ctx)),
            (n, h, "commutator_remainder", qz.commutator_remainder(a, b, ctx)),
            (n, h, "cv_gap", gap),
            (n, h, "cv_gap_over_h", gap / h),
            (n, h, "egorov_remainder", egorov),
        ]

    rows = _map_rows(rows_for, sorted(N_values), threads)
    table = SweepTable.build(("N", "h", "metric", "value"), rows)
    metrics = ("composition_remainder", "commutator_remainder", "egorov_remainder")
    return _fit_series(table, {m: table.series("h", metric=m) for m in metrics})


def query_count(epsilon: float, scheme, h: float, *,
                domain=_GRID["domain"], potential: str = _GRID["potential"],
                observable: str = _QUERY["observables"][0],
                t_total: float = _HORIZON["t_total"]) -> int:
    """Smallest step count n with observable error at most epsilon at t_total.

    Doubling search for an upper bound, then bisection, which assumes the
    error falls as n grows: NonMonotone is raised when one of the next three
    counts above the answer misses epsilon. Raises Unreachable past QUERY_STEP_CAP.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    scheme = SplittingScheme(scheme)
    grid = canonical_grid(h, domain, "h")
    pair = build_pair(grid, potential=POTENTIALS[potential])
    obs = OBSERVABLES[observable](grid)
    u = exact_unitary(numkit.hermitian_eig(pair.total), t_total, h)

    def error_at(n: int) -> float:
        plan = EvolutionPlan(scheme, t_total / n, n, h)
        return observable_error(obs, relative_propagator(pair, plan, u))

    low, high = 0, 1
    while error_at(high) > epsilon:
        low, high = high, high * 2
        if high > QUERY_STEP_CAP:
            raise Unreachable(f"no step count up to {QUERY_STEP_CAP} reaches error {epsilon}")
    while high - low > 1:
        mid = (low + high) // 2
        if error_at(mid) <= epsilon:
            high = mid
        else:
            low = mid
    for n in range(high + 1, high + 4):
        if error_at(n) > epsilon:
            raise NonMonotone(f"n={high} reaches error {epsilon} but n={n} does not")
    return high


def query_count_study(*, epsilons: Sequence[float], h_values: Sequence[float],
                      schemes: Sequence = _QUERY["schemes"], domain=_GRID["domain"],
                      potential: str = _GRID["potential"],
                      observables: Sequence[str] = _QUERY["observables"],
                      t_total: float = _HORIZON["t_total"], threads: int = 1) -> ExperimentResult:
    """Step counts over epsilon and h, including each epsilon / 4 companion.

    ``observables`` names exactly one observable. The companion points make
    the epsilon -> epsilon/4 count ratio and a slope fit of count versus
    1/epsilon available from one table.
    """
    (observable,) = observables
    schemes = [SplittingScheme(s) for s in schemes]
    for h in h_values:
        canonical_grid(h, domain, "h_values")
    eps_all = sorted({float(e) for e in epsilons} | {float(e) / 4.0 for e in epsilons})
    tasks = [(scheme, h, eps) for scheme in schemes for h in sorted(h_values)
             for eps in eps_all]

    def row_for(task):
        scheme, h, eps = task
        steps = query_count(eps, scheme, h, domain=domain, potential=potential,
                            observable=observable, t_total=t_total)
        return (eps, h, scheme.value, "steps", steps)

    rows = _map_ordered(row_for, tasks, threads)
    table = SweepTable.build(("epsilon", "h", "scheme", "metric", "value"), rows)
    return _fit_series(table, {
        f"{scheme.value}/h={h:.17g}/steps_vs_inv_eps":
            [(1.0 / eps, n) for eps, n in
             table.series("epsilon", scheme=scheme.value, h=h, metric="steps")]
        for scheme in schemes for h in sorted(h_values)})
