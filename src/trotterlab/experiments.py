"""Parameter sweeps, log-log slope fits and machine-readable result tables.

The potentials and the symbol-class observables of the sweeps are torus
symbols, sampled on each grid by ``hamiltonian.sample``; ``momentum_spectral``
is a sampled sawtooth. The three sweeps and the step-count search share one
per-grid setup (``_build_setup``: the time-reversal frame, which holds the
grid's H and h, the frame observables, which form both of their errors, and the
exact propagator at each horizon, from one SVD of the half-size block of H in
the frame); the one step-count driver, ``query_count_study``, reads one
memoized error curve per grid for every scheme and target error. Each driver
takes the CLI's configuration keys by name and checks the numbers it reads (empty lists,
grids, packets, steps, horizon, target errors, N) once, before any
decomposition; the CLI checks only the document.

Each driver returns an ``ExperimentResult`` holding a deterministic
``SweepTable`` (identical configuration gives bit-identical rows), the
least-squares slope fits of every error series, and the count of points
excluded from each fit because they sat at the round-off floor.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from . import fourier, numkit
from . import quantize as qz
from .errors import (NonMonotone, NotOnePeriod, PacketTouchesBoundary, TooFewPoints,
                     Unreachable, ValidationError, check)
from .evolve import (
    SplittingScheme,
    exact_unitary,
    gaussian_wavepacket,
    lie_power,
    relative_propagator,
)
from .fourier import FactoredOperator
from .frame import FrameObservable, TimeReversalFrame
from .hamiltonian import PERIOD, GridSpec, build_pair, momentum_observable, sample
from .quantize import QuantizationContext
from .symbols import TorusSymbol, constant, cosine_x, cosine_xi, sine_xi

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
    "sweep_grid",
    "wavepacket",
    "commutator_scan",
    "calculus_suite",
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

# A sweep point runs one step (local) or steps to the horizon t_total (global).
MODES = ("local", "global")

# Flow time of the calculus suite's Egorov term.
CALCULUS_T_FLOW = 0.5

# Largest step count the query-count search tries before giving up.
QUERY_STEP_CAP = 2**15

POTENTIALS: dict[str, TorusSymbol] = {"cos": cosine_x(), "zero": constant(0.0)}

# The default momentum entry is the central difference, hN sin(2 pi xi)/(2 pi):
# its symbol is smooth on the frequency torus, so the uniform-in-h observable
# bounds cover it and the flat h-sweep curves are reproduced. The spectral
# realization has a sawtooth symbol whose Nyquist jump makes worst-case
# errors grow like 1/h; it stays available for side-by-side runs. query-count
# uses cos_3x, whose larger error constants keep its targets asymptotic.
OBSERVABLES: dict[str, Callable[[GridSpec], FactoredOperator]] = {
    "cos_x": lambda grid: sample(cosine_x(), grid),
    "cos_3x": lambda grid: sample(cosine_x(3), grid),
    "momentum_fd": lambda grid: sample(grid.h * grid.N * sine_xi(amplitude=1 / PERIOD), grid),
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
# {mode: value} entry gives the default in each mode. sweep-s and long-time
# fix their mode (cli.COMMANDS), so it is no key of theirs.
COMMAND_DEFAULTS: dict[str, dict] = {
    "sweep-s": {**_EVOLVE, "s_values": _S_LADDER, "h": 2.0**-6},
    "long-time": {**_HORIZON, "s_values": _S_LADDER, "h": 2.0**-8},
    "sweep-h": {**_HORIZON, "h_values": tuple(2.0**-k for k in range(3, 11)), "mode": "local",
                "s_fixed": {"local": 0.1, "global": 0.02}},   # global: the long-horizon step
    "commutator-scan": {**_GRID, "h_values": tuple(2.0**-k for k in range(3, 9))},
    "calculus-check": {"N_values": (16, 32, 64, 128, 256)},
    "query-count": {**_HORIZON, "epsilons": (3e-2, 1e-2), "h_values": (2.0**-6, 2.0**-8),
                    "schemes": ("Strang2",), "observables": ("cos_3x",)},
}
_QUERY = COMMAND_DEFAULTS["query-count"]

ROUNDOFF_FLOOR_PER_DIM = 1e-11


def roundoff_floor(n: int) -> float:
    """Error level 1e-11 N below which dense-algebra results are pure round-off;
    slope fits exclude the points under it."""
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
    # imported here: it costs every CLI start about 10 ms, and one thread needs no pool
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _map_rows(rows_for, items, threads: int) -> list[tuple]:
    """Concatenate the row lists of every sweep point, in item order."""
    return [row for chunk in _map_ordered(rows_for, items, threads) for row in chunk]


def _nonempty(**lists) -> None:
    """Raise ValidationError naming the first of ``lists`` that is empty."""
    for key, items in lists.items():
        check(len(items) > 0, key, "needs a nonempty list")


def step_count(s: float, mode: str, t_total: float, field: str) -> int:
    """Steps of size s in one run: 1 in ``local`` mode, t_total / s in ``global``.

    Raises ValidationError naming ``field`` when s is not a finite positive
    number or does not divide t_total (so that the horizon reached is exactly
    t_total), ``mode`` for an unknown mode, and ``t_total`` in either mode for
    a horizon that is not finite and positive.
    """
    check(0.0 < s < math.inf, field, f"step {s} must be a finite positive number")
    check(mode in MODES, "mode", f"unknown mode {mode!r}; choose from {sorted(MODES)}")
    check(0.0 < t_total < math.inf, "t_total", f"horizon {t_total} must be finite and positive")
    if mode == "local":
        return 1
    n = round(t_total / s)
    check(n >= 1 and abs(n * s - t_total) <= 1e-9 * t_total, field,
          f"step {s} does not divide t={t_total}")
    return n


def canonical_grid(h: float, domain, field: str) -> GridSpec:
    """GridSpec.canonical on ``domain``; a non-integral N, or N < 2, which the
    finite-difference stencil cannot use, raises ValidationError naming ``field``;
    a domain that is not a pair [a, b] of numbers, or that GridSpec.canonical
    finds off one 2 pi period, raises it naming ``domain``."""
    pair = tuple(domain) if isinstance(domain, Iterable) else ()
    check(len(pair) == 2 and all(isinstance(end, numbers.Real) for end in pair), "domain",
          f"needs a pair [a, b] of numbers, got {domain!r}")
    try:
        grid = GridSpec.canonical(*pair, h)
    except NotOnePeriod as err:
        raise ValidationError("domain", str(err)) from None
    except ValueError as err:
        raise ValidationError(field, str(err)) from None
    check(grid.N >= 2, field, f"h={h} gives N = {grid.N}; the grid needs N >= 2")
    return grid


def sweep_grid(h: float, domain, field: str) -> GridSpec:
    """``canonical_grid`` of a command that forms errors in the time-reversal
    frame: an N that 4 does not divide raises ValidationError naming ``field``."""
    grid = canonical_grid(h, domain, field)
    check(grid.N % 4 == 0, field,
          f"h={h:g} gives N = {grid.N}; the time-reversal frame needs N divisible by 4")
    return grid


def wavepacket(grid: GridSpec, field: str) -> np.ndarray:
    """The sweeps' coherent state on ``grid``; one that touches the domain edge
    raises ValidationError naming ``field``."""
    try:
        return gaussian_wavepacket(grid, WAVEPACKET_X0, WAVEPACKET_P0)
    except PacketTouchesBoundary as err:
        raise ValidationError(field, f"at h = {grid.h:g}: {err}") from None


def _build_setup(grid: GridSpec, potential: str, observables) -> tuple:
    """Per-grid data of a sweep or a step-count search: the frame of the grid's
    split pair, which holds H, the frame forms of the observables by name and
    the exact propagator t -> ``exact_unitary`` at horizon t, from one
    ``polished_svd`` of the frame's ``hamiltonian_block``. It keeps the last U it formed: the points of
    a global sweep, which share the horizon t_total, form it once. A potential
    without the frame's antisymmetry raises ValidationError naming
    ``potential``; every check runs before the SVD."""
    try:
        frame = TimeReversalFrame.of(build_pair(grid, potential=POTENTIALS[potential]))
    except ValueError as err:
        raise ValidationError("potential", f"{potential!r}: {err}") from None
    forms = {name: FrameObservable(OBSERVABLES[name](grid), frame) for name in observables}
    spectrum = numkit.polished_svd(frame.hamiltonian_block())
    return frame, forms, functools.lru_cache(maxsize=1)(
        lambda t: exact_unitary(spectrum, t, frame))


def _error_rows(setup: tuple, packet: np.ndarray, schemes, s: float, n: int,
                with_unitary: bool = False) -> list[tuple]:
    """Error rows of one sweep point: n steps of size s on one grid setup.
    Every scheme reads the one step power G = W_L^n of the point and the
    setup's U at t = n s, both real matrices in the time-reversal frame; each
    scheme lifts the packet's two states once, and each observable forms its
    two errors from V and those states."""
    frame, observables, unitary = setup
    point = (s, frame.h, frame.size)
    u, power = unitary(n * s), lie_power(frame, s, n)
    out = []
    for scheme in schemes:
        v = relative_propagator(frame, scheme, s, power, u)
        if with_unitary:
            out.append((*point, scheme.value, "-", "unitary_error", numkit.unitary_distance(v)))
        states = frame.states(v, u, packet)
        for name, obs in observables.items():
            out.append((*point, scheme.value, name, "observable_error", obs.error(v)))
            out.append((*point, scheme.value, name, "expectation_error",
                        obs.expectation_error(states)))
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


def sweep_timestep(*, s_values: Sequence[float], h: float, mode: str = "local",
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
    _nonempty(s_values=s_values, observables=observables, schemes=schemes)
    schemes = [SplittingScheme(s) for s in schemes]
    steps = {s: step_count(s, mode, t_total, "s_values") for s in s_values}
    grid = sweep_grid(h, domain, "h")
    packet = wavepacket(grid, "h")
    setup = _build_setup(grid, potential, observables)
    rows = _map_rows(lambda s: _error_rows(setup, packet, schemes, s, steps[s]),
                     sorted(s_values), threads)
    table = SweepTable.build(SWEEP_COLUMNS, rows)
    window = FIT_WINDOW_LOCAL_S if mode == "local" else None
    return _fit_table(table, "s", window, roundoff_floor(grid.N))


def sweep_h(*, h_values: Sequence[float], s_fixed: float,
            mode: str = COMMAND_DEFAULTS["sweep-h"]["mode"],
            t_total: float = _HORIZON["t_total"], domain=_GRID["domain"],
            potential: str = _GRID["potential"],
            observables: Sequence[str] = _EVOLVE["observables"],
            schemes: Sequence = _EVOLVE["schemes"],
            threads: int = 1) -> ExperimentResult:
    """Unitary, observable and expectation errors versus the Planck constant.

    The grid follows the canonical relation N = 1/h at every h.
    ``local`` runs one step of size s_fixed; ``global`` runs to t_total,
    which s_fixed must divide.
    """
    _nonempty(h_values=h_values, observables=observables, schemes=schemes)
    schemes = [SplittingScheme(s) for s in schemes]
    n = step_count(s_fixed, mode, t_total, "s_fixed")
    grids = [sweep_grid(h, domain, "h_values") for h in sorted(h_values)]
    packets = [wavepacket(grid, "h_values") for grid in grids]

    def rows_for(item) -> list[tuple]:
        grid, packet = item
        return _error_rows(_build_setup(grid, potential, observables), packet, schemes,
                           s_fixed, n, with_unitary=True)

    rows = _map_rows(rows_for, list(zip(grids, packets)), threads)
    table = SweepTable.build(SWEEP_COLUMNS, rows)
    return _fit_table(table, "h", FIT_WINDOW_H, roundoff_floor(max(row[2] for row in rows)))


def commutator_scan(h_values: Sequence[float], domain=_GRID["domain"],
                    potential: str = _GRID["potential"], threads: int = 1) -> ExperimentResult:
    """Norms of the h-scaled split operators and their nested commutators.

    With A and B the kinetic/potential discretizations, tabulates the
    spectral norms of A/h, B/h, [A/h, B/h] and both nested commutators;
    each is expected to scale like 1/h under the canonical meshing. Only A/h
    is dense: the diagonal B/h acts on each commutator entrywise, and the norms
    of A/h and B/h, Hermitian, are the largest moduli of their diagonals.
    """
    _nonempty(h_values=h_values)
    metrics = ("norm_A_over_h", "norm_B_over_h", "norm_comm_AB",
               "norm_comm_A_AB", "norm_comm_B_AB")
    grids = [canonical_grid(h, domain, "h_values") for h in sorted(h_values)]

    def rows_for(grid: GridSpec) -> list[tuple]:
        h = grid.h
        pair = build_pair(grid, potential=POTENTIALS[potential])
        a, b = fourier.materialize(pair.kinetic) / h, pair.potential.diag / h
        gap = b - b[:, None]                 # X B - B X = gap * X for B = diag(b)
        comm = gap * a
        values = (
            float(np.abs(pair.kinetic.diag).max() / h),   # A's eigenvalues: its Fourier diagonal
            float(np.abs(b).max()),
            numkit.spectral_norm(comm),
            numkit.spectral_norm(a @ comm - comm @ a),
            numkit.spectral_norm(gap * comm),             # [B/h, comm] = -gap * comm
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
    _nonempty(N_values=N_values)
    check(all(isinstance(n, numbers.Integral) and not isinstance(n, bool) for n in N_values),
          "N_values", f"entries must be integers, got {N_values}")
    check(all(n >= 1 for n in N_values), "N_values", f"entries must be at least 1, got {N_values}")
    a, b = cosine_x(), cosine_xi()
    mixed = a + b

    def rows_for(n: int) -> list[tuple]:
        ctx = QuantizationContext(n)
        h = ctx.h
        # Egorov first: its complex temporaries meet no operator kept by another term
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


def _error_curve(setup: tuple, t_total: float,
                 shared: bool) -> Callable[[SplittingScheme, int], float]:
    """The memoized error curve (scheme, n) -> ||V^T K V - K|| of the setup's one
    observable at t_total, after n steps of size t_total / n: the searches of
    every target error on the grid read it. A curve ``shared`` by several schemes
    keeps each step power W_L^n (one N x N real matrix per n) for the others."""
    frame, observables, unitary = setup
    (obs,) = observables.values()
    u = unitary(t_total)

    def power(n: int) -> np.ndarray:
        return lie_power(frame, t_total / n, n)

    power = functools.cache(power) if shared else power

    @functools.cache
    def error_at(scheme: SplittingScheme, n: int) -> float:
        return obs.error(relative_propagator(frame, scheme, t_total / n, power(n), u))

    return error_at


def _search(error_at: Callable[[int], float], epsilon: float) -> int:
    """Smallest n with error_at(n) <= epsilon.

    Doubling search for an upper bound, then bisection, which assumes the
    error falls as n grows: NonMonotone is raised when one of the next three
    counts above the answer misses epsilon. Raises Unreachable past QUERY_STEP_CAP.
    """
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
    1/epsilon available from one table. Each h is one task: one setup and one
    memoized error curve, which every scheme and epsilon searches.
    """
    _nonempty(epsilons=epsilons, h_values=h_values, observables=observables, schemes=schemes)
    check(len(observables) == 1, "observables",
          f"query-count searches one observable, got {len(observables)}")
    (observable,) = observables
    schemes = [SplittingScheme(s) for s in schemes]
    check(all(0.0 < e < 1.0 for e in epsilons), "epsilons",
          f"entries must lie in (0, 1), got {list(epsilons)}")
    check(0.0 < t_total < math.inf, "t_total", f"horizon {t_total} must be finite and positive")
    grids = [sweep_grid(h, domain, "h_values") for h in sorted(h_values)]
    eps_all = sorted({float(e) for e in epsilons} | {float(e) / 4.0 for e in epsilons})

    def rows_for(grid: GridSpec) -> list[tuple]:
        error_at = _error_curve(_build_setup(grid, potential, (observable,)), t_total,
                                shared=len(schemes) > 1)
        return [(eps, grid.h, scheme.value, "steps",
                 _search(functools.partial(error_at, scheme), eps))
                for scheme in schemes for eps in eps_all]

    rows = _map_rows(rows_for, grids, threads)
    table = SweepTable.build(("epsilon", "h", "scheme", "metric", "value"), rows)
    return _fit_series(table, {
        f"{scheme.value}/h={h:.17g}/steps_vs_inv_eps":
            [(1.0 / eps, n) for eps, n in
             table.series("epsilon", scheme=scheme.value, h=h, metric="steps")]
        for scheme in schemes for h in sorted(h_values)})
