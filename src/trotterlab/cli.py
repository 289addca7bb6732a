"""Command-line entry point: configuration, dispatch, CSV emission.

Commands
--------
sweep-s          single-step observable error versus the step size s
long-time        fixed-horizon observable error versus s
sweep-h          unitary/observable errors versus the Planck constant
commutator-scan  norms of the h-scaled split operators and nested commutators
calculus-check   quantization calculus defects versus N
query-count      smallest step counts reaching a target error

Configuration is a JSON object; unknown keys are rejected. Every command
understands ``domain``, ``potential``, ``observables``, ``schemes`` and
``out`` plus its own parameter lists (see COMMAND_DEFAULTS).
Output is a deterministic CSV (17 significant digits, LF line endings);
fit reports go to standard output. With ``--assert`` the command's
acceptance criteria are evaluated and a failing run exits with code 2,
while crashes and invalid input exit with code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import experiments as xp
from .errors import ParseError, TrotterlabError, ValidationError
from .evolve import SplittingScheme

__all__ = ["RunConfig", "parse_config", "run", "main"]

_S_LADDER = tuple(2.0**-k for k in range(4, 12))
_H_LADDER_WIDE = tuple(2.0**-k for k in range(3, 11))
_H_LADDER_SCAN = tuple(2.0**-k for k in range(3, 9))

COMMANDS = ("sweep-s", "sweep-h", "long-time", "commutator-scan",
            "calculus-check", "query-count")

COMMAND_DEFAULTS: dict[str, dict] = {
    "sweep-s": {"s_values": _S_LADDER, "h": 2.0**-6, "mode": "local"},
    "long-time": {"s_values": _S_LADDER, "h": 2.0**-8, "mode": "global", "t_total": 1.0},
    "sweep-h": {"h_values": _H_LADDER_WIDE, "mode": "local", "s_fixed": 0.1, "t_total": 1.0},
    "commutator-scan": {"h_values": _H_LADDER_SCAN},
    "calculus-check": {"N_values": (16, 32, 64, 128, 256)},
    "query-count": {"epsilons": (3e-2, 1e-2), "h_values": (2.0**-6, 2.0**-8),
                    "schemes": ("Strang2",), "observables": ("cos_3x",)},
}

# Default step of sweep-h in global mode: the long-horizon step size.
_S_FIXED_GLOBAL = 0.02


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters of one experiment invocation."""

    command: str
    domain: tuple[float, float] = xp.DEFAULT_DOMAIN
    potential: str = "cos"
    observables: tuple[str, ...] = ("cos_x", "momentum_fd")
    schemes: tuple[str, ...] = ("Lie1", "Strang2")
    s_values: tuple[float, ...] = _S_LADDER
    h: float = 2.0**-6
    h_values: tuple[float, ...] = _H_LADDER_WIDE
    mode: str = "local"
    t_total: float = 1.0
    s_fixed: float = 0.1
    N_values: tuple[int, ...] = (16, 32, 64, 128, 256)
    epsilons: tuple[float, ...] = (3e-2, 1e-2)
    out: str | None = None


def _check(condition: bool, field: str, message: str) -> None:
    if not condition:
        raise ValidationError(field, message)


def _number(value, field: str) -> float:
    # abs(value) <= max float also rejects NaN, infinities and ints too large for a float
    _check(isinstance(value, (int, float)) and not isinstance(value, bool)
           and abs(value) <= sys.float_info.max, field, f"needs a finite number, got {value!r}")
    return float(value)


def _float_tuple(value, field: str) -> tuple[float, ...]:
    _check(isinstance(value, (list, tuple)) and len(value) > 0, field, "needs a nonempty list")
    return tuple(_number(item, field) for item in value)


def parse_config(text: str, command: str | None = None) -> RunConfig:
    """Parse and validate a JSON configuration document.

    ``command`` supplies the command when the document omits it (the CLI
    passes the subcommand); a command present in both must agree.
    """
    try:
        doc = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as err:
        raise ParseError(f"line {err.lineno}, column {err.colno}: {err.msg}") from err
    if not isinstance(doc, dict):
        raise ParseError("configuration must be a JSON object")

    doc = dict(doc)
    doc_command = doc.pop("command", None)
    if doc_command is not None and command is not None and doc_command != command:
        raise ValidationError("command", f"document says {doc_command!r}, invocation says {command!r}")
    cmd = doc_command or command
    _check(cmd is not None, "command", "missing")
    _check(cmd in COMMANDS, "command", f"unknown command {cmd!r}")

    cfg = replace(RunConfig(command=cmd), **COMMAND_DEFAULTS[cmd])
    if cmd == "sweep-h" and doc.get("mode") == "global" and "s_fixed" not in doc:
        cfg = replace(cfg, s_fixed=_S_FIXED_GLOBAL)

    known = {f.name for f in fields(RunConfig)} - {"command"}
    updates = {}
    for key, value in sorted(doc.items()):
        _check(key in known, key, "unknown key")
        if key == "domain":
            vals = _float_tuple(value, key)
            _check(len(vals) == 2 and vals[1] > vals[0], key, "needs [a, b] with b > a")
            updates[key] = (vals[0], vals[1])
        elif key in ("observables", "schemes"):
            _check(isinstance(value, (list, tuple)) and value, key, "needs a nonempty list")
            updates[key] = tuple(str(v) for v in value)
        elif key in ("s_values", "h_values", "epsilons"):
            updates[key] = _float_tuple(value, key)
        elif key == "N_values":
            vals = _float_tuple(value, key)
            _check(all(v == int(v) for v in vals), key, "entries must be integers")
            updates[key] = tuple(int(v) for v in vals)
        elif key in ("h", "t_total", "s_fixed"):
            updates[key] = _number(value, key)
        elif key in ("mode", "potential"):
            updates[key] = str(value)
        elif key == "out":
            _check(value is None or isinstance(value, str), key, "needs a string path")
            updates[key] = value
    cfg = replace(cfg, **updates)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    _check(cfg.potential in xp.POTENTIALS, "potential",
           f"unknown id {cfg.potential!r}; choose from {sorted(xp.POTENTIALS)}")
    for name in cfg.observables:
        _check(name in xp.OBSERVABLES, "observables",
               f"unknown id {name!r}; choose from {sorted(xp.OBSERVABLES)}")
    schemes = [scheme.value for scheme in SplittingScheme]
    for name in cfg.schemes:
        _check(name in schemes, "schemes", f"unknown scheme {name!r}; choose from {schemes}")
    _check(cfg.mode in ("local", "global"), "mode", "must be 'local' or 'global'")
    if cfg.command == "sweep-s":
        _check(cfg.mode == "local", "mode", "sweep-s is single-step; use long-time for global runs")
    if cfg.command == "long-time":
        _check(cfg.mode == "global", "mode", "long-time is a fixed-horizon run")
    _check(all(s > 0 for s in cfg.s_values), "s_values", "entries must be positive")
    _check(0.0 < cfg.h <= 1.0, "h", "must lie in (0, 1]")
    _check(all(0.0 < h <= 1.0 for h in cfg.h_values), "h_values", "entries must lie in (0, 1]")
    _check(cfg.t_total > 0, "t_total", "must be positive")
    _check(cfg.s_fixed > 0, "s_fixed", "must be positive")
    if cfg.command != "calculus-check":
        field = "h" if cfg.command in ("sweep-s", "long-time") else "h_values"
        used = () if cfg.command == "commutator-scan" else cfg.observables
        grids = [xp.canonical_grid(h, cfg.domain, field)
                 for h in ((cfg.h,) if field == "h" else cfg.h_values)]
        for grid in grids:
            _check(grid.N % 2 == 0 or "momentum_spectral" not in used, field,
                   f"momentum_spectral needs even N, got N = {grid.N} at h = {grid.h:g}")
        if cfg.command in ("sweep-s", "long-time", "sweep-h"):   # the sweeps that evolve a packet
            for grid in grids:
                xp.wavepacket(grid, field)
    if cfg.command == "query-count":
        _check(len(cfg.observables) == 1, "observables",
               f"query-count searches one observable, got {len(cfg.observables)}")
    if cfg.command in ("sweep-s", "long-time"):
        for s in cfg.s_values:
            xp.step_count(s, cfg.mode, cfg.t_total, "s_values")
    if cfg.command == "sweep-h":
        xp.step_count(cfg.s_fixed, cfg.mode, cfg.t_total, "s_fixed")
    _check(all(n >= 16 and (n & (n - 1)) == 0 for n in cfg.N_values), "N_values",
           "entries must be powers of two >= 16")
    _check(all(0.0 < e < 1.0 for e in cfg.epsilons), "epsilons", "entries must lie in (0, 1)")


# Acceptance thresholds of criteria 1-5 and 8, shared by --assert and the test gate.
THRESHOLDS = {
    "s_order": {"local": {"Lie1": (1.8, 2.2), "Strang2": (2.7, 3.3)},
                "global": {"Lie1": (0.8, 1.2), "Strang2": (1.8, 2.2)}},
    "unitary_growth": (-1.3, -0.7), "norm_scaling": (-1.3, -0.7),
    "h_flat_slope": (-0.25, 0.25), "h_flat_ratio": 3.0,   # max/min of in-window errors <= 3.0
    "order": {"composition": 1.8, "commutator": 2.7, "egorov": 1.8},   # minimum slopes
    "cv_gap_slack": 1e-9,             # last cv_gap/h ratio <= first + slack
    "query_spread": 1,                # max - min step count over h
    "quarter_eps_ratio": (1.5, 2.7),  # steps(eps/4) / steps(eps)
}


@dataclass(frozen=True)
class CriterionCheck:
    name: str
    passed: bool
    detail: str


def _in_range(name, value, lo, hi, label="value") -> CriterionCheck:
    return CriterionCheck(name, lo <= value <= hi,
                          f"{label}={value:.6g} target=[{lo:g}, {hi:g}]")


def _slope_check(name, result: xp.ExperimentResult, key, lo, hi) -> CriterionCheck:
    fit = result.fits.get(key)
    if fit is None:
        floored = result.excluded.get(key, 0)
        reason = (f"series at round-off floor, {floored} points excluded" if floored
                  else "fewer than three points in the fit window")
        return CriterionCheck(name, False, f"no usable fit ({reason})")
    return _in_range(name, fit.slope, lo, hi)


def evaluate_criteria(cfg: RunConfig, result: xp.ExperimentResult) -> list[CriterionCheck]:
    """Acceptance checks for one command's result, against THRESHOLDS."""
    t = THRESHOLDS
    checks: list[CriterionCheck] = []
    if cfg.command in ("sweep-s", "long-time"):
        for scheme in cfg.schemes:
            for obs in cfg.observables:
                checks.append(_slope_check(f"s-order/{scheme}/{obs}", result,
                                           f"{scheme}/{obs}/observable_error",
                                           *t["s_order"][cfg.mode][scheme]))
    elif cfg.command == "sweep-h":
        for scheme in cfg.schemes:
            checks.append(_slope_check(f"unitary-growth/{scheme}", result,
                                       f"{scheme}/unitary_error", *t["unitary_growth"]))
            for obs in cfg.observables:
                checks.append(_slope_check(f"h-flat-slope/{scheme}/{obs}", result,
                                           f"{scheme}/{obs}/observable_error", *t["h_flat_slope"]))
                values = [v for hval, v in result.table.series(
                    "h", scheme=scheme, observable=obs, metric="observable_error")
                    if hval <= xp.FIT_WINDOW_H[1]]
                ratio = max(values) / min(values) if values else math.inf
                checks.append(CriterionCheck(f"h-flat-ratio/{scheme}/{obs}",
                                             ratio <= t["h_flat_ratio"],
                                             f"max/min={ratio:.6g} target<={t['h_flat_ratio']:g}"))
    elif cfg.command == "commutator-scan":
        for metric, fit in sorted(result.fits.items()):
            checks.append(_in_range(f"norm-scaling/{metric}", fit.slope, *t["norm_scaling"]))
    elif cfg.command == "calculus-check":
        for name, lo in t["order"].items():
            slope = result.fits[f"{name}_remainder"].slope
            checks.append(CriterionCheck(f"{name}-order", slope >= lo, f"value={slope:.6g} target>={lo:g}"))
        ratios = [v for _, v in result.table.series("N", metric="cv_gap_over_h")]
        ok = all(map(math.isfinite, ratios)) and ratios[-1] <= ratios[0] + t["cv_gap_slack"]
        checks.append(CriterionCheck("cv-gap-bounded", ok, f"ratios={['%.4g' % r for r in ratios]}"))
    elif cfg.command == "query-count":
        hs = sorted(cfg.h_values)
        for scheme in cfg.schemes:
            for eps in sorted(cfg.epsilons):
                counts, quarter = ({h: result.table.select(scheme=scheme, h=h, epsilon=e)[0][-1]
                                    for h in hs} for e in (eps, eps / 4.0))
                if len(hs) >= 2:
                    spread = max(counts.values()) - min(counts.values())
                    checks.append(CriterionCheck(
                        f"h-independent/{scheme}/eps={eps:g}", spread <= t["query_spread"],
                        f"counts={counts} spread={spread} target<={t['query_spread']}"))
                checks += [_in_range(f"quarter-eps-ratio/{scheme}/eps={eps:g}/h={h:g}",
                                     quarter[h] / counts[h], *t["quarter_eps_ratio"], "ratio")
                           for h in hs]
    return checks


def _dispatch(cfg: RunConfig, threads: int) -> xp.ExperimentResult:
    if cfg.command in ("sweep-s", "long-time"):   # modes fixed by _validate
        return xp.sweep_timestep(s_values=cfg.s_values, h=cfg.h, mode=cfg.mode,
                                 t_total=cfg.t_total, domain=cfg.domain,
                                 potential_id=cfg.potential, observable_ids=cfg.observables,
                                 schemes=cfg.schemes, threads=threads)
    if cfg.command == "sweep-h":
        return xp.sweep_h(h_values=cfg.h_values, s_fixed=cfg.s_fixed, mode=cfg.mode,
                          t_total=cfg.t_total, domain=cfg.domain,
                          potential_id=cfg.potential, observable_ids=cfg.observables,
                          schemes=cfg.schemes, threads=threads)
    if cfg.command == "commutator-scan":
        return xp.commutator_scan(cfg.h_values, domain=cfg.domain,
                                  potential_id=cfg.potential, threads=threads)
    if cfg.command == "calculus-check":
        return xp.calculus_suite(cfg.N_values, threads=threads)
    if cfg.command == "query-count":
        return xp.query_count_study(epsilons=cfg.epsilons, h_values=cfg.h_values,
                                    schemes=cfg.schemes, domain=cfg.domain,
                                    potential_id=cfg.potential,
                                    observable_id=cfg.observables[0],
                                    t_total=cfg.t_total, threads=threads)
    raise ValidationError("command", f"unknown command {cfg.command!r}")


def run(cfg: RunConfig, assert_criteria: bool = False, out: str | None = None,
        threads: int = 1, stream=None) -> int:
    """Execute a configuration; write CSV; return the process exit code."""
    stream = stream if stream is not None else sys.stdout
    result = _dispatch(cfg, threads)
    path = out or cfg.out or f"{cfg.command}.csv"
    try:
        with open(path, "w", newline="") as fh:
            fh.write(result.table.csv_text())
    except OSError as err:
        print(f"error: cannot write {path}: {err}", file=sys.stderr)
        return 1
    print(f"wrote {len(result.table.rows)} rows to {path}", file=stream)
    for key in sorted(result.fits):
        fit = result.fits[key]
        excl = result.excluded.get(key, 0)
        print(f"fit {key}: slope={fit.slope:.6g} intercept={fit.intercept:.6g} "
              f"r2={fit.r_squared:.6g} points={fit.points_used} "
              f"window=[{fit.window[0]:.6g}, {fit.window[1]:.6g}] excluded={excl}",
              file=stream)
    if not assert_criteria:
        return 0
    checks = evaluate_criteria(cfg, result)
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"criterion {check.name}: {status} ({check.detail})", file=stream)
    return 0 if all(c.passed for c in checks) else 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trotterlab",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    help_text = {
        "sweep-s": "single-step observable error versus step size (keys: s_values, h)",
        "sweep-h": "errors versus Planck constant (keys: h_values, s_fixed, mode, t_total)",
        "long-time": "fixed-horizon error versus step size (keys: s_values, h, t_total)",
        "commutator-scan": "scaled operator/commutator norms (keys: h_values)",
        "calculus-check": "quantization calculus defects (keys: N_values)",
        "query-count": "step counts to target error (keys: epsilons, h_values, schemes)",
    }
    for name in COMMANDS:
        cmd = sub.add_parser(name, help=help_text[name])
        cmd.add_argument("--config", help="JSON configuration file (defaults used when omitted)")
        cmd.add_argument("--assert", dest="assert_criteria", action="store_true",
                         help="evaluate acceptance criteria; exit 2 on failure")
        cmd.add_argument("--out", help="CSV output path (default <command>.csv)")
        cmd.add_argument("--threads", type=int, default=1,
                         help="worker threads for independent sweep points")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text() if args.config else "{}"
        cfg = parse_config(text, command=args.command)
        return run(cfg, assert_criteria=args.assert_criteria, out=args.out,
                   threads=max(1, args.threads))
    except (TrotterlabError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
