"""Command-line entry point: configuration, dispatch, CSV emission.

Configuration is a JSON object. ``COMMANDS`` is the one table of commands:
each entry names the command's driver in ``experiments``, the driver
arguments the command fixes and its help line. ``COMMAND_DEFAULTS`` (defined
in ``experiments``, next to the drivers) is the one table of run defaults: a
command reads exactly the keys of its entry (``trotterlab <command> --help``
lists them), any other key is rejected by name, and the keys reach the
command's driver under the same names. The output path is set by ``--out``
alone. Output is a deterministic CSV (17 significant digits, LF line endings);
fit reports go to standard output. With ``--assert`` the command's acceptance
criteria are evaluated and a failing run exits with code 2, while crashes and
invalid input exit with code 1.

``parse_config`` checks the document: types, finite numbers, lists of
distinct entries, unknown keys and the names of entries. The driver checks
the numbers it reads, empty lists among them, once and before any compute.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from . import experiments as xp
from .errors import ParseError, TrotterlabError, ValidationError, check
from .evolve import SplittingScheme
from .experiments import COMMAND_DEFAULTS

__all__ = ["RunConfig", "parse_config", "run", "main"]


class Command(NamedTuple):
    driver: str    # looked up on experiments at call time, so a replaced attribute runs
    fixed: dict    # driver arguments the command fixes; no configuration key sets them
    help: str


# The one table of commands, in the order of COMMAND_DEFAULTS. sweep-s and
# long-time share one driver, which runs in either mode.
COMMANDS = {
    "sweep-s": Command("sweep_timestep", {"mode": "local"},
                       "single-step observable error versus the step size s"),
    "long-time": Command("sweep_timestep", {"mode": "global"},
                         "fixed-horizon observable error versus s"),
    "sweep-h": Command("sweep_h", {}, "unitary/observable errors versus the Planck constant"),
    "commutator-scan": Command("commutator_scan", {},
                               "norms of the h-scaled split operators and nested commutators"),
    "calculus-check": Command("calculus_suite", {}, "quantization calculus defects versus N"),
    "query-count": Command("query_count_study", {},
                           "smallest step counts reaching a target error"),
}

# The list keys (those with a tuple default) and the keys whose values name a known entry.
_LISTS = {key for table in COMMAND_DEFAULTS.values()
          for key, default in table.items() if isinstance(default, tuple)}
_CHOICES = {"potential": xp.POTENTIALS, "observables": xp.OBSERVABLES,
            "schemes": [scheme.value for scheme in SplittingScheme], "mode": xp.MODES}


@dataclass(frozen=True)
class RunConfig:
    """One checked invocation: the command and exactly the keyword arguments
    of its driver (every key it reads, defaults filled in, and the arguments
    the command fixes)."""

    command: str
    values: dict


def _number(value, field: str) -> float:
    # abs(value) <= max float also rejects NaN, infinities and ints too large for a float
    check(isinstance(value, (int, float)) and not isinstance(value, bool)
          and abs(value) <= sys.float_info.max, field, f"needs a finite number, got {value!r}")
    return float(value)


def _value(key: str, value):
    """One configuration value, converted to its driver type and checked on its own."""
    if key in _LISTS:
        check(isinstance(value, (list, tuple)), key, "needs a list")
    items = value if key in _LISTS else [value]
    if key in _CHOICES:
        items = tuple(str(item) for item in items)
        for name in items:
            check(name in _CHOICES[key], key,
                  f"unknown id {name!r}; choose from {sorted(_CHOICES[key])}")
    else:
        items = tuple(_number(item, key) for item in items)
        if key == "N_values":
            check(all(v == int(v) for v in items), key, "entries must be integers")
            items = tuple(int(v) for v in items)
    check(len(set(items)) == len(items), key, "entries must be distinct")
    return items if key in _LISTS else items[0]


def parse_config(text: str | bytes, command: str | None = None) -> RunConfig:
    """Parse a JSON configuration document, given as text or as UTF-8 bytes
    (RFC 8259), and check it as a document; the driver checks the values it reads.

    ``command`` supplies the command when the document omits it (the CLI
    passes the subcommand); a command present in both must agree.
    """
    try:
        text = text.decode("utf-8") if isinstance(text, bytes) else text
        doc = json.loads(text) if text.strip() else {}
    except UnicodeDecodeError as err:
        raise ParseError(f"byte {err.start}: not UTF-8 ({err.reason})") from err
    except json.JSONDecodeError as err:
        raise ParseError(f"line {err.lineno}, column {err.colno}: {err.msg}") from err
    if not isinstance(doc, dict):
        raise ParseError("configuration must be a JSON object")

    doc = dict(doc)
    doc_command = doc.pop("command", None)
    if doc_command is not None and command is not None and doc_command != command:
        raise ValidationError("command", f"document says {doc_command!r}, invocation says {command!r}")
    cmd = command if doc_command is None else doc_command
    check(isinstance(cmd, str), "command",
          "missing" if cmd is None else f"needs a command name, got {cmd!r}")
    check(cmd in COMMANDS, "command", f"unknown command {cmd!r}")

    table = COMMAND_DEFAULTS[cmd]
    for key in sorted(doc):
        check(key in table, key, f"unknown key; {cmd} reads {', '.join(sorted(table))}")
    # the mode picks the per-mode defaults, so it is checked before they are read
    mode = _value("mode", doc["mode"]) if "mode" in doc else table.get("mode")
    values = {key: default[mode] if isinstance(default, dict) else default
              for key, default in table.items()}
    values.update(doc)
    values = {key: _value(key, value) for key, value in sorted(values.items())}
    return RunConfig(cmd, {**values, **COMMANDS[cmd].fixed})


# Acceptance thresholds of criteria 1-5, 7 and 8, shared by --assert and the test gate.
THRESHOLDS = {
    "s_order": {"local": {"Lie1": (1.8, 2.2), "Strang2": (2.7, 3.3)},
                "global": {"Lie1": (0.8, 1.2), "Strang2": (1.8, 2.2)}},
    "unitary_growth": (-1.3, -0.7), "norm_scaling": (-1.3, -0.7),
    "h_flat_slope": (-0.25, 0.25), "h_flat_ratio": 3.0,   # max/min of in-window errors <= 3.0
    "order": {"composition": 1.8, "commutator": 2.7, "egorov": 1.8},   # minimum slopes
    "cv_gap_slack": 1e-9,             # last cv_gap/h ratio <= first + slack
    "query_spread": 1,                # max - min step count over h
    "quarter_eps_ratio": (1.5, 2.7),  # steps(eps/4) / steps(eps)
    "domination_slack": 1e-12,        # expectation error <= observable error + slack
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


def _domination_check(result: xp.ExperimentResult, slack: float) -> CriterionCheck:
    """Criterion 7: at every sweep point the expectation error of an observable
    stays within ``slack`` of its operator-norm error, which bounds it."""
    point = slice(xp.SWEEP_COLUMNS.index("metric"))   # s, h, N, scheme, observable
    bound = {row[point]: row[-1] for row in result.table.select(metric="observable_error")}
    gaps = [row[-1] - bound[row[point]]
            for row in result.table.select(metric="expectation_error")]
    worst = max(gaps, default=math.nan)   # no rows: nan fails the comparison
    return CriterionCheck("expectation-domination", worst <= slack,
                          f"rows={len(gaps)} max(exp-obs)={worst:.6g} target<={slack:g}")


def evaluate_criteria(cfg: RunConfig, result: xp.ExperimentResult) -> list[CriterionCheck]:
    """Acceptance checks for one command's result, against THRESHOLDS."""
    t, v = THRESHOLDS, cfg.values
    checks: list[CriterionCheck] = []
    if cfg.command in ("sweep-s", "long-time"):
        for scheme in v["schemes"]:
            for obs in v["observables"]:
                checks.append(_slope_check(f"s-order/{scheme}/{obs}", result,
                                           f"{scheme}/{obs}/observable_error",
                                           *t["s_order"][v["mode"]][scheme]))
        checks.append(_domination_check(result, t["domination_slack"]))
    elif cfg.command == "sweep-h":
        for scheme in v["schemes"]:
            checks.append(_slope_check(f"unitary-growth/{scheme}", result,
                                       f"{scheme}/unitary_error", *t["unitary_growth"]))
            for obs in v["observables"]:
                checks.append(_slope_check(f"h-flat-slope/{scheme}/{obs}", result,
                                           f"{scheme}/{obs}/observable_error", *t["h_flat_slope"]))
                values = [err for hval, err in result.table.series(
                    "h", scheme=scheme, observable=obs, metric="observable_error")
                    if hval <= xp.FIT_WINDOW_H[1]]
                ratio = max(values) / min(values) if values else math.inf
                checks.append(CriterionCheck(f"h-flat-ratio/{scheme}/{obs}",
                                             ratio <= t["h_flat_ratio"],
                                             f"max/min={ratio:.6g} target<={t['h_flat_ratio']:g}"))
        checks.append(_domination_check(result, t["domination_slack"]))
    elif cfg.command == "commutator-scan":
        for metric in sorted(result.excluded):   # every metric, fitted or not
            checks.append(_slope_check(f"norm-scaling/{metric}", result, metric, *t["norm_scaling"]))
    elif cfg.command == "calculus-check":
        for name, lo in t["order"].items():
            checks.append(_slope_check(f"{name}-order", result, f"{name}_remainder", lo, math.inf))
        ratios = [v for _, v in result.table.series("N", metric="cv_gap_over_h")]
        ok = all(map(math.isfinite, ratios)) and ratios[-1] <= ratios[0] + t["cv_gap_slack"]
        checks.append(CriterionCheck("cv-gap-bounded", ok, f"ratios={['%.4g' % r for r in ratios]}"))
    elif cfg.command == "query-count":
        hs = sorted(v["h_values"])
        for scheme in v["schemes"]:
            for eps in sorted(v["epsilons"]):
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
    return getattr(xp, COMMANDS[cfg.command].driver)(**cfg.values, threads=threads)


def run(cfg: RunConfig, assert_criteria: bool = False, out: str | None = None,
        threads: int = 1, stream=None) -> int:
    """Execute a configuration; write CSV; return the process exit code. An
    ``out`` in a missing directory or naming one raises ValidationError before
    the run, which may take minutes; a failed write raises its OSError."""
    stream = stream if stream is not None else sys.stdout
    path = out or f"{cfg.command}.csv"
    check(Path(path).parent.is_dir(), "out", f"directory {Path(path).parent} does not exist")
    check(not Path(path).is_dir(), "out", f"{path} is a directory")
    result = _dispatch(cfg, threads)
    with open(path, "w", newline="") as fh:
        fh.write(result.table.csv_text())
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
    for criterion in checks:
        status = "PASS" if criterion.passed else "FAIL"
        print(f"criterion {criterion.name}: {status} ({criterion.detail})", file=stream)
    return 0 if all(c.passed for c in checks) else 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trotterlab",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, command in COMMANDS.items():
        text = f"{command.help} (keys: {', '.join(sorted(COMMAND_DEFAULTS[name]))})"
        cmd = sub.add_parser(name, help=text, description=text)
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
        check(args.threads >= 1, "threads", f"needs at least one worker, got {args.threads}")
        text = Path(args.config).read_bytes() if args.config else "{}"
        cfg = parse_config(text, command=args.command)
        return run(cfg, assert_criteria=args.assert_criteria, out=args.out,
                   threads=args.threads)
    except (TrotterlabError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
