"""trotterlab benchmark: real CLI runs, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``; nothing is installed). Each sample is one fresh process running
``trotterlab <command> --config FILE --assert --out FILE --threads 1``
through ``launch.py``; samples repeat, one after another, until the next
would end past ``--seconds``, with at least three (one of each kind when
tracing). Scratch files go to
``.perfbench/`` in the checkout.

Workloads (see WORKLOADS): ``long_time`` (many split steps on one grid),
``h_sweep_local`` (one step on many grids) and ``calculus`` (quantization
calculus). The seed draws a domain offset ``delta`` for the two time sweeps,
which run on ``[-pi + delta, pi + delta]``; ``calculus`` has no input the
config can vary, so its inputs are fixed and the seed is only recorded.

``--trace 0`` reports the end-to-end metrics, medians over the samples and
measured from outside the process: ``wall_s``, ``setup_s`` (spawn until the
CLI is imported and the config parsed), ``cpu_s`` (user + system) and
``peak_rss_mb``. ``--trace 1`` alternates untraced and traced samples and
reports the per-layer metrics of ``tracer.aggregate`` (medians over the
traced samples), the tracing overhead, and fixed-N eigh/SVD costs.

Every sample is checked: each ``--assert`` criterion is one operation, the
CSV must be byte-identical to the run's first, and once per run either a
seeded sample of rows is recomputed by the dense oracle (time sweeps) or the
table is compared with the reference recorded in ``reference/`` (calculus),
each row one operation. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import tracer  # noqa: E402

# Boundary-safe domain offsets: the wave packet at x0 = 0 must stay below
# 1e-8 at both domain edges on the coarsest grid (h = 1/8), which holds for
# delta in [-0.2, 0.98]; the range keeps a margin on both sides.
DELTA_RANGE = (0.0, 0.75)
MIN_SAMPLES = 3
ORACLE_ROWS = 4
CHILD_TIMEOUT_S = 150.0
CALCULUS_REFERENCE = HERE / "reference" / "calculus.csv"
# One BLAS thread per run: with --threads 1 the run then uses one core, and
# the other cores of a small machine absorb outside load.
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    command: str
    params: dict
    seeded: bool

    def config(self, delta: float | None) -> dict:
        cfg = {"command": self.command, **self.params}
        if delta is not None:
            cfg["domain"] = [-math.pi + delta, math.pi + delta]
        return cfg


# Why each workload is in the benchmark is stated in BENCHMARK.json.
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = {
    "long_time": Workload(
        "long-time",
        {"h": 2.0**-8, "s_values": [2.0**-k for k in range(4, 8)], "t_total": 1.0},
        True),
    "h_sweep_local": Workload(
        "sweep-h",
        {"mode": "local", "s_fixed": 0.1, "h_values": [2.0**-k for k in range(3, 10)]},
        True),
    "calculus": Workload(
        "calculus-check",
        {"N_values": [16, 32, 64, 128, 256, 512]},
        False),
}


@dataclass
class Sample:
    wall_s: float
    setup_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int
    stdout: str
    csv: bytes
    record: dict


class BenchError(RuntimeError):
    """The program could not be run at all; no result is printed."""


def machine_info(blas_threads: int | None) -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads, "cli_threads": 1}


def invoke(root: Path, work: Path, tag: str, cli_args: list[str],
           trace_id: str | None = None, warmup: bool = False) -> Sample:
    record = work / f"record-{tag}.json"
    out_csv = work / f"out-{tag}.csv"
    own = [str(record)] + (["--trace", trace_id] if trace_id else []) + \
          (["--warmup"] if warmup else [])
    argv = [sys.executable, str(HERE / "launch.py"), *own, "--",
            *cli_args, "--out", str(out_csv)]
    record.unlink(missing_ok=True)
    out_csv.unlink(missing_ok=True)
    with open(work / f"stdout-{tag}.txt", "w+") as out, \
            open(work / f"stderr-{tag}.txt", "w+") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=root, stdout=out, stderr=err, env=CHILD_ENV)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            end = time.monotonic()
            watchdog.cancel()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    # Exit code 2 means failed criteria (counted below); anything else is a crash.
    if code not in (0, 2) or not record.exists():
        raise BenchError(f"{' '.join(cli_args)} exited with {code}:\n{stderr[-2000:]}")
    rec = json.loads(record.read_text())
    return Sample(wall_s=end - start, setup_s=rec["setup_mark"] - start,
                  cpu_s=usage.ru_utime + usage.ru_stime,
                  peak_rss_mb=usage.ru_maxrss / 1024.0, code=code, stdout=stdout,
                  csv=out_csv.read_bytes() if out_csv.exists() else b"",
                  record=rec)


class Ledger:
    """Attempted and failed correctness operations, with the failures named."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def check_sample(ledger: Ledger, sample: Sample, first_csv: bytes, tag: str) -> None:
    criteria = [line for line in sample.stdout.splitlines() if line.startswith("criterion ")]
    ledger.check(sample.code == 0 and bool(criteria), f"{tag}: --assert exit code {sample.code}")
    for line in criteria:
        ledger.check(": PASS" in line, f"{tag}: {line}")
    if sample.csv is not first_csv:
        ledger.check(sample.csv == first_csv, f"{tag}: CSV differs from the run's first")


def check_table(ledger: Ledger, workload: Workload, cfg: dict, table: bytes,
                seed: int) -> None:
    rows = list(csv.DictReader(io.StringIO(table.decode())))
    if not rows:
        ledger.check(False, "empty CSV")
        return
    if not workload.seeded:
        ref = list(csv.DictReader(io.StringIO(CALCULUS_REFERENCE.read_text())))
        ledger.check(len(ref) == len(rows), f"{len(rows)} rows against {len(ref)} reference rows")
        for got, want in zip(rows, ref):
            key = (got["N"], got["h"], got["metric"])
            same_key = key == (want["N"], want["h"], want["metric"])
            gap = abs(float(got["value"]) - float(want["value"]))
            ledger.check(same_key and gap <= oracle.FLOOR_PER_DIM * int(got["N"]),
                         f"reference row {key}: gap {gap:.3e}")
        return
    pick = random.Random(f"oracle-{seed}").sample(rows, min(ORACLE_ROWS, len(rows)))
    for row in pick:
        s = float(row["s"])
        n_steps = 1 if cfg.get("mode") == "local" else round(cfg["t_total"] / s)
        ok, gap = oracle.check_row(row, cfg["domain"], n_steps)
        ledger.check(ok, f"oracle row {row}: gap {gap:.3e}")


def fixed_n_costs(root: Path) -> dict[str, float]:
    """Fixed-N eigh and SVD costs, measured in a fresh process (fixed_n.py)."""
    proc = subprocess.run([sys.executable, str(HERE / "fixed_n.py")], cwd=root, env=CHILD_ENV,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode:
        raise BenchError(f"fixed_n.py exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def run(args) -> dict:
    root = Path.cwd()
    if not (root / "src" / "trotterlab" / "cli.py").is_file():
        raise BenchError(f"no trotterlab source under {root / 'src'}; "
                         "run from the root of a trotterlab checkout")
    workload = WORKLOADS[args.workload]
    work = root / ".perfbench" / args.workload
    work.mkdir(parents=True, exist_ok=True)

    delta = random.Random(args.seed).uniform(*DELTA_RANGE) if workload.seeded else None
    cfg = workload.config(delta)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=1))
    cli_args = [workload.command, "--config", str(cfg_path), "--assert", "--threads", "1"]
    warmup = invoke(root, work, "warmup", cli_args, warmup=True)
    print("perfbench machine " + json.dumps(machine_info(warmup.record["blas_threads"])),
          flush=True)
    print("perfbench run " + json.dumps({
        "workload": args.workload, "seed": args.seed, "delta": delta,
        "seeded_input": workload.seeded, "trace": bool(args.trace),
        "config": cfg}), flush=True)

    plain: list[Sample] = []
    traced: list[Sample] = []
    ledger = Ledger()
    first_csv = None
    start = time.monotonic()
    while True:
        index = len(plain) + len(traced)
        trace_id = (f"{args.workload}-{args.seed}-{index}"
                    if args.trace and index % 2 == 1 else None)
        sample = invoke(root, work, str(index % 2), cli_args, trace_id=trace_id)
        (traced if trace_id else plain).append(sample)
        first_csv = sample.csv if first_csv is None else first_csv
        check_sample(ledger, sample, first_csv, f"sample {index}")
        elapsed = time.monotonic() - start
        mean = elapsed / (index + 1)
        done = len(plain) >= MIN_SAMPLES or (args.trace and len(traced) >= 1 and len(plain) >= 1)
        if done and elapsed + mean > args.seconds:
            break
    check_table(ledger, workload, cfg, first_csv, args.seed)

    walls = [s.wall_s for s in plain]
    summary = {"samples": len(plain), "traced_samples": len(traced),
               "wall_s_quartiles": quartiles(walls),
               "csv_sha256": hashlib.sha256(first_csv).hexdigest(),
               "failures": ledger.failures}
    if args.trace:
        per_sample = [tracer.aggregate(s.record["trace"]) for s in traced]
        # median_low keeps the exact counts integral when the sample count is even.
        metrics = {name: statistics.median_low(m[name] for m in per_sample)
                   for name in per_sample[0]}
        metrics["trace.overhead_s"] = (statistics.median(s.wall_s for s in traced)
                                       - statistics.median(walls))
        metrics.update(fixed_n_costs(root))
        summary["unbound"] = traced[0].record["trace"]["unbound"]
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(s.setup_s for s in plain),
            "cpu_s": statistics.median(s.cpu_s for s in plain),
            "peak_rss_mb": statistics.median(s.peak_rss_mb for s in plain),
        }
    print("perfbench summary " + json.dumps(summary), flush=True)
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in SPEC[key]}
    return {"correct": not ledger.failures, "attempted": ledger.attempted,
            "failed": len(ledger.failures),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in sorted(metrics.items())}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = run(args)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
