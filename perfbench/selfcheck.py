"""Self-checks of the benchmark's own arithmetic and correctness gates.

    python3 perfbench/selfcheck.py

Run from the root of a trotterlab checkout; exits 0 when every check holds.
The file is deliberately not named ``test_*.py`` so the repository's test
command does not collect it.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def _span(sid, group, start, end, parent, **extra):
    return {"id": sid, "name": group, "group": group, "start": start, "end": end,
            "parent": parent, "run": "synthetic", **extra}


def check_self_times() -> None:
    spans = [
        _span(0, tracer.ROOT, 0.0, 10.0, None),
        _span(1, "evolve.trotter_conj", 1.0, 4.0, 0, steps=6),
        _span(2, "numkit.svd", 3.0, 6.0, 0),        # overlaps span 1 on [3, 4]
        _span(3, "fourier.fft", 2.0, 3.0, 1, bytes=4_000_000_000),
        _span(4, "numkit.eigh", 7.0, 7.5, 0, digest="a"),
        _span(5, "numkit.eigh", 8.0, 8.5, 0, digest="a"),
    ]
    own = tracer.self_times(spans)
    assert own == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 0.5, 5: 0.5}, own
    m = tracer.aggregate({"spans": spans, "points": 3})
    assert m["evolve.trotter_conj_s"] == 2.0 and m["numkit.svd_s"] == 3.0
    assert m["fourier.fft_gbps"] == 4.0 and m["numkit.eigh_distinct_ratio"] == 0.5
    assert m["evolve.step_applications"] == 6 and m["experiments.points"] == 3
    assert math.isclose(m["share.fourier_evolve"], 0.3) and m["share.numkit"] == 0.4


def check_oracle() -> None:
    from trotterlab import experiments as xp

    domain = (-math.pi + 0.3, math.pi + 0.3)
    result = xp.sweep_timestep(s_values=[0.25, 0.125], h=1.0 / 16, mode="global",
                               t_total=1.0, domain=domain)
    for values in result.table.rows:
        row = dict(zip(result.table.columns, values))
        n_steps = round(1.0 / row["s"])
        ok, gap = oracle.check_row(row, domain, n_steps)
        assert ok, (row, gap)
        tol = oracle.FLOOR_PER_DIM * row["N"]
        bad = dict(row, value=row["value"] + 10 * tol)
        assert not oracle.check_row(bad, domain, n_steps)[0], bad


def check_reference_gate() -> None:
    text = run.CALCULUS_REFERENCE.read_bytes()
    ledger = run.Ledger()
    run.check_table(ledger, run.WORKLOADS["calculus"], {}, text, 0)
    assert ledger.attempted > 1 and not ledger.failures, ledger.failures
    header, first, *rest = text.decode().splitlines()
    n, h, metric, value = first.split(",")
    bumped = f"{n},{h},{metric},{float(value) + 10 * oracle.FLOOR_PER_DIM * int(n)!r}"
    ledger = run.Ledger()
    run.check_table(ledger, run.WORKLOADS["calculus"], {},
                    "\n".join([header, bumped, *rest, ""]).encode(), 0)
    assert len(ledger.failures) == 1, ledger.failures


def main() -> int:
    for check in (check_self_times, check_oracle, check_reference_gate):
        check()
        print(f"ok {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
