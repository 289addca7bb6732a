"""Acceptance gate: one test per shipped criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion. Criteria 1-5, 7 and 8 run the CLI's own configuration
of their command (its defaults, through ``parse_config``) and are judged
by ``cli.evaluate_criteria``, the evaluator and threshold table of
``trotterlab <command> --assert``. The heavy sweeps (criteria 1-3) are
computed once in module-scoped fixtures and reused by the domination
check (criterion 7), which judges their ``expectation-domination`` checks.
"""

import json
import math
import time

import numpy as np
import pytest
from oracles import dense_quantize, dft_matrix, expm_hermitian, lift, materialize

from trotterlab.cli import _dispatch, evaluate_criteria, parse_config
from trotterlab.evolve import SplittingScheme, lie_power, relative_propagator
from trotterlab.frame import TimeReversalFrame
from trotterlab.hamiltonian import GridSpec, build_pair
from trotterlab.numkit import spectral_norm
from trotterlab.quantize import QuantizationContext, quantize
from trotterlab.symbols import cosine_x, cosine_xi, product, sine_x


def report(num, name, passed, detail, seconds=None):
    stamp = "" if seconds is None else f"; {seconds:.1f}s"
    line = f"ACCEPTANCE {num} {name}: {'PASS' if passed else 'FAIL'} ({detail}{stamp})"
    print(line)
    assert passed, line


def timed(fn):
    t0 = time.time()
    out = fn()
    return out, time.time() - t0


def run_command(command, **doc):
    """Run ``command`` at its CLI defaults updated by ``doc``: (cfg, result, seconds)."""
    cfg = parse_config(json.dumps(doc), command=command)
    result, seconds = timed(lambda: _dispatch(cfg, 1))
    return cfg, result, seconds


def judge(num, name, runs, time_bound, only=None):
    """Report the CLI criteria of ``runs`` (those named ``only``, if given) as
    one acceptance line."""
    checks = [c for cfg, result, _ in runs for c in evaluate_criteria(cfg, result)
              if only is None or c.name == only]
    seconds = sum(t for _, _, t in runs)
    ok = bool(checks) and all(c.passed for c in checks) and seconds < time_bound
    detail = " ".join(f"{c.name}={'ok' if c.passed else 'FAIL'}[{c.detail}]" for c in checks)
    report(num, name, ok, detail, seconds)


@pytest.fixture(scope="module")
def local_s():
    return run_command("sweep-s", observables=["cos_x", "momentum_fd", "momentum_spectral"])


@pytest.fixture(scope="module")
def global_s():
    return run_command("long-time")


@pytest.fixture(scope="module")
def h_local():
    return run_command("sweep-h")


@pytest.fixture(scope="module")
def h_global():
    return run_command("sweep-h", mode="global")


def test_criterion_1_local_s_order(local_s):
    judge(1, "local-s-order", [local_s], 10.0)


def test_criterion_2_global_s_order(global_s):
    judge(2, "global-s-order", [global_s], 300.0)


def test_criterion_3_h_uniformity(h_local, h_global):
    judge(3, "h-uniformity", [h_local, h_global], 900.0)


def test_criterion_4_norm_scalings():
    judge(4, "norm-scalings", [run_command("commutator-scan")], 120.0)


def test_criterion_5_calculus_suite():
    judge(5, "calculus-suite", [run_command("calculus-check")], 120.0)


def test_criterion_6_quantization_specializations():
    def check():
        # x-only: exact position diagonal
        sym_x = cosine_x() + 0.5 * sine_x(2)
        err_x = 0.0
        for n in (4, 8, 16, 64):
            mat = quantize(sym_x, QuantizationContext(n))
            nodes = np.arange(n) / n
            err_x = max(err_x, float(np.abs(mat - np.diag(sym_x.evaluate(nodes, 0.0))).max()))
        # xi-only: DFT-conjugated diagonal
        err_xi = 0.0
        for n in (8, 16, 64):
            sym_xi = cosine_xi(2)
            mat = quantize(sym_xi, QuantizationContext(n))
            f = dft_matrix(n)
            target = np.linalg.inv(f) @ np.diag(sym_xi.evaluate(0.0, np.arange(n) / n)) @ f
            err_xi = max(err_xi, float(np.abs(mat - target).max()) / n)
        # mixed at N = 8 against the dense sum over lattice points
        mixed = product(cosine_x(), cosine_xi())
        err_mixed = float(np.abs(quantize(mixed, QuantizationContext(8))
                                 - dense_quantize(mixed, 8)).max())
        return err_x, err_xi, err_mixed

    (err_x, err_xi, err_mixed), seconds = timed(check)
    ok = err_x <= 1e-12 and err_xi <= 1e-10 and err_mixed <= 1e-10 and seconds < 10.0
    report(6, "quantization-specializations", ok,
           f"x_diag={err_x:.1e} xi_circulant={err_xi:.1e} mixed_bruteforce={err_mixed:.1e}",
           seconds)


def test_criterion_7_expectation_domination(local_s, global_s, h_local, h_global):
    # the four runs' times are judged by criteria 1-3; this check has no time bound
    runs = [local_s, global_s, h_local, h_global]
    judge(7, "expectation-domination", runs, math.inf, only="expectation-domination")


def test_criterion_8_query_count_h_independence():
    judge(8, "query-count-h-independence", [run_command("query-count")], 300.0)


def test_criterion_9_oracle_equivalence():
    def check():
        worst_step = 0.0
        for h in (2.0**-4, 2.0**-6):   # N = 16 and N = 64
            grid = GridSpec.canonical(-np.pi, np.pi, h)
            pair = build_pair(grid)
            frame = TimeReversalFrame.of(pair)
            s = 0.21
            for scheme in SplittingScheme:
                # one step with U = 1 in the time-reversal frame (Lie's step itself,
                # or its half-step conjugate), lifted as e^{-i c s/2h} R V R^dag
                real = relative_propagator(frame, scheme, s, lie_power(frame, s, 1),
                                           np.eye(grid.N))
                fast = lift(frame, real, s)
                ua = expm_hermitian(materialize(pair.kinetic), -s / h)
                ub = expm_hermitian(materialize(pair.potential), -s / h)
                if scheme is SplittingScheme.LIE1:
                    dense = ub @ ua
                else:
                    ub2 = expm_hermitian(materialize(pair.potential), -s / (2 * h))
                    dense = ub2 @ ua @ ub2
                worst_step = max(worst_step, spectral_norm(fast - dense) / grid.N)
        rng = np.random.default_rng(90)
        worst_norm = 0.0
        for _ in range(20):
            m = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
            oracle = float(np.linalg.svd(m, compute_uv=False)[0])
            worst_norm = max(worst_norm, abs(spectral_norm(m) - oracle) / oracle)
        return worst_step, worst_norm

    (worst_step, worst_norm), seconds = timed(check)
    ok = worst_step <= 1e-9 and worst_norm <= 1e-9
    report(9, "oracle-equivalence", ok,
           f"step_vs_dense={worst_step:.2e}/N norm_vs_svd={worst_norm:.2e}", seconds)
