"""Dense oracle for the rows of a time-sweep CSV.

Rebuilds each row's matrices from their definitions with numpy and scipy
alone (no trotterlab code): the finite-difference kinetic operator as
``pref * (2 I - T - T^-1)`` with T the cyclic shift, the potential and
``cos_x`` as diagonals, ``momentum_fd`` as the central difference, the split
factors and the exact propagator with ``scipy.linalg.expm``, ``W^n`` with
``np.linalg.matrix_power`` and norms with ``np.linalg.norm(., 2)``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

# Agreement required between a CSV value and the oracle: the round-off
# floor 1e-11 * N of the dense algebra.
FLOOR_PER_DIM = 1e-11

PACKET_X0 = 0.0
PACKET_P0 = 0.5


def _operators(domain, n_grid, h):
    a, b = domain
    length = b - a
    x = a + length * np.arange(n_grid) / n_grid
    shift = np.roll(np.eye(n_grid), 1, axis=1)          # (T v)_j = v_{j+1}
    pref = h**2 * n_grid**2 / (2.0 * length**2)
    kinetic = pref * (2.0 * np.eye(n_grid) - shift - shift.T)
    potential = np.diag(np.cos(x))
    observables = {
        "cos_x": np.diag(np.cos(x)).astype(complex),
        "momentum_fd": (h * n_grid / length) * (-0.5j) * (shift - shift.T),
    }
    packet = np.exp(-((x - PACKET_X0) ** 2) / (2.0 * h) + 1j * PACKET_P0 * (x - PACKET_X0) / h)
    return kinetic, potential, observables, packet / np.linalg.norm(packet)


def _step(kinetic, potential, scheme, s, h):
    exp_a = expm(-1j * s / h * kinetic)
    if scheme == "Lie1":
        return expm(-1j * s / h * potential) @ exp_a
    if scheme == "Strang2":
        half_b = expm(-1j * s / (2.0 * h) * potential)
        return half_b @ exp_a @ half_b
    raise ValueError(f"unknown scheme {scheme!r}")


def row_value(row: dict, domain, n_steps: int) -> float:
    """Oracle value of one CSV row (columns s, h, N, scheme, observable, metric)."""
    s, h, n_grid = float(row["s"]), float(row["h"]), int(row["N"])
    kinetic, potential, observables, psi = _operators(domain, n_grid, h)
    w_n = np.linalg.matrix_power(_step(kinetic, potential, row["scheme"], s, h), n_steps)
    u = expm(-1j * (n_steps * s) / h * (kinetic + potential))
    if row["metric"] == "unitary_error":
        return float(np.linalg.norm(w_n - u, 2))
    obs = observables[row["observable"]]
    if row["metric"] == "observable_error":
        return float(np.linalg.norm(w_n.conj().T @ obs @ w_n - u.conj().T @ obs @ u, 2))
    if row["metric"] == "expectation_error":
        split, exact = w_n @ psi, u @ psi
        return abs(np.vdot(split, obs @ split).real - np.vdot(exact, obs @ exact).real)
    raise ValueError(f"unknown metric {row['metric']!r}")


def check_row(row: dict, domain, n_steps: int) -> tuple[bool, float]:
    """Whether the row's value matches the oracle within the round-off floor."""
    expected = row_value(row, domain, n_steps)
    gap = abs(float(row["value"]) - expected)
    return gap <= FLOOR_PER_DIM * int(row["N"]) and math.isfinite(gap), gap
