"""Structure gates are scale-free.

A structure gate decides what kind of operator a symbol or a sampled
diagonal is (real, even, of one variable, of a time-reversal parity) and so
which path it takes. Every gate asks ``numkit.negligible``, which compares
the part that breaks the structure with the largest modulus of the data, so
scaling a symbol by c = 10^k, k = -15 ... 15, changes no verdict. The errors
the sweeps read are then homogeneous: scaling an observable by c scales its
error by |c|, as the paper's bounds are.
"""

import numpy as np
import pytest

from trotterlab import fourier, numkit
from trotterlab.errors import NonHermitian, TrotterlabError
from trotterlab.fourier import DiagonalKind, FactoredOperator
from trotterlab.frame import FrameObservable, TimeReversalFrame
from trotterlab.hamiltonian import (
    GridSpec,
    HamiltonianPair,
    build_pair,
    kinetic_symbol,
    sample,
)
from trotterlab.quantize import QuantizationContext, quantize
from trotterlab.symbols import (
    constant,
    cosine_x,
    cosine_xi,
    harmonic,
    product,
    pullback_split_flow,
    sine_x,
    sine_xi,
)

SCALES = [10.0**k for k in range(-15, 16)]

# 4 | N, on a domain offset where cos x is antisymmetric under the half-period shift
GRID = GridSpec(-np.pi + 0.61, 16, 1.0 / 16)
FRAME = TimeReversalFrame.of(build_pair(GRID))
CTX = QuantizationContext(8)

SYMBOLS = {
    "cos_x": cosine_x(),
    "cos_3x": cosine_x(3),
    "sin_x": sine_x(),
    "cos_2x": cosine_x(2),
    "cos_x+cos_2x/2": cosine_x() + cosine_x(2, amplitude=0.5),
    "cos_xi": cosine_xi(),
    "sin_xi": sine_xi(),
    "kinetic": kinetic_symbol(GRID),
    "one": constant(1.0),
    "i_cos_x": 1j * cosine_x(),
    "i_cos_xi": 1j * cosine_xi(),
    "cos_x+cos_xi": cosine_x() + cosine_xi(),
    "cos_x_cos_xi": product(cosine_x(), cosine_xi()),
    "cos_x+1e-6_cos_xi": cosine_x() + 1e-6 * cosine_xi(),
    "mixed_sup": cosine_x() + cosine_xi() + 0.3 * product(cosine_x(), cosine_xi()),
    "e(x+xi)": harmonic(1, 1),
}

# the symbol whose flow pullback_split_flow checks a generator against
FLOWED = cosine_x() + cosine_xi()


def accepted(call):
    """True when ``call()`` returns, else the class of the error it raises."""
    try:
        call()
    except (TrotterlabError, ValueError) as err:
        return type(err)
    return True


def verdicts(a) -> dict:
    """Every gate's verdict on the symbol a, keyed by gate."""
    out = {name: getattr(a, name)() for name in
           ("is_real", "is_xi_hermitian", "is_even", "is_x_only", "is_xi_only", "shift_signs")}
    op = None
    try:
        op = sample(a, GRID)
        out["sample"] = op.kind
    except TrotterlabError as err:
        out["sample"] = type(err)
    out["build_pair"] = accepted(lambda: build_pair(GRID, a))
    out["frame"] = accepted(lambda: TimeReversalFrame.of(build_pair(GRID, a)))
    out["generator"] = accepted(lambda: pullback_split_flow(FLOWED, a, 0.3, 16))
    matrix = quantize(a, CTX)
    out["quantize"] = matrix.dtype
    out["require_hermitian"] = accepted(lambda: numkit.require_hermitian(matrix))
    if isinstance(op, FactoredOperator):
        out["materialize"] = fourier.materialize(op).dtype
        out["parity"] = FRAME.parity(op)
        out["parts"] = tuple(part is not None for part in FrameObservable(op, FRAME).parts)
    return out


@pytest.mark.parametrize("name", SYMBOLS)
def test_no_verdict_depends_on_scale(name):
    a = SYMBOLS[name]
    expected = verdicts(a)
    for c in SCALES:
        assert verdicts(c * a) == expected, f"c = {c:g}"
        assert (c * a).sup_abs() == pytest.approx(c * a.sup_abs(), rel=1e-12), f"c = {c:g}"


@pytest.mark.parametrize("imag, verdict", [(1e-3, NonHermitian), (1e-13, True)])
def test_frame_hermiticity_gate_is_scale_free(imag, verdict):
    # a potential diagonal with a relative imaginary part of 1e-3 is rejected
    # by the frame at every scale, one with 1e-13 (round-off) admitted
    pair = build_pair(GRID)
    for c in SCALES:
        potential = FactoredOperator(DiagonalKind.POSITION, c * pair.potential.diag * (1 + 1j * imag))
        scaled = HamiltonianPair(pair.kinetic, potential, GRID)
        assert accepted(lambda: TimeReversalFrame.of(scaled)) is verdict, f"c = {c:g}"


# The momentum_fd symbol h N sin(2 pi xi) / (2 pi) of experiments.OBSERVABLES.
HOMOGENEOUS = {
    "cos_x": cosine_x(),
    "cos_3x": cosine_x(3),
    "momentum_fd": GRID.h * GRID.N * sine_xi(amplitude=1 / (2 * np.pi)),
    "cos_xi": cosine_xi(),
    "sin_xi": sine_xi(),
}


@pytest.mark.parametrize("name", HOMOGENEOUS)
def test_observable_error_is_homogeneous(name):
    # ||V^T K V - K|| of c O is |c| times that of O, for a random orthogonal V
    a = HOMOGENEOUS[name]
    v = np.linalg.qr(np.random.default_rng(GRID.N).standard_normal((GRID.N, GRID.N)))[0]
    base = FrameObservable(sample(a, GRID), FRAME).error(v)
    assert base > 0.1
    for c in SCALES:
        error = FrameObservable(sample(c * a, GRID), FRAME).error(v)
        assert error == pytest.approx(c * base, rel=1e-12), f"c = {c:g}"
