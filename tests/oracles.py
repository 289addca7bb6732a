"""Dense and sample-based oracles shared by the test modules.

``dft_matrix`` writes the forward transform as a dense matrix and
``materialize`` a factored operator as its dense matrix. ``expm_hermitian``
forms exp(i theta M) of a real or complex Hermitian M densely from
``np.linalg.eigh``, ``dense_quantize``
sums the complex quantization of a symbol one lattice point at a time,
``pullback_samples`` writes a split-flow pullback as its M x M grid samples,
and ``from_samples`` truncates such samples to a coefficient lattice by one
2-D DFT. ``stage_factors`` and ``split_step`` write a split step as its
product of stages, Strang's as the three-stage
e^{-i B s/2h} e^{-i A s/h} e^{-i B s/2h}, ``apply_stages`` applies them to a
block by FFT, and ``trotter_step_unitary`` is Lie's complex step on any N.
``frame_basis`` writes the basis R of the time-reversal frame as a dense
unitary, ``project`` takes a complex matrix into the frame through it, and
``lift`` takes a real frame matrix back to the complex matrix it stands for.
The library reaches the same results by cheaper routes.
"""

import numpy as np

from trotterlab.errors import EmptyInput
from trotterlab.evolve import SplittingScheme
from trotterlab.fourier import DiagonalKind, FactoredOperator, idft_cols
from trotterlab.symbols import TorusSymbol

# One split step as (operator, fraction of s) rows in application order: A is
# the kinetic part, B the potential. Lie1 applies exp(-i A s/h) then
# exp(-i B s/h); Strang2 sandwiches the kinetic factor between two half-steps
# of the potential.
STAGES = {
    SplittingScheme.LIE1: (("A", 1.0), ("B", 1.0)),
    SplittingScheme.STRANG2: (("B", 0.5), ("A", 1.0), ("B", 0.5)),
}


def dft_matrix(n: int) -> np.ndarray:
    """Dense forward-transform matrix of size n."""
    if n < 1:
        raise EmptyInput("transform matrix of size 0")
    j = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(j, j) / n)


def materialize(op: FactoredOperator) -> np.ndarray:
    """Dense matrix of a factored operator."""
    if op.kind is DiagonalKind.POSITION:
        return np.diag(op.diag).astype(np.complex128)
    return idft_cols(op.diag[:, None] * dft_matrix(op.diag.size))


def expm_hermitian(matrix, theta: float) -> np.ndarray:
    """Unitary exponential ``exp(i * theta * M)`` of a Hermitian matrix M."""
    w, v = np.linalg.eigh(matrix)
    return (v * np.exp(1j * theta * w)) @ v.conj().T


def stage_factors(pair, scheme: SplittingScheme, s: float, h: float) -> list[FactoredOperator]:
    """Unitary phase factors exp(-i X (fraction * s) / h) of one split step, in order."""
    ops = {"A": pair.kinetic, "B": pair.potential}
    return [FactoredOperator(ops[name].kind, np.exp(-1j * (frac * s) / h * ops[name].diag))
            for name, frac in STAGES[scheme]]


def apply_stages(factors: list[FactoredOperator], mat: np.ndarray) -> np.ndarray:
    """The stages applied to every column of ``mat``, one at a time (a
    Fourier-diagonal stage by FFT along the columns)."""
    for factor in factors:
        if factor.kind is DiagonalKind.POSITION:
            mat = factor.diag[:, None] * mat
        else:
            mat = np.fft.ifft(factor.diag[:, None] * np.fft.fft(mat, axis=0), axis=0)
    return mat


def split_step(pair, scheme: SplittingScheme, s: float, h: float) -> np.ndarray:
    """Dense matrix of one split step, its stages applied to the identity."""
    return apply_stages(stage_factors(pair, scheme, s, h),
                        np.eye(pair.grid.N, dtype=np.complex128))


def trotter_step_unitary(pair, s: float) -> np.ndarray:
    """Complex matrix of Lie's split step W_L = e^{-i B s/h} e^{-i A s/h} on any
    N, assembled by FFT: the step whose power ``evolve.lie_power`` forms in the
    time-reversal frame."""
    return split_step(pair, SplittingScheme.LIE1, s, pair.grid.h)


def frame_basis(n: int) -> np.ndarray:
    """Dense basis R of the time-reversal frame (4 | N): the columns
    (e_j + s_j e_{j+N/2})/sqrt 2 and then i (e_j - s_j e_{j+N/2})/sqrt 2,
    j < N/2, with s_j = (-1)^j."""
    m, eye = n // 2, np.eye(n)
    signs = (-1.0) ** np.arange(m)
    plus, minus = eye[:, :m] + signs * eye[:, m:], eye[:, :m] - signs * eye[:, m:]
    return np.hstack((plus, 1j * minus)) / np.sqrt(2.0)


def project(frame, mat: np.ndarray, phase: complex = 1.0) -> np.ndarray:
    """Re R^dag (phase mat) R through the dense basis: the real frame matrix of
    a phase mat that commutes with T."""
    basis = frame_basis(frame.size)
    return (basis.conj().T @ (phase * mat) @ basis).real


def lift(frame, real: np.ndarray, t: float = 0.0) -> np.ndarray:
    """The complex matrix e^{-i c t/2h} R X R^dag of a real frame matrix X, which
    undoes the phase e^{i c t/2h} of ``exact_unitary`` and ``lie_power`` (t = n s);
    V needs none, as its phases cancel."""
    basis = frame_basis(frame.size)
    return np.conj(frame.phase(t)) * (basis @ real @ basis.conj().T)


def dense_quantize(symbol: TorusSymbol, n: int) -> np.ndarray:
    """Complex N x N quantization, one dense term per lattice point (k, kap):
    A[m, j] += c(k, kap) (-1)^(k l) exp(i pi (j + m) k / N) wherever
    j - m - l N = kap for an integer l."""
    m, j = np.indices((n, n))
    out = np.zeros((n, n), dtype=np.complex128)
    for (row, col), c in np.ndenumerate(symbol.coeffs):
        k, kap = row - symbol.order_x, col - symbol.order_xi
        l, rest = np.divmod(j - m - kap, n)
        out += np.where(rest == 0, c * (-1.0) ** (k * l) * np.exp(1j * np.pi * (j + m) * k / n), 0)
    return out


def from_samples(values: np.ndarray) -> TorusSymbol:
    """Truncated coefficient lattice of samples values[i, j] = a(i/M, j/M).

    The cutoff M/4 guards against aliasing: coefficients beyond half
    the Nyquist order of the sample grid are discarded.
    """
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValueError(f"expected square sample grid, got shape {values.shape}")
    m = values.shape[0]
    idx = np.arange(-(m // 4), m // 4 + 1) % m
    return TorusSymbol((np.fft.fft2(values) / m**2)[np.ix_(idx, idx)])


def _modes(values, order):
    return np.exp(2j * np.pi * np.multiply.outer(values, np.arange(-order, order + 1)))


def pullback_samples(a: TorusSymbol, generator: TorusSymbol, t: float, m: int) -> np.ndarray:
    """M x M samples of ``a`` after the time-t flow of a split generator,
    entry [i, j] at (i/M, j/M), formed as one (M x K) @ (K x M) product."""
    grid = np.arange(m) / m
    on_x, on_xi = _modes(grid, a.order_x), _modes(grid, a.order_xi)
    if generator.is_x_only():   # (x, xi) -> (x, xi - t b'(x))
        rate = generator.dx().evaluate(grid, 0.0).real
        return ((on_x @ a.coeffs) * _modes(-t * rate, a.order_xi)) @ on_xi.T
    rate = generator.dxi().evaluate(0.0, grid).real   # (x, xi) -> (x + t b'(xi), xi)
    return on_x @ (_modes(t * rate, a.order_x) * (on_xi @ a.coeffs.T)).T
