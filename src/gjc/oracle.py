"""Brute-force reference path: assemble the full truncated Hamiltonian and
propagate states numerically.

This module shares no diagonalization code with the closed-form engine; the
two paths arbitrate each other.  Dimensions stay desk-scale (2*(n_max+1)),
so a dense real-symmetric eigendecomposition is the propagator and
time grids are reusable for free.

The dense basis ordering is
index = row * (n_max + 1) + n with row 0 = excited, row 1 = ground.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import ladder_factor
from .errors import ConfigError, refuse_overflow
from .model import ModelSpec
from .states import QubitBosonState, stream_observables

_EIG_RESIDUAL_TOL = 1e-10

# Time points per block in trace_observables.  The GEMM behind each block
# stays wide: on a 2-core Xeon VM, a 2001-point trace at n_max 1024 took as
# long in blocks of 64 to 512 columns as over the whole grid, and about 1.3x
# as long in blocks of 15 (the analytic engine's chunk at that cutoff).
BLOCK_COLUMNS = 256


def basis_dim(n_max: int) -> int:
    return 2 * (n_max + 1)


def e_index(n: int) -> int:
    return n


def g_index(n: int, n_max: int) -> int:
    return (n_max + 1) + n


@dataclass(frozen=True)
class HamiltonianMatrix:
    """Dense real-symmetric Hamiltonian on the truncated space.

    Basis ordering as in the module docstring.  Off-diagonals connect
    |e,n> and |g,n+k> only.
    """

    n_max: int
    k: int
    mat: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=float)
        dim = basis_dim(self.n_max)
        if mat.shape != (dim, dim):
            raise ValueError(f"expected shape ({dim}, {dim}), got {mat.shape}")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)


def assemble(spec: ModelSpec, n_max: int) -> HamiltonianMatrix:
    """Full Hamiltonian matrix of the model on 0..n_max.

    Diagonal: omega*n + omega0/2 + F(n) + G(n) on the excited row and
    omega*n - omega0/2 - F(n) + G(n) on the ground row.  Off-diagonal:
    g * f(n) * sqrt((n+k)!/n!) between |e,n> and |g,n+k>, placed
    symmetrically so H == H.T holds exactly.  An entry that overflows raises
    ConfigError.
    """
    if n_max < spec.k:
        raise ConfigError(f"n_max={n_max} must be >= k={spec.k}")
    f, F, G = spec.validate_range(n_max)
    n = np.arange(n_max + 1)
    e, g = e_index(n), g_index(n, n_max)
    mat = np.zeros((basis_dim(n_max), basis_dim(n_max)))
    mat[e, e] = spec.omega * n + spec.omega0 / 2.0 + F + G
    mat[g, g] = spec.omega * n - spec.omega0 / 2.0 - F + G
    lower = n[: n_max - spec.k + 1]
    coupling = spec.g * f[lower] * ladder_factor(lower, spec.k)
    refuse_overflow(n_max, np.diagonal(mat), coupling)
    mat[e[lower], g[lower + spec.k]] = coupling
    mat[g[lower + spec.k], e[lower]] = coupling
    return HamiltonianMatrix(n_max=n_max, k=spec.k, mat=mat)


def spectrum(h: HamiltonianMatrix):
    """Ascending eigenvalues and eigenvector columns of the full matrix.

    Every eigenpair is residual-checked against a bound that scales with
    the largest |eigenvalue| (roundoff in H v grows with ||H||); a failure,
    or a NaN residual, raises ConfigError rather than silently degrading
    the result.
    """
    vals, vecs = np.linalg.eigh(h.mat)
    residual = np.max(np.abs(h.mat @ vecs - vecs * vals))
    bound = _EIG_RESIDUAL_TOL * max(1.0, float(np.max(np.abs(vals))))
    if not residual <= bound:  # also a NaN
        raise ConfigError(f"eigendecomposition residual {residual:.3e} exceeds {bound:.3e}")
    return vals, vecs


def _propagator(h: HamiltonianMatrix, initial: QubitBosonState):
    """The eigenbasis evolution of ``initial`` as a factory ``make_block(columns)``
    that hands every caller the same function of times, whatever ``columns``.

    The spectrum (with its residual check) and the projection of
    ``initial`` onto the eigenvectors are computed here, once, and shared
    by every worker.  The function maps a 1-D array of times to amplitude
    matrices (amp_e, amp_g) of shape (n_max+1, len(times)), which ``states``
    measures.  The eigenbasis is cast to complex once: ``vecs @ block``
    would cast it on every call, for the same bits.  BLAS gives a block of
    two or more columns the bits of the same columns of a wider product,
    but may round a single column differently.
    """
    if initial.n_max != h.n_max:
        raise ValueError(
            f"state truncation n_max={initial.n_max} does not match matrix n_max={h.n_max}"
        )
    vals, vecs = spectrum(h)
    coef = vecs.T @ np.concatenate([initial.amp_e, initial.amp_g])
    basis = vecs.astype(np.complex128)

    def amplitudes(times):
        columns = basis @ (np.exp(-1j * np.outer(vals, times)) * coef[:, None])
        return columns[: h.n_max + 1], columns[h.n_max + 1 :]

    return lambda columns: amplitudes


def propagate(h: HamiltonianMatrix, initial: QubitBosonState, times):
    """Evolve ``initial`` under H: amplitude matrices (amp_e, amp_g) of shape
    (n_max+1, len(times)), expanded in the eigenbasis with exact phases and
    judged as one block by ``states.stream_observables``.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    whole = _propagator(h, initial)(times.size)(times)
    stream_observables(lambda _: lambda _: whole, initial, times, max(times.size, 1), h.k)
    return whole


def trace_observables(h: HamiltonianMatrix, initial: QubitBosonState, times):
    """(<sigma_z>, <n>, <x>, <y>) of ``initial`` evolved under H, one array per
    observable, bit for bit those of ``observables(*propagate(h, initial, times))``.

    The grid is streamed and judged by ``states.stream_observables`` in
    blocks of at most BLOCK_COLUMNS time points, after the eigen-residual
    check of ``_propagator``.
    """
    return stream_observables(_propagator(h, initial), initial, times, BLOCK_COLUMNS, h.k)
