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
from .errors import ConfigError
from .model import ModelSpec
from .states import QubitBosonState, check_leak

_NORM_TOL = 1e-12
_EIG_RESIDUAL_TOL = 1e-10


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
    symmetrically so H == H.T holds exactly.
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
    mat[e[lower], g[lower + spec.k]] = coupling
    mat[g[lower + spec.k], e[lower]] = coupling
    return HamiltonianMatrix(n_max=n_max, k=spec.k, mat=mat)


def spectrum(h: HamiltonianMatrix):
    """Ascending eigenvalues and eigenvector columns of the full matrix.

    Every eigenpair is residual-checked against a bound that scales with
    the largest |eigenvalue| (roundoff in H v grows with ||H||); a failure
    is reported rather than silently degraded.
    """
    vals, vecs = np.linalg.eigh(h.mat)
    residual = np.max(np.abs(h.mat @ vecs - vecs * vals))
    bound = _EIG_RESIDUAL_TOL * max(1.0, float(np.max(np.abs(vals))))
    if residual > bound:
        raise RuntimeError(f"eigendecomposition residual {residual:.3e} exceeds {bound:.3e}")
    return vals, vecs


def propagate(h: HamiltonianMatrix, initial: QubitBosonState, times):
    """Evolve ``initial`` under H: amplitude matrices (amp_e, amp_g) of shape
    (n_max+1, len(times)).

    Expands in the eigenbasis and advances exact phases, verifies norm
    preservation and raises TruncationError if the top 2k Fock levels ever
    hold more population than the leak tolerance.
    """
    if initial.n_max != h.n_max:
        raise ValueError(
            f"state truncation n_max={initial.n_max} does not match matrix n_max={h.n_max}"
        )
    times = np.atleast_1d(np.asarray(times, dtype=float))
    vals, vecs = spectrum(h)
    coef = vecs.T @ np.concatenate([initial.amp_e, initial.amp_g])
    phases = np.exp(-1j * np.outer(vals, times))
    columns = vecs @ (phases * coef[:, None])

    norms_squared = np.sum(np.abs(columns) ** 2, axis=0)
    drift = float(np.max(np.abs(norms_squared - initial.norm_squared())))
    if drift > _NORM_TOL:
        raise RuntimeError(f"propagation norm drift {drift:.3e} exceeds {_NORM_TOL:g}")
    amp_e, amp_g = columns[: h.n_max + 1], columns[h.n_max + 1 :]
    check_leak(amp_e, amp_g, 2 * h.k)
    return amp_e, amp_g
