"""Matrix representations of the model's graded operator algebra.

Builds the nilpotent charges, the SUSY-partner Hamiltonian, the total
excitation number and the scaled Pauli-z operator on the truncated space,
and verifies every algebraic relation among them as a matrix identity.

Basis ordering is fixed:
index = row * (n_max + 1) + n with row 0 = excited, row 1 = ground.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .model import ModelSpec


def basis_dim(n_max: int) -> int:
    return 2 * (n_max + 1)


def e_index(n: int, n_max: int) -> int:
    return n


def g_index(n: int, n_max: int) -> int:
    return (n_max + 1) + n


def ladder_product(n: int, k: int) -> float:
    """(n+k)! / n! as a running product; no factorial overflow."""
    prod = 1.0
    for m in range(1, k + 1):
        prod *= n + m
    return prod


def ladder_factor(n: int, k: int) -> float:
    """sqrt((n+k)! / n!)."""
    return math.sqrt(ladder_product(n, k))


def build_charges(spec: ModelSpec, n_max: int):
    """The raising charge Q^dag = sigma_+ f(n) a^k and its exact adjoint.

    Q^dag maps |g, n+k> to f(n) * sqrt((n+k)!/n!) |e, n>; all other entries
    vanish.  Both matrices are real, and Q is the transpose of Q^dag by
    construction.
    """
    if n_max < spec.k:
        raise ConfigError(f"n_max={n_max} must be >= k={spec.k}")
    dim = basis_dim(n_max)
    q_dag = np.zeros((dim, dim))
    for n in range(n_max - spec.k + 1):
        q_dag[e_index(n, n_max), g_index(n + spec.k, n_max)] = spec.f(n) * ladder_factor(
            n, spec.k
        )
    return q_dag, q_dag.T.copy()


def susy_hamiltonian(spec: ModelSpec, n_max: int) -> np.ndarray:
    """The anticommutator {Q^dag, Q} in its exact (untruncated) diagonal form.

    Excited row at n carries f(n)^2 (n+k)!/n!; ground row at n >= k carries
    f(n-k)^2 n!/(n-k)!; ground rows below k are the dark sector and vanish.
    """
    dim = basis_dim(n_max)
    diag = np.zeros(dim)
    for n in range(n_max + 1):
        diag[e_index(n, n_max)] = spec.f(n) ** 2 * ladder_product(n, spec.k)
        if n >= spec.k:
            diag[g_index(n, n_max)] = (
                spec.f(n - spec.k) ** 2 * ladder_product(n - spec.k, spec.k)
            )
    return np.diag(diag)


def total_excitation(n_max: int, k: int) -> np.ndarray:
    """Diagonal operator n + k*sigma_z/2: n + k/2 on the e row, n - k/2 on the g row."""
    ns = np.arange(n_max + 1, dtype=float)
    return np.diag(np.concatenate([ns + k / 2.0, ns - k / 2.0]))


def scaled_sigma_z(n_max: int, k: int) -> np.ndarray:
    """Diagonal operator k*sigma_z/2 with entries +-k/2."""
    ones = np.ones(n_max + 1)
    return np.diag(np.concatenate([ones * (k / 2.0), ones * (-k / 2.0)]))


def auxiliary_charges(spec: ModelSpec, n_max: int):
    """The Hermitian square roots of the SUSY Hamiltonian.

    Q_X = Q^dag + Q and Q_Y = i (Q^dag - Q); g * Q_X is the interaction
    part of the full Hamiltonian.
    """
    q_dag, q = build_charges(spec, n_max)
    return q_dag + q, 1j * (q_dag - q)


def build_operator_set(spec: ModelSpec, n_max: int) -> dict:
    """All five algebra elements, keyed by label."""
    q_dag, q = build_charges(spec, n_max)
    return {
        "Q": q,
        "Qdag": q_dag,
        "H": susy_hamiltonian(spec, n_max),
        "N": total_excitation(n_max, spec.k),
        "B": scaled_sigma_z(n_max, spec.k),
    }


def interior_mask(n_max: int, guard: int) -> np.ndarray:
    """Boolean basis mask keeping Fock indices n <= n_max - guard on both rows."""
    keep = np.arange(n_max + 1) <= n_max - guard
    return np.concatenate([keep, keep])


def _interior_max(mat: np.ndarray, mask: np.ndarray) -> float:
    sub = mat[np.ix_(mask, mask)]
    return float(np.max(np.abs(sub))) if sub.size else 0.0


def verify_relations(spec: ModelSpec, n_max: int, guard: int | None = None) -> dict:
    """Max-norm residual of each algebra relation on the interior.

    The truncated a^dag^k leaks past the cutoff, so products involving the
    top k Fock levels are corrupted; the guard (default 2k, at least k)
    excludes them.  Thresholds are applied by callers.
    """
    if guard is None:
        guard = 2 * spec.k
    if guard < spec.k:
        raise ConfigError(f"guard={guard} must be >= k={spec.k}")
    if guard > n_max:
        raise ConfigError(f"guard={guard} must be <= n_max={n_max}")

    ops = build_operator_set(spec, n_max)
    q, q_dag, ham, ntot, b = ops["Q"], ops["Qdag"], ops["H"], ops["N"], ops["B"]
    k = float(spec.k)

    # Sector restrictions of H (e rows / g rows).
    half = n_max + 1
    h_f = ham.copy()
    h_f[half:, half:] = 0.0
    h_b = ham.copy()
    h_b[:half, :half] = 0.0

    q_x, q_y = auxiliary_charges(spec, n_max)

    def comm(a, bb):
        return a @ bb - bb @ a

    residual_mats = {
        "nilpotent_Qdag": q_dag @ q_dag,
        "nilpotent_Q": q @ q,
        "commute_Q_H": comm(q, ham),
        "commute_Qdag_H": comm(q_dag, ham),
        "commute_N_H": comm(ntot, ham),
        "commute_B_H": comm(b, ham),
        "commute_Q_N": comm(q, ntot),
        "commute_Qdag_N": comm(q_dag, ntot),
        "commute_H_N": comm(ham, ntot),
        "commute_B_N": comm(b, ntot),
        "intertwine_Q_Hf": q @ h_f - h_b @ q,
        "intertwine_Hf_Qdag": h_f @ q_dag - q_dag @ h_b,
        "ladder_B_Qdag": comm(b, q_dag) - k * q_dag,
        "ladder_B_Q": comm(b, q) + k * q,
        "charge_commutator": comm(q_dag, q) - (2.0 / k) * ham @ b,
        "aux_X_squared": q_x @ q_x - ham,
        "aux_Y_squared": q_y @ q_y - ham,
    }

    mask = interior_mask(n_max, guard)
    return {name: _interior_max(mat, mask) for name, mat in residual_mats.items()}

