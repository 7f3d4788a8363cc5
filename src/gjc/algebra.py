"""Block representations of the model's graded operator algebra.

Every algebra element (the nilpotent charges, the SUSY-partner
Hamiltonian, the total excitation number and the scaled Pauli-z operator)
maps each manifold {|e, m>, |g, m+k>} into itself, so it is stored as a
stack of 2x2 manifold blocks and every algebraic relation is verified
block by block.  Each entry of a product has at most one nonzero term in
either representation, so a block residual equals the dense Fock-basis one.

Stack layout: shape (n_max + k + 1, 2, 2); row i holds the manifold with
slot 0 = |e, i-k> and slot 1 = |g, i>.  A slot whose Fock level lies
outside 0..n_max is absent and carries zeros.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .model import ModelSpec


def ladder_product(n, k: int):
    """(n+k)! / n! as a running product; no factorial overflow.

    ``n`` may be an int or an integer array; each entry is the same
    product of the same factors in the same order.
    """
    prod = 1.0
    for m in range(1, k + 1):
        prod = prod * (n + m)
    return prod


def ladder_factor(n, k: int):
    """sqrt((n+k)! / n!); elementwise for an integer array ``n``."""
    return np.sqrt(ladder_product(n, k))


def _slot_levels(n_max: int, k: int) -> np.ndarray:
    """Fock level of each (row, slot): i - k for the e slot, i for the g slot."""
    return np.arange(n_max + k + 1)[:, None] - np.array([k, 0])


def _diagonal(values, present: np.ndarray) -> np.ndarray:
    """Stack of diagonal blocks carrying `values` (broadcast to the slots) on the present slots."""
    stack = np.zeros(present.shape + (2,))
    stack[:, [0, 1], [0, 1]] = np.where(present, values, 0.0)
    return stack


def build_operator_set(spec: ModelSpec, n_max: int) -> dict:
    """All five algebra elements as stacks of 2x2 manifold blocks, keyed by label.

    Q^dag = sigma_+ f(n) a^k maps |g, m+k> to f(m) * sqrt((m+k)!/m!) |e, m>
    when both levels are present; Q is its exact blockwise transpose.  H is
    the anticommutator {Q^dag, Q} in its exact (untruncated) diagonal form,
    f(m)^2 (m+k)!/m! on both slots of manifold m, vanishing on the dark g
    levels below k.  N = n + k*sigma_z/2 and B = k*sigma_z/2 are diagonal.
    f is the first table of ``spec.validate_range(n_max)``.
    """
    k = spec.k
    if n_max < k:
        raise ConfigError(f"n_max={n_max} must be >= k={k}")
    levels = _slot_levels(n_max, k)
    present = (levels >= 0) & (levels <= n_max)
    f = spec.validate_range(n_max)[0]
    m = np.arange(n_max + 1)
    energy = np.zeros(n_max + k + 1)
    # float_power squares through libm's pow, as Python's f**2 does; the
    # square ufunc rounds some values differently.
    energy[k:] = np.float_power(f, 2.0) * ladder_product(m, k)
    q_dag = np.zeros((n_max + k + 1, 2, 2))
    q_dag[k : n_max + 1, 0, 1] = f[: n_max - k + 1] * ladder_factor(m[: n_max - k + 1], k)
    half_k = np.array([k / 2.0, -k / 2.0])
    return {
        "Q": q_dag.transpose(0, 2, 1).copy(),
        "Qdag": q_dag,
        "H": _diagonal(energy[:, None], present),
        "N": _diagonal(levels + half_k, present),
        "B": _diagonal(half_k, present),
    }


def auxiliary_charges(spec: ModelSpec, n_max: int):
    """The Hermitian square roots of the SUSY Hamiltonian, as block stacks.

    Q_X = Q^dag + Q and Q_Y = i (Q^dag - Q); g * Q_X is the interaction
    part of the full Hamiltonian.
    """
    return _square_roots(build_operator_set(spec, n_max))


def _square_roots(ops: dict):
    """(Q_X, Q_Y) from the charges of an operator set."""
    q_dag, q = ops["Qdag"], ops["Q"]
    return q_dag + q, 1j * (q_dag - q)


def verify_relations(spec: ModelSpec, n_max: int, guard: int | None = None) -> dict:
    """Max-norm residual of each algebra relation on the interior.

    The truncated a^dag^k leaks past the cutoff, so products involving the
    top k Fock levels are corrupted; the guard (default 2k, at least k)
    excludes them: the interior is every slot with Fock level 0..n_max-guard.
    Thresholds are applied by callers.
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

    # Sector restrictions of the diagonal H (e slot / g slot).
    h_f = ham.copy()
    h_f[:, 1, 1] = 0.0
    h_b = ham.copy()
    h_b[:, 0, 0] = 0.0

    q_x, q_y = _square_roots(ops)

    def comm(a, bb):
        return a @ bb - bb @ a

    # Formed only when reduced, so one residual stack is alive at a time.
    residual_mats = {
        "nilpotent_Qdag": lambda: q_dag @ q_dag,
        "nilpotent_Q": lambda: q @ q,
        "commute_Q_H": lambda: comm(q, ham),
        "commute_Qdag_H": lambda: comm(q_dag, ham),
        "commute_N_H": lambda: comm(ntot, ham),
        "commute_B_H": lambda: comm(b, ham),
        "commute_Q_N": lambda: comm(q, ntot),
        "commute_Qdag_N": lambda: comm(q_dag, ntot),
        "commute_H_N": lambda: comm(ham, ntot),
        "commute_B_N": lambda: comm(b, ntot),
        "intertwine_Q_Hf": lambda: q @ h_f - h_b @ q,
        "intertwine_Hf_Qdag": lambda: h_f @ q_dag - q_dag @ h_b,
        "ladder_B_Qdag": lambda: comm(b, q_dag) - k * q_dag,
        "ladder_B_Q": lambda: comm(b, q) + k * q,
        "charge_commutator": lambda: comm(q_dag, q) - (2.0 / k) * ham @ b,
        "aux_X_squared": lambda: q_x @ q_x - ham,
        "aux_Y_squared": lambda: q_y @ q_y - ham,
    }

    levels = _slot_levels(n_max, spec.k)
    interior = (levels >= 0) & (levels <= n_max - guard)
    pairs = interior[:, :, None] & interior[:, None, :]
    return {
        name: float(np.max(np.abs(mat()), where=pairs, initial=0.0))
        for name, mat in residual_mats.items()
    }
