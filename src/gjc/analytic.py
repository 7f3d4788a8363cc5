"""Closed-form diagonalization and exact time evolution.

The interaction preserves each two-dimensional manifold {|e,n>, |g,n+k>},
labeled by the total excitation number n + k/2.  Every manifold is an
exact 2x2 problem: a mixing angle, a generalized Rabi frequency, and two
dressed eigenstates.  Evolution of an arbitrary state is the phase advance
of its dressed components, manifold by manifold, plus trivial phases for
the uncoupled levels (ground levels below k and excited levels whose
partner falls outside the truncation).

This module never touches a numerical eigensolver; the brute-force module
provides the independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import ladder_factor
from .model import ModelSpec
from .states import QubitBosonState, check_leak, observables


def aux_two_point(spec: ModelSpec, n_total: float):
    """Center and splitting shifts of a manifold from the diagonal nonlinearities.

    Splitting sigma_z*F(n) + G(n) on the pair {|e, N-k/2>, |g, N+k/2>} into
    a part proportional to the identity and a part proportional to
    k*sigma_z/2 gives, with N the total excitation number,

        center(N)   = [G(N-k/2) + F(N-k/2) + G(N+k/2) - F(N+k/2)] / 2
        split(N)    = [G(N-k/2) + F(N-k/2) - G(N+k/2) + F(N+k/2)] / k

    Valid for arbitrary (not only polynomial) F and G.
    """
    k = spec.k
    lo = n_total - k / 2.0
    hi = n_total + k / 2.0
    if lo < 0:
        raise ValueError(f"total excitation {n_total} has no lower partner (k={k})")
    g_lo, f_lo = spec.G(lo), spec.F(lo)
    g_hi, f_hi = spec.G(hi), spec.F(hi)
    center = 0.5 * (g_lo + f_lo + g_hi - f_hi)
    split = (g_lo + f_lo - g_hi + f_hi) / k
    return center, split


def aux_binomial(spec: ModelSpec, n_total: float):
    """Same shifts evaluated through the binomial double sums.

    Requires polynomial F and G (coefficients F_j, G_j).  Expanding
    G(N - B) + (2B/k) F(N - B) with B^(2s) = (k/2)^(2s) and
    B^(2s+1) = (k/2)^(2s) B yields

        center(N) = sum_j sum_s C(j,2s)   (k/2)^(2s)   G_j N^(j-2s)
                  - sum_j sum_s C(j,2s+1) (k/2)^(2s+1) F_j N^(j-2s-1)
        split(N)  = -sum_j sum_s C(j,2s+1) (k/2)^(2s)   G_j N^(j-2s-1)
                  + sum_j sum_s C(j,2s)   (k/2)^(2s-1) F_j N^(j-2s)

    The (k/2)^(2s+1) exponent in the F-part of the center shift is the
    normalization pinned by the reconciliation test against the two-point
    form (the odd part of F(N - B) multiplied by (2B/k) picks up
    B^2 = (k/2)^2).
    """
    f_coef = spec.F.poly_coefficients()
    g_coef = spec.G.poly_coefficients()
    half = spec.k / 2.0
    n = float(n_total)

    center = 0.0
    split = 0.0
    for j, c in enumerate(g_coef):
        if c == 0.0:
            continue
        for s in range(0, j // 2 + 1):
            center += math.comb(j, 2 * s) * half ** (2 * s) * c * n ** (j - 2 * s)
        for s in range(0, (j + 1) // 2):
            split -= math.comb(j, 2 * s + 1) * half ** (2 * s) * c * n ** (j - 2 * s - 1)
    for j, c in enumerate(f_coef):
        if c == 0.0:
            continue
        for s in range(0, (j + 1) // 2):
            center -= math.comb(j, 2 * s + 1) * half ** (2 * s + 1) * c * n ** (j - 2 * s - 1)
        for s in range(0, j // 2 + 1):
            split += math.comb(j, 2 * s) * half ** (2 * s - 1) * c * n ** (j - 2 * s)
    return center, split


@dataclass(frozen=True)
class Manifolds:
    """The invariant two-level blocks {|e, n>, |g, n+k>} of a truncation.

    Every array has one entry per block, indexed by the lower Fock level
    n = n_lower = 0..n_max-k; ``n_total`` = n + k/2 is the total excitation
    number.  Eigenvalues are full-frame: e_plus/e_minus = phase_rate +-
    (k/2) * rabi_frequency, so their difference k*rabi_frequency is the
    oscillation frequency of every observable in the block.
    """

    n_total: np.ndarray
    beta: np.ndarray
    rabi_frequency: np.ndarray
    e_plus: np.ndarray
    e_minus: np.ndarray
    phase_rate: np.ndarray


def manifolds(spec: ModelSpec, model_table) -> Manifolds:
    """Mixing angle, generalized Rabi frequency and eigenvalues of every block
    fully contained in the truncation.

    rabi^2 = [omega0/k - omega + split(N)]^2
             + (4 g^2 / k^2) * (n+k)!/n! * f(n)^2,          N = n + k/2,
    tan(beta) = coupling / detuning via atan2, with beta in [0, pi] for
    g >= 0 (wrapped into [0, 2pi) for a negative coupling).  ``model_table``
    is the (f, F, G) of ``spec.validate_range(n_max)``.
    """
    k = spec.k
    f, F, G = model_table
    nb = max(f.size - k, 0)
    # Lower partners n are F[:nb], G[:nb]; upper partners n + k are F[k:], G[k:].
    center = 0.5 * (G[:nb] + F[:nb] + G[k:] - F[k:])
    split = (G[:nb] + F[:nb] - G[k:] + F[k:]) / k
    detuning = spec.omega0 / k - spec.omega + split
    coupling = (2.0 * spec.g / k) * ladder_factor(np.arange(nb), k) * f[:nb]
    # math per block: np.hypot/np.arctan2 differ from math in a few ulps.
    pairs = zip(detuning.tolist(), coupling.tolist())
    rabi, beta = np.array([(math.hypot(d, c), math.atan2(c, d)) for d, c in pairs]).reshape(-1, 2).T
    beta[beta < 0.0] += 2.0 * math.pi
    n_total = np.arange(nb) + k / 2.0
    phase_rate = spec.omega * n_total + center
    return Manifolds(
        n_total=n_total,
        beta=beta,
        rabi_frequency=rabi,
        e_plus=phase_rate + 0.5 * k * rabi,
        e_minus=phase_rate - 0.5 * k * rabi,
        phase_rate=phase_rate,
    )


def dressed_states(table: Manifolds) -> np.ndarray:
    """The orthonormal eigenpair of each block as (e, g+k) amplitude pairs,
    shape (blocks, 2, 2): row 0 is |+>, row 1 is |->.

    |+> = cos(beta/2)|e,n> + sin(beta/2)|g,n+k>,
    |-> = -sin(beta/2)|e,n> + cos(beta/2)|g,n+k>.
    """
    # math per block, as in manifolds: numpy's SIMD cos/sin can round
    # differently on some CPUs, and evolve's CSV bytes depend on these.
    half = [b / 2.0 for b in table.beta.tolist()]
    c = np.array([math.cos(h) for h in half])
    s = np.array([math.sin(h) for h in half])
    return np.stack([c, s, -s, c], axis=-1).reshape(-1, 2, 2)


def dark_levels(spec: ModelSpec, model_table) -> np.ndarray:
    """Energies of the uncoupled ground levels |g,n>, n < k, from a (f, F, G) model table."""
    _, F, G = model_table
    return _diagonals(spec, F[: spec.k], G[: spec.k])[1]


def _diagonals(spec: ModelSpec, F, G):
    """Diagonal energies of |e, n> and of |g, n> for n = 0..F.size-1."""
    n = np.arange(F.size)
    return (
        spec.omega * n + spec.omega0 / 2.0 + F + G,
        spec.omega * n - spec.omega0 / 2.0 - F + G,
    )


def evolve_amplitudes(spec: ModelSpec, initial: QubitBosonState, times):
    """Amplitude matrices (amp_e, amp_g) of shape (n_max+1, len(times)).

    Each manifold's initial amplitudes are projected onto its dressed pair,
    advanced by exp(-i E_+- t), and mapped back; dark ground levels and
    excited levels whose partner lies beyond the cutoff advance by their
    diagonal phase (exactly what the truncated Hamiltonian does to them).
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    n_max, k = initial.n_max, spec.k
    model_table = spec.validate_range(n_max)
    table = manifolds(spec, model_table)
    diag_e, diag_g = _diagonals(spec, *model_table[1:])
    n_pairs = table.beta.size
    cos_h, sin_h = dressed_states(table)[:, 0].T

    amp_e = np.zeros((n_max + 1, times.size), dtype=np.complex128)
    amp_g = np.zeros((n_max + 1, times.size), dtype=np.complex128)

    ce = initial.amp_e[:n_pairs]
    cg = initial.amp_g[k : k + n_pairs]
    c_plus = cos_h * ce + sin_h * cg
    c_minus = -sin_h * ce + cos_h * cg
    adv_plus = np.exp(-1j * np.outer(table.e_plus, times)) * c_plus[:, None]
    adv_minus = np.exp(-1j * np.outer(table.e_minus, times)) * c_minus[:, None]
    amp_e[:n_pairs] = cos_h[:, None] * adv_plus - sin_h[:, None] * adv_minus
    amp_g[k:] = sin_h[:, None] * adv_plus + cos_h[:, None] * adv_minus

    dark = slice(0, min(k, n_max + 1))
    amp_g[dark] = initial.amp_g[dark, None] * np.exp(-1j * np.outer(diag_g[dark], times))
    top = slice(n_pairs, n_max + 1)
    amp_e[top] = initial.amp_e[top, None] * np.exp(-1j * np.outer(diag_e[top], times))
    return amp_e, amp_g


def evolve(spec: ModelSpec, initial: QubitBosonState, times):
    """Exact evolution of ``initial``; one state per requested time.

    A per-state view of evolve_amplitudes for library use; no leak check.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    amp_e, amp_g = evolve_amplitudes(spec, initial, times)
    return [
        QubitBosonState(
            n_max=initial.n_max,
            amp_e=amp_e[:, i],
            amp_g=amp_g[:, i],
            tail_mass=initial.tail_mass,
        )
        for i in range(times.size)
    ]


def sigma_z_fock(table: Manifolds, t):
    """Population inversion for the initial state |e, n_lower>, one row per block.

    cos^2(beta) + sin^2(beta) * cos((E_+ - E_-) t); the oscillation
    frequency E_+ - E_- equals k times the generalized Rabi frequency and
    reduces to it at k = 1.
    """
    t = np.asarray(t, dtype=float)
    rows = (-1,) + (1,) * t.ndim
    cos_b = np.cos(table.beta).reshape(rows)
    sin_b = np.sin(table.beta).reshape(rows)
    split = (table.e_plus - table.e_minus).reshape(rows)
    return cos_b**2 + sin_b**2 * np.cos(split * t)


def trace_observables(spec: ModelSpec, initial: QubitBosonState, times):
    """Evolve, then record (<sigma_z>, <n>, <x>, <y>) on the time grid, one
    array per observable as ``states.observables`` gives them.

    Raises TruncationError if the top 2k Fock levels ever hold more
    population than the leak tolerance, exactly as the oracle does.
    """
    amp_e, amp_g = evolve_amplitudes(spec, initial, times)
    check_leak(amp_e, amp_g, 2 * spec.k)
    return observables(amp_e, amp_g)
