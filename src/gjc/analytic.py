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
from .errors import refuse_overflow
from .model import ModelSpec
from .states import QubitBosonState, stream_observables

# Complex entries of one time-major amplitude block (128 KiB) in
# trace_observables, which evolves at most CHUNK_ELEMENTS // (n_max+1) time
# points at a time on each worker, so that each worker's five work arrays fit
# in a 2 MiB L2.  On a 2-core Xeon VM (2 MiB L2 per core) 2^13 ran the
# 2001-point trace at n_max 64 and 384 as fast as 2^15 or faster, for the
# same bits (BENCH_14.json).  With two workers 2^15 was faster, but raised
# the peak RSS of the `scale` and `figures` benchmarks by 17-19% (BENCH_21.json).
CHUNK_ELEMENTS = 1 << 13


def _shifts(k: int, f_lo, g_lo, f_hi, g_hi):
    """(center, split) from F and G at the lower and upper partners (see aux_two_point)."""
    return 0.5 * (g_lo + f_lo + g_hi - f_hi), (g_lo + f_lo - g_hi + f_hi) / k


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
    return _shifts(k, spec.F(lo), spec.G(lo), spec.F(hi), spec.G(hi))


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
    is the (f, F, G) of ``spec.validate_range(n_max)``; a block that
    overflows there raises ConfigError.
    """
    k = spec.k
    f, F, G = model_table
    nb = max(f.size - k, 0)
    # Lower partners n are F[:nb], G[:nb]; upper partners n + k are F[k:], G[k:].
    center, split = _shifts(k, F[:nb], G[:nb], F[k:], G[k:])
    detuning = spec.omega0 / k - spec.omega + split
    coupling = (2.0 * spec.g / k) * ladder_factor(np.arange(nb), k) * f[:nb]
    # math per block: np.hypot/np.arctan2 differ from math in a few ulps.
    rabi = np.fromiter(map(math.hypot, detuning, coupling), float, nb)
    beta = np.fromiter(map(math.atan2, coupling, detuning), float, nb)
    beta[beta < 0.0] += 2.0 * math.pi
    n_total = np.arange(nb) + k / 2.0
    phase_rate = spec.omega * n_total + center
    e_plus, e_minus = phase_rate + 0.5 * k * rabi, phase_rate - 0.5 * k * rabi
    refuse_overflow(f.size - 1, rabi, beta, e_plus, e_minus)
    return Manifolds(
        n_total=n_total,
        beta=beta,
        rabi_frequency=rabi,
        e_plus=e_plus,
        e_minus=e_minus,
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
    half = table.beta / 2.0
    c = np.fromiter(map(math.cos, half), float, half.size)
    s = np.fromiter(map(math.sin, half), float, half.size)
    return np.stack([c, s, -s, c], axis=-1).reshape(-1, 2, 2)


def dark_levels(spec: ModelSpec, model_table) -> np.ndarray:
    """Energies of the uncoupled ground levels |g,n>, n < k, from a (f, F, G)
    model table; a level that overflows there raises ConfigError."""
    _, F, G = model_table
    dark = _diagonals(spec, F[: spec.k], G[: spec.k])[1]
    refuse_overflow(F.size - 1, dark)
    return dark


def _diagonals(spec: ModelSpec, F, G):
    """Diagonal energies of |e, n> and of |g, n> for n = 0..F.size-1."""
    n = np.arange(F.size)
    return (
        spec.omega * n + spec.omega0 / 2.0 + F + G,
        spec.omega * n - spec.omega0 / 2.0 - F + G,
    )


def _amplitude_kernel(spec: ModelSpec, initial: QubitBosonState):
    """The closed-form evolution of ``initial`` as a factory ``make_block(columns)``
    of functions of up to ``columns`` times each: one per thread that runs them.

    The manifold table, the diagonal energies, the dressed pairs and the
    projections of ``initial`` onto them are computed here, once.  Each
    function it makes owns time-major work arrays for ``columns`` time
    points and maps a 1-D array of times to amplitude matrices (amp_e, amp_g)
    of shape (n_max+1, len(times)): transposed views of those work arrays,
    which its next call overwrites.  Each manifold's dressed components
    advance by exp(-i E_+- t) and are mapped back; dark ground levels and
    excited levels whose partner lies beyond the cutoff advance by their
    diagonal phase (exactly what the truncated Hamiltonian does to them).
    Every entry is an elementwise function of its own time, so a slice of
    the grid gives the bits of the whole grid on any of the functions.
    Reusing the work arrays keeps a streamed grid from allocating, and
    faulting in, fresh pages per block.
    """
    n_max, k = initial.n_max, spec.k
    model_table = spec.validate_range(n_max)
    table = manifolds(spec, model_table)
    diag_e, diag_g = _diagonals(spec, *model_table[1:])
    refuse_overflow(n_max, diag_e, diag_g)
    n_pairs = table.beta.size
    cos_h, sin_h = dressed_states(table)[:, 0].T
    ce = initial.amp_e[:n_pairs]
    cg = initial.amp_g[k : k + n_pairs]
    c_plus = cos_h * ce + sin_h * cg
    c_minus = -sin_h * ce + cos_h * cg
    dark = slice(0, min(k, n_max + 1))
    top = slice(n_pairs, n_max + 1)

    def block_function(columns):
        # Work arrays for `columns` time points; every call writes every
        # column of both amplitude blocks.
        blocks = np.empty((2, columns, n_max + 1), dtype=np.complex128)
        pairs = np.empty((3, columns, n_pairs), dtype=np.complex128)

        def amplitudes(times):
            rows = slice(0, times.size)
            amp_e, amp_g = blocks[:, rows]
            adv_plus, adv_minus, rhs = pairs[:, rows]
            for adv, energy, c in ((adv_plus, table.e_plus, c_plus), (adv_minus, table.e_minus, c_minus)):
                # adv = exp(-i E t) * c, in place; t*E is a real product cast to complex
                np.multiply(times[:, None], energy, out=adv)
                np.multiply(-1j, adv, out=adv)
                np.exp(adv, out=adv)
                np.multiply(adv, c, out=adv)
            pair_e, pair_g = amp_e[:, :n_pairs], amp_g[:, k:]
            np.subtract(np.multiply(cos_h, adv_plus, out=pair_e), np.multiply(sin_h, adv_minus, out=rhs), out=pair_e)
            np.add(np.multiply(sin_h, adv_plus, out=pair_g), np.multiply(cos_h, adv_minus, out=rhs), out=pair_g)
            amp_g[:, dark] = initial.amp_g[dark] * np.exp(-1j * np.outer(times, diag_g[dark]))
            amp_e[:, top] = initial.amp_e[top] * np.exp(-1j * np.outer(times, diag_e[top]))
            return amp_e.T, amp_g.T

        return amplitudes

    return block_function


def evolve_amplitudes(spec: ModelSpec, initial: QubitBosonState, times):
    """Amplitude matrices (amp_e, amp_g) of shape (n_max+1, len(times)): the
    amplitude kernel over the whole grid.  Unlike ``oracle.propagate``, it
    does not judge them: no norm drift or leak check."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    return _amplitude_kernel(spec, initial)(times.size)(times)


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

    The grid is streamed and judged by ``states.stream_observables``, in
    blocks of at most CHUNK_ELEMENTS // (n_max+1) time points (at least one).
    """
    width = max(1, CHUNK_ELEMENTS // (initial.n_max + 1))
    return stream_observables(_amplitude_kernel(spec, initial), initial, times, width, spec.k)
