"""Truncated qubit-boson states and their observables.

States live on {e, g} x {|0>, ..., |n_max>} with explicit bookkeeping of
the norm discarded by the Fock-space cutoff (``tail_mass``), so that
truncation error is always accounted for rather than silently normalized
away.
"""

from __future__ import annotations

import cmath
import contextvars
import math
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, TruncationError

EPS_TRUNC = 1e-12
LEAK_TOLERANCE = 1e-10
_NORM_TOL = 1e-12

QUBIT_LEVELS = ("g", "e")

# Workers of one trace, at most: two ran `scale`'s evolve 29% faster than one on
# a 2-core VM (BENCH_21.json); no wider machine was measured; each worker adds memory.
MAX_WORKERS = 2
# Amplitudes ((n_max+1) * time points) per worker: at one BLAS thread, two workers
# ran 18-40k-amplitude analytic traces 4-14% slower than one (BENCH_22.json).
WORKER_AMPLITUDES = 1 << 15


def _as_amp_vector(values, n_max, name):
    arr = np.asarray(values, dtype=np.complex128).copy()
    if arr.shape != (n_max + 1,):
        raise ValueError(f"{name} must have shape ({n_max + 1},), got {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class QubitBosonState:
    """Pure state amplitudes over |e,n> and |g,n> for n = 0..n_max.

    Invariant: ||amp_e||^2 + ||amp_g||^2 + tail_mass == 1 within 1e-12.
    Instances are immutable (amplitude arrays are read-only views).
    """

    n_max: int
    amp_e: np.ndarray
    amp_g: np.ndarray
    tail_mass: float = 0.0

    def __post_init__(self):
        if self.n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {self.n_max}")
        object.__setattr__(self, "amp_e", _as_amp_vector(self.amp_e, self.n_max, "amp_e"))
        object.__setattr__(self, "amp_g", _as_amp_vector(self.amp_g, self.n_max, "amp_g"))
        tail = float(self.tail_mass)
        if tail < -_NORM_TOL:
            raise ValueError(f"tail_mass must be non-negative, got {tail}")
        object.__setattr__(self, "tail_mass", max(tail, 0.0))
        total = self.norm_squared() + self.tail_mass
        if not abs(total - 1.0) <= _NORM_TOL:  # a NaN total fails too
            raise ValueError(
                f"state is not normalized: ||amp||^2 + tail_mass = {total!r}"
            )

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.amp_e) ** 2) + np.sum(np.abs(self.amp_g) ** 2))


def _check_qubit(qubit: str) -> str:
    if qubit not in QUBIT_LEVELS:
        raise ConfigError(f"qubit level must be one of {QUBIT_LEVELS}, got {qubit!r}")
    return qubit


def fock_state(qubit: str, n: int, n_max: int) -> QubitBosonState:
    """|qubit, n> on the truncated space; tail_mass is exactly zero."""
    _check_qubit(qubit)
    if not 0 <= n <= n_max:
        raise ConfigError(f"Fock index n={n} out of range 0..{n_max}")
    amp_e = np.zeros(n_max + 1, dtype=np.complex128)
    amp_g = np.zeros(n_max + 1, dtype=np.complex128)
    (amp_e if qubit == "e" else amp_g)[n] = 1.0
    return QubitBosonState(n_max=n_max, amp_e=amp_e, amp_g=amp_g, tail_mass=0.0)


def coherent_amplitudes(alpha: complex, n_max: int):
    """Coefficients e^{-|a|^2/2} a^j / sqrt(j!) for j = 0..n_max and the tail mass.

    The recursion c_{j+1} = c_j * alpha / sqrt(j+1) avoids factorial overflow;
    the tail is the Poisson weight beyond the cutoff.  Past |alpha| ~ 37.6
    the start weight e^{-|a|^2/2} is subnormal or zero, and the coefficients
    come from _coherent_from_mode instead.
    """
    c = math.exp(-0.5 * abs(alpha) ** 2)
    if c < sys.float_info.min:
        coeffs = _coherent_from_mode(alpha, n_max)
    else:
        coeffs = np.zeros(n_max + 1, dtype=np.complex128)
        for j in range(n_max + 1):
            coeffs[j] = c
            c = c * alpha / math.sqrt(j + 1)
    tail = max(0.0, 1.0 - float(np.sum(np.abs(coeffs) ** 2)))
    return coeffs, tail


def _coherent_from_mode(alpha: complex, n_max: int) -> np.ndarray:
    """Coherent coefficients for j = 0..n_max, recursed outward from the
    Poisson mode m = floor(|alpha|^2) and scaled so that the support m +- w,
    w = 40 sqrt(m) + 40, sums to 1 (an lgamma scale misses 1 by up to 1e-11).
    Weights past it are below 1e-270: a cutoff below m - w gets zeros.
    """
    r = abs(alpha)
    mode, width = int(r * r), int(40.0 * r) + 40
    if n_max < mode - width:
        return np.zeros(n_max + 1, dtype=np.complex128)
    j = np.arange(max(n_max, mode + width) + 1)
    below = np.cumprod(np.sqrt(j[mode:0:-1]) / r)[::-1]
    above = np.cumprod(r / np.sqrt(j[mode + 1 :]))
    mags = np.concatenate([below, [1.0], above])
    mags /= math.sqrt(float(np.sum(mags**2)))
    phases = np.exp(1j * cmath.phase(alpha) * j[: n_max + 1])
    return mags[: n_max + 1] * phases


def coherent_state(qubit: str, alpha: complex, n_max: int) -> QubitBosonState:
    """|qubit, alpha> truncated at n_max.

    Raises ConfigError unless |alpha|^2 is finite, and TruncationError
    when the discarded Poisson tail exceeds EPS_TRUNC; the suggested retry
    cutoff covers the mean plus ten standard deviations of the
    photon-number distribution.
    """
    _check_qubit(qubit)
    radius = math.hypot(alpha.real, alpha.imag)  # abs() raises past the double range
    if not math.isfinite(radius * radius):
        raise ConfigError(f"|alpha|^2 must be finite, got alpha={alpha!r}")
    coeffs, tail = coherent_amplitudes(alpha, n_max)
    if tail > EPS_TRUNC:
        mean = abs(alpha) ** 2
        suggestion = int(math.ceil(mean + 10.0 * math.sqrt(mean) + 20.0))
        raise TruncationError(
            f"coherent state |alpha|={abs(alpha):g} loses tail mass {tail:.3e} "
            f"> {EPS_TRUNC:g} at n_max={n_max}; retry with n_max >= {suggestion}",
            suggested_n_max=suggestion,
        )
    zeros = np.zeros(n_max + 1, dtype=np.complex128)
    if qubit == "e":
        return QubitBosonState(n_max=n_max, amp_e=coeffs, amp_g=zeros, tail_mass=tail)
    return QubitBosonState(n_max=n_max, amp_e=zeros, amp_g=coeffs, tail_mass=tail)


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def stream_observables(make_block, initial: QubitBosonState, times, width: int, k: int):
    """Observables of the amplitude blocks of ``make_block`` over the time grid
    ``times``, block by block, judged against ``initial`` for photon order ``k``.

    The grid (any sequence of floats, as a 1-D array) is split evenly into the
    fewest blocks of at most ``width`` time points, so no block has a single
    column unless the grid has.  ``make_block(columns)``, with ``columns`` the
    widest block of that split, returns a function mapping a block of
    ``times`` to amplitude matrices of shape (n_max+1, len(block)).  Block i
    runs on worker i % W, W = min(MAX_WORKERS, CPUs, blocks,
    amplitudes // WORKER_AMPLITUDES) or 1: the calling thread is worker 0 and
    the others are threads, each with its own make_block(columns) and a copy
    of the caller's context (so numpy's errstate holds in them too).  Each
    block is squared once and reduced before its worker makes the next.
    Returns the four observable arrays, as ``observables`` gives them for the
    whole grid.  A worker's exception ends every worker at its next block and
    is raised after the join; else, after the last block, raises ConfigError
    if any column's squared norm drifts from ``initial``'s by more than
    _NORM_TOL, then TruncationError if the top 2k Fock levels (all of them, if
    fewer) ever hold more than LEAK_TOLERANCE.  Its suggested cutoff,
    max(2 n_max, n_max + 4k), clears them: a manifold {|e,n>, |g,n+k>} lifts
    no population more than k above ``initial``'s levels.  A NaN column
    passes both checks and stays in the trace.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    guard = 2 * k
    n_blocks = -(-times.size // width)
    bounds = [times.size * i // max(n_blocks, 1) for i in range(n_blocks + 1)]
    n_workers = max(1, min(MAX_WORKERS, _cpus(), n_blocks, (initial.n_max + 1) * times.size // WORKER_AMPLITUDES))
    columns = -(-times.size // max(n_blocks, 1))  # the widest block of the split
    blocks = [make_block(columns) for _ in range(n_workers)]
    trace = np.empty((4, times.size))
    maxima = np.zeros((n_workers, 2))  # each worker's (drift, leak)
    errors = [None] * n_workers
    stop = threading.Event()  # set by the first failure: every worker ends at its next block
    norm_squared = initial.norm_squared()

    def work(w):
        try:
            for i in range(w, n_blocks, n_workers):
                if stop.is_set():
                    return
                lo, hi = bounds[i], bounds[i + 1]
                *columns, norms, top = _reduce(*blocks[w](times[lo:hi]), guard)
                trace[:, lo:hi] = columns
                # unlike max(), np.maximum keeps a NaN (an overflowed model or phase)
                maxima[w] = np.maximum(maxima[w], (np.max(np.abs(norms - norm_squared)), np.max(top)))
        except BaseException as exc:
            errors[w] = exc
            stop.set()

    threads = [
        threading.Thread(target=contextvars.copy_context().run, args=(work, w))
        for w in range(1, n_workers)
    ]
    try:
        for thread in threads:
            thread.start()
        work(0)
        for thread in threads:
            thread.join()
    except BaseException:  # a thread that would not start, or an interrupted join
        stop.set()
        raise
    for exc in errors:
        if exc is not None:
            raise exc
    drift, leak = np.max(maxima, axis=0)
    if drift > _NORM_TOL:
        raise ConfigError(f"propagation norm drift {drift:.3e} exceeds {_NORM_TOL:g}")
    if leak > LEAK_TOLERANCE:
        suggestion = max(2 * initial.n_max, initial.n_max + 2 * guard)
        raise TruncationError(
            f"population {leak:.3e} in the top {min(guard, initial.n_max)} Fock level(s) exceeds "
            f"{LEAK_TOLERANCE:g}; raise n_max (suggestion: {suggestion})",
            suggested_n_max=suggestion,
        )
    return tuple(trace)


def observables(amp_e, amp_g):
    """(<sigma_z>, <n>, <x>, <y>) of a normalized state, from the one reduction
    that also gives ``stream_observables`` each block's norms and guard levels.

    Amplitude vectors of length n_max+1 give four floats; amplitude matrices
    of shape (n_max+1, T) give four arrays of length T, one entry per column.
    Quadratures follow the x = (a^dag + a)/2, y = i(a^dag - a)/2 convention,
    so <x> + i<y> equals the mean boson amplitude <a>.
    """
    trace = _reduce(amp_e, amp_g, 0)[:4]
    return tuple(map(float, trace)) if np.ndim(amp_e) == 1 else trace


def _reduce(amp_e, amp_g, guard: int):
    """(<sigma_z>, <n>, <x>, <y>, squared norm, population of the top ``guard``
    Fock levels) per column, squaring each amplitude once.  Rows of a C-contiguous
    (T, n_max+1) array sum in a 1-D np.sum's pairwise order, and the top levels
    one after another (e, then g), so a column has its vector's bits in any slice."""
    e = np.ascontiguousarray(np.transpose(amp_e))
    g = np.ascontiguousarray(np.transpose(amp_g))
    pe = np.abs(e) ** 2
    pg = np.abs(g) ** 2
    sum_e, sum_g = np.sum(pe, axis=-1), np.sum(pg, axis=-1)
    ns = np.arange(e.shape[-1])
    n_mean = np.sum(ns * (pe + pg), axis=-1)
    root = np.sqrt(ns[1:].astype(float))
    a_mean = np.sum(root * np.conj(e[..., :-1]) * e[..., 1:], axis=-1) + np.sum(
        root * np.conj(g[..., :-1]) * g[..., 1:], axis=-1
    )
    top = np.zeros(sum_e.shape)  # a left fold: np.cumsum along the short axis is slower
    for p in (pe, pg):
        for level in range(ns.size - min(guard, ns.size - 1), ns.size):
            top += p[..., level]
    return sum_e - sum_g, n_mean, a_mean.real, a_mean.imag, sum_e + sum_g, top
