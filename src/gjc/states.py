"""Truncated qubit-boson states and their observables.

States live on {e, g} x {|0>, ..., |n_max>} with explicit bookkeeping of
the norm discarded by the Fock-space cutoff (``tail_mass``), so that
truncation error is always accounted for rather than silently normalized
away.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import TruncationError

EPS_TRUNC = 1e-12
LEAK_TOLERANCE = 1e-10
_NORM_TOL = 1e-12

QUBIT_LEVELS = ("g", "e")


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
        if abs(total - 1.0) > _NORM_TOL:
            raise ValueError(
                f"state is not normalized: ||amp||^2 + tail_mass = {total!r}"
            )

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.amp_e) ** 2) + np.sum(np.abs(self.amp_g) ** 2))


def _check_qubit(qubit: str) -> str:
    if qubit not in QUBIT_LEVELS:
        raise ValueError(f"qubit level must be one of {QUBIT_LEVELS}, got {qubit!r}")
    return qubit


def fock_state(qubit: str, n: int, n_max: int) -> QubitBosonState:
    """|qubit, n> on the truncated space; tail_mass is exactly zero."""
    _check_qubit(qubit)
    if not 0 <= n <= n_max:
        raise ValueError(f"Fock index n={n} out of range 0..{n_max}")
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

    Raises TruncationError when the discarded Poisson tail exceeds
    EPS_TRUNC; the suggested retry cutoff covers the mean plus ten
    standard deviations of the photon-number distribution.
    """
    _check_qubit(qubit)
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


def check_leak(amp_e, amp_g, guard: int) -> None:
    """Raise TruncationError if the top ``guard`` Fock levels ever hold more
    population than LEAK_TOLERANCE.

    ``amp_e`` and ``amp_g`` are amplitude matrices of shape (n_max+1, T);
    the guard is clamped to n_max.
    """
    n_max = amp_e.shape[0] - 1
    guard = min(guard, n_max)
    lo = n_max - guard + 1
    top = np.concatenate([amp_e[lo:], amp_g[lo:]], axis=0)
    leak = float(np.max(np.sum(np.abs(top) ** 2, axis=0))) if top.size else 0.0
    if leak > LEAK_TOLERANCE:
        suggestion = 2 * n_max
        raise TruncationError(
            f"population {leak:.3e} in the top {guard} Fock level(s) exceeds "
            f"{LEAK_TOLERANCE:g}; raise n_max (suggestion: {suggestion})",
            suggested_n_max=suggestion,
        )


def observables(amp_e, amp_g):
    """(<sigma_z>, <n>, <x>, <y>) of a normalized state.

    Amplitude vectors of length n_max+1 give four floats; amplitude matrices
    of shape (n_max+1, T) give four arrays of length T, one entry per column.
    Quadratures follow the x = (a^dag + a)/2, y = i(a^dag - a)/2 convention,
    so <x> + i<y> equals the mean boson amplitude <a>.
    """
    # Rows of a C-contiguous (T, n_max+1) array are summed in the same
    # pairwise order as a 1-D np.sum, so each column gives the vector's bits.
    e = np.ascontiguousarray(np.transpose(amp_e))
    g = np.ascontiguousarray(np.transpose(amp_g))
    pe = np.abs(e) ** 2
    pg = np.abs(g) ** 2
    sigma_z = np.sum(pe, axis=-1) - np.sum(pg, axis=-1)
    ns = np.arange(e.shape[-1])
    n_mean = np.sum(ns * (pe + pg), axis=-1)
    root = np.sqrt(ns[1:].astype(float))
    a_mean = np.sum(root * np.conj(e[..., :-1]) * e[..., 1:], axis=-1) + np.sum(
        root * np.conj(g[..., :-1]) * g[..., 1:], axis=-1
    )
    if e.ndim == 1:
        return float(sigma_z), float(n_mean), float(a_mean.real), float(a_mean.imag)
    return sigma_z, n_mean, a_mean.real, a_mean.imag
