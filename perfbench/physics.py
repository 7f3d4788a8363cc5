"""Closed forms of the generalized Jaynes-Cummings model, evaluated from the
README formulas without importing the `gjc` package.

The benchmark checks the program's outputs against these values, so nothing
here may share code with the program under test.
"""

from __future__ import annotations

import math

import numpy as np

EPS = float(np.finfo(float).eps)

# The eight reference models of the paper, as model documents (README schema).
_ONE = {"kind": "One", "params": []}
_ZERO = {"kind": "Zero", "params": []}


def _doc(k, f, F=_ZERO, G=_ZERO):
    return {"omega": 1.0, "omega0": 1.0, "g": 0.1, "k": k, "f": f, "F": F, "G": G}


REFERENCE_MODELS = {
    "jc": _doc(1, _ONE),
    "intensity-multiboson": _doc(2, {"kind": "SqrtN", "params": []}),
    "stark-two-photon": _doc(
        2,
        _ONE,
        F={"kind": "LinearStark", "params": [-0.125]},
        G={"kind": "LinearStark", "params": [0.875]},
    ),
    "kerr-two-photon": _doc(2, _ONE, G={"kind": "Kerr", "params": [0.5]}),
    "molecular": _doc(1, _ONE, G={"kind": "Poly", "params": [0.0, 0.0, 0.3]}),
    "algebraic": _doc(
        1,
        {"kind": "AlgebraicSqrt", "params": [0.5, 2.0, 1.0]},
        G={"kind": "Poly", "params": [0.0, -0.5, 0.5]},
    ),
    "parity-deformed": _doc(1, _ONE, G={"kind": "Parity", "params": [0.2]}),
    "q-deformed": _doc(1, {"kind": "QBracketSqrt", "params": [0.9]}),
}


def fn_value(fn: dict, n: int) -> float:
    """Value at integer n of one builtin function kind (README table)."""
    kind, p = fn["kind"], fn.get("params", [])
    if kind == "Zero":
        return 0.0
    if kind == "One":
        return 1.0
    if kind == "Poly":
        return float(sum(c * float(n) ** j for j, c in enumerate(p)))
    if kind == "SqrtN":
        return math.sqrt(n)
    if kind == "PowerN":
        return float(n) ** p[0]
    if kind == "Kerr":
        return p[0] * n * (n - 1.0)
    if kind == "QBracketSqrt":
        q = p[0]
        if q == 1.0:
            return math.sqrt(n)
        return math.sqrt((q**n - q**-n) / (q - 1.0 / q))
    if kind == "Parity":
        return p[0] * (-1.0) ** n
    if kind == "AlgebraicSqrt":
        chi_a, ell, w = p
        return math.sqrt(1.0 - (chi_a / w) * (1.0 - float(n) ** (ell - 1.0)))
    if kind == "LinearStark":
        return p[0] * n
    raise ValueError(f"unknown function kind {kind!r}")


def ladder_product(n: int, k: int) -> float:
    """(n+k)!/n!."""
    return float(math.prod(range(n + 1, n + k + 1)))


def energy_e(model: dict, n: int) -> float:
    """<e,n|H|e,n> = omega*n + omega0/2 + F(n) + G(n)."""
    return model["omega"] * n + model["omega0"] / 2.0 + fn_value(model["F"], n) + fn_value(model["G"], n)


def energy_g(model: dict, n: int) -> float:
    """<g,n|H|g,n> = omega*n - omega0/2 - F(n) + G(n)."""
    return model["omega"] * n - model["omega0"] / 2.0 - fn_value(model["F"], n) + fn_value(model["G"], n)


def coupling(model: dict, n: int) -> float:
    """<e,n|H|g,n+k> = g * f(n) * sqrt((n+k)!/n!)."""
    return model["g"] * fn_value(model["f"], n) * math.sqrt(ladder_product(n, model["k"]))


def susy_max_interior(model: dict, n_max: int) -> float:
    """Largest entry f(n)^2 (n+k)!/n! of the SUSY Hamiltonian on the
    interior n <= n_max - 2k (the default verify guard)."""
    k = model["k"]
    return max(fn_value(model["f"], n) ** 2 * ladder_product(n, k) for n in range(n_max - 2 * k + 1))


def verify_threshold(model: dict, n_max: int) -> float:
    """Scale-aware `verify` threshold: 16 * eps * max(1, largest interior SUSY entry).

    Each relation residual is a difference of single products of the charge
    entries, so roundoff is a few eps times the SUSY Hamiltonian entry.
    """
    return 16.0 * EPS * max(1.0, susy_max_interior(model, n_max))


def parse_initial(descriptor: str):
    """('fock'|'coherent', qubit, n or alpha) from 'fock:Q:N' / 'coherent:Q:ALPHA'."""
    kind, qubit, value = descriptor.split(":")
    return kind, qubit, (int(value) if kind == "fock" else complex(value))


def poisson_weights(alpha: complex, n_max: int) -> np.ndarray:
    """|<n|alpha>|^2 for n = 0..n_max."""
    mean = abs(alpha) ** 2
    n = np.arange(n_max + 1)
    if mean == 0.0:
        return (n == 0).astype(float)
    log_w = -mean + n * math.log(mean) - np.array([math.lgamma(j + 1) for j in n])
    return np.exp(log_w)


def jc_coherent_ground_sigma_z(g: float, alpha: complex, n_max: int, times) -> np.ndarray:
    """Resonant JC from |g,alpha>: -sum_n P_alpha(n) cos(2 g sqrt(n) t)."""
    weights = poisson_weights(alpha, n_max)
    freq = 2.0 * g * np.sqrt(np.arange(n_max + 1))
    return -(weights[:, None] * np.cos(np.outer(freq, times))).sum(axis=0)


def initial_amplitudes(initial: str, n_max: int):
    """(amp_e, amp_g) on 0..n_max of 'fock:Q:N' or 'coherent:Q:ALPHA'."""
    kind, qubit, value = parse_initial(initial)
    amps = np.zeros(n_max + 1, dtype=complex)
    if kind == "fock":
        amps[value] = 1.0
    else:
        amps[0] = math.exp(-0.5 * abs(value) ** 2)
        for n in range(1, n_max + 1):
            amps[n] = amps[n - 1] * value / math.sqrt(n)
    zeros = np.zeros(n_max + 1, dtype=complex)
    return (amps, zeros) if qubit == "e" else (zeros, amps)


def block_evolution(model: dict, initial: str, n_max: int, times):
    """(<sigma_z>, <n>, <x>, <y>) at each time, each manifold propagated on
    its own as a 2x2 problem.

    Block {|e,n>, |g,n+k>} with diagonal (Ee, Eg) and coupling c evolves by
    U(t) = exp(-i m t) [cos(w t) - i sin(w t)/w (H - m)], m = (Ee+Eg)/2,
    w = sqrt(((Ee-Eg)/2)^2 + c^2).  Dark ground levels n < k and excited
    levels whose partner lies past the cutoff only acquire their phase.
    """
    k = model["k"]
    t = np.asarray(times, dtype=float)[None, :]
    ce, cg = initial_amplitudes(initial, n_max)
    amp_e = np.zeros((n_max + 1, t.size), dtype=complex)
    amp_g = np.zeros((n_max + 1, t.size), dtype=complex)
    lower = np.arange(n_max - k + 1)
    ee = np.array([energy_e(model, n) for n in lower])[:, None]
    eg = np.array([energy_g(model, n + k) for n in lower])[:, None]
    c = np.array([coupling(model, n) for n in lower])[:, None]
    mean, half = 0.5 * (ee + eg), 0.5 * (ee - eg)
    w = np.hypot(half, c)
    cos = np.cos(w * t)
    sinc = np.where(w > 0.0, np.sin(w * t) / np.where(w > 0.0, w, 1.0), t)
    phase = np.exp(-1j * mean * t)
    a, b = ce[lower, None], cg[lower + k, None]
    amp_e[lower] = phase * ((cos - 1j * sinc * half) * a - 1j * sinc * c * b)
    amp_g[lower + k] = phase * (-1j * sinc * c * a + (cos + 1j * sinc * half) * b)
    for n in range(k):
        amp_g[n] = cg[n] * np.exp(-1j * energy_g(model, n) * t[0])
    for n in range(n_max - k + 1, n_max + 1):
        amp_e[n] = ce[n] * np.exp(-1j * energy_e(model, n) * t[0])

    pe, pg = np.abs(amp_e) ** 2, np.abs(amp_g) ** 2
    ns = np.arange(n_max + 1)[:, None]
    root = np.sqrt(ns[1:])
    a_mean = (root * (np.conj(amp_e[:-1]) * amp_e[1:] + np.conj(amp_g[:-1]) * amp_g[1:])).sum(axis=0)
    return pe.sum(axis=0) - pg.sum(axis=0), (ns * (pe + pg)).sum(axis=0), a_mean.real, a_mean.imag
