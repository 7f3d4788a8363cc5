"""Model definitions for the generalized Jaynes-Cummings family.

A model is a qubit coupled to a single boson mode through a k-quantum
exchange term shaped by a nonlinear coupling profile f(n), plus a
qubit-conditioned diagonal shift F(n) (Stark-like) and an unconditional
boson shift G(n) (Kerr-like).  All frequencies are stored in units of the
bare qubit gap omega0, matching the convention of the bundled registry.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError

MAX_POLY_DEGREE = 8
DEFAULT_N_MAX = 64


def _require_finite(name, value):
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return float(value)


def _poly_value(p, n):
    acc = 0.0
    for c in reversed(p):
        acc = acc * n + c
    return acc


def _q_bracket_value(p, n):
    q = p[0]
    if q == 1.0:
        return math.sqrt(n)
    bracket = (q**n - q**-n) / (q - 1.0 / q)
    return math.sqrt(max(bracket, 0.0))


def _parity_value(p, n):
    m = round(n)
    if abs(n - m) < 1e-9:
        return p[0] if m % 2 == 0 else -p[0]
    return p[0] * math.cos(math.pi * n)


def _algebraic_value(p, n):
    chi_a, ell, w = p
    radicand = 1.0 - (chi_a / w) * (1.0 - float(n) ** (ell - 1.0))
    if radicand < 0.0:
        raise ValueError(
            f"AlgebraicSqrt radicand is negative at n={n} (chi_a={chi_a}, ell={ell}, omega={w})"
        )
    return math.sqrt(radicand)


def _algebraic_error(p):
    chi_a, ell, w = p
    if not (0.0 <= chi_a < w):
        return f"AlgebraicSqrt requires 0 <= chi_a < omega, got chi_a={chi_a}, omega={w}"
    if ell < 1.0:
        return f"AlgebraicSqrt requires ell >= 1, got ell={ell}"


def _none(p):
    return None


class _Kind(NamedTuple):
    """One row of the kind table; every callable takes the parameter tuple p."""

    n_params: int | None  # None: any length (Poly)
    value: Callable  # (p, n) -> value at n >= 0
    describe: Callable  # p -> compact text for CLI listings
    coefficients: Callable = _none  # p -> (c_0, ..., c_j) if polynomial in n, else None
    error: Callable = _none  # p -> why p is outside the kind's domain, or None


_KINDS = {
    "Zero": _Kind(0, lambda p, n: 0.0, lambda p: "0", lambda p: ()),
    "One": _Kind(0, lambda p, n: 1.0, lambda p: "1", lambda p: (1.0,)),
    "Poly": _Kind(
        None,
        _poly_value,
        lambda p: " + ".join(f"{c:g}*n^{j}" for j, c in enumerate(p) if c != 0.0) or "0",
        coefficients=lambda p: p,
        error=lambda p: f"Poly degree is capped at {MAX_POLY_DEGREE}, got degree {len(p) - 1}"
        if len(p) > MAX_POLY_DEGREE + 1 else None,
    ),
    "SqrtN": _Kind(0, lambda p, n: math.sqrt(n), lambda p: "sqrt(n)"),
    "PowerN": _Kind(
        1,
        lambda p, n: float(n) ** p[0],
        lambda p: f"n^{p[0]:g}",
        coefficients=lambda p: tuple(float(j == p[0]) for j in range(int(p[0]) + 1))
        if p[0] == int(p[0]) and 0 <= int(p[0]) <= MAX_POLY_DEGREE else None,
        error=lambda p: f"PowerN requires a non-negative exponent, got {p[0]}"
        if p[0] < 0.0 else None,
    ),
    "Kerr": _Kind(
        1, lambda p, n: p[0] * n * (n - 1.0), lambda p: f"{p[0]:g}*n*(n-1)",
        lambda p: (0.0, -p[0], p[0]),
    ),
    "QBracketSqrt": _Kind(
        1, _q_bracket_value, lambda p: f"sqrt([n]_q), q={p[0]:g}",
        error=lambda p: None if 0.0 < p[0] <= 1.0
        else f"QBracketSqrt requires 0 < q <= 1, got q={p[0]}",
    ),
    "Parity": _Kind(1, _parity_value, lambda p: f"{p[0]:g}*(-1)^n"),
    "AlgebraicSqrt": _Kind(
        3, _algebraic_value, lambda p: f"sqrt(1-({p[0]:g}/{p[2]:g})*(1-n^{p[1] - 1:g}))",
        error=_algebraic_error,
    ),
    "LinearStark": _Kind(
        1, lambda p, n: p[0] * n, lambda p: f"{p[0]:g}*n", lambda p: (0.0, p[0])
    ),
}


@dataclass(frozen=True)
class NonlinearFn:
    """Closed, serializable description of a real function of the boson number.

    ``kind`` picks a row of the kind table ``_KINDS`` (README: "Builtin
    function kinds"), ``params`` its parameters.  Instances are immutable
    and callable; evaluation is pure and accepts any non-negative real
    argument (Parity extends to non-integers as ``lam * cos(pi n)``).
    """

    kind: str
    params: tuple = ()

    def __post_init__(self):
        # A list is unhashable, so the type is checked before the lookup.
        row = _KINDS.get(self.kind) if isinstance(self.kind, str) else None
        if row is None:
            raise ConfigError(f"unknown function kind {self.kind!r}")
        params = tuple(_require_finite(f"{self.kind} parameter", p) for p in self.params)
        object.__setattr__(self, "params", params)
        if row.n_params is not None and len(params) != row.n_params:
            raise ConfigError(f"{self.kind} takes {row.n_params} parameter(s), got {len(params)}")
        error = row.error(params)
        if error is not None:
            raise ConfigError(error)

    def __call__(self, n: float) -> float:
        """Evaluate at a non-negative (possibly non-integer) argument."""
        if n < 0:
            raise ValueError(f"nonlinear functions are defined for n >= 0, got n={n}")
        return _KINDS[self.kind].value(self.params, n)

    def poly_coefficients(self) -> tuple:
        """Coefficients c_j such that value(n) = sum_j c_j n^j.

        Raises ValueError for kinds that are not polynomial in n.
        """
        coeffs = _KINDS[self.kind].coefficients(self.params)
        if coeffs is None:
            raise ValueError(f"{self.kind} is not polynomial in the boson number")
        return coeffs

    def describe(self) -> str:
        """Compact human-readable form used in CLI listings."""
        return _KINDS[self.kind].describe(self.params)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": list(self.params)}

    @classmethod
    def from_dict(cls, doc) -> "NonlinearFn":
        if not isinstance(doc, dict):
            raise ConfigError(f"function document must be an object, got {type(doc).__name__}")
        unknown = set(doc) - {"kind", "params"}
        if unknown:
            raise ConfigError(f"unknown function keys: {sorted(unknown)}")
        if "kind" not in doc:
            raise ConfigError("function document is missing 'kind'")
        params = doc.get("params", [])
        if not isinstance(params, list):
            raise ConfigError(f"function params must be an array, got {type(params).__name__}")
        return cls(kind=doc["kind"], params=tuple(params))


def tabulate(fn: NonlinearFn, n_max: int, label: str) -> np.ndarray:
    """fn at the Python ints 0..n_max as a float64 array, from the kind's
    value function (the bits of fn(n)); ``ModelSpec.validate_range`` calls it.

    Raises ConfigError naming ``label`` and n if a value raises or is not
    finite.  Every builtin kind gives the same double at n and float(n), so
    these values equal the scalar ones of ``analytic.aux_two_point``.
    """
    value, params = _KINDS[fn.kind].value, fn.params
    values, error = [], None
    try:
        for n in range(n_max + 1):
            values.append(value(params, n))
    except (ValueError, OverflowError) as exc:
        error = exc
    values = np.array(values, dtype=float)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ConfigError(f"{label} is not finite at n={bad[0]}")
    if error is not None:
        raise ConfigError(f"{label} invalid at n={values.size}: {error}") from error
    return values


# Shorthand constructors for the builtin kinds.
ZERO = NonlinearFn("Zero")
ONE = NonlinearFn("One")
SQRT_N = NonlinearFn("SqrtN")


def poly(*coeffs) -> NonlinearFn:
    return NonlinearFn("Poly", tuple(coeffs))


def kerr(chi) -> NonlinearFn:
    return NonlinearFn("Kerr", (chi,))


def linear_stark(slope) -> NonlinearFn:
    return NonlinearFn("LinearStark", (slope,))


@dataclass(frozen=True)
class ModelSpec:
    """One generalized Jaynes-Cummings Hamiltonian.

    H = omega*n + (omega0/2)*sigma_z + sigma_z*F(n) + G(n)
        + g*(sigma_+ f(n) a^k + sigma_- a^dag^k f(n))

    with k quanta exchanged per qubit flip.  The coupling profile f must be
    non-negative on the truncated range (a signed f is a Fock-basis gauge
    choice), which keeps every matrix representation real.
    """

    omega: float
    omega0: float
    g: float
    k: int
    f: NonlinearFn
    F: NonlinearFn
    G: NonlinearFn

    def __post_init__(self):
        object.__setattr__(self, "omega", _require_finite("omega", self.omega))
        object.__setattr__(self, "omega0", _require_finite("omega0", self.omega0))
        object.__setattr__(self, "g", _require_finite("g", self.g))
        if not isinstance(self.k, int) or isinstance(self.k, bool):
            raise ConfigError(f"k must be an integer, got {self.k!r}")
        if self.k < 1:
            raise ConfigError(f"k must satisfy k >= 1, got k={self.k}")
        for name, fn in (("f", self.f), ("F", self.F), ("G", self.G)):
            if not isinstance(fn, NonlinearFn):
                raise ConfigError(f"{name} must be a NonlinearFn, got {type(fn).__name__}")

    def validate_range(self, n_max: int):
        """f, F and G on the truncated range 0..n_max, each a float64 array.

        The one evaluation of the model at a cutoff, once per engine: every
        value must be finite and f non-negative, or ConfigError names the
        function and n.
        """
        f = tabulate(self.f, n_max, "coupling profile f")
        negative = np.flatnonzero(f < 0.0)
        if negative.size:
            n = int(negative[0])
            raise ConfigError(
                f"coupling profile f must be non-negative on 0..{n_max}, got f({n})={f[n]}"
            )
        return f, tabulate(self.F, n_max, "F"), tabulate(self.G, n_max, "G")

    def to_dict(self) -> dict:
        return {
            "omega": self.omega,
            "omega0": self.omega0,
            "g": self.g,
            "k": self.k,
            "f": self.f.to_dict(),
            "F": self.F.to_dict(),
            "G": self.G.to_dict(),
        }

    @classmethod
    def from_dict(cls, doc) -> "ModelSpec":
        if not isinstance(doc, dict):
            raise ConfigError(f"model document must be an object, got {type(doc).__name__}")
        required = {"omega", "omega0", "g", "k", "f", "F", "G"}
        missing = required - set(doc)
        if missing:
            raise ConfigError(f"model document is missing keys: {sorted(missing)}")
        unknown = set(doc) - required
        if unknown:
            raise ConfigError(f"unknown model keys: {sorted(unknown)}")
        k = doc["k"]
        if isinstance(k, float) and k.is_integer():
            k = int(k)
        return cls(
            omega=doc["omega"],
            omega0=doc["omega0"],
            g=doc["g"],
            k=k,
            f=NonlinearFn.from_dict(doc["f"]),
            F=NonlinearFn.from_dict(doc["F"]),
            G=NonlinearFn.from_dict(doc["G"]),
        )


def load_model(source) -> ModelSpec:
    """Parse a model document, a dict or a path to a JSON file; its values
    over a cutoff are checked by ``ModelSpec.validate_range``, in each engine.
    """
    if isinstance(source, (str, Path)):
        try:
            source = json.loads(Path(source).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read model file {source}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"model document is not valid JSON: {exc}") from exc
    return ModelSpec.from_dict(source)


@dataclass(frozen=True)
class ModelRegistryEntry:
    """A named model with the parameters used for one of the reference figures."""

    name: str
    spec: ModelSpec
    figure: int
    notes: str = ""


def _build_registry() -> tuple:
    common = dict(omega=1.0, omega0=1.0, g=0.1)
    entries = (
        ModelRegistryEntry(
            name="jc",
            spec=ModelSpec(**common, k=1, f=ONE, F=ZERO, G=ZERO),
            figure=1,
            notes="textbook resonant JC model; collapse and revival for a coherent field",
        ),
        ModelRegistryEntry(
            name="intensity-multiboson",
            spec=ModelSpec(**common, k=2, f=SQRT_N, F=ZERO, G=ZERO),
            figure=2,
            notes="intensity-dependent coupling sqrt(n) with two-boson exchange",
        ),
        ModelRegistryEntry(
            name="stark-two-photon",
            spec=ModelSpec(
                **common,
                k=2,
                f=ONE,
                F=linear_stark((0.75 - 1.0) / 2.0),
                G=linear_stark((0.75 + 1.0) / 2.0),
            ),
            figure=3,
            notes="two-photon exchange with Stark shift; beta1=1, beta2=0.75 in units of omega0",
        ),
        ModelRegistryEntry(
            name="kerr-two-photon",
            spec=ModelSpec(**common, k=2, f=ONE, F=ZERO, G=kerr(0.5)),
            figure=4,
            notes="Kerr medium chi*n*(n-1) with chi=0.5 and two-photon exchange",
        ),
        ModelRegistryEntry(
            name="molecular",
            spec=ModelSpec(**common, k=1, f=ONE, F=ZERO, G=poly(0.0, 0.0, 0.3)),
            figure=5,
            notes="quadratic boson shift 0.3*n^2 (molecular / Jahn-Teller type)",
        ),
        ModelRegistryEntry(
            name="algebraic",
            spec=ModelSpec(
                **common,
                k=1,
                f=NonlinearFn("AlgebraicSqrt", (0.5, 2.0, 1.0)),
                F=ZERO,
                G=poly(0.0, -0.5, 0.5),
            ),
            figure=6,
            notes=(
                "deformed-ladder model: chi_a=0.5, ell=2; the boson shift "
                "chi_a*n*(n^(ell-1)-1) expands to the quadratic 0.5*n^2-0.5*n"
            ),
        ),
        ModelRegistryEntry(
            name="parity-deformed",
            spec=ModelSpec(**common, k=1, f=ONE, F=ZERO, G=NonlinearFn("Parity", (0.2,))),
            figure=7,
            notes="parity-deformed oscillator, boson shift lambda*(-1)^n with lambda=0.2",
        ),
        ModelRegistryEntry(
            name="q-deformed",
            spec=ModelSpec(
                **common, k=1, f=NonlinearFn("QBracketSqrt", (0.9,)), F=ZERO, G=ZERO
            ),
            figure=8,
            notes=(
                "q-bracket coupling sqrt([n]_q) with q=0.9; the source Hamiltonian "
                "writes the qubit term as omega0*sigma_z and is normalized here to "
                "the standard omega0*sigma_z/2 convention"
            ),
        ),
    )
    return entries


_REGISTRY = _build_registry()


def registry() -> tuple:
    """The eight bundled reference models, in figure order."""
    return _REGISTRY


def registry_model(name: str) -> ModelSpec:
    """Look up a bundled model by name."""
    for entry in _REGISTRY:
        if entry.name == name:
            return entry.spec
    names = ", ".join(e.name for e in _REGISTRY)
    raise ConfigError(f"unknown model {name!r}; known models: {names}")
