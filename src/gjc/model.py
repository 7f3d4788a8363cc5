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
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .errors import ConfigError

MAX_POLY_DEGREE = 8
DEFAULT_N_MAX = 64


class FnKind(str, Enum):
    """Builtin shapes for the nonlinear boson-number functions."""

    ZERO = "Zero"
    ONE = "One"
    POLY = "Poly"
    SQRT_N = "SqrtN"
    POWER_N = "PowerN"
    KERR = "Kerr"
    Q_BRACKET_SQRT = "QBracketSqrt"
    PARITY = "Parity"
    ALGEBRAIC_SQRT = "AlgebraicSqrt"
    LINEAR_STARK = "LinearStark"


# Expected parameter count per kind; None means variable length (Poly).
_PARAM_COUNT = {
    FnKind.ZERO: 0,
    FnKind.ONE: 0,
    FnKind.POLY: None,
    FnKind.SQRT_N: 0,
    FnKind.POWER_N: 1,
    FnKind.KERR: 1,
    FnKind.Q_BRACKET_SQRT: 1,
    FnKind.PARITY: 1,
    FnKind.ALGEBRAIC_SQRT: 3,
    FnKind.LINEAR_STARK: 1,
}


def _require_finite(name, value):
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class NonlinearFn:
    """Closed, serializable description of a real function of the boson number.

    Parameter layout per kind:

    ==============  =======================  ==========================================
    kind            params                   value at n
    ==============  =======================  ==========================================
    Zero            []                       0
    One             []                       1
    Poly            [c0, ..., cj] (j <= 8)   sum_j c_j n^j
    SqrtN           []                       sqrt(n)
    PowerN          [p]                      n^p
    Kerr            [chi]                    chi * n * (n - 1)
    QBracketSqrt    [q], 0 < q <= 1          sqrt((q^n - q^-n) / (q - q^-1))
    Parity          [lam]                    lam * (-1)^n
    AlgebraicSqrt   [chi_a, ell, w]          sqrt(1 - (chi_a/w) * (1 - n^(ell-1)))
    LinearStark     [s]                      s * n
    ==============  =======================  ==========================================

    Instances are immutable and callable; evaluation is pure and accepts any
    non-negative real argument (Parity extends to non-integers as
    ``lam * cos(pi n)``).
    """

    kind: FnKind
    params: tuple = ()

    def __post_init__(self):
        try:
            kind = FnKind(self.kind)
        except ValueError:
            raise ConfigError(f"unknown function kind {self.kind!r}") from None
        params = tuple(_require_finite(f"{kind.value} parameter", p) for p in self.params)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", params)

        expected = _PARAM_COUNT[kind]
        if expected is not None and len(params) != expected:
            raise ConfigError(
                f"{kind.value} takes {expected} parameter(s), got {len(params)}"
            )
        if kind is FnKind.POLY and len(params) > MAX_POLY_DEGREE + 1:
            raise ConfigError(
                f"Poly degree is capped at {MAX_POLY_DEGREE}, got degree {len(params) - 1}"
            )
        if kind is FnKind.Q_BRACKET_SQRT:
            q = params[0]
            if not 0.0 < q <= 1.0:
                raise ConfigError(f"QBracketSqrt requires 0 < q <= 1, got q={q}")
        if kind is FnKind.ALGEBRAIC_SQRT:
            chi_a, ell, w = params
            if not (0.0 <= chi_a < w):
                raise ConfigError(
                    f"AlgebraicSqrt requires 0 <= chi_a < omega, got chi_a={chi_a}, omega={w}"
                )
            if ell < 1.0:
                raise ConfigError(f"AlgebraicSqrt requires ell >= 1, got ell={ell}")
        if kind is FnKind.POWER_N and params[0] < 0.0:
            raise ConfigError(f"PowerN requires a non-negative exponent, got {params[0]}")

    def __call__(self, n: float) -> float:
        """Evaluate at a non-negative (possibly non-integer) argument."""
        if n < 0:
            raise ValueError(f"nonlinear functions are defined for n >= 0, got n={n}")
        kind = self.kind
        if kind is FnKind.ZERO:
            return 0.0
        if kind is FnKind.ONE:
            return 1.0
        if kind is FnKind.POLY:
            acc = 0.0
            for c in reversed(self.params):
                acc = acc * n + c
            return acc
        if kind is FnKind.SQRT_N:
            return math.sqrt(n)
        if kind is FnKind.POWER_N:
            return float(n) ** self.params[0]
        if kind is FnKind.KERR:
            return self.params[0] * n * (n - 1.0)
        if kind is FnKind.Q_BRACKET_SQRT:
            q = self.params[0]
            if q == 1.0:
                return math.sqrt(n)
            bracket = (q**n - q**-n) / (q - 1.0 / q)
            return math.sqrt(max(bracket, 0.0))
        if kind is FnKind.PARITY:
            lam = self.params[0]
            m = round(n)
            if abs(n - m) < 1e-9:
                return lam if m % 2 == 0 else -lam
            return lam * math.cos(math.pi * n)
        if kind is FnKind.ALGEBRAIC_SQRT:
            chi_a, ell, w = self.params
            radicand = 1.0 - (chi_a / w) * (1.0 - float(n) ** (ell - 1.0))
            if radicand < 0.0:
                raise ValueError(
                    f"AlgebraicSqrt radicand is negative at n={n} "
                    f"(chi_a={chi_a}, ell={ell}, omega={w})"
                )
            return math.sqrt(radicand)
        if kind is FnKind.LINEAR_STARK:
            return self.params[0] * n
        raise AssertionError(f"unhandled kind {kind}")

    def poly_coefficients(self) -> tuple:
        """Coefficients c_j such that value(n) = sum_j c_j n^j.

        Raises ValueError for kinds that are not polynomial in n.
        """
        kind = self.kind
        if kind is FnKind.ZERO:
            return ()
        if kind is FnKind.ONE:
            return (1.0,)
        if kind is FnKind.POLY:
            return self.params
        if kind is FnKind.LINEAR_STARK:
            return (0.0, self.params[0])
        if kind is FnKind.KERR:
            chi = self.params[0]
            return (0.0, -chi, chi)
        if kind is FnKind.POWER_N:
            p = self.params[0]
            if p == int(p) and 0 <= int(p) <= MAX_POLY_DEGREE:
                coeffs = [0.0] * (int(p) + 1)
                coeffs[int(p)] = 1.0
                return tuple(coeffs)
        raise ValueError(f"{kind.value} is not polynomial in the boson number")

    def describe(self) -> str:
        """Compact human-readable form used in CLI listings."""
        kind = self.kind
        if kind is FnKind.ZERO:
            return "0"
        if kind is FnKind.ONE:
            return "1"
        if kind is FnKind.POLY:
            terms = [f"{c:g}*n^{j}" for j, c in enumerate(self.params) if c != 0.0]
            return " + ".join(terms) if terms else "0"
        if kind is FnKind.SQRT_N:
            return "sqrt(n)"
        if kind is FnKind.POWER_N:
            return f"n^{self.params[0]:g}"
        if kind is FnKind.KERR:
            return f"{self.params[0]:g}*n*(n-1)"
        if kind is FnKind.Q_BRACKET_SQRT:
            return f"sqrt([n]_q), q={self.params[0]:g}"
        if kind is FnKind.PARITY:
            return f"{self.params[0]:g}*(-1)^n"
        if kind is FnKind.ALGEBRAIC_SQRT:
            chi_a, ell, w = self.params
            return f"sqrt(1-({chi_a:g}/{w:g})*(1-n^{ell - 1:g}))"
        if kind is FnKind.LINEAR_STARK:
            return f"{self.params[0]:g}*n"
        raise AssertionError(f"unhandled kind {kind}")

    def to_dict(self) -> dict:
        return {"kind": self.kind.value, "params": list(self.params)}

    @classmethod
    def from_dict(cls, doc) -> "NonlinearFn":
        if not isinstance(doc, dict):
            raise ConfigError(f"function document must be an object, got {type(doc).__name__}")
        unknown = set(doc) - {"kind", "params"}
        if unknown:
            raise ConfigError(f"unknown function keys: {sorted(unknown)}")
        if "kind" not in doc:
            raise ConfigError("function document is missing 'kind'")
        return cls(kind=doc["kind"], params=tuple(doc.get("params", ())))


# Shorthand constructors for the builtin kinds.
ZERO = NonlinearFn(FnKind.ZERO)
ONE = NonlinearFn(FnKind.ONE)
SQRT_N = NonlinearFn(FnKind.SQRT_N)


def poly(*coeffs) -> NonlinearFn:
    return NonlinearFn(FnKind.POLY, tuple(coeffs))


def kerr(chi) -> NonlinearFn:
    return NonlinearFn(FnKind.KERR, (chi,))


def linear_stark(slope) -> NonlinearFn:
    return NonlinearFn(FnKind.LINEAR_STARK, (slope,))


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

    def validate_range(self, n_max: int) -> None:
        """Check the n-dependent invariants on the truncated range 0..n_max."""
        for n in range(n_max + 1):
            try:
                fe = self.f(n)
            except (ValueError, OverflowError) as exc:
                raise ConfigError(f"coupling profile f invalid at n={n}: {exc}") from exc
            if not math.isfinite(fe):
                raise ConfigError(f"coupling profile f is not finite at n={n}")
            if fe < 0.0:
                raise ConfigError(
                    f"coupling profile f must be non-negative on 0..{n_max}, "
                    f"got f({n})={fe}"
                )
            for name, fn in (("F", self.F), ("G", self.G)):
                try:
                    val = fn(n)
                except (ValueError, OverflowError) as exc:
                    raise ConfigError(f"{name} invalid at n={n}: {exc}") from exc
                if not math.isfinite(val):
                    raise ConfigError(f"{name} is not finite at n={n}")

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


def load_model(source, n_max: int = DEFAULT_N_MAX) -> ModelSpec:
    """Load and eagerly validate a model document.

    ``source`` may be a dict, a JSON string, or a path to a JSON file.
    Every invariant, including the n-dependent ones over 0..n_max, is
    checked before the spec is returned.
    """
    if isinstance(source, (str, Path)) and not (
        isinstance(source, str) and source.lstrip().startswith("{")
    ):
        try:
            text = Path(source).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read model file {source}: {exc}") from exc
        source = text
    if isinstance(source, str):
        try:
            source = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"model document is not valid JSON: {exc}") from exc
    spec = ModelSpec.from_dict(source)
    spec.validate_range(n_max)
    return spec


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
                f=NonlinearFn(FnKind.ALGEBRAIC_SQRT, (0.5, 2.0, 1.0)),
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
            spec=ModelSpec(**common, k=1, f=ONE, F=ZERO, G=NonlinearFn(FnKind.PARITY, (0.2,))),
            figure=7,
            notes="parity-deformed oscillator, boson shift lambda*(-1)^n with lambda=0.2",
        ),
        ModelRegistryEntry(
            name="q-deformed",
            spec=ModelSpec(
                **common, k=1, f=NonlinearFn(FnKind.Q_BRACKET_SQRT, (0.9,)), F=ZERO, G=ZERO
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
