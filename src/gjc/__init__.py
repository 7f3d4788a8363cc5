"""Generalized Jaynes-Cummings models: closed-form diagonalization through
the underlying graded operator algebra, exact time evolution, and an
independent truncated-Fock-space cross-check."""

from .analytic import (
    Manifold,
    ObservableTrace,
    aux_binomial,
    aux_two_point,
    build_manifold,
    dark_levels,
    dressed_states,
    evolve,
    manifolds,
    sigma_z_fock,
    trace_observables,
)
from .algebra import (
    auxiliary_charges,
    build_charges,
    build_operator_set,
    susy_hamiltonian,
    verify_relations,
)
from .errors import ConfigError, TruncationError
from .model import (
    DEFAULT_N_MAX,
    FnKind,
    ModelRegistryEntry,
    ModelSpec,
    NonlinearFn,
    load_model,
    registry,
    registry_model,
)
from .oracle import (
    HamiltonianMatrix,
    assemble,
    propagate,
    spectrum,
)
from .states import QubitBosonState, coherent_state, fock_state, observables

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DEFAULT_N_MAX",
    "FnKind",
    "HamiltonianMatrix",
    "Manifold",
    "ModelRegistryEntry",
    "ModelSpec",
    "NonlinearFn",
    "ObservableTrace",
    "QubitBosonState",
    "TruncationError",
    "assemble",
    "aux_binomial",
    "aux_two_point",
    "auxiliary_charges",
    "build_charges",
    "build_manifold",
    "build_operator_set",
    "coherent_state",
    "dark_levels",
    "dressed_states",
    "evolve",
    "fock_state",
    "load_model",
    "manifolds",
    "observables",
    "propagate",
    "registry",
    "registry_model",
    "sigma_z_fock",
    "spectrum",
    "susy_hamiltonian",
    "trace_observables",
    "verify_relations",
]
