"""Generalized Jaynes-Cummings models: closed-form diagonalization through
the underlying graded operator algebra, exact time evolution, and an
independent truncated-Fock-space cross-check."""

from .analytic import (
    aux_binomial,
    aux_two_point,
    dark_levels,
    dressed_states,
    manifolds,
    sigma_z_fock,
    trace_observables,
)
from .algebra import verify_relations
from .errors import ConfigError, TruncationError
from .model import DEFAULT_N_MAX, ModelSpec, load_model, registry, registry_model
from .oracle import assemble, propagate
from .states import QubitBosonState, coherent_state, fock_state, observables

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DEFAULT_N_MAX",
    "ModelSpec",
    "QubitBosonState",
    "TruncationError",
    "assemble",
    "aux_binomial",
    "aux_two_point",
    "coherent_state",
    "dark_levels",
    "dressed_states",
    "fock_state",
    "load_model",
    "manifolds",
    "observables",
    "propagate",
    "registry",
    "registry_model",
    "sigma_z_fock",
    "trace_observables",
    "verify_relations",
]
