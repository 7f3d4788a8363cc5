"""Exception types shared across the package, and the refusal of a model that overflows."""

import numpy as np


class ConfigError(ValueError):
    """A model document or run parameter violates an invariant."""


class TruncationError(RuntimeError):
    """The Fock-space cutoff is too small for the requested computation.

    Carries the smallest cutoff the caller should retry with, when one
    can be suggested.
    """

    def __init__(self, message, suggested_n_max=None):
        super().__init__(message)
        self.suggested_n_max = suggested_n_max


def refuse_overflow(n_max: int, *arrays) -> None:
    """Raise ConfigError if a value of ``arrays`` is not finite: the model
    overflows at the cutoff n_max, whatever the time grid."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ConfigError(f"non-finite result: the model overflows at n_max={n_max}")
