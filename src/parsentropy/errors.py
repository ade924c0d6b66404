"""Typed exceptions shared across the toolkit."""


class ParsentropyError(Exception):
    """Base class for all toolkit errors."""


class OutOfSupportError(ParsentropyError):
    """A word (or a block of a parsing) has zero probability under the model."""


class CapExceededError(ParsentropyError):
    """An exact enumeration would exceed the configured atom cap."""


class InsufficientLengthError(ParsentropyError):
    """A trajectory is too short for the requested evaluation window."""


class TrimTooLargeError(ParsentropyError):
    """A sub-block trim would remove an entire block."""


class OverlapViolationError(ParsentropyError):
    """A super-block extension reaches beyond the neighboring blocks."""


class WindowEmptyError(ParsentropyError):
    """The tail-selection window of the data-dependent parsing is empty."""


class GapTooSmallError(ParsentropyError):
    """The two-limit construction cannot be resolved for this model."""


class BudgetNotSubextensiveError(ParsentropyError):
    """A perturbation plan modifies a non-vanishing fraction of the symbols."""


class ModelFormatError(ParsentropyError):
    """A model file is malformed; the message carries the offending path."""


class PreconditionError(ParsentropyError, ValueError):
    """An input violates a documented precondition of an experiment or generator."""


class ConfigError(ParsentropyError):
    """An experiment configuration is malformed or violates the schema."""
