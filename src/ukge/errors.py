"""Exception taxonomy shared across the package.

Grouped by how the command-line layer reports them: input problems
(bad files, bad configuration, bad checkpoints), lookup misses
(unknown names or out-of-range ids), and numeric failures during
optimisation.
"""

from __future__ import annotations


class UkgeError(Exception):
    """Base class for every error raised by this package."""


# --- input-shaped problems -------------------------------------------------


class DimensionError(UkgeError):
    """An array's shape is inconsistent with the declared signature."""


class ConfigurationError(UkgeError):
    """A signature, hyperparameter, or run configuration is invalid."""


class DegeneratePointError(UkgeError):
    """A point has a degenerate (zero-norm) time component."""


class PreconditionError(UkgeError):
    """Inputs violate a documented precondition of an operation."""


class ParseError(UkgeError):
    """A data file could not be parsed; message carries file and line."""

    def __init__(self, path: str, line: int, reason: str):
        super().__init__(f"{path}:{line}: {reason}")
        self.path = path
        self.line = line
        self.reason = reason


class StateError(UkgeError):
    """An operation was applied to an object in the wrong state."""


class EmptySplitError(UkgeError):
    """A required triple split contains no triples."""


class UndefinedMetricError(UkgeError):
    """A graph statistic is undefined for the given subgraph."""


# --- checkpoint problems (distinct types per failure mode) ----------------


class CheckpointError(UkgeError):
    """Base class for checkpoint (de)serialisation failures."""


class CorruptHeaderError(CheckpointError):
    """Magic bytes or header block are malformed."""


class VersionMismatchError(CheckpointError):
    """The checkpoint format version is not supported."""


class TruncatedPayloadError(CheckpointError):
    """The parameter payload is shorter than the header promises."""


class CorruptPayloadError(CheckpointError):
    """A payload value is NaN or infinite; names the parameter family."""


class DigestMismatchError(CheckpointError):
    """Checkpoint dictionaries do not match the provided triple store."""


# --- lookup misses ---------------------------------------------------------


class IdLookupError(UkgeError):
    """An entity or relation id is outside the model's range."""


class NameLookupError(UkgeError):
    """An entity or relation name is absent from the dictionaries."""


# --- numeric failures ------------------------------------------------------


class NumericError(UkgeError):
    """Base class for runtime numeric failures."""


class NonFiniteGradientError(NumericError):
    """A gradient contained NaN or infinity; names the parameter block."""


class DivergenceError(NumericError):
    """Training loss became non-finite; carries the last good model."""

    def __init__(self, message: str, last_good=None, epoch: int | None = None):
        super().__init__(message)
        self.last_good = last_good
        self.epoch = epoch
