"""Exception hierarchy shared across the package.

The command line maps these onto exit-code classes: configuration problems,
data problems, training failures, and verification failures each get their
own nonzero code.
"""


class LoadcastError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(LoadcastError):
    """Operands or arguments have incompatible shapes."""


class TapeError(LoadcastError):
    """A differentiation-tape contract was violated."""


class EvaluationError(LoadcastError):
    """A forward evaluation produced or encountered non-finite values."""


class ConfigError(LoadcastError):
    """A run, model, or checkpoint configuration is invalid."""


class CompatibilityError(ConfigError):
    """A checkpoint does not match the data it is being applied to."""


class DataError(LoadcastError):
    """Base class for data ingestion and preparation failures."""


class SchemaError(DataError):
    """An input file does not have the expected columns or structure."""


class ParseError(DataError):
    """A row or line of an input file could not be parsed."""


class ContinuityError(DataError):
    """An hourly series has a gap or a non-monotone timestamp."""


class CoverageError(DataError):
    """A record falls outside the holiday calendar's coverage."""


class SizeError(DataError):
    """A series is too short for the requested windowing."""


class DegenerateStatsError(DataError):
    """Standardization statistics are not finite or have zero spread."""


class DomainError(DataError):
    """A metric input lies outside its domain (non-positive actual load)."""


class TrainingError(LoadcastError):
    """Training could not proceed or diverged."""
