"""Exception hierarchy.

Two error families matter to callers: validation errors (bad arguments,
inconsistent parameters, malformed files -- CLI exit code 2) and fit
errors (numerical fitting failed on structurally valid input -- CLI
exit code 3).
"""


class ThermoqError(Exception):
    """Base class for all package errors."""


class ValidationError(ThermoqError):
    """Invalid input: bad argument domain, inconsistent parameters, malformed file."""


class DomainError(ValidationError):
    """Argument outside the mathematical domain of an operation."""


class SingularityError(ValidationError):
    """Evaluation requested exactly at a pole or branch point."""


class InconsistencyError(ValidationError):
    """Mutually inconsistent physical parameters."""


class UnphysicalSlopeError(ValidationError):
    """Measured slope implies a negative rate."""


class NonNormalizableError(ValidationError):
    """Requested probability density cannot be normalized."""


class ConfigError(ValidationError):
    """Malformed or inconsistent run configuration."""


class CsvFormatError(ValidationError):
    """Malformed CSV file; message names the offending row."""


class FitError(ThermoqError):
    """Numerical fitting failed."""


class RankDeficiencyError(FitError):
    """Singular normal equations: parameters not identifiable from the data."""


class ModelDomainError(FitError):
    """Model returned non-finite residuals during fitting."""


class IllConditionedError(FitError):
    """Data cannot constrain the requested parameter (degenerate design)."""


class DegenerateDataError(FitError):
    """Data degenerate for the requested fit (e.g. all abscissae equal)."""
