"""Exception hierarchy for retrodyn.

Every error raised by this package derives from :class:`RetrodynError`, so callers
can catch one type at the boundary. The subclasses mirror the distinct failure
modes of the pipeline stages (configuration, validation, grids, statistics,
model structure, numerics) and carry plain-text messages naming the offending
quantity and bound.
"""


class RetrodynError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(RetrodynError):
    """A required configuration key is missing or unparseable."""


class ValidationError(RetrodynError):
    """A physical parameter violates its documented bound."""


class DomainError(RetrodynError):
    """A mathematical input is outside the function's domain (e.g. v <= 0)."""


class NumericsError(RetrodynError):
    """A computation produced a non-finite (NaN) result, or a value past a fixed range."""


class GridError(RetrodynError):
    """A time grid is invalid or violates the explicit-scheme stability guard."""


class ShapeError(RetrodynError):
    """Array lengths or grids do not match between inputs."""


class StatisticsError(RetrodynError):
    """Too few samples for the requested ensemble statistic."""


class ReconstructionError(RetrodynError):
    """The variance reconstruction preconditions fail (e.g. non-stationary tail)."""


class RegimeError(RetrodynError):
    """Parameters are outside the regime where an algorithm is stable."""


class StabilityError(RetrodynError):
    """A drift matrix is not Hurwitz; no steady state exists."""


class ModelError(RetrodynError):
    """A Gaussian model is structurally inconsistent (e.g. channel support mismatch)."""


class ResourceError(RetrodynError):
    """The operating system refused a resource: a file, memory or a worker process."""
