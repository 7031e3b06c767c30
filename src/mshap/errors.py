"""Semantic exception hierarchy shared by all mshap modules."""


class MshapError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(MshapError):
    """Shapes, arities, or feature names of the inputs do not line up."""


class EnumerationLimitError(MshapError):
    """Feature count exceeds the configured exact-enumeration limit."""


class InvalidInputError(MshapError):
    """Inputs are well-shaped but violate a documented precondition."""


class ResampleLimitError(MshapError):
    """Guarded covariate sampling failed to produce valid rows after retries."""


class TableFormatError(MshapError):
    """A delimited table file or its metadata sidecar could not be parsed."""
