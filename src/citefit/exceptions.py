"""Exception hierarchy shared across the package."""


class CitefitError(Exception):
    """Base class for all citefit errors."""


class DomainError(CitefitError):
    """An argument lies outside the mathematical domain of an operation."""


class ParameterError(CitefitError):
    """Distribution parameters violate their invariants."""


class EmptySampleError(CitefitError):
    """An operation that needs data was given an empty sample."""


class FitFailedError(CitefitError):
    """A fit required by a downstream procedure was unusable."""


class IdenticalModelsError(CitefitError):
    """Pointwise log-likelihood differences have zero spread, so z is undefined."""


class TooFewRepsError(CitefitError):
    """Too few bootstrap repetitions for the order-statistic interval."""


class AllStatisticsFailedError(CitefitError):
    """Every bootstrap repetition failed to produce a statistic."""


class InvalidWeightsError(CitefitError):
    """Mixture weights are empty, non-positive or otherwise unusable."""


class OffsetError(CitefitError):
    """Offset 0 requested for data containing zero counts (support starts at 1)."""


class ParseError(CitefitError):
    """A count file could not be parsed.

    Attributes
    ----------
    line_number : int or None
        1-based line of the offending record, when known.
    """

    def __init__(self, message: str, line_number: int | None = None):
        super().__init__(message if line_number is None
                         else f"line {line_number}: {message}")
        self.line_number = line_number
