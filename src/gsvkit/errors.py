"""Shared exception taxonomy. The CLI maps these onto exit codes."""


class GsvError(Exception):
    """Base class for every error raised by this package."""


class GsvInputError(GsvError):
    """Bad input or a validation failure (CLI exit code 1)."""


class IncompleteResultError(GsvError):
    """A search finished without a certified answer (CLI exit code 2)."""


class PolynomialParseError(GsvInputError):
    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class QuantumRegionError(GsvInputError):
    """The moment level r = 0 is outside the validity of the construction."""


class NonIsolatedError(GsvInputError):
    """A singular ray could not be certified as an isolated node."""


class MalformedIncidenceError(GsvInputError):
    """Node-to-4-cycle incidence data violates the partition invariants."""


class ExactnessError(GsvInputError):
    """Supplied cohomology data cannot sit in an exact sequence."""


class ResourceLimitError(GsvInputError):
    """Enumeration would exceed the configured resource bound."""
