"""Exception types shared across the package."""

from __future__ import annotations


class RingpointsError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(RingpointsError):
    """An argument is outside the domain of the operation (bad modulus, wrong dimension, ...)."""


class NotApplicableError(RingpointsError):
    """The operation is well-defined only for other parameters (e.g. a construction needing n = 2 mod 4)."""


class ResourceLimitError(RingpointsError):
    """A requested structure would exceed the configured memory budget."""


class DegenerateError(RingpointsError):
    """A geometric quantity vanishes where the definition requires it nonzero."""


class SearchTimeout(RingpointsError):
    """An exact search found its deadline passed; set-up counts against the budget too.

    Carries the best lower bound proven before the deadline, so callers can
    still report a partial result, and the points realizing it where the
    search keeps them (empty otherwise).
    """

    def __init__(self, message: str, lower_bound: int, witness: tuple = ()):
        super().__init__(message)
        self.lower_bound = lower_bound
        self.witness = witness
