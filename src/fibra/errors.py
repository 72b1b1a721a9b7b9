"""Exception hierarchy shared across the package."""

from __future__ import annotations


class FibraError(Exception):
    """Base class for all package-specific errors."""


class InputError(FibraError, ValueError):
    """Malformed external input (bad JSON shape, unparsable expression)."""


class PreconditionError(FibraError, ValueError):
    """A stated precondition of an operation does not hold."""


class FibrationRequired(PreconditionError):
    """The operation is only defined for graph fibrations."""


class SignatureMismatch(PreconditionError):
    """A control does not fit the input-tree signature it is bound to."""


class EnumerationCapExceeded(FibraError):
    """Isomorphism enumeration would exceed the configured size cap; the message names the cap, not the count."""

    def __init__(self, count: int, cap: int):
        super().__init__(f"more than {cap} isomorphisms: over the enumeration cap")
        self.count = count
        self.cap = cap


class EvaluationFault(FibraError):
    """Runtime fault while evaluating an expression (log of non-positive, empty mean)."""


class IntegrationFault(FibraError):
    """Non-finite state produced during integration."""

    def __init__(self, step: int):
        super().__init__(f"non-finite state at step {step}")
        self.step = step
