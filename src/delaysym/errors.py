"""Exception types shared across the package.

Every error raised by the library derives from DelaySymError so that callers
(in particular the command line front end) can distinguish validation and
domain failures from genuine bugs.
"""

from __future__ import annotations


class DelaySymError(Exception):
    """Base class for all library errors."""


class ParseError(DelaySymError):
    """Raised when expression text cannot be parsed.

    position is the character index into the original input at which the
    offending token starts.
    """

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at index {position})")
        self.position = position


class DomainError(DelaySymError):
    """Evaluation left the mathematical domain (log of a negative number,
    division by zero, a delay relation queried outside its validity region,
    and similar conditions)."""


class UnboundVariable(DelaySymError):
    """An expression referenced a variable with no bound value."""


class NoForwardPoint(DelaySymError):
    """The delay relation cannot be advanced past the given point."""


class NotMonotone(DelaySymError):
    """A user supplied delay function was detected non increasing."""


class NoDodsError(DelaySymError):
    """The requested catalog entry admits no invariant DODS."""


class ParameterDomainError(DelaySymError):
    """A catalog parameter lies outside its admissible range."""


class SchemeMismatch(DelaySymError):
    """The requested integration scheme does not apply to the system."""


class OutOfRange(DelaySymError):
    """A point lies outside the span of a piecewise solution."""


class MeshRangeError(DelaySymError):
    """A tabulated coefficient function was evaluated outside its mesh."""


class NotASolution(DelaySymError):
    """A candidate failed the residual gate required of a solution."""


class UnsupportedFlow(DelaySymError):
    """The one parameter group of the field has no implemented closed form."""


class DegenerateRoot(DelaySymError):
    """A characteristic root is real, so no oscillatory pair exists."""


class NonConvergence(DelaySymError):
    """An iterative root search failed to meet its tolerance."""


class BracketNotFound(DelaySymError):
    """A sign change scan found no bracket on the declared interval."""


class StatusError(DelaySymError):
    """An operation was applied to a constraint solution in the wrong state."""


class FrozenInstanceError(AttributeError):
    """A field of an immutable record was assigned or deleted (a bug)."""


class DivergenceWarning(UserWarning):
    """The Bernoulli generating function series is outside its disk of
    convergence; partial sums are still returned."""
