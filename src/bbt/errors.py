"""Exception types shared across the library."""

from __future__ import annotations


class BbtError(Exception):
    """Base class for all library errors."""


class UnknownLiteral(BbtError):
    """A tree or action referenced a literal the state does not carry."""

    def __init__(self, literal: str):
        super().__init__(f"unknown literal {literal!r}")
        self.literal = literal


class EmptyGoal(BbtError):
    """A planning request was made with no goal conditions."""


class NoPending(BbtError):
    """Delayed-outcome application reached an entry with nothing scheduled."""


class TickLimitExceeded(BbtError):
    """Simulation or execution did not settle within the root-tick budget."""

    def __init__(self, ticks: int):
        super().__init__(f"exceeded the limit of {ticks} root ticks")
        self.ticks = ticks


class EntryLimitExceeded(BbtError):
    """A belief state grew past the configured number of entries."""

    def __init__(self, entries: int, limit: int):
        super().__init__(f"belief state holds {entries} entries, limit is {limit}")
        self.entries = entries
        self.limit = limit


class NothingFailed(BbtError):
    """No non-success entry exposes a failed condition to resolve."""


class NoResolver(BbtError):
    """No action or template can establish the target literal."""

    def __init__(self, literal: str):
        super().__init__(f"no action or template can establish {literal!r}")
        self.literal = literal


class IterationLimit(BbtError):
    """The planning loop hit its iteration budget before reaching the goal."""

    def __init__(self, iterations: int, probability: float):
        super().__init__(
            f"no plan after {iterations} iterations "
            f"(best success probability {probability:.6f})"
        )
        self.iterations = iterations
        self.probability = probability


class UnresolvableThreat(BbtError):
    """A conflicting action cannot be reordered behind the target condition."""


class ParseError(BbtError):
    """Domain text could not be tokenized or did not match the grammar."""

    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        detail = f"{line}:{col}: {message}"
        if expected:
            detail += " (expected " + " or ".join(expected) + ")"
        super().__init__(detail)
        self.line = line
        self.col = col
        self.expected = expected


class SemanticError(BbtError):
    """Domain text parsed but violates a well-formedness rule."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        if line is not None:
            message = f"{line}:{col}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col

