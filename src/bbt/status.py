"""Three-valued node status used throughout the library."""

from __future__ import annotations

from enum import Enum


class Status(str, Enum):
    """Return status of a tick: success, failure, or running.

    Condition nodes reuse R to report that the value of the condition is
    currently unknown.
    """

    S = "S"
    F = "F"
    R = "R"

    def __repr__(self) -> str:
        return f"Status.{self.name}"

    def __str__(self) -> str:
        return self.value
