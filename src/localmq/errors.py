"""Exception hierarchy.

ContractViolation covers every precondition breach (dimension or domain
mismatch, size limits, zero-mass conditioning). LocalityError is
the defining error of the query model and carries the offending
distance. BudgetExceededError signals that a learner's grown set passed
its cap, which on a conforming run means the smoothness assumption was
violated. AuditLogError marks a malformed line in a JSONL audit log.
"""

from __future__ import annotations


class ContractViolation(ValueError):
    """A documented precondition was violated."""


class LocalityError(ContractViolation):
    """A membership query strayed farther than r from its anchor."""

    def __init__(self, distance: int, r: int, anchor: int | None = None):
        self.distance = distance
        self.r = r
        self.anchor = anchor
        super().__init__(
            f"query at Hamming distance {distance} from anchor "
            f"{anchor if anchor is not None else '?'} exceeds locality r={r}"
        )


class EnumerationLimitError(ContractViolation):
    """A size above a supported limit (the limits table in `localmq._bits`)."""


class ZeroMassError(ContractViolation):
    """Conditioning event has zero probability."""


class AuditLogError(ValueError):
    """A line of a JSONL audit log is not a well-formed audit record."""

    def __init__(self, line: int, problem: str):
        self.line = line
        super().__init__(f"line {line}: {problem}")


class BudgetExceededError(RuntimeError):
    """Grown set exceeded its cap; smoothness assumption likely violated."""

    def __init__(self, size: int, cap: int):
        self.size = size
        self.cap = cap
        super().__init__(f"grown set size {size} exceeded cap {cap}")


class CodeConstructionError(RuntimeError):
    """No linear code found within the length budget."""


class SimulationError(RuntimeError):
    """Rejection sampling exceeded its try budget."""
