"""Exception hierarchy shared by all pomdpkit modules."""

from __future__ import annotations


class PomdpKitError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(PomdpKitError):
    pass


def check_at_least(name: str, value, low) -> None:
    """Raise :class:`DimensionMismatch` unless ``value >= low``."""
    if not value >= low:
        raise DimensionMismatch(f"{name} must be at least {low}, got {value}")


class NegativeEntry(PomdpKitError):
    pass


class NonStochasticRow(PomdpKitError):
    """A matrix row sums too far from one to be silently renormalized."""

    def __init__(self, action: int, row: int, total: float):
        self.action = action
        self.row = row
        self.total = total
        super().__init__(
            f"row {row} of matrix for action {action} sums to {total!r}"
        )


class NonIncreasingLevels(PomdpKitError):
    pass


class ZeroLikelihood(PomdpKitError):
    """Observation has (numerically) zero probability under the prior."""


class NotTP2(PomdpKitError):
    pass


class OrderingViolation(PomdpKitError):
    """A sandwich bound failed; the stated preconditions cannot have held."""

    def __init__(self, step: int, detail: str = ""):
        self.step = step
        super().__init__(f"ordering violated at step {step}: {detail}")


class LpNumericFailure(PomdpKitError):
    pass


class LpInfeasible(PomdpKitError):
    def __init__(self, which: str = ""):
        self.which = which
        super().__init__(f"linear program infeasible: {which}" if which else
                         "linear program infeasible")


class Blowup(PomdpKitError):
    """A vector set exceeded the configured size budget."""

    def __init__(self, stage: int, size: int, budget: int):
        self.stage = stage
        self.size = size
        self.budget = budget
        super().__init__(
            f"vector set at stage {stage} has {size} vectors "
            f"(budget {budget})"
        )


class NonTransient(PomdpKitError):
    pass


class PriorMassOnState1(PomdpKitError):
    pass


class InvalidProbability(PomdpKitError):
    pass


class PreconditionFailed(PomdpKitError):
    pass
