"""Exception types shared across the package."""

__all__ = ["RainbowLabError", "BudgetExceededError"]


class RainbowLabError(Exception):
    """Base class for package-specific failures."""


class BudgetExceededError(RainbowLabError):
    """Raised when an exact search would exceed its declared size or time budget.

    This is an explicit refusal, never a silent approximation.
    """
