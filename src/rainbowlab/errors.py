"""Exception types shared across the package."""

__all__ = ["BudgetExceededError"]


class BudgetExceededError(Exception):
    """Raised when an exact search would exceed its declared size or time budget.

    This is an explicit refusal, never a silent approximation.
    """
