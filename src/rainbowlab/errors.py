"""Exception types shared across the package."""


class RainbowLabError(Exception):
    """Base class for package-specific failures."""


class NonBipartiteError(RainbowLabError):
    """Raised when an operation requires a bipartite graph and the graph has an
    odd cycle (its ``bipartition`` is None)."""


class BudgetExceededError(RainbowLabError):
    """Raised when an exact search would exceed its declared size or time budget.

    This is an explicit refusal, never a silent approximation.
    """
