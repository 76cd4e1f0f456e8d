"""cocolour: colouring complexity toolkit for complement-closed classes."""

from .graphs import Graph

__all__ = ["BudgetExceededError", "Graph"]
__version__ = "0.1.0"


class BudgetExceededError(RuntimeError):
    """The solver ran out of its wall-clock budget before deciding.

    Defined here, and re-exported by ``solvers``, so that the CLI can catch
    it without loading the solvers."""
