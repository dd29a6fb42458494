"""Resource caps for exhaustive enumerations.

Exact integration, grid fitting and monotonicity checking all enumerate
exponentially many cells; a configurable cap keeps accidental huge requests
from locking up a session.  The cap can be overridden per call or globally
through the ``MONOAPPROX_BUDGET_CELLS`` environment variable.
"""

from __future__ import annotations

import os

DEFAULT_CELL_BUDGET = 2**22

_ENV_VAR = "MONOAPPROX_BUDGET_CELLS"


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured cell budget."""


def cell_budget(override: int | None = None) -> int:
    """Effective cell budget: explicit override, else env var, else default.

    An env var that is not a positive integer is a ValueError naming it.
    """
    if override is not None:
        return int(override)
    env = os.environ.get(_ENV_VAR)
    if env is None:
        return DEFAULT_CELL_BUDGET
    try:
        budget = int(env)
    except ValueError:
        budget = 0
    if budget < 1:
        raise ValueError(f"{_ENV_VAR} must be a positive integer, got {env!r}")
    return budget


def check_budget(n_cells: int, override: int | None = None, what: str = "cells") -> None:
    limit = cell_budget(override)
    if n_cells > limit:
        raise BudgetExceededError(
            f"{n_cells} {what} requested, budget is {limit} "
            f"(override via argument or {_ENV_VAR})"
        )
