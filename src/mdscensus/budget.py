"""Global work-budget handling.

Every potentially expensive enumeration is gated by a candidate budget.
The default (2**32 candidates) keeps any single call at desk scale; it can
be raised per call or globally through the MDS_BUDGET environment variable.
"""

import operator
import os

from .errors import BudgetExceeded, OutOfRange

DEFAULT_BUDGET = 2**32


def effective_budget(budget=None):
    """Resolve the budget to use: explicit value, else MDS_BUDGET, else default.
    A budget that is not a nonnegative integer raises OutOfRange."""
    if budget is not None:
        return _validated(budget, "budget")
    env = os.environ.get("MDS_BUDGET")
    if env is not None:
        return _validated(env, "MDS_BUDGET")
    return DEFAULT_BUDGET


def _validated(value, what):
    """value, an integer or the text of one (MDS_BUDGET), as an int."""
    try:
        limit = int(value) if isinstance(value, str) else operator.index(value)
    except (TypeError, ValueError):
        raise OutOfRange(f"{what} must be an integer, got {value!r}") from None
    if limit < 0:
        raise OutOfRange(f"{what} must be nonnegative, got {limit}")
    return limit


def check_budget(estimate, budget, what):
    """Raise BudgetExceeded when the estimated candidate count is over budget."""
    limit = effective_budget(budget)
    if estimate > limit:
        raise BudgetExceeded(estimate, limit, what)
    return limit
