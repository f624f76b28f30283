"""Shared exception types.

Validation problems (bad arguments, violated preconditions) raise ValueError
subclasses; numerical failures (non-convergence, inconsistent cross-checks,
fold-over) raise NumericalError.  The CLI maps the former to exit code 1 and
the latter, with arithmetic and linear-algebra errors, to exit code 2.
"""


class NumericalError(RuntimeError):
    """A computation failed to converge or failed a consistency cross-check."""
