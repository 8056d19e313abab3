"""Exception types shared across the package, and the failures of a stack.

Solver-side failures derive from SolverError so the command line front end
can map them to one exit code without inspecting messages. Code that works
on a stack of points reports each failed row with the error a single point
would raise (first_failures).
"""

import numpy as np


class SolverError(RuntimeError):
    """Base class for numerical failures in the engine."""


class NoDissipationError(SolverError):
    """The Liouvillian has no dissipative part; no unique steady state."""


class DegenerateSteadyStateError(SolverError):
    """The numerical null space of the Liouvillian has dimension > 1."""


class StepTooLargeError(SolverError):
    """The requested integration step violates the stability bound."""


class NotConvergedError(SolverError):
    """A long-time integration did not settle to a steady value."""


class SingularDenominatorError(SolverError):
    """A closed-form expression hit a vanishing denominator."""


class NoInteriorExtremumError(RuntimeError):
    """A scanned curve has no interior local extremum."""


class ConfigError(ValueError):
    """Malformed configuration input (file, flag combination, or sweep spec)."""


def first_failures(*cases) -> dict:
    """Map each row where a case holds to the error of the first such case.

    Each case is a boolean mask over the rows of a stack and a function that
    makes the error for one row. The cases are the gates of a computation in
    the order a single point meets them, so a row fails at its first gate.
    """
    failures = {}
    if not any(np.count_nonzero(mask) for mask, _ in cases):
        return failures
    for mask, make in cases:
        for r in np.nonzero(mask)[0].tolist():
            if r not in failures:
                failures[r] = make(r)
    return failures
