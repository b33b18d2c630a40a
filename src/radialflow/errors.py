"""Exception types shared across the package."""


class RadialFlowError(Exception):
    """Base class for all radialflow errors."""


class RadialityError(RadialFlowError):
    """The feeder graph is not a tree rooted at the slack node; carries
    every violation found."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(self.violations))


class SingularError(RadialFlowError):
    """A matrix required by the solver is singular or an impedance is
    below the minimum magnitude the model supports."""


class VoltageCollapseError(RadialFlowError):
    """A load evaluation hit a near-zero voltage; the operating point is
    infeasible for the constant-power division."""


class ConvergenceError(RadialFlowError):
    """The iterative solver ran out of iterations. Carries the last
    iterate so callers can inspect how far it got."""

    def __init__(self, message, last_solution=None):
        self.last_solution = last_solution
        super().__init__(message)


class DimensionError(RadialFlowError):
    """Two solutions or arrays do not share compatible dimensions."""


class UnsupportedPhaseError(RadialFlowError):
    """The requested quantity is not defined for this phase count."""


class ParseError(RadialFlowError):
    """A feeder document could not be parsed; the message names the
    offending field or node."""


#: Former name of RadialityError, kept for callers that still use it.
ValidationError = RadialityError
