"""Backward-forward sweep: the iterative reference solver.

Alternates a backward sweep (sum each subtree's current, with ZIP injections
at the present voltages) with a forward sweep (drop each node's voltage from
its parent's through the branch impedance) until the largest voltage update
is under the tolerance. Each sweep is V = V_s - D J(V), J = -I the loads'
draw, by ``network.drop_through`` without forming D: O(n p^2) arithmetic
and a fixed number of numpy calls per iteration. Delta loads are evaluated
against the iterate's line voltages, so the fixed point satisfies the
exact nodal equations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import ConvergenceError
from .loads import nodal_injections
from .network import Feeder, Solution, build_incidence, drop_through, ybus


@dataclass(frozen=True)
class BfsOptions:
    tolerance: float = 1e-8
    max_iterations: int = 100

    def __post_init__(self):
        tolerance, budget = self.tolerance, self.max_iterations
        if isinstance(tolerance, (bool, np.bool_)) or not (
            math.isfinite(tolerance) and tolerance > 0
        ):
            raise ValueError("tolerance must be finite and positive")
        # Any integer type, numpy's included, but not a bool or a float.
        if (
            isinstance(budget, bool)
            or not isinstance(budget, Integral)
            or budget < 1
        ):
            raise ValueError("max_iterations must be an integer of at least 1")


def solve_bfs(feeder: Feeder, opts: BfsOptions | None = None) -> Solution:
    """Iterate sweeps from a flat start until the infinity norm of the
    voltage update converges; raises ConvergenceError (carrying the last
    iterate) when the iteration budget runs out, RadialityError when the
    feeder is not radial and SingularError on a degenerate impedance."""
    opts = opts or BfsOptions()
    feeder.checked_impedances  # raises before the first sweep if degenerate
    p = feeder.phase_count
    n = len(feeder.nodes)
    slack = feeder.slack_phasors()
    voltages = np.tile(slack, n)

    # An overflowing sweep gives non-finite voltages, no warnings.
    with np.errstate(all="ignore"):
        for iterations in range(1, opts.max_iterations + 1):
            injections = nodal_injections(feeder, voltages).reshape(n, p)
            # Each non-slack node draws minus its injection. Summing the
            # injections as they are, and walking down the drops unnegated,
            # would turn some -0.0 voltage parts into +0.0.
            below = drop_through(feeder, slack, -injections[1:])
            updated = np.concatenate([slack, below.ravel()])
            shift = float(abs(updated - voltages).max())
            voltages = updated
            # A voltage that is not finite makes the shift inf or NaN: the
            # last iterate passed this check, or is the flat start, sharing
            # the update's slack entries. Only then are voltages checked.
            if not math.isfinite(shift) and not np.isfinite(voltages).all():
                raise ConvergenceError(
                    f"voltages diverged after {iterations} iterations",
                    last_solution=Solution.of(
                        feeder, voltages, "bfs", iterations, False
                    ),
                )
            if shift < opts.tolerance:
                return Solution.of(feeder, voltages, "bfs", iterations)
    raise ConvergenceError(
        f"no convergence within {opts.max_iterations} iterations "
        f"(last update {shift:.3e}, tolerance {opts.tolerance:g})",
        last_solution=Solution.of(feeder, voltages, "bfs", iterations, False),
    )


def residual(feeder: Feeder, sol: Solution) -> float:
    """Exact nodal mismatch max |Y V - I(V)| over non-slack entries.

    Certifies any solution against the full nonlinear model: the iterative
    fixed point drives this toward zero, while linearized solutions retain
    the linearization error of their constant-power terms.
    """
    sol.at(feeder)  # raises if the voltage count is not the feeder's
    p = feeder.phase_count
    inc = build_incidence(feeder)
    y = ybus(inc, feeder)
    mismatch = y @ sol.voltages - nodal_injections(feeder, sol.voltages)
    if len(feeder.nodes) == 1:
        return 0.0
    return float(np.max(np.abs(mismatch[p:])))
