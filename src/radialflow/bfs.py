"""Backward-forward sweep: the iterative reference solver.

Alternates a backward sweep (accumulate branch currents from the leaves
toward the slack, evaluating ZIP injections at the present voltages) with a
forward sweep (update each child voltage from its parent through the branch
impedance), until the largest voltage update falls under the tolerance.
Delta loads are evaluated against the current iterate's line voltages, so
the fixed point satisfies the exact nodal equations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .linsolve import Solution
from .loads import nodal_injections
from .network import Feeder, build_incidence, impedance_blocks, ybus


@dataclass(frozen=True)
class BfsOptions:
    tolerance: float = 1e-8
    max_iterations: int = 100

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


def solve_bfs(feeder: Feeder, opts: BfsOptions | None = None) -> Solution:
    """Iterate sweeps from a flat start until the infinity norm of the
    voltage update converges; raises ConvergenceError (carrying the last
    iterate) when the iteration budget runs out, RadialityError when the
    feeder is not radial and SingularError on a degenerate impedance."""
    opts = opts or BfsOptions()
    tree = feeder.tree
    z = impedance_blocks(feeder)
    p = feeder.phase_count
    n = len(feeder.nodes)
    slack = feeder.slack_phasors()
    voltages = np.tile(slack, n)
    reverse_order = tree.order[::-1]

    for iterations in range(1, opts.max_iterations + 1):
        injections = nodal_injections(feeder, voltages).reshape(n, p)
        # Backward: current fed into each node's subtree from its parent.
        into_subtree = np.zeros((n, p), dtype=np.complex128)
        for node in reverse_order:
            total = -injections[node]
            for child in tree.children[node]:
                total = total + into_subtree[child]
            into_subtree[node] = total
        # Forward: drop each branch's voltage from parent to child; node k
        # is fed by incidence row k - 1.
        updated = np.empty((n, p), dtype=np.complex128)
        updated[0] = slack
        for node in tree.order[1:]:
            updated[node] = (
                updated[tree.parent[node]] - z[node - 1] @ into_subtree[node]
            )
        updated = updated.reshape(-1)
        shift = float(np.max(np.abs(updated - voltages))) if n > 1 else 0.0
        voltages = updated
        if not np.all(np.isfinite(voltages)):
            raise ConvergenceError(
                f"voltages diverged after {iterations} iterations",
                last_solution=_solution(feeder, voltages, iterations, False),
            )
        if shift < opts.tolerance:
            return _solution(feeder, voltages, iterations, True)
    raise ConvergenceError(
        f"no convergence within {opts.max_iterations} iterations "
        f"(last update {shift:.3e}, tolerance {opts.tolerance:g})",
        last_solution=_solution(feeder, voltages, iterations, False),
    )


def _solution(
    feeder: Feeder, voltages: np.ndarray, iterations: int, converged: bool
) -> Solution:
    return Solution(
        voltages=voltages,
        method="bfs",
        iterations=iterations,
        converged=converged,
        nodes=feeder.nodes,
        phase_count=feeder.phase_count,
    )


def residual(feeder: Feeder, sol: Solution) -> float:
    """Exact nodal mismatch max |Y V - I(V)| over non-slack entries.

    Certifies any solution against the full nonlinear model: the iterative
    fixed point drives this toward zero, while linearized solutions retain
    the linearization error of their constant-power terms.
    """
    p = feeder.phase_count
    expected = len(feeder.nodes) * p
    if sol.voltages.shape != (expected,):
        raise ValueError(
            f"solution has {sol.voltages.shape[0]} entries, feeder needs "
            f"{expected}"
        )
    inc = build_incidence(feeder)
    y = ybus(inc, feeder)
    mismatch = y @ sol.voltages - nodal_injections(feeder, sol.voltages)
    if len(feeder.nodes) == 1:
        return 0.0
    return float(np.max(np.abs(mismatch[p:])))
