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
from .network import Feeder, build_incidence, ybus


@dataclass(frozen=True)
class BfsOptions:
    tolerance: float = 1e-8
    max_iterations: int = 100
    flat_start: bool = True

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


def solve_bfs(
    feeder: Feeder,
    opts: BfsOptions | None = None,
    initial_voltages: np.ndarray | None = None,
) -> Solution:
    """Iterate sweeps until the infinity norm of the voltage update
    converges; raises ConvergenceError (carrying the last iterate) when the
    iteration budget runs out, and RadialityError when the feeder is not
    radial."""
    opts = opts or BfsOptions()
    tree = feeder.tree
    p = feeder.phase_count
    n = len(feeder.nodes)
    position = {node: i for i, node in enumerate(feeder.nodes)}
    slack = feeder.slack_phasors()

    if initial_voltages is not None and not opts.flat_start:
        voltages = np.asarray(initial_voltages, dtype=np.complex128).copy()
        if voltages.shape != (n * p,):
            raise ValueError("initial voltage vector has the wrong length")
    else:
        voltages = np.tile(slack, n)

    z_blocks = {
        node: (
            np.array([[complex(branch.impedance)]])
            if p == 1
            else branch.matrix()
        )
        for node, branch in tree.branch_for.items()
    }
    reverse_order = tree.order[::-1]

    for iterations in range(1, opts.max_iterations + 1):
        injections = nodal_injections(
            feeder.loads, feeder.nodes, voltages, feeder.h, p
        )
        # Backward: current fed into each node's subtree from its parent.
        into_subtree = np.zeros((n, p), dtype=np.complex128)
        for node in reverse_order:
            idx = position[node]
            total = -injections[idx * p : (idx + 1) * p]
            for child in tree.children[node]:
                total = total + into_subtree[position[child]]
            into_subtree[idx] = total
        # Forward: drop each branch's voltage from parent to child.
        updated = np.empty_like(voltages)
        updated[:p] = slack
        for node in tree.order[1:]:
            idx = position[node]
            parent_idx = position[tree.parent[node]]
            drop = z_blocks[node] @ into_subtree[idx]
            updated[idx * p : (idx + 1) * p] = (
                updated[parent_idx * p : (parent_idx + 1) * p] - drop
            )
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
    injections = nodal_injections(
        feeder.loads, feeder.nodes, sol.voltages, feeder.h, p
    )
    mismatch = y @ sol.voltages - injections
    if len(feeder.nodes) == 1:
        return 0.0
    return float(np.max(np.abs(mismatch[p:])))
