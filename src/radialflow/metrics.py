"""Evaluation quantities: branch flows, losses, V_min, per-node error, and
the percentage voltage unbalance rate."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, UnsupportedPhaseError
from .linsolve import Solution
from .loads import nodal_injections
from .network import Feeder, IncidenceModel, impedance_blocks


@dataclass(frozen=True)
class BranchFlows:
    """Per-branch voltage drops, currents and sending-end complex power,
    shaped (branches, phases) in incidence row order."""

    branch_ids: tuple[str, ...]
    drops: np.ndarray
    currents: np.ndarray
    sending_power: np.ndarray


@dataclass(frozen=True)
class MetricsReport:
    """Summary quantities for one solution; ``epsilon`` is filled when the
    solution was compared against a reference, ``luvr`` in three-phase mode."""

    p_loss: float
    q_loss: float
    v_min: float
    epsilon: np.ndarray | None = None
    luvr: np.ndarray | None = None


def branch_flows(
    sol: Solution, inc: IncidenceModel, feeder: Feeder
) -> BranchFlows:
    """Recover drops e = A V, currents I = Z^-1 e and sending-end power for
    every branch; signs follow each branch's stored orientation."""
    p = feeder.phase_count
    n = len(feeder.nodes)
    if sol.voltages.shape != (n * p,):
        raise ValueError(
            f"solution has {sol.voltages.shape[0]} entries, feeder needs "
            f"{n * p}"
        )
    v = sol.voltages.reshape(n, p)
    ends = feeder.tree.ends
    v_from = v[ends[:, 0]]
    drops = v_from - v[ends[:, 1]]
    currents = np.linalg.solve(impedance_blocks(feeder), drops[..., None])
    currents = currents[..., 0]
    sending = v_from * np.conjugate(currents)
    return BranchFlows(
        branch_ids=inc.branch_order,
        drops=drops,
        currents=currents,
        sending_power=sending,
    )


def losses(flows: BranchFlows) -> tuple[float, float]:
    """Total (P, Q) losses: the drop-current products summed over all
    branches and phases."""
    total = np.sum(flows.drops * np.conjugate(flows.currents))
    return float(total.real), float(total.imag)


def node_errors(
    a: Solution, b: Solution, kind: str = "magnitude"
) -> np.ndarray:
    """Per node-phase error between two solutions of the same feeder.

    ``magnitude`` (default) compares voltage magnitudes; ``complex`` takes
    the modulus of the phasor difference.
    """
    if a.voltages.shape != b.voltages.shape or a.nodes != b.nodes:
        raise DimensionError(
            "solutions cover different feeders or phase counts"
        )
    if kind == "magnitude":
        return np.abs(np.abs(a.voltages) - np.abs(b.voltages))
    if kind == "complex":
        return np.abs(a.voltages - b.voltages)
    raise ValueError(f"unknown error kind {kind!r}")


def luvr(sol: Solution, strict: bool = False) -> np.ndarray:
    """Percentage voltage unbalance rate per node.

    Default form: 100 |V_max - V_avg| / V_avg with V_max the largest of the
    three phase magnitudes. ``strict`` switches to the motor-derating
    definition using the maximum deviation of any phase from the average.
    """
    if sol.phase_count != 3:
        raise UnsupportedPhaseError(
            "voltage unbalance rate needs a three-phase solution"
        )
    mags = np.abs(sol.voltages).reshape(-1, 3)
    avg = mags.mean(axis=1)
    if strict:
        spread = np.max(np.abs(mags - avg[:, np.newaxis]), axis=1)
    else:
        spread = np.abs(mags.max(axis=1) - avg)
    return 100.0 * spread / avg


def v_min(sol: Solution) -> float:
    """Smallest non-slack voltage magnitude across all phases."""
    p = sol.phase_count
    if len(sol.nodes) == 1:
        return float(np.min(np.abs(sol.voltages)))
    return float(np.min(np.abs(sol.voltages[p:])))


def power_balance(
    feeder: Feeder, inc: IncidenceModel, sol: Solution
) -> tuple[complex, complex, complex]:
    """(slack injection, total load draw, total loss) complex powers.

    For a converged iterative solution the slack injection equals load plus
    loss; the gap certifies solution quality.
    """
    flows = branch_flows(sol, inc, feeder)
    # Slack rows of A^T I_F: the current the source pushes into the feeder.
    slack_current = inc.a_s @ flows.currents
    slack_power = np.sum(feeder.slack_phasors() * np.conjugate(slack_current))
    injections = nodal_injections(feeder, sol.voltages)
    load_power = np.sum(sol.voltages * np.conjugate(-injections))
    p_loss, q_loss = losses(flows)
    return complex(slack_power), complex(load_power), complex(p_loss, q_loss)


def summarize(
    sol: Solution,
    inc: IncidenceModel,
    feeder: Feeder,
    reference: Solution | None = None,
) -> MetricsReport:
    """Bundle losses, V_min, optional per-node error against a reference,
    and the unbalance rate for three-phase solutions."""
    p_loss, q_loss = losses(branch_flows(sol, inc, feeder))
    epsilon = node_errors(sol, reference) if reference is not None else None
    rate = luvr(sol) if feeder.phase_count == 3 else None
    return MetricsReport(
        p_loss=p_loss,
        q_loss=q_loss,
        v_min=v_min(sol),
        epsilon=epsilon,
        luvr=rate,
    )
