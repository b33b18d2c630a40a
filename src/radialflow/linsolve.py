"""Non-iterative linearized ZIP power flow.

The only nonlinearity in the nodal equations comes from constant-power
loads, through the product V * conj(V). That product is not holomorphic, so
it is expanded to first order with Wirtinger derivatives (V and conj(V)
treated as independent variables) around a chosen linearization point.

Two solver modes are exposed:

* ``simple``: drops the conjugate-voltage term, leaving one complex linear
  system per feeder. Constant-impedance and constant-current loads are
  represented exactly; constant-power loads enter as injections frozen at
  the nominal rotated voltage.
* ``full``: keeps the conjugate term, generalized to an arbitrary
  linearization point, and solves the conjugate-linear system by stacking
  real and imaginary parts. At a slack voltage of 1 p.u. it coincides with
  the simple mode; away from 1 p.u. accuracy improves when the
  linearization point tracks the slack voltage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import SingularError
from .loads import PHASE_ROTATIONS, load_vectors
from .network import Feeder, build_incidence, reduced_impedance

if TYPE_CHECKING:
    from .bfs import BfsOptions

#: Diagonal entries of the system matrix below this magnitude are rejected.
DIAGONAL_TOLERANCE = 1e-9


def linearize_vsq(v0: complex) -> tuple[complex, complex, complex]:
    """First-order coefficients of V * conj(V) around ``v0``.

    Returns (c_v, c_vbar, c_0) with V * conj(V) ~ c_v V + c_vbar conj(V)
    + c_0; the expansion is exact at V = v0.
    """
    if abs(v0) <= 0:
        raise ValueError("linearization point must have positive magnitude")
    return v0.conjugate(), v0, -abs(v0) ** 2


@dataclass(frozen=True)
class LinearizationPoint:
    """Per-phase voltage phasors the constant-power terms are expanded
    around; defaults to the slack voltage rotated into each phase."""

    phasors: tuple[complex, ...]

    def __post_init__(self):
        for phasor in self.phasors:
            if abs(phasor) <= 0:
                raise ValueError(
                    "linearization phasors must have positive magnitude"
                )

    @classmethod
    def for_feeder(cls, feeder: Feeder) -> "LinearizationPoint":
        return cls(tuple(feeder.slack_phasors()))

    @classmethod
    def from_scalar(cls, value: complex, phase_count: int) -> "LinearizationPoint":
        rotations = PHASE_ROTATIONS[:phase_count]
        return cls(tuple(complex(value) * rho for rho in rotations))


@dataclass(frozen=True)
class Solution:
    """Voltages at every node (slack first, node-major phases) plus solver
    provenance."""

    voltages: np.ndarray
    method: str
    iterations: int
    converged: bool
    nodes: tuple[str, ...]
    phase_count: int

    def magnitudes(self) -> np.ndarray:
        return np.abs(self.voltages)


@dataclass(frozen=True)
class LinearModel:
    """Assembled linear system for one feeder.

    ``sys_a`` multiplies the unknown non-slack voltages and ``sys_b`` is the
    right-hand side; with no loads they reduce to the identity and the
    nominal voltage vector.
    """

    sys_a: np.ndarray
    sys_b: np.ndarray
    feeder: Feeder


def _resolve_v0(
    feeder: Feeder, v0: LinearizationPoint | complex | None
) -> LinearizationPoint:
    if v0 is None:
        return LinearizationPoint.for_feeder(feeder)
    if isinstance(v0, LinearizationPoint):
        if len(v0.phasors) != feeder.phase_count:
            raise ValueError(
                f"linearization point has {len(v0.phasors)} phasors for a "
                f"{feeder.phase_count}-phase feeder"
            )
        return v0
    return LinearizationPoint.from_scalar(v0, feeder.phase_count)


def _per_unknown(values, feeder: Feeder) -> np.ndarray:
    """Tile per-phase values across the non-slack node-major unknowns."""
    n_unknown_nodes = len(feeder.nodes) - 1
    return np.tile(np.asarray(values, dtype=np.complex128), n_unknown_nodes)


def _system_parts(feeder: Feeder):
    """Shared pieces of both solver modes for the non-slack unknowns."""
    red = reduced_impedance(build_incidence(feeder), feeder)
    h = feeder.h
    s_z, s_i, s_p = load_vectors(feeder)
    cut = feeder.phase_count  # drop the slack slots
    s_z, s_i, s_p = s_z[cut:], s_i[cut:], s_p[cut:]
    rho = _per_unknown(PHASE_ROTATIONS[: feeder.phase_count], feeder)
    a_vec = _per_unknown(feeder.slack_phasors(), feeder)
    d = red.d
    size = d.shape[0]
    # An overflowing h * h must give non-finite voltages, not numpy warnings.
    with np.errstate(all="ignore"):
        sys_a = np.eye(size, dtype=np.complex128) + h * h * (
            d * np.conjugate(s_z)[np.newaxis, :]
        )
    p_base = d @ (np.conjugate(s_p) * rho)
    i_base = d @ (np.conjugate(s_i) * rho)
    return sys_a, p_base, i_base, rho, a_vec


def assemble(feeder: Feeder) -> LinearModel:
    """Build the linear system for a validated feeder.

    Delta loads are first converted to their wye equivalents at the
    linearization point. Constant-impedance loads scale the system matrix;
    constant-power and constant-current loads enter the right-hand side
    with negative sign (consumption convention).
    """
    sys_a, p_base, i_base, _, a_vec = _system_parts(feeder)
    diag = np.diagonal(sys_a)
    if diag.size and np.min(np.abs(diag)) < DIAGONAL_TOLERANCE:
        worst = int(np.argmin(np.abs(diag)))
        raise SingularError(
            f"system diagonal entry {worst} has magnitude "
            f"{abs(diag[worst]):.3e}, below {DIAGONAL_TOLERANCE:g}"
        )
    # The leading h freezes the constant-power injections at the nominal
    # magnitude 1/h; it is unity in per-unit analysis.
    sys_b = a_vec - feeder.h * p_base - feeder.h * i_base
    return LinearModel(sys_a=sys_a, sys_b=sys_b, feeder=feeder)


def _solution(feeder: Feeder, x: np.ndarray, method: str) -> Solution:
    if not np.all(np.isfinite(x)):
        raise SingularError(f"{method} produced non-finite voltages")
    voltages = np.concatenate([feeder.slack_phasors(), x])
    return Solution(
        voltages=voltages,
        method=method,
        iterations=0,
        converged=True,
        nodes=feeder.nodes,
        phase_count=feeder.phase_count,
    )


def solve_linear(model: LinearModel) -> Solution:
    """Solve the simple-mode system in one shot."""
    try:
        x = np.linalg.solve(model.sys_a, model.sys_b)
    except np.linalg.LinAlgError as exc:
        raise SingularError(str(exc)) from exc
    return _solution(model.feeder, x, "linear-simple")


def solve_linear_full(
    feeder: Feeder, v0: LinearizationPoint | complex | None = None
) -> Solution:
    """Solve the conjugate-linear variant.

    The voltage-product expansion contributes both V and conj(V) terms; the
    conjugate coefficient vanishes only when the linearization point equals
    the slack voltage. The system is solved directly by stacking real and
    imaginary parts into one real system of twice the size, keeping the
    method non-iterative.
    """
    point = _resolve_v0(feeder, v0)
    sys_a, p_base, i_base, rho, a_vec = _system_parts(feeder)
    v0_vec = _per_unknown(point.phasors, feeder)
    c_v = np.conjugate(v0_vec)
    c_vbar = v0_vec
    c_0 = -np.abs(v0_vec) ** 2

    # Rows live in voltage-squared units: the conjugate-voltage expansion of
    # each constant-power row is kept whole, while the exact impedance and
    # current terms are scaled by c_v so they stay exact on pure feeders.
    with np.errstate(all="ignore"):  # a non-finite sys_a, as above
        m1 = c_v[:, np.newaxis] * sys_a
    m2_diag = c_vbar - a_vec
    b = -np.conjugate(rho) * p_base - c_v * feeder.h * i_base - c_0

    size = m1.shape[0]
    if size == 0:
        return _solution(feeder, np.zeros(0, dtype=np.complex128), "linear-full")
    stacked = np.zeros((2 * size, 2 * size))
    stacked[:size, :size] = m1.real
    stacked[:size, size:] = -m1.imag
    stacked[size:, :size] = m1.imag
    stacked[size:, size:] = m1.real
    idx = np.arange(size)
    stacked[idx, idx] += m2_diag.real
    stacked[idx, size + idx] += m2_diag.imag
    stacked[size + idx, idx] += m2_diag.imag
    stacked[size + idx, size + idx] -= m2_diag.real
    rhs = np.concatenate([b.real, b.imag])
    try:
        xy = np.linalg.solve(stacked, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularError(str(exc)) from exc
    x = xy[:size] + 1j * xy[size:]
    return _solution(feeder, x, "linear-full")


def solve(
    feeder: Feeder,
    method: str = "linear-simple",
    v0: LinearizationPoint | complex | None = None,
    bfs: BfsOptions | None = None,
) -> Solution:
    """Solve a feeder with ``linear-simple``, ``linear-full`` or ``bfs``.

    ``v0`` is the linearization point of ``linear-full`` (the other methods
    ignore it) and ``bfs`` the ``BfsOptions`` of the sweep. Three-phase
    feeders use the block-extended system, each phase linearized around its
    rotated nominal phasor; delta loads go through their wye equivalents.
    """
    if method == "linear-simple":
        return solve_linear(assemble(feeder))
    if method == "linear-full":
        return solve_linear_full(feeder, v0)
    if method == "bfs":
        from .bfs import solve_bfs

        return solve_bfs(feeder, bfs)
    raise ValueError(f"unknown method {method!r}")
