"""Non-iterative linearized ZIP power flow.

The only nonlinearity in the nodal equations comes from constant-power
loads, through the product V * conj(V). That product is not holomorphic, so
it is expanded to first order with Wirtinger derivatives (V and conj(V)
treated as independent variables) around a chosen linearization point.

Two solver modes are exposed:

* ``simple``: drops the conjugate-voltage term, leaving one complex linear
  system per feeder, solved by elimination on the feeder tree.
  Constant-current and wye constant-impedance loads are represented
  exactly; a delta constant-impedance leg is split onto its two phases as
  at balanced voltages, so it is exact only there. Constant-power loads
  enter as injections frozen at the nominal rotated voltage.
* ``full``: keeps the conjugate term, generalized to an arbitrary
  linearization point: one complex number ``v0``, rotated into each phase
  as the slack voltage is. At the default point, the slack voltage, the
  conjugate coefficient vanishes and the system is complex-linear, its
  unknowns coupled only through the slots holding a constant-impedance
  load: one complex solve over those slots. At any other point it is
  conjugate-linear and is solved by stacking real and imaginary parts. At
  a slack voltage of 1 p.u. it coincides with the simple mode. Away from
  1 p.u. the default point is the more accurate of the two modes at light
  load, but the less accurate at heavier load, where the simple mode's
  frozen nominal sits inside the voltage drop.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import SingularError
from .loads import PHASE_ROTATIONS, load_vectors, rotate_into_phases
from .network import (
    Feeder,
    eliminate,
    path_sums,
    reduced_impedance,
    substitute,
    subtree_sums,
)

if TYPE_CHECKING:
    from .bfs import BfsOptions

#: Diagonal entries of the system matrix below this magnitude are rejected.
DIAGONAL_TOLERANCE = 1e-9


def linearize_vsq(v0: complex | np.ndarray) -> tuple:
    """First-order coefficients of V * conj(V) around ``v0``, one phasor or
    an array of them.

    Returns (c_v, c_vbar, c_0) with V * conj(V) ~ c_v V + c_vbar conj(V)
    + c_0; the expansion is exact at V = v0.
    """
    magnitude = np.abs(v0)
    if np.any(magnitude <= 0):
        raise ValueError("linearization point must have positive magnitude")
    return np.conjugate(v0), v0, -np.square(magnitude)


def check_v0(v0: complex) -> complex:
    """Return ``v0``, the linearization point of linear-full, if it is
    finite with positive magnitude, its one rule; raise ValueError if not."""
    if not (cmath.isfinite(v0) and v0 != 0):
        raise ValueError(
            "linearization phasors must be finite with positive magnitude"
        )
    return v0


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


@dataclass(frozen=True)
class LinearModel:
    """One feeder's simple-mode system, eliminated leaves first by
    ``network.eliminate``; ``network.substitute`` solves it.

    ``drops`` has shape (m, p, p + 1). Row k - 1 (node k, the incidence row
    order) is z_k [A | B] with A and B as in ``assemble``: the voltage drop
    over the branch feeding node k as an affine function of its parent's
    voltage, x_k = x_parent - z_k (A x_parent + B). With no loads it is all
    zero.
    """

    drops: np.ndarray
    feeder: Feeder


def _per_unknown(values, feeder: Feeder) -> np.ndarray:
    """Tile per-phase values across the non-slack node-major unknowns."""
    n_unknown_nodes = len(feeder.nodes) - 1
    return np.tile(np.asarray(values, dtype=np.complex128), n_unknown_nodes)


def _system_parts(feeder: Feeder):
    """The dense pieces of the linear-full system for the non-slack
    unknowns: I + h^2 D diag(conj s_z), D conj(s_p) rho, D conj(s_i) rho."""
    h = feeder.h
    # First, so that the load table cached on first use is not allocated
    # between (np)^2 arrays, where it would keep the heap they free above
    # it from returning to the system.
    s_z, s_i, s_p = load_vectors(feeder)
    red = reduced_impedance(None, feeder)
    cut = feeder.phase_count  # drop the slack slots
    s_z, s_i, s_p = s_z[cut:], s_i[cut:], s_p[cut:]
    rho = _per_unknown(PHASE_ROTATIONS[: feeder.phase_count], feeder)
    d = red.d
    size = d.shape[0]
    p_base = d @ (np.conjugate(s_p) * rho)
    i_base = d @ (np.conjugate(s_i) * rho)
    # An overflowing h * h must give non-finite voltages, not numpy warnings.
    # I + h^2 D diag(conj s_z), built in D's own (np)^2 array.
    with np.errstate(all="ignore"):
        sys_a = np.multiply(d, np.conjugate(s_z)[np.newaxis, :], out=d)
        sys_a *= h * h
        sys_a.flat[:: size + 1] += 1.0
    return sys_a, p_base, i_base, rho


def _solve_at_slack(feeder: Feeder) -> np.ndarray:
    """linear-full's non-slack unknowns at its default point, the slack
    phasors v_s rho.

    The conjugate term vanishes there, and each row divided by c_v reads
    x = v_s rho - D (w + u): w = (h conj(s_i) + conj(s_p) / conj(v_s)) rho
    is a fixed injection and u = C x, C = h^2 conj(s_z), is nonzero only at
    the slots K holding a constant-impedance load. So with r = v_s rho - D w
    the unknowns couple only through (I + D_KK C_K) x_K = r_K. That block is
    gathered into the front of D's own array and factored; D is then freed,
    and every other voltage is x = r - D u, D u = U^-1 Z U^-T u taken on the
    tree.
    """
    h, p = feeder.h, feeder.phase_count
    # First, for the reason given in ``_system_parts``.
    s_z, s_i, s_p = load_vectors(feeder)
    d = reduced_impedance(None, feeder).d
    s_z, s_i, s_p = s_z[p:], s_i[p:], s_p[p:]  # drop the slack slots
    v_s = feeder.slack_voltage
    # An overflowing h * h must give non-finite voltages, not numpy warnings:
    # K is read from c, so that every slot it makes NaN is in the solve.
    with np.errstate(all="ignore"):
        c = np.conjugate(s_z) * (h * h)
        w = h * np.conjugate(s_i) + np.conjugate(s_p) / np.conjugate(v_s)
        w = w.reshape(-1, p) * rotate_into_phases(1.0, p)  # times rho
        x = feeder.slack_phasors() - (d @ w.reshape(-1)).reshape(-1, p)
        x = x.reshape(-1)
        k = c.nonzero()[0]
        if not k.size:
            return x
        c_k = c[k]
        size = k.size
        # Row i of the block overwrites no row k[j], j > i, of D, as
        # k[j] >= j; each slice of rows is read whole before it is written.
        # A slice holds 32 rows, or an eighth of the block's rows if more.
        block = d.reshape(-1)[: size * size].reshape(size, size)
        step = max(32, -(-size // 8))
        for start in range(0, size, step):
            rows = k[start:start + step, np.newaxis]
            np.multiply(d[rows, k], c_k, out=block[start:start + step])
        block.flat[:: size + 1] += 1.0
        try:
            x_k = np.linalg.solve(block, x[k])
        except np.linalg.LinAlgError as exc:
            raise SingularError(str(exc)) from exc
        del d, block
        tree, z = feeder.tree, feeder.checked_impedances
        u = np.zeros((len(tree.branches), p), dtype=np.complex128)
        u.reshape(-1)[k] = c_k * x_k
        currents = subtree_sums(tree, u)
        drops = (z @ currents[..., np.newaxis])[..., 0]
        x -= path_sums(tree, 0.0, drops).reshape(-1)
        x[k] = x_k
    return x


def assemble(feeder: Feeder) -> LinearModel:
    """Eliminate the linear-simple system of a validated feeder.

    The system is x = v_s - D J, the loads drawing J = C x + w with
    C = h^2 conj(s_z) and w = h (conj s_p + conj s_i) rho (consumption
    convention; delta loads through their wye equivalents). On the tree,
    x_k = x_parent - z_k I_k, where I_k sums J over node k's subtree. So
    I_k = A_k x_k + B_k, with [A_k | B_k] node k's [C_k | w_k] plus its
    children's eliminated rows, and substituting x_k eliminates it to
    I_k = A x_parent + B with [A | B] = (I + A_k z_k)^-1 [A_k | B_k], leaves
    first, without forming D: ``network.eliminate`` on the stack seeded with
    [C_k | w_k]. The drops are z_k [A | B].
    """
    s_z, s_i, s_p = load_vectors(feeder)
    z = feeder.checked_impedances
    tree, p, h = feeder.tree, feeder.phase_count, feeder.h
    m = len(tree.branches)
    s_z, s_i, s_p = s_z[p:], s_i[p:], s_p[p:]  # drop the slack slots
    # An overflowing h * h must give non-finite voltages, not numpy warnings.
    with np.errstate(all="ignore"):
        # The diagonal of I + h^2 D diag(conj s_z): D's diagonal blocks are
        # the impedances summed down each node's path.
        diag = path_sums(tree, 0.0, np.diagonal(z, axis1=1, axis2=2).copy())
        diag = diag.reshape(-1) * np.conjugate(s_z)
        diag *= h * h
        diag += 1.0
        if diag.size and np.min(np.abs(diag)) < DIAGONAL_TOLERANCE:
            worst = int(np.argmin(np.abs(diag)))
            raise SingularError(
                f"system diagonal entry {worst} has magnitude "
                f"{abs(diag[worst]):.3e}, below {DIAGONAL_TOLERANCE:g}"
            )
        c = np.conjugate(s_z) * (h * h)
        # The leading h freezes the constant-power injections at the
        # nominal magnitude 1/h; it is unity in per-unit analysis.
        rho = _per_unknown(PHASE_ROTATIONS[:p], feeder)
        w = h * (np.conjugate(s_p) + np.conjugate(s_i)) * rho
        stack = np.zeros((m, p, p + 1), dtype=np.complex128)
        # A's diagonal is every (p + 2)-th entry of a row's [A | B]: a view,
        # cheaper than fancy indexing on small feeders.
        stack.reshape(m, p * (p + 1))[:, :: p + 2] = c.reshape(m, p)
        stack[:, :, p] = w.reshape(m, p)
        eliminate(feeder, stack)
        drops = stack * z if p == 1 else z @ stack
    return LinearModel(drops=drops, feeder=feeder)


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
    """Solve the simple-mode system in one shot: the voltages down the tree
    from the slack, x_k = x_parent - ``drops`` [x_parent; 1], by
    ``network.substitute``."""
    x = substitute(model.feeder, model.drops)
    return _solution(model.feeder, x.reshape(-1), "linear-simple")


def solve_linear_full(feeder: Feeder, v0: complex | None = None) -> Solution:
    """Solve the conjugate-linear variant M1 x + diag(m2) conj(x) = b.

    The voltage-product expansion contributes both V and conj(V) terms
    around the linearization point: ``v0`` (checked by ``check_v0``), by
    default the slack voltage, rotated into each phase as the slack is. The
    conjugate coefficient m2 vanishes only when that point equals the
    slack's phasors, as the default does. Then M1 x = b is solved by
    ``_solve_at_slack``, one complex factorization of the slots holding a
    constant-impedance load; otherwise the real and imaginary parts are
    stacked into one real system of size 2np. Either way the method stays
    non-iterative.
    """
    with np.errstate(over="ignore"):
        # A finite point may overflow once rotated into a phase.
        point = slack = feeder.slack_phasors()
        if v0 is not None:
            point = rotate_into_phases(check_v0(v0), feeder.phase_count)
        c_v, c_vbar, c_0 = linearize_vsq(point)
        if not np.all(np.isfinite(c_0)):
            # The dense system holds c_0 = -|v0|^2 itself, so it has no
            # room for a point beyond the square root of the largest float;
            # |v0| itself may overflow too.
            raise SingularError(
                "|v0|^2 of the linearization point overflows: |v0| = "
                f"{np.abs(point).max():.3e}"
            )
    m2 = c_vbar - slack
    if not m2.any():
        # v0 is the slack voltage (the default): the conjugate term
        # vanishes and the system is complex-linear.
        return _solution(feeder, _solve_at_slack(feeder), "linear-full")
    sys_a, p_base, i_base, rho = _system_parts(feeder)
    m2_diag = _per_unknown(m2, feeder)
    c_v, c_0 = _per_unknown(c_v, feeder), _per_unknown(c_0, feeder)

    # Rows live in voltage-squared units: the conjugate-voltage expansion of
    # each constant-power row is kept whole, while the exact impedance and
    # current terms are scaled by c_v so they stay exact on pure feeders.
    with np.errstate(all="ignore"):  # a non-finite sys_a, as above
        # In place, as sys_a is not read again.
        m1 = np.multiply(c_v[:, np.newaxis], sys_a, out=sys_a)
    b = -np.conjugate(rho) * p_base - c_v * feeder.h * i_base - c_0

    size = m1.shape[0]
    stacked = np.zeros((2 * size, 2 * size))
    stacked[:size, :size] = m1.real
    np.negative(m1.imag, out=stacked[:size, size:])
    stacked[size:, :size] = m1.imag
    stacked[size:, size:] = m1.real
    # Free the complex matrix before LAPACK copies the real system: this
    # solve is the peak of the package's memory use.
    del sys_a, m1
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
    v0: complex | None = None,
    bfs: BfsOptions | None = None,
) -> Solution:
    """Solve a feeder with ``linear-simple``, ``linear-full`` or ``bfs``.

    ``v0`` is the linearization point of ``linear-full``, one complex
    number that defaults to the slack voltage (the other methods ignore
    it), and ``bfs`` the ``BfsOptions`` of the sweep. Three-phase feeders
    use the block-extended system, each phase linearized around ``v0``
    rotated into it; delta loads go through their wye equivalents.
    """
    if method == "linear-simple":
        return solve_linear(assemble(feeder))
    if method == "linear-full":
        return solve_linear_full(feeder, v0)
    if method == "bfs":
        from .bfs import solve_bfs

        return solve_bfs(feeder, bfs)
    raise ValueError(f"unknown method {method!r}")
