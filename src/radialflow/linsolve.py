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
  conjugate-linear, its unknowns coupled through the same slots: one
  solve over them, of its real embedding. At a slack voltage of 1 p.u. it
  coincides with the simple mode. Away from 1 p.u. the default point is
  the more accurate of the two modes at light load, but the less accurate
  at heavier load, where the simple mode's frozen nominal sits inside the
  voltage drop.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import SingularError
from .loads import load_vectors, rotate_into_phases
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


def _solve_restricted(feeder: Feeder, v0: complex) -> np.ndarray:
    """linear-full's non-slack unknowns, linearized around ``v0`` rotated
    into each phase, the point.

    Each row of M1 x + diag(m2) conj(x) = b divided by c_v = conj(point)
    reads y + D u = r: y = x + q conj(x) with q = (point - v_s rho) /
    conj(point) per phase, zero at the default point; r = point - D w with
    w = (h conj(s_i) + conj(s_p) / conj(v0)) rho a fixed injection; and
    u = C x, C = h^2 conj(s_z), nonzero only at the slots K holding a
    constant-impedance load. So the unknowns couple only through
    (I + D_KK C_K) x_K + diag(q_K) conj(x_K) = r_K. That block is gathered
    into the front of D's own array and factored, complex where q is zero
    and through its real embedding otherwise; D is then freed, y = r - D u
    is taken on the tree (D u = U^-1 Z U^-T u) and every other voltage is
    x = (y - q conj(y)) / (1 - |q|^2).
    """
    h, p = feeder.h, feeder.phase_count
    # First, so that the load table cached on first use is not allocated
    # between (np)^2 arrays, where it would keep the heap they free above
    # it from returning to the system.
    s_z, s_i, s_p = load_vectors(feeder)
    d = reduced_impedance(None, feeder).d
    s_z, s_i, s_p = s_z[p:], s_i[p:], s_p[p:]  # drop the slack slots
    # A point or slack that overflows once rotated into a phase, or an
    # overflowing h * h, must give non-finite voltages, not numpy warnings:
    # K is read from c, so that every slot it makes NaN is in the solve.
    with np.errstate(all="ignore"):
        point = rotate_into_phases(v0, p)
        shift = point - feeder.slack_phasors()
        q = shift / np.conjugate(point)
        c = np.conjugate(s_z) * (h * h)
        w = h * np.conjugate(s_i) + np.conjugate(s_p) / np.conjugate(v0)
        w = w.reshape(-1, p) * rotate_into_phases(1.0, p)  # times rho
        x = (point - (d @ w.reshape(-1)).reshape(-1, p)).reshape(-1)
        k = c.nonzero()[0]
        x_k = x[k]
        if k.size:
            c_k = c[k]
            size = k.size
            # Row i of the block overwrites no row k[j], j > i, of D, as
            # k[j] >= j; each slice of rows is read whole before it is
            # written. A slice holds 32 rows, or an eighth of the block's
            # rows if more.
            block = d.reshape(-1)[: size * size].reshape(size, size)
            step = max(32, -(-size // 8))
            for start in range(0, size, step):
                rows = k[start:start + step, np.newaxis]
                np.multiply(d[rows, k], c_k, out=block[start:start + step])
            block.flat[:: size + 1] += 1.0
            del d  # ``block`` keeps D's array until it is replaced or solved
            if q.any():
                # The real embedding, each unknown's real and imaginary
                # parts side by side, so that r_K and x_K pass as views:
                # parts[i, :, j, :] is the 2x2 real block of entry (i, j).
                real = np.empty((2 * size, 2 * size))
                parts = real.reshape(size, 2, size, 2)
                parts[:, 0, :, 0] = block.real
                np.negative(block.imag, out=parts[:, 0, :, 1])
                parts[:, 1, :, 0] = block.imag
                parts[:, 1, :, 1] = block.real
                block = real
                idx, q_k = np.arange(size), q[k % p]
                parts[idx, 0, idx, 0] += q_k.real
                parts[idx, 0, idx, 1] += q_k.imag
                parts[idx, 1, idx, 0] += q_k.imag
                parts[idx, 1, idx, 1] -= q_k.real
            try:
                x_k = np.linalg.solve(block, x_k.view(block.dtype))
            except np.linalg.LinAlgError as exc:
                raise SingularError(str(exc)) from exc
            x_k = x_k.view(np.complex128)
            del block
            tree, z = feeder.tree, feeder.checked_impedances
            u = np.zeros((len(tree.branches), p), dtype=np.complex128)
            u.reshape(-1)[k] = c_k * x_k
            currents = subtree_sums(tree, u)
            drops = (z @ currents[..., np.newaxis])[..., 0]
            x -= path_sums(tree, 0.0, drops).reshape(-1)
        if q.any():
            # Numerator and denominator times |point|^2, so that |q|^2 does
            # not overflow at a point near zero.
            y, scale = x.reshape(-1, p), np.square(np.abs(point))
            x = scale * y - point * shift * np.conjugate(y)
            x = (x / (scale - np.square(np.abs(shift)))).reshape(-1)
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
        w = h * (np.conjugate(s_p) + np.conjugate(s_i))
        stack = np.zeros((m, p, p + 1), dtype=np.complex128)
        # A's diagonal is every (p + 2)-th entry of a row's [A | B]: a view,
        # cheaper than fancy indexing on small feeders.
        stack.reshape(m, p * (p + 1))[:, :: p + 2] = c.reshape(m, p)
        stack[:, :, p] = w.reshape(m, p) * rotate_into_phases(1.0, p)
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
    slack's phasors, as the default does. At every point
    ``_solve_restricted`` factors only the slots holding a
    constant-impedance load, so the method stays non-iterative.
    """
    v0 = feeder.slack_voltage if v0 is None else check_v0(v0)
    return _solution(feeder, _solve_restricted(feeder, v0), "linear-full")


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
