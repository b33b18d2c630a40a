"""Non-iterative linearized ZIP power flow.

The only nonlinearity in the nodal equations comes from constant-power
loads, through the product V * conj(V). That product is not holomorphic, so
it is expanded to first order with Wirtinger derivatives (V and conj(V)
treated as independent variables) around a chosen linearization point.

Both modes solve x = v_s - D J for the non-slack voltages, the loads
drawing J = C x + w (``_load_terms``): constant-current and wye
constant-impedance loads exactly, a delta constant-impedance leg split onto
its two phases as at balanced voltages (so exact only there), and each
constant-power load's draw conj(s_p) / conj(V) frozen at a conjugate
voltage rotated into its phase. The modes differ in where:

* ``simple``: at the nominal magnitude 1/h. One complex linear system per
  feeder, solved by elimination on the feeder tree.
* ``full``: at conj(v0), for a linearization point ``v0``, one complex
  number rotated into each phase as the slack voltage is, and keeping the
  conjugate term of the expansion. Its unknowns couple only through the
  slots holding a constant-impedance load: one solve over those slots,
  complex at the default point, the slack voltage, where the conjugate
  coefficient vanishes, and of its real embedding at any other. At a slack
  voltage of 1 p.u. it coincides with the simple mode. Away from 1 p.u.
  the default point is the more accurate of the two modes at light load,
  but the less accurate at heavier load, where the simple mode's frozen
  nominal sits inside the voltage drop.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .bfs import BfsOptions, solve_bfs
from .errors import SingularError
from .loads import load_vectors, rotate_into_phases
from .network import (
    Feeder,
    Solution,
    drop_through,
    eliminate,
    reduced_impedance,
    substitute,
)


def check_v0(v0: complex) -> complex:
    """Return ``v0``, the linearization point of linear-full, if it is
    finite with positive magnitude, its one rule; raise ValueError if not."""
    if not (cmath.isfinite(v0) and v0 != 0):
        raise ValueError(
            "linearization phasors must be finite with positive magnitude"
        )
    return v0


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


def _load_terms(feeder: Feeder, frozen: complex) -> tuple:
    """The loads' draw J = C x + w over the non-slack slots as (m, p)
    arrays, C = h^2 conj(s_z) and w = (h conj(s_i) + conj(s_p) / ``frozen``)
    rho: each constant-power draw frozen at the conjugate voltage ``frozen``
    rotated into its phase (consumption convention)."""
    h, p = feeder.h, feeder.phase_count
    s_z, s_i, s_p = (s[p:].reshape(-1, p) for s in load_vectors(feeder))
    # An overflowing h * h or 1 / frozen gives non-finite terms, no warnings.
    with np.errstate(all="ignore"):
        c = np.conjugate(s_z) * (h * h)
        w = h * np.conjugate(s_i) + np.conjugate(s_p) / frozen
        w *= rotate_into_phases(1.0, p)
    return c, w


def assemble(feeder: Feeder) -> LinearModel:
    """Eliminate the linear-simple system of a validated feeder.

    The system is x = v_s - D J, the loads drawing J = C x + w of
    ``_load_terms``, each constant-power load frozen at the nominal
    magnitude 1/h (unity in per-unit analysis). On the tree,
    x_k = x_parent - z_k I_k, where I_k sums J over node k's subtree. So
    I_k = A_k x_k + B_k, with [A_k | B_k] node k's [C_k | w_k] plus its
    children's eliminated rows, and substituting x_k eliminates it to
    I_k = A x_parent + B with [A | B] = (I + A_k z_k)^-1 [A_k | B_k], leaves
    first, without forming D: ``network.eliminate`` on the stack seeded with
    [C_k | w_k]. The drops are z_k [A | B]. The one singularity check is
    on the pivots I + A_k z_k: one below ``network.PIVOT_TOLERANCE`` (1e-9)
    in magnitude, at p = 3 its determinant det X_k / det X_heavy along a
    heavy chain, raises SingularError naming its node.
    """
    c, w = _load_terms(feeder, 1.0 / feeder.h)
    z = feeder.checked_impedances
    m, p = c.shape
    with np.errstate(all="ignore"):
        stack = np.zeros((m, p, p + 1), dtype=np.complex128)
        # A's diagonal is every (p + 2)-th entry of a row's [A | B]: a view,
        # cheaper than fancy indexing on small feeders.
        stack.reshape(m, p * (p + 1))[:, :: p + 2] = c
        stack[:, :, p] = w
        eliminate(feeder, stack)
        drops = stack * z if p == 1 else z @ stack
    return LinearModel(drops=drops, feeder=feeder)


def _solution(feeder: Feeder, x: np.ndarray, method: str) -> Solution:
    if not np.all(np.isfinite(x)):
        raise SingularError(f"{method} produced non-finite voltages")
    voltages = np.concatenate([feeder.slack_phasors(), x])
    return Solution.of(feeder, voltages, method)


def solve_linear(model: LinearModel) -> Solution:
    """Solve the simple-mode system in one shot: the voltages down the tree
    from the slack, x_k = x_parent - ``drops`` [x_parent; 1], by
    ``network.substitute``."""
    x = substitute(model.feeder, model.drops)
    return _solution(model.feeder, x.reshape(-1), "linear-simple")


def solve_linear_full(feeder: Feeder, v0: complex | None = None) -> Solution:
    """Solve the conjugate-linear variant M1 x + diag(m2) conj(x) = b.

    The expansion of V conj(V) around ``v0`` (checked by ``check_v0``; by
    default the slack voltage) rotated into each phase, the point, keeps
    both V and conj(V) terms. Divided by c_v = conj(point), each row reads
    y + D u = r: y = x + q conj(x), q = (point - v_s rho) / conj(point) per
    phase, zero at the default point; r = point - D w and u = C x, with the
    ``_load_terms`` frozen at conj(v0), u nonzero only at the slots K that
    hold a constant-impedance load. So the unknowns couple only through
    (I + D_KK C_K) x_K + diag(q_K) conj(x_K) = r_K: that block is factored
    in D's own array, complex where q is zero and through its real
    embedding otherwise; D is freed, y = r - D u is ``drop_through`` on the
    tree, and every other voltage x = (y - q conj(y)) / (1 - |q|^2).
    """
    v0 = feeder.slack_voltage if v0 is None else check_v0(v0)
    p = feeder.phase_count
    # First, so that the load terms and the load table cached on first use
    # are not allocated between (np)^2 arrays, where they would keep the
    # heap those free above them from returning to the system.
    c, w = _load_terms(feeder, np.conjugate(v0))
    d = reduced_impedance(None, feeder).d
    c = c.reshape(-1)
    # A point or slack overflowing once rotated into a phase gives non-finite
    # voltages, no warnings; K, read from c, holds every slot c makes NaN.
    with np.errstate(all="ignore"):
        point = rotate_into_phases(v0, p)
        shift = point - feeder.slack_phasors()
        q = shift / np.conjugate(point)
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
            u = np.zeros(w.shape, dtype=np.complex128)
            u.reshape(-1)[k] = c_k * x_k
            x += drop_through(feeder, 0.0, u).reshape(-1)
        if q.any():
            # Numerator and denominator times |point|^2, so that |q|^2 does
            # not overflow at a point near zero.
            y, scale = x.reshape(-1, p), np.square(np.abs(point))
            x = scale * y - point * shift * np.conjugate(y)
            x = (x / (scale - np.square(np.abs(shift)))).reshape(-1)
        x[k] = x_k
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
        return solve_bfs(feeder, bfs)
    raise ValueError(f"unknown method {method!r}")
