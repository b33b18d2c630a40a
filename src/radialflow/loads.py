"""ZIP load model: per-slot load tables, current injections and delta legs.

Load powers are consumption-positive throughout: a load with positive real
part draws power, and the corresponding nodal current injection carries a
minus sign. Per-unit analysis uses voltage scale h = 1 (h = 1/V_base when a
feeder declares a physical voltage base).
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import VoltageCollapseError

if TYPE_CHECKING:
    from .network import Feeder

logger = logging.getLogger(__name__)

NodeId = str

#: Minimum voltage magnitude at which the constant-power division is allowed.
COLLAPSE_TOLERANCE = 1e-6

#: Unit phasors of the three phases under the a-b-c rotation convention.
PHASE_ROTATIONS = (
    1.0 + 0.0j,
    cmath.exp(-2j * math.pi / 3),
    cmath.exp(2j * math.pi / 3),
)

PHASES = ("a", "b", "c")

#: Phase-to-line transformation: rows are the ab, bc, ca leg voltages.
LINE_TRANSFORM = np.array(
    [[1, -1, 0], [0, 1, -1], [-1, 0, 1]], dtype=np.complex128
)

_ROTATIONS = np.array(PHASE_ROTATIONS)

#: Legs ab, bc, ca run from phase k to phase k + 1 (mod 3).
_LEG_NAMES = ("ab", "bc", "ca")
_LEG_SPAN = _ROTATIONS - np.roll(_ROTATIONS, -1)

#: Unit phasors of the nominal line voltages, used to orient constant-current
#: delta legs the same way wye constant-current loads are oriented per phase.
_LINE_ROTATIONS = _LEG_SPAN / math.sqrt(3)

#: Wye-equivalent split of each delta leg (rows) onto the phases (columns):
#: the leg from phase p to q goes to p with the factor rho_p/(rho_p - rho_q)
#: and to q with -rho_q/(rho_p - rho_q). The factors sum to one, so total
#: leg power is conserved and a balanced delta maps to the identical
#: balanced wye.
_LEG_SPLIT = (
    np.diag(_ROTATIONS) - np.roll(np.diag(_ROTATIONS), -1, axis=0)
) / _LEG_SPAN[:, np.newaxis]


@dataclass(frozen=True)
class ZipLoad:
    """A load at one node, split into constant-impedance (s_z),
    constant-current (s_i) and constant-power (s_p) components, all in
    consumption-positive complex power.

    ``phase`` selects the phase (wye) or the leg by its first phase
    (delta: a=ab, b=bc, c=ca); ``all`` applies the same components to every
    phase or leg. Single-phase feeders ignore ``phase``.
    """

    node: NodeId
    s_z: complex = 0j
    s_i: complex = 0j
    s_p: complex = 0j
    phase: str = "all"
    connection: str = "wye"

    def __post_init__(self):
        if self.phase not in ("a", "b", "c", "all"):
            raise ValueError(f"unknown phase {self.phase!r}")
        if self.connection not in ("wye", "delta"):
            raise ValueError(f"unknown connection {self.connection!r}")
        for name in ("s_z", "s_i", "s_p"):
            value = getattr(self, name)
            if not (math.isfinite(value.real) and math.isfinite(value.imag)):
                raise ValueError(f"{name} must be finite, got {value!r}")

    @property
    def is_zero(self) -> bool:
        return self.s_z == 0 and self.s_i == 0 and self.s_p == 0


def drop_zero_loads(loads: Iterable[ZipLoad]) -> tuple[ZipLoad, ...]:
    """Remove loads whose three components are all zero, warning once each."""
    kept = []
    for load in loads:
        if load.is_zero:
            logger.warning("dropping all-zero load at node %s", load.node)
        else:
            kept.append(load)
    return tuple(kept)


def _slots(stack: np.ndarray) -> tuple:
    """Rows and columns of the loaded slots of a (3, n, k) stack, and their
    conjugated (s_z, s_i, s_p), shape (3, count)."""
    rows, cols = np.nonzero(np.any(stack != 0, axis=0))
    return rows, cols, np.conjugate(stack[:, rows, cols])


@dataclass(frozen=True)
class LoadTable:
    """A feeder's loads summed per slot as consumption-positive (s_z, s_i,
    s_p) stacks: ``wye`` per node and phase, shape (3, n, p), and ``delta``
    per node and leg ab/bc/ca, shape (3, n, 3), or None on single-phase
    feeders. Both stacks are read-only; ``wye_slots`` and ``delta_slots``
    hold their loaded slots as ``_slots`` gives them."""

    wye: np.ndarray
    delta: np.ndarray | None
    wye_slots: tuple
    delta_slots: tuple | None


def load_table(
    loads: Iterable[ZipLoad], nodes: Sequence[NodeId], phase_count: int
) -> LoadTable:
    """Sum the loads into their slots, so loads sharing a slot add up: one
    pass over the loads, then one unbuffered add into a table whose delta
    rows follow the wye rows."""
    index = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    rows = 2 * n if phase_count == 3 else n
    flat, values = [], []
    for load in loads:
        if load.phase == "all" or phase_count == 1:
            legs = range(phase_count)
        else:
            legs = (PHASES.index(load.phase),)
        row = index[load.node] + (n if load.connection == "delta" else 0)
        for leg in legs:
            flat.append(row * phase_count + leg)
            values.append((load.s_z, load.s_i, load.s_p))
    table = np.zeros((3, rows * phase_count), dtype=np.complex128)
    parts = np.array(values, dtype=np.complex128).reshape(-1, 3).T
    np.add.at(table, (slice(None), np.array(flat, dtype=np.intp)), parts)
    table.flags.writeable = False
    table = table.reshape(3, rows, phase_count)
    wye, delta = table[:, :n], table[:, n:] if phase_count == 3 else None
    return LoadTable(
        wye, delta, _slots(wye), None if delta is None else _slots(delta)
    )


_WYE_COLLAPSE = "voltage magnitude {mag:.3e} at node {node}"
_DELTA_COLLAPSE = "line voltage magnitude {mag:.3e} on leg {leg} at node {node}"


def _draw(
    slots: tuple,
    v: np.ndarray,
    h: float,
    rotation: np.ndarray,
    nodes: Sequence[NodeId],
    collapse: str,
) -> np.ndarray:
    """Consumption-positive ZIP current h^2 s_z* v + h s_i* rotation
    + s_p* / conj(v) at each of the loaded ``slots``, zero elsewhere, for
    voltages ``v`` of shape (n, k); ``rotation`` holds one nominal phasor per
    column. A loaded slot at or below COLLAPSE_TOLERANCE raises
    VoltageCollapseError described by the ``collapse`` template; an
    overflowing ``h`` yields non-finite values, not warnings."""
    rows, cols, (s_z, s_i, s_p) = slots
    v_loaded = v[rows, cols]
    low = np.abs(v_loaded) <= COLLAPSE_TOLERANCE
    if np.any(low):
        k = int(np.argmax(low))
        where = collapse.format(
            mag=abs(v_loaded[k]), node=nodes[rows[k]], leg=_LEG_NAMES[cols[k]]
        )
        raise VoltageCollapseError(f"{where} is below {COLLAPSE_TOLERANCE:g}")
    draw = np.zeros(v.shape, dtype=np.complex128)
    with np.errstate(all="ignore"):
        draw[rows, cols] = (
            h * h * s_z * v_loaded
            + h * s_i * rotation[cols]
            + s_p / np.conjugate(v_loaded)
        )
    return draw


def _injections(
    table: LoadTable, v: np.ndarray, h: float, nodes: Sequence[NodeId]
) -> np.ndarray:
    """Current injections, shape (n, p), of ``table`` at phase voltages
    ``v`` of the same shape. Delta legs are evaluated on the line voltages
    with the voltage scale reduced by sqrt(3), so leg powers stay on the
    same per-unit base as wye powers, then mapped back to their phases."""
    draw = _draw(table.wye_slots, v, h, _ROTATIONS, nodes, _WYE_COLLAPSE)
    if table.delta_slots is not None:
        v_line = v @ LINE_TRANSFORM.T
        draw += _draw(
            table.delta_slots, v_line, h / math.sqrt(3), _LINE_ROTATIONS, nodes,
            _DELTA_COLLAPSE,
        ) @ LINE_TRANSFORM
    return -draw


def injection_current(
    load: ZipLoad, v: complex, h: float = 1.0, rotation: complex = 1.0 + 0j
) -> complex:
    """Nodal current injected by one wye load at voltage ``v``.

    Returns -(h^2 s_z* v + h s_i* rotation + s_p* / conj(v)); the negation
    turns consumption-positive powers into negative injections. ``rotation``
    orients the constant-current component along its nominal phase (unity in
    single-phase analysis).
    """
    s = np.array([load.s_z, load.s_i, load.s_p]).reshape(3, 1, 1)
    draw = _draw(
        _slots(s), np.array([[v]], dtype=np.complex128), h, np.array([rotation]),
        (load.node,), _WYE_COLLAPSE,
    )
    return -complex(draw[0, 0])


def delta_to_wye_injections(
    loads: Sequence[ZipLoad], v_abc: Sequence[complex], h: float = 1.0
) -> np.ndarray:
    """Phase current injections of delta loads that all see the phase
    voltages ``v_abc``. The three injections sum to zero (no neutral
    path)."""
    v_abc = np.asarray(v_abc, dtype=np.complex128)
    if v_abc.shape != (3,):
        raise ValueError("v_abc must hold exactly three phase voltages")
    if any(load.connection != "delta" for load in loads):
        raise ValueError("only delta loads belong in delta legs")
    nodes = tuple(dict.fromkeys(load.node for load in loads))
    v = np.broadcast_to(v_abc, (len(nodes), 3))
    return _injections(load_table(loads, nodes, 3), v, h, nodes).sum(axis=0)


def load_vectors(feeder: Feeder) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Consumption-positive (s_z, s_i, s_p) vectors over node-major
    node/phase slots, with each delta leg split onto its two phases by
    ``_LEG_SPLIT``. The split is exact at balanced voltages and first-order
    accurate under unbalance; it is how delta loads enter the linear
    solver. The vectors are fresh arrays the caller may modify."""
    table = feeder.load_table
    wye = table.wye.copy()
    if table.delta is not None:
        wye += table.delta @ _LEG_SPLIT
    s_z, s_i, s_p = wye.reshape(3, -1)
    return s_z, s_i, s_p


def nodal_injections(feeder: Feeder, voltages: np.ndarray) -> np.ndarray:
    """Exact nodal current injections I(V) for the given voltage profile.

    Wye loads are evaluated per phase; delta loads are evaluated on the
    actual line voltages at their node. This is the model the iterative
    solver satisfies and the one nodal residuals are measured against.
    """
    p = feeder.phase_count
    v = np.asarray(voltages, dtype=np.complex128).reshape(-1, p)
    injections = _injections(feeder.load_table, v, feeder.h, feeder.nodes)
    return injections.reshape(-1)
