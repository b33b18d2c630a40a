"""Seeded feeder generator for the benchmark workloads.

Builds trunk-and-lateral radial feeders in the radialflow JSON format.
Per-branch impedance does not shrink with the node count; instead the total
load is fixed and then scaled until the feeder's lowest voltage magnitude
hits a target, so heavy loading (and with it BFS iteration count and
linearization error) is a property of the workload, not of its size.

The load scale is calibrated with a small vectorized backward-forward sweep
written here, independent of the package under test, so the inputs do not
change when the program does. Arithmetic is elementwise NumPy (no BLAS), and
every number is rounded to 9 significant digits before it is written, so
the same arguments give byte-identical JSON on every run.
"""

from __future__ import annotations

import json
import math

import numpy as np

_ROT = np.exp(-2j * np.pi / 3 * np.arange(3))
# Unit phasors of the nominal line voltages ab, bc, ca.
_LINE_ROT = (_ROT - np.roll(_ROT, -1)) / math.sqrt(3)
_LEG = ((0, 1), (1, 2), (2, 0))
_PHASES = ("a", "b", "c")
#: Share of non-slack nodes on the trunk; the rest hang off it in laterals.
TRUNK_SHARE = 0.3
#: Share of three-phase loads connected in delta.
DELTA_SHARE = 0.3


def _r9(value: float) -> float:
    return float(f"{value:.9g}")


def _cdoc(value: complex) -> dict:
    return {"re": _r9(value.real), "im": _r9(value.imag)}


def _trunk(n: int) -> int:
    return max(1, min(n - 1, int(round(TRUNK_SHARE * (n - 1)))))


def _tree(rng: np.random.Generator, n: int) -> np.ndarray:
    """Parent index of each node (slack is node 0, parent -1).

    A trunk runs from the slack; laterals of geometric length hang off
    trunk nodes (or, one time in four, off an earlier lateral). Parents
    always precede children.
    """
    parent = np.full(n, -1, dtype=np.int64)
    trunk = _trunk(n)
    for i in range(1, trunk + 1):
        parent[i] = i - 1
    node = trunk + 1
    while node < n:
        if node > trunk + 1 and rng.random() < 0.25:
            attach = int(rng.integers(trunk + 1, node))
        else:
            attach = int(rng.integers(1, trunk + 1))
        length = min(n - node, 1 + int(rng.geometric(0.2)))
        for step in range(length):
            parent[node] = attach if step == 0 else node - 1
            node += 1
    return parent


def _impedances(
    rng: np.random.Generator, parent: np.ndarray, phases: int, trunk: int
) -> np.ndarray:
    """Branch impedance per non-slack node, shape (n, p, p); row 0 unused."""
    n = len(parent)
    z = np.zeros((n, phases, phases), dtype=np.complex128)
    for node in range(1, n):
        r = 0.004 * rng.uniform(0.8, 1.2) * (1.0 if node <= trunk else 1.8)
        zs = complex(r, r * rng.uniform(1.2, 2.0))
        if phases == 1:
            z[node, 0, 0] = zs
            continue
        block = np.diag([zs * rng.uniform(0.95, 1.05) for _ in range(3)])
        for i, j in ((0, 1), (1, 2), (0, 2)):
            block[i, j] = block[j, i] = zs * rng.uniform(0.25, 0.45)
        z[node] = block
    return z


def _loads(rng: np.random.Generator, n: int, phases: int):
    """Unscaled ZIP loads: a list of dicts holding node index, phase or leg
    (``all``/``a``/``b``/``c``), connection and complex (s_z, s_i, s_p)."""
    loads = []
    for node in range(1, n):
        if n > 2 and rng.random() > 0.8:
            continue
        mag = rng.uniform(0.5, 1.5)
        pf = rng.uniform(0.85, 0.98)
        s = mag * complex(pf, math.sqrt(1.0 - pf * pf))
        share = rng.dirichlet((8.0, 8.0, 8.0))
        connection, phase = "wye", "all"
        if phases == 3:
            if rng.random() < DELTA_SHARE:
                connection = "delta"
            if rng.random() < 0.5:
                phase = _PHASES[int(rng.integers(0, 3))]
        loads.append({
            "node": node,
            "phase": phase,
            "connection": connection,
            "s": tuple(complex(f * s) for f in share),
        })
    if not loads:
        loads.append({"node": n - 1, "phase": "all", "connection": "wye",
                      "s": (0.3 + 0.1j, 0.3 + 0.1j, 0.4 + 0.15j)})
    # Fix the total real power drawn (summed over phases) at one unit.
    total = sum(
        sum(c.real for c in load["s"]) * (3 if phases == 3 and load["phase"] == "all" else 1)
        for load in loads
    )
    for load in loads:
        load["s"] = tuple(c / total for c in load["s"])
    return loads


class _Sweep:
    """Vectorized backward-forward sweep used only to calibrate loading."""

    def __init__(self, parent, z, loads, phases: int, slack_voltage: float):
        self.slack = slack_voltage * _ROT[:phases]
        self.warm = None
        self.parent = parent
        self.z = z
        self.phases = phases
        depth = np.zeros(len(parent), dtype=np.int64)
        for node in range(1, len(parent)):
            depth[node] = depth[parent[node]] + 1
        self.levels = [np.flatnonzero(depth == d) for d in range(1, depth.max() + 1)]
        wye = [(l, k) for l in loads if l["connection"] == "wye"
               for k in self._targets(l)]
        delta = [(l, k) for l in loads if l["connection"] == "delta"
                 for k in self._targets(l)]
        self.wye_node = np.array([l["node"] for l, _ in wye], dtype=np.int64)
        self.wye_phase = np.array([k for _, k in wye], dtype=np.int64)
        self.wye_s = np.array([l["s"] for l, _ in wye], dtype=np.complex128).reshape(-1, 3)
        self.delta_node = np.array([l["node"] for l, _ in delta], dtype=np.int64)
        self.delta_leg = np.array([k for _, k in delta], dtype=np.int64)
        self.delta_s = np.array([l["s"] for l, _ in delta], dtype=np.complex128).reshape(-1, 3)

    def _targets(self, load) -> range | tuple[int]:
        if self.phases == 1:
            return (0,)
        return range(3) if load["phase"] == "all" else (_PHASES.index(load["phase"]),)

    def _injections(self, v: np.ndarray, k: float) -> np.ndarray:
        inj = np.zeros_like(v)
        if len(self.wye_node):
            vw = v[self.wye_node, self.wye_phase]
            rot = _ROT[self.wye_phase] if self.phases == 3 else 1.0
            s = k * np.conj(self.wye_s)
            draw = s[:, 0] * vw + s[:, 1] * rot + s[:, 2] / np.conj(vw)
            np.add.at(inj, (self.wye_node, self.wye_phase), -draw)
        if len(self.delta_node):
            p = np.array([_LEG[g][0] for g in self.delta_leg])
            q = np.array([_LEG[g][1] for g in self.delta_leg])
            vl = v[self.delta_node, p] - v[self.delta_node, q]
            s = k * np.conj(self.delta_s)
            draw = (s[:, 0] * vl / 3.0 + s[:, 1] * _LINE_ROT[self.delta_leg] / math.sqrt(3)
                    + s[:, 2] / np.conj(vl))
            np.add.at(inj, (self.delta_node, p), -draw)
            np.add.at(inj, (self.delta_node, q), draw)
        return inj

    def v_min(self, k: float, tol: float = 1e-8, max_iter: int = 100) -> float:
        """Lowest non-slack |V| at load scale ``k``; 0.0 when the sweep
        diverges or a voltage collapses (the scale is infeasible). Starts
        from the last converged profile, so nearby scales converge fast."""
        slack = self.slack
        v = self.warm if self.warm is not None else np.tile(slack, (len(self.parent), 1))
        for _ in range(max_iter):
            if np.min(np.abs(v)) < 0.2:
                break
            into = -self._injections(v, k)
            for level in reversed(self.levels):
                np.add.at(into, self.parent[level], into[level])
            new = np.empty_like(v)
            new[0] = slack
            for level in self.levels:
                drop = (self.z[level] * into[level][:, np.newaxis, :]).sum(axis=2)
                new[level] = new[self.parent[level]] - drop
            shift = np.max(np.abs(new - v))
            v = new
            if not np.all(np.isfinite(v)):
                break
            if shift < tol:
                self.warm = v
                return float(np.min(np.abs(v[1:])))
        self.warm = None
        return 0.0


def _calibrate(sweep: _Sweep, target: float) -> float:
    """Load scale at which the lowest voltage equals ``target`` (to 1e-6
    p.u.), by Illinois regula falsi on a bracket found by doubling."""
    lo, f_lo = 0.0, abs(sweep.slack[0]) - target
    hi = 0.05
    f_hi = sweep.v_min(hi) - target
    while f_hi > 0:
        lo, f_lo, hi = hi, f_hi, hi * 2.0
        f_hi = sweep.v_min(hi) - target
    side = 0
    for _ in range(100):
        mid = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        f_mid = sweep.v_min(mid) - target
        if abs(f_mid) < 1e-6 or hi - lo < 1e-9 * hi:
            return mid
        if f_mid > 0:
            lo, f_lo = mid, f_mid
            if side == 1:
                f_hi *= 0.5
            side = 1
        else:
            hi, f_hi = mid, f_mid
            if side == -1:
                f_lo *= 0.5
            side = -1
    return lo


def feeder_doc(
    seed: int | list[int],
    n: int,
    phases: int,
    target_vmin: float,
    *,
    slack_voltage: float = 1.0,
    name: str = "feeder",
) -> dict:
    """One calibrated feeder document from ``seed`` (any NumPy seed
    entropy): ``n`` nodes including the slack,
    ``phases`` 1 or 3, loaded so the lowest voltage is ``target_vmin``
    with the slack held at ``slack_voltage`` p.u."""
    if n < 2:
        raise ValueError("a feeder needs at least two nodes")
    rng = np.random.default_rng(seed)
    parent = _tree(rng, n)
    z = _impedances(rng, parent, phases, _trunk(n))
    loads = _loads(rng, n, phases)
    sweep = _Sweep(parent, z, loads, phases, slack_voltage)
    scale = _calibrate(sweep, target_vmin)
    return _document(name, parent, z, loads, scale, phases, slack_voltage)


def _document(name, parent, z, loads, scale, phases, slack_voltage) -> dict:
    branches = []
    for node in range(1, len(parent)):
        imp = (_cdoc(complex(z[node, 0, 0])) if phases == 1
               else [_cdoc(complex(c)) for c in z[node].reshape(-1)])
        branches.append({"id": f"b{node}", "from": f"n{parent[node]}",
                         "to": f"n{node}", "impedance": imp})
    load_docs = []
    for load in loads:
        s_z, s_i, s_p = (scale * c for c in load["s"])
        load_docs.append({
            "node": f"n{load['node']}",
            "phase": load["phase"],
            "connection": load["connection"],
            "s_z": _cdoc(s_z), "s_i": _cdoc(s_i), "s_p": _cdoc(s_p),
        })
    return {
        "schema_version": "1",
        "name": name,
        "phase_count": phases,
        "slack": {"node": "n0", "voltage": _cdoc(complex(slack_voltage))},
        "branches": branches,
        "loads": load_docs,
    }


def scaled(doc: dict, factor: float) -> dict:
    """A copy of ``doc`` with every load component multiplied by ``factor``
    (rounded like the generator's own output)."""
    out = json.loads(json.dumps(doc))
    for load in out["loads"]:
        for key in ("s_z", "s_i", "s_p"):
            load[key] = {"re": _r9(load[key]["re"] * factor),
                         "im": _r9(load[key]["im"] * factor)}
    return out


def dumps(doc: dict) -> str:
    """Compact, key-order-stable JSON text of a feeder document."""
    return json.dumps(doc, separators=(",", ":")) + "\n"
