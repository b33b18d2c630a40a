"""Shared test machinery: random radial feeders and independent oracles.

The oracles here deliberately avoid the package's solution paths: the
reduced-impedance oracle uses explicit matrix inversion, the linear-simple
oracle builds the dense system on the reduced impedance, and the two-bus
oracle iterates the scalar voltage equation directly.
"""

from __future__ import annotations

import importlib.util
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import radialflow
from radialflow import Branch, Feeder, ZipLoad, reduced_impedance
from radialflow.loads import LINE_TRANSFORM, PHASE_ROTATIONS, load_vectors


def run_python(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a child process that imports the radialflow
    package the tests import, whatever the caller's PYTHONPATH."""
    source = str(Path(radialflow.__file__).resolve().parent.parent)
    path = [source, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env
    )


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """``python -m radialflow.cli *args`` in a child process."""
    return run_python("-m", "radialflow.cli", *args)


def random_tree(rng: np.random.Generator, n: int) -> list[tuple[int, int]]:
    """Random recursive tree on nodes 0..n-1: edges (parent, child)."""
    return [(int(rng.integers(0, k)), k) for k in range(1, n)]


def _impedance(rng: np.random.Generator, n: int, z_scale: float) -> complex:
    # Shrink impedances on larger feeders so total drops stay in the
    # light-load regime regardless of size.
    r = rng.uniform(0.002, 0.012) * (8.0 / max(n, 8)) * z_scale
    x = r * rng.uniform(1.7, 2.3)
    return complex(r, x)


def _impedance_matrix(
    rng: np.random.Generator, n: int, z_scale: float
) -> tuple[tuple[complex, ...], ...]:
    z_self = _impedance(rng, n, z_scale)
    z_mut = z_self * rng.uniform(0.25, 0.4)
    rows = []
    for i in range(3):
        rows.append(tuple(
            z_self * (1 + 0.03 * (i - 1)) if i == j else z_mut
            for j in range(3)
        ))
    # Symmetrize the slight per-phase spread introduced above.
    mat = np.array(rows)
    mat = (mat + mat.T) / 2
    return tuple(tuple(complex(v) for v in row) for row in mat)


def _load_magnitude(rng: np.random.Generator, n: int, scale: float) -> float:
    # Per-node apparent power stays at or below 0.05 p.u.
    return min(rng.uniform(0.004, 0.05) * (12.0 / max(n, 12)) * scale, 0.05)


def _complex_power(rng: np.random.Generator, magnitude: float) -> complex:
    angle = rng.uniform(0.1, 0.45)
    return magnitude * complex(np.cos(angle), np.sin(angle))


def random_radial_feeder(
    rng: np.random.Generator,
    n: int,
    phase_count: int = 1,
    profile: str = "p_only",
    v_s: complex = 1.0 + 0j,
    load_scale: float = 1.0,
    z_scale: float = 1.0,
    delta_fraction: float = 0.0,
    edges: list[tuple[int, int]] | None = None,
) -> Feeder:
    """Random radial feeder with the requested load profile.

    ``profile`` is one of none, p_only, z_only, i_only, zip. ``edges``
    (parent, child) on nodes 0..n-1 fixes the tree; by default it is a
    ``random_tree``.
    """
    nodes = tuple(str(i + 1) for i in range(n))
    branches = []
    if edges is None:
        edges = random_tree(rng, n)
    for idx, (parent, child) in enumerate(edges):
        impedance = (
            _impedance(rng, n, z_scale)
            if phase_count == 1
            else _impedance_matrix(rng, n, z_scale)
        )
        branches.append(
            Branch(f"b{idx + 1}", nodes[parent], nodes[child], impedance)
        )
    loads = []
    if profile != "none":
        for node in nodes[1:]:
            if rng.uniform() > 0.85:
                continue
            s = _complex_power(rng, _load_magnitude(rng, n, load_scale))
            if profile == "p_only":
                parts = {"s_p": s}
            elif profile == "z_only":
                parts = {"s_z": s}
            elif profile == "i_only":
                parts = {"s_i": s}
            elif profile == "zip":
                w = rng.dirichlet(np.ones(3))
                parts = {"s_z": s * w[0], "s_i": s * w[1], "s_p": s * w[2]}
            else:
                raise ValueError(profile)
            connection = "wye"
            phase = "all"
            if phase_count == 3:
                if rng.uniform() < delta_fraction:
                    connection = "delta"
                phase = str(rng.choice(["a", "b", "c", "all"]))
            loads.append(
                ZipLoad(node=node, phase=phase, connection=connection, **parts)
            )
    return Feeder(
        name=f"random-{n}",
        phase_count=phase_count,
        nodes=nodes,
        slack_voltage=v_s,
        branches=tuple(branches),
        loads=tuple(loads),
    )


def shuffled(
    rng: np.random.Generator, feeder: Feeder, flip: float = 0.4
) -> Feeder:
    """The same feeder with its non-slack nodes listed in random order and
    about ``flip`` of its branches stored in reverse orientation."""
    rest = list(feeder.nodes[1:])
    rng.shuffle(rest)
    branches = tuple(
        replace(b, from_node=b.to_node, to_node=b.from_node)
        if rng.uniform() < flip
        else b
        for b in feeder.branches
    )
    return replace(feeder, nodes=(feeder.slack, *rest), branches=branches)


def scaled(feeder: Feeder, factor: float) -> Feeder:
    """The same feeder with every load's s_z, s_i and s_p times ``factor``:
    past the 0.05 p.u. per load that ``random_radial_feeder`` draws."""
    loads = tuple(
        replace(
            load,
            s_z=load.s_z * factor,
            s_i=load.s_i * factor,
            s_p=load.s_p * factor,
        )
        for load in feeder.loads
    )
    return replace(feeder, loads=loads)


def level_schedule(tree) -> list:
    """The walk in incidence rows (node k is row k - 1), one entry per depth
    level from 1: its rows and its parents' rows (None for the slack's
    children), in walk order. Depth is counted along ``tree.parent``; the
    walk is breadth first, so each level is one run of it."""
    depth = [0] * len(tree.order)
    for node in tree.order[1:]:
        depth[node] = depth[tree.parent[node]] + 1
    rows = np.asarray(tree.order[1:], dtype=np.intp) - 1
    parents = np.asarray(tree.parent, dtype=np.intp)[rows + 1] - 1
    depths = np.asarray(depth, dtype=np.intp)[rows + 1]
    cuts = np.flatnonzero(np.diff(depths, prepend=0, append=-1)).tolist()
    return [
        (rows[level], parents[level] if level.start else None)
        for level in map(slice, cuts[:-1], cuts[1:])
    ]


def level_path_sums(tree, root, steps: np.ndarray) -> np.ndarray:
    """Oracle for ``network.path_sums`` at any payload rank: one numpy step
    per depth level, in place."""
    for rows, parents in level_schedule(tree):
        steps[rows] += root if parents is None else steps[parents]
    return steps


def level_subtree_sums(tree, values: np.ndarray) -> np.ndarray:
    """Oracle for ``network.subtree_sums`` at any payload rank: deepest
    level first, one ``np.add.at`` per level into the parents, fed the
    level's rows in reverse, which adds siblings one after another in
    reverse walk order; in place."""
    for rows, parents in reversed(level_schedule(tree)[1:]):
        np.add.at(values, parents[::-1], values[rows[::-1]])
    return values


def level_eliminate(feeder: Feeder, stack: np.ndarray) -> np.ndarray:
    """Oracle for the three-phase ``network.eliminate``: deepest level
    first, one batched solve of (I + A_k z_k) [A | B] = [A_k | B_k] per
    depth level and one ``np.add.at`` of its rows into their parents; in
    place."""
    z = feeder.checked_impedances
    eye = np.eye(stack.shape[1])
    for rows, parents in reversed(level_schedule(feeder.tree)):
        block = stack[rows]
        block = np.linalg.solve(eye + block[:, :, :-1] @ z[rows], block)
        stack[rows] = block
        if parents is not None:
            np.add.at(stack, parents, block)
    return stack


def level_substitute(feeder: Feeder, drops: np.ndarray) -> np.ndarray:
    """Oracle for the three-phase ``network.substitute``: one numpy step per
    depth level, x_k = x_parent - (G_k x_parent + t_k) with
    [G_k | t_k] = ``drops``[k - 1]."""
    p = feeder.phase_count
    x = np.empty((len(feeder.tree.branches), p), dtype=np.complex128)
    slack = feeder.slack_phasors()
    with np.errstate(all="ignore"):
        for rows, parents in level_schedule(feeder.tree):
            upper = slack if parents is None else x[parents]
            gain, offset = drops[rows, :, :p], drops[rows, :, p]
            x[rows] = upper - (
                (gain @ upper[..., np.newaxis])[..., 0] + offset
            )
    return x


_ROTATIONS = np.array(PHASE_ROTATIONS)
_LINE_ROTATIONS = (_ROTATIONS - np.roll(_ROTATIONS, -1)) / math.sqrt(3)


def unfactored_draw(
    stack: np.ndarray, v: np.ndarray, h: float, rotation: np.ndarray
) -> np.ndarray:
    """Oracle for the consumption-positive ZIP current of a (3, n, k)
    (s_z, s_i, s_p) stack at voltages ``v`` of shape (n, k): at each loaded
    slot, h^2 s_z* v + h s_i* rotation[k] + s_p* / conj(v) with every
    factor formed from the stack on this call; zero elsewhere."""
    rows, cols = np.nonzero(np.any(stack != 0, axis=0))
    s_z, s_i, s_p = np.conjugate(stack[:, rows, cols])
    v_loaded = v[rows, cols]
    draw = np.zeros(v.shape, dtype=np.complex128)
    with np.errstate(all="ignore"):
        draw[rows, cols] = (
            h * h * s_z * v_loaded
            + h * s_i * rotation[cols]
            + s_p / np.conjugate(v_loaded)
        )
    return draw


def unfactored_injections(table, v: np.ndarray, h: float) -> np.ndarray:
    """Oracle for the current injections, shape (n, p), of a load table at
    phase voltages ``v`` of that shape: ``unfactored_draw`` on the wye
    stack, plus on the delta stack at the line voltages with h / sqrt(3)
    and the line rotations, mapped back to the phases; negated."""
    draw = unfactored_draw(table.wye, v, h, _ROTATIONS)
    if table.delta is not None:
        line = unfactored_draw(
            table.delta, v @ LINE_TRANSFORM.T, h / math.sqrt(3),
            _LINE_ROTATIONS,
        )
        draw += line @ LINE_TRANSFORM
    return -draw


def perfbench_gen():
    """The benchmark's seeded feeder generator, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def brute_force_reduced_impedance(a_m: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Oracle for the reduced impedance matrix via explicit inversion."""
    a_inv = np.linalg.inv(a_m.astype(complex))
    return a_inv @ z @ a_inv.T


def _dense_parts(feeder: Feeder):
    """The dense pieces both linear oracles share, over the non-slack
    node-major unknowns: I + h^2 D diag(conj s_z), D (conj s_p rho),
    D (conj s_i rho), rho and the tiled slack phasors."""
    h, p = feeder.h, feeder.phase_count
    s_z, s_i, s_p = (s[p:] for s in load_vectors(feeder))
    unknown_nodes = len(feeder.nodes) - 1
    rho = np.tile(np.asarray(PHASE_ROTATIONS[:p]), unknown_nodes)
    v_s = np.tile(feeder.slack_phasors(), unknown_nodes)
    d = reduced_impedance(None, feeder).d
    p_base = d @ (np.conjugate(s_p) * rho)
    i_base = d @ (np.conjugate(s_i) * rho)
    sys_a = np.multiply(d, np.conjugate(s_z)[np.newaxis, :], out=d)
    sys_a *= h * h
    sys_a.flat[:: d.shape[0] + 1] += 1.0
    return sys_a, p_base, i_base, rho, v_s


def dense_linear_system(feeder: Feeder) -> tuple[np.ndarray, np.ndarray]:
    """Oracle for the linear-simple system over the non-slack node-major
    unknowns, built densely on the reduced impedance D: the matrix
    I + h^2 D diag(conj s_z) and the right-hand side
    v_s - h D (conj s_p rho) - h D (conj s_i rho)."""
    sys_a, p_base, i_base, _, v_s = _dense_parts(feeder)
    return sys_a, v_s - feeder.h * p_base - feeder.h * i_base


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


def linear_full_system(
    feeder: Feeder, v0: complex | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Oracle for the linear-full system M1 x + diag(m2) conj(x) = b over
    the non-slack node-major unknowns, linearized around ``v0`` rotated
    into each phase (the slack phasors by default): with
    V conj(V) ~ c_v V + c_vbar conj(V) + c_0 per phase,
    M1 = diag(c_v) (I + h^2 D diag(conj s_z)), m2 = c_vbar - v_s and
    b = -conj(rho) D (conj s_p rho) - c_v h D (conj s_i rho) - c_0."""
    sys_a, p_base, i_base, rho, v_s = _dense_parts(feeder)
    point = feeder.slack_phasors() if v0 is None else [
        complex(v0) * rho for rho in PHASE_ROTATIONS[: feeder.phase_count]
    ]
    point = np.tile(np.asarray(point, dtype=complex), len(feeder.nodes) - 1)
    c_v, c_vbar, c_0 = linearize_vsq(point)
    m1 = c_v[:, np.newaxis] * sys_a
    b = -np.conjugate(rho) * p_base - c_v * feeder.h * i_base - c_0
    return m1, c_vbar - v_s, b


def real_embedding(
    m1: np.ndarray, m2: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The real system of M1 x + diag(m2) conj(x) = b:
    [[Re M1 + diag(Re m2), -Im M1 + diag(Im m2)],
    [Im M1 + diag(Im m2), Re M1 - diag(Re m2)]] [Re x; Im x] = [Re b; Im b]."""
    size = m1.shape[0]
    stacked = np.block([[m1.real, -m1.imag], [m1.imag, m1.real]])
    idx = np.arange(size)
    stacked[idx, idx] += m2.real
    stacked[idx, size + idx] += m2.imag
    stacked[size + idx, idx] += m2.imag
    stacked[size + idx, size + idx] -= m2.real
    return stacked, np.concatenate([b.real, b.imag])


def stacked_solve(m1: np.ndarray, m2: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Oracle solve of M1 x + diag(m2) conj(x) = b through its real
    embedding."""
    xy = np.linalg.solve(*real_embedding(m1, m2, b))
    size = m1.shape[0]
    return xy[:size] + 1j * xy[size:]


def dense_ybus(inc, feeder: Feeder) -> np.ndarray:
    """Oracle for the bus admittance: the dense product A^T C A, with C the
    block diagonal of the inverted branch impedances in incidence row
    order and A phase-expanded by a Kronecker product."""
    p = feeder.phase_count
    by_id = {b.id: b.impedance for b in feeder.branches}
    m = len(inc.branch_order)
    c = np.zeros((m * p, m * p), dtype=complex)
    for k, branch_id in enumerate(inc.branch_order):
        z = np.asarray(by_id[branch_id], dtype=complex).reshape(p, p)
        c[k * p:(k + 1) * p, k * p:(k + 1) * p] = np.linalg.inv(z)
    a = np.kron(inc.a, np.eye(p))
    return a.T @ c @ a


def two_bus_fixed_point(
    v_s: complex, z: complex, s_p: complex, tol: float = 1e-14
) -> complex:
    """Scalar fixed-point oracle for a single constant-power load:
    iterate v <- v_s - z * conj(s_p) / conj(v)."""
    v = complex(v_s)
    for _ in range(1000):
        nxt = v_s - z * np.conjugate(s_p) / np.conjugate(v)
        if abs(nxt - v) < tol:
            return complex(nxt)
        v = nxt
    raise AssertionError("two-bus oracle failed to converge")


def two_bus_feeder(
    z: complex = 0.01 + 0.02j,
    s_p: complex = 0.2 + 0.1j,
    v_s: complex = 1.0 + 0j,
    **load_parts,
) -> Feeder:
    parts = load_parts or {"s_p": s_p}
    return Feeder(
        name="two-bus",
        phase_count=1,
        nodes=("1", "2"),
        slack_voltage=v_s,
        branches=(Branch("b1", "1", "2", z),),
        loads=(ZipLoad(node="2", **parts),),
    )


def chain_feeder(
    n: int,
    z: complex | tuple[tuple[complex, ...], ...],
    v_s: complex = 1.0 + 0j,
    loads: tuple[ZipLoad, ...] = (),
) -> Feeder:
    """Chain 1-2-...-n; a 3x3 ``z`` makes it three-phase."""
    nodes = tuple(str(i + 1) for i in range(n))
    branches = tuple(
        Branch(f"b{i}", nodes[i - 1], nodes[i], z) for i in range(1, n)
    )
    return Feeder(
        name=f"chain-{n}",
        phase_count=3 if isinstance(z, tuple) else 1,
        nodes=nodes,
        slack_voltage=v_s,
        branches=branches,
        loads=loads,
    )


def singular_pivot_feeder(phase_count: int) -> Feeder:
    """Chain 1-2-3 whose constant-impedance load at node 3 is the negated
    impedance of the branch feeding it, so the two in series short node 2:
    the dense system is regular, with diagonal entries 1 and -1, but the
    elimination pivot I + A z of node 3 is zero."""
    z = 0.1 + 0j
    if phase_count == 3:
        z = tuple(
            tuple(z if i == j else 0j for j in range(3)) for i in range(3)
        )
    return chain_feeder(3, z, loads=(ZipLoad(node="3", s_z=-10.0 + 0j),))

