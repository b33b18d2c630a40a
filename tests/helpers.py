"""Shared test machinery: random radial feeders and independent oracles.

The oracles here deliberately avoid the package's solution paths: the
reduced-impedance oracle uses explicit matrix inversion, and the two-bus
oracle iterates the scalar voltage equation directly.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from radialflow import Branch, Feeder, ZipLoad


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
) -> Feeder:
    """Random radial feeder with the requested load profile.

    ``profile`` is one of none, p_only, z_only, i_only, zip.
    """
    nodes = tuple(str(i + 1) for i in range(n))
    branches = []
    for idx, (parent, child) in enumerate(random_tree(rng, n)):
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


def brute_force_reduced_impedance(a_m: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Oracle for the reduced impedance matrix via explicit inversion."""
    a_inv = np.linalg.inv(a_m.astype(complex))
    return a_inv @ z @ a_inv.T


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
