"""Radial feeder model and incidence-matrix machinery.

A feeder is a tree rooted at the slack node: n nodes, n - 1 branches. The
oriented incidence matrix A (one row per branch, +1 at the from node, -1 at
the to node) links branch drops to node voltages, and its slack/non-slack
split (A_S, A_M) yields the reduced impedance matrix
D = A_M^-1 Z A_M^-T, the inverse of the slack-reduced bus admittance.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import solve_triangular

from .errors import RadialityError, SingularError
from .loads import PHASE_ROTATIONS, LoadTable, NodeId, ZipLoad, load_table

#: Impedances with magnitude below this are rejected; the model has no
#: zero-impedance switch representation.
MIN_IMPEDANCE = 1e-9

_MATRIX_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class Branch:
    """A series line between two nodes.

    ``impedance`` is a complex per-unit scalar in single-phase mode or a
    3x3 complex matrix (nested tuples, row-major) in three-phase mode; the
    matrix must be symmetric (mutual coupling symmetry).
    """

    id: str
    from_node: NodeId
    to_node: NodeId
    impedance: complex | tuple[tuple[complex, ...], ...]

    def __post_init__(self):
        if self.from_node == self.to_node:
            raise ValueError(f"branch {self.id} connects node "
                             f"{self.from_node} to itself")
        if not isinstance(self.impedance, tuple):
            if not cmath.isfinite(self.impedance):
                raise ValueError(f"branch {self.id}: impedance must be finite")
        else:
            z = np.asarray(self.impedance, dtype=np.complex128)
            if z.shape != (3, 3):
                raise ValueError(
                    f"branch {self.id}: matrix impedance must be 3x3"
                )
            if not np.isfinite(z).all():
                raise ValueError(f"branch {self.id}: impedance must be finite")
            if np.max(np.abs(z - z.T)) > _MATRIX_SYMMETRY_TOL:
                raise ValueError(
                    f"branch {self.id}: impedance matrix is not symmetric"
                )


@dataclass(frozen=True)
class Feeder:
    """Immutable description of a radial feeder.

    ``nodes`` lists every node with the slack first; parse-produced feeders
    are in topological order (parents before children), which keeps the
    non-slack incidence block triangular.
    """

    name: str
    phase_count: int
    nodes: tuple[NodeId, ...]
    slack_voltage: complex
    branches: tuple[Branch, ...]
    loads: tuple[ZipLoad, ...] = ()
    v_base: float = 1.0
    s_base: float = 1.0

    def __post_init__(self):
        p = self.phase_count
        if isinstance(p, bool) or p not in (1, 3):
            raise ValueError("phase_count must be 1 or 3")
        if not self.nodes:
            raise ValueError("feeder needs at least the slack node")
        v_s = self.slack_voltage
        if not (cmath.isfinite(v_s) and abs(v_s) > 0):
            raise ValueError(
                "slack voltage must be finite with positive magnitude"
            )
        if not all(
            math.isfinite(base) and base > 0
            for base in (self.v_base, self.s_base)
        ):
            raise ValueError("v_base and s_base must be finite and positive")
        for branch in self.branches:
            is_matrix = isinstance(branch.impedance, tuple)
            if self.phase_count == 3 and not is_matrix:
                raise ValueError(
                    f"branch {branch.id}: three-phase feeders need 3x3 "
                    f"impedance matrices"
                )
            if self.phase_count == 1 and is_matrix:
                raise ValueError(
                    f"branch {branch.id}: single-phase feeders need scalar "
                    f"impedances"
                )
        known = set(self.nodes)
        for load in self.loads:
            if load.connection == "delta" and self.phase_count != 3:
                raise ValueError(
                    f"delta load at node {load.node} requires three-phase mode"
                )
            if load.node not in known:
                raise ValueError(f"load references unknown node {load.node}")
            if load.node == self.nodes[0]:
                raise ValueError(
                    "loads at the slack node are not modeled; the slack "
                    "voltage is fixed"
                )

    @property
    def slack(self) -> NodeId:
        return self.nodes[0]

    @cached_property
    def tree(self) -> TreeInfo:
        """Rooted-tree structure, validated and computed once per feeder
        object on first use.

        Raises RadialityError listing every violation when the graph is not
        a tree rooted at the slack node.
        """
        report = validate_radial(self)
        if not report.ok:
            raise RadialityError(report.violations)
        return tree_structure(self)

    @cached_property
    def load_table(self) -> LoadTable:
        """The loads summed per node and phase (wye) and per node and leg
        (delta), computed once per feeder object on first use."""
        return load_table(self.loads, self.nodes, self.phase_count)

    @property
    def h(self) -> float:
        """Voltage scale 1/V_base; unity for per-unit analysis."""
        return 1.0 / self.v_base

    def slack_phasors(self) -> np.ndarray:
        """Slack voltage per phase (rotated nominals in three-phase mode)."""
        rotations = PHASE_ROTATIONS[: self.phase_count]
        return self.slack_voltage * np.asarray(rotations, dtype=np.complex128)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...] = ()


@dataclass(frozen=True)
class IncidenceModel:
    """Signed incidence matrix of a validated feeder and its slack split.

    ``a`` is m x n with columns ordered as ``nodes``; ``a_s`` is the slack
    column and ``a_m`` the square non-slack block. Branch rows are ordered by
    the position of each branch's child node (the endpoint farther from the
    slack), so ``a_m`` is lower triangular whenever ``nodes`` is topological.
    """

    a: np.ndarray
    a_s: np.ndarray
    a_m: np.ndarray
    branch_order: tuple[str, ...]
    nodes: tuple[NodeId, ...]


@dataclass(frozen=True)
class ReducedImpedance:
    """D = A_M^-1 Z A_M^-T, mapping non-slack current injections to voltage
    deviations from the slack; square of size (n-1) per phase."""

    d: np.ndarray


@dataclass(frozen=True)
class TreeInfo:
    """Rooted-tree structure of a radial feeder, in positions of
    ``feeder.nodes``: the walk order from the slack, each node's parent
    (-1 for the slack) and children, and the branch feeding node k + 1,
    which is incidence row k, with the from/to positions of its stored
    orientation in ``ends`` (shape (m, 2))."""

    order: tuple[int, ...]
    parent: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]
    branches: tuple[Branch, ...]
    ends: np.ndarray


def validate_radial(feeder: Feeder) -> ValidationReport:
    """Check the feeder graph is a tree rooted at the slack node."""
    violations: list[str] = []
    seen: set[NodeId] = set()
    for node in feeder.nodes:
        if node in seen:
            violations.append(f"duplicate node id {node}")
        seen.add(node)
    known = set(feeder.nodes)
    for branch in feeder.branches:
        for endpoint in (branch.from_node, branch.to_node):
            if endpoint not in known:
                violations.append(
                    f"branch {branch.id} references unknown node {endpoint}"
                )
    if violations:
        return ValidationReport(False, tuple(violations))

    n, m = len(feeder.nodes), len(feeder.branches)
    if n != m + 1:
        violations.append(
            f"node count {n} must equal branch count {m} plus one"
        )

    # Union-find over undirected branches: a join inside one component is a
    # cycle; leftover components mean the graph is disconnected.
    root = {node: node for node in feeder.nodes}

    def find(x: NodeId) -> NodeId:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for branch in feeder.branches:
        ra, rb = find(branch.from_node), find(branch.to_node)
        if ra == rb:
            violations.append(
                f"cycle detected through branch {branch.id} "
                f"({branch.from_node}-{branch.to_node})"
            )
        else:
            root[ra] = rb
    slack_root = find(feeder.slack)
    unreachable = [n_ for n_ in feeder.nodes if find(n_) != slack_root]
    if unreachable:
        violations.append(
            "disconnected from slack: " + ", ".join(unreachable)
        )
    return ValidationReport(not violations, tuple(violations))


def tree_structure(feeder: Feeder) -> TreeInfo:
    """Walk order and parent/child positions, rooted at the slack.

    Children are visited in branch declaration order, which makes the order
    deterministic for a given feeder.
    """
    position = {node: i for i, node in enumerate(feeder.nodes)}
    n = len(feeder.nodes)
    adjacency: list[list[tuple[int, Branch]]] = [[] for _ in range(n)]
    for branch in feeder.branches:
        a, b = position[branch.from_node], position[branch.to_node]
        adjacency[a].append((b, branch))
        adjacency[b].append((a, branch))

    order = [0]
    parent = [-1] * n
    feeding: list[Branch | None] = [None] * n
    children: list[list[int]] = [[] for _ in range(n)]
    frontier = 0
    while frontier < len(order):
        node = order[frontier]
        frontier += 1
        for neighbor, branch in adjacency[node]:
            if neighbor == 0 or feeding[neighbor] is not None:
                continue
            parent[neighbor] = node
            feeding[neighbor] = branch
            children[node].append(neighbor)
            order.append(neighbor)
    branches = tuple(feeding[1:])
    ends = np.array(
        [(position[b.from_node], position[b.to_node]) for b in branches],
        dtype=np.intp,
    ).reshape(-1, 2)
    return TreeInfo(
        order=tuple(order),
        parent=tuple(parent),
        children=tuple(tuple(c) for c in children),
        branches=branches,
        ends=ends,
    )


def build_incidence(feeder: Feeder) -> IncidenceModel:
    """Build the oriented incidence matrix and its slack split."""
    tree = feeder.tree
    # Row k holds the branch feeding node k + 1, keeping a_m triangular
    # for topologically ordered nodes.
    m = len(tree.branches)
    a = np.zeros((m, len(feeder.nodes)))
    rows = np.arange(m)
    a[rows, tree.ends[:, 0]] = 1.0
    a[rows, tree.ends[:, 1]] = -1.0
    return IncidenceModel(
        a=a,
        a_s=a[:, 0].copy(),
        a_m=a[:, 1:].copy(),
        branch_order=tuple(branch.id for branch in tree.branches),
        nodes=feeder.nodes,
    )


def impedance_blocks(feeder: Feeder) -> np.ndarray:
    """Per-branch impedances in incidence row order as one (m, p, p) stack,
    checked against the minimum-magnitude tolerance."""
    branches = feeder.tree.branches
    p = feeder.phase_count
    stack = np.asarray(
        [branch.impedance for branch in branches], dtype=np.complex128
    ).reshape(len(branches), p, p)
    if p == 1:
        small = np.abs(stack[:, 0, 0]) < MIN_IMPEDANCE
    else:
        small = np.abs(np.linalg.det(stack)) < MIN_IMPEDANCE**3
    if np.any(small):
        row = int(np.argmax(small))
        if p == 1:
            raise SingularError(
                f"branch {branches[row].id}: impedance magnitude "
                f"{abs(stack[row, 0, 0]):.3e} is below {MIN_IMPEDANCE:g}"
            )
        raise SingularError(
            f"branch {branches[row].id}: impedance matrix is singular"
        )
    return stack


def _block_diagonal(stack: np.ndarray) -> np.ndarray:
    """Dense block-diagonal matrix of an (m, p, p) stack."""
    m, p, _ = stack.shape
    out = np.zeros((m, p, m, p), dtype=np.complex128)
    rows = np.arange(m)
    out[rows, :, rows, :] = stack
    return out.reshape(m * p, m * p)


def phase_expand(matrix: np.ndarray, phase_count: int) -> np.ndarray:
    """Kronecker block extension: each incidence entry becomes a scaled
    identity block of the phase size."""
    if phase_count == 1:
        return matrix.astype(np.complex128)
    return np.kron(matrix, np.eye(phase_count)).astype(np.complex128)


def branch_impedance_matrix(inc: IncidenceModel, feeder: Feeder) -> np.ndarray:
    """Block-diagonal impedance of all branches in incidence row order."""
    return _block_diagonal(impedance_blocks(feeder))


def reduced_impedance(inc: IncidenceModel, feeder: Feeder) -> ReducedImpedance:
    """Compute D = A_M^-1 Z A_M^-T.

    Uses two triangular solves when the non-slack incidence block is lower
    triangular (the topologically ordered case); otherwise a general LU
    solve. The matrix is never inverted explicitly.
    """
    z = branch_impedance_matrix(inc, feeder)
    a_m = phase_expand(inc.a_m, feeder.phase_count)
    if a_m.shape[0] == 0:
        return ReducedImpedance(d=np.zeros((0, 0), dtype=np.complex128))
    if not np.any(np.triu(inc.a_m, 1)):
        half = solve_triangular(a_m, z, lower=True)
        d = solve_triangular(a_m, half.T, lower=True).T
    else:
        half = np.linalg.solve(a_m, z)
        d = np.linalg.solve(a_m, half.T).T
    return ReducedImpedance(d=d)


def ybus(inc: IncidenceModel, feeder: Feeder) -> np.ndarray:
    """Full bus admittance matrix A^T C A with C the branch admittances.

    Rows sum to zero (no shunt elements are modeled); the lower-right block
    is the inverse of the reduced impedance matrix.
    """
    c = _block_diagonal(np.linalg.inv(impedance_blocks(feeder)))
    a = phase_expand(inc.a, feeder.phase_count)
    return a.T @ c @ a
