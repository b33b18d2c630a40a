"""Radial feeder model and incidence-matrix machinery.

A feeder is a tree rooted at the slack node: n nodes, n - 1 branches. The
oriented incidence matrix A (one row per branch, +1 at the from node, -1 at
the to node) links branch drops to node voltages, and its slack/non-slack
split (A_S, A_M) yields the reduced impedance matrix
D = A_M^-1 Z A_M^-T, the inverse of the slack-reduced bus admittance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import block_diag, solve_triangular

from .errors import RadialityError, SingularError
from .loads import NodeId, ZipLoad

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
        if isinstance(self.impedance, tuple):
            z = np.asarray(self.impedance, dtype=np.complex128)
            if z.shape != (3, 3):
                raise ValueError(
                    f"branch {self.id}: matrix impedance must be 3x3"
                )
            if np.max(np.abs(z - z.T)) > _MATRIX_SYMMETRY_TOL:
                raise ValueError(
                    f"branch {self.id}: impedance matrix is not symmetric"
                )

    def matrix(self) -> np.ndarray:
        """Impedance as a 3x3 array (scalar branches are not expanded)."""
        return np.asarray(self.impedance, dtype=np.complex128)


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
        if self.phase_count not in (1, 3):
            raise ValueError("phase_count must be 1 or 3")
        if not self.nodes:
            raise ValueError("feeder needs at least the slack node")
        if abs(self.slack_voltage) <= 0:
            raise ValueError("slack voltage magnitude must be positive")
        if self.v_base <= 0 or self.s_base <= 0:
            raise ValueError("v_base and s_base must be positive")
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

    @property
    def h(self) -> float:
        """Voltage scale 1/V_base; unity for per-unit analysis."""
        return 1.0 / self.v_base

    def slack_phasors(self) -> np.ndarray:
        """Slack voltage per phase (rotated nominals in three-phase mode)."""
        from .loads import PHASE_ROTATIONS

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
    """Rooted-tree structure of a radial feeder: topological node order,
    parent of each non-slack node, and the branch feeding each node."""

    order: tuple[NodeId, ...]
    parent: dict[NodeId, NodeId]
    branch_for: dict[NodeId, Branch]
    children: dict[NodeId, tuple[NodeId, ...]]


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
    """Topological order and parent/child maps, rooted at the slack.

    Children are visited in branch declaration order, which makes the order
    deterministic for a given feeder.
    """
    adjacency: dict[NodeId, list[tuple[NodeId, Branch]]] = {
        node: [] for node in feeder.nodes
    }
    for branch in feeder.branches:
        adjacency[branch.from_node].append((branch.to_node, branch))
        adjacency[branch.to_node].append((branch.from_node, branch))

    order = [feeder.slack]
    parent: dict[NodeId, NodeId] = {}
    branch_for: dict[NodeId, Branch] = {}
    children: dict[NodeId, list[NodeId]] = {node: [] for node in feeder.nodes}
    visited = {feeder.slack}
    frontier = 0
    while frontier < len(order):
        node = order[frontier]
        frontier += 1
        for neighbor, branch in adjacency[node]:
            if neighbor in visited:
                continue
            visited.add(neighbor)
            parent[neighbor] = node
            branch_for[neighbor] = branch
            children[node].append(neighbor)
            order.append(neighbor)
    return TreeInfo(
        order=tuple(order),
        parent=parent,
        branch_for=branch_for,
        children={k: tuple(v) for k, v in children.items()},
    )


def build_incidence(feeder: Feeder) -> IncidenceModel:
    """Build the oriented incidence matrix and its slack split."""
    tree = feeder.tree
    position = {node: i for i, node in enumerate(feeder.nodes)}
    # Row i holds the branch feeding the (i+1)-th node of the feeder,
    # keeping a_m triangular for topologically ordered nodes.
    ordered = [tree.branch_for[node] for node in feeder.nodes[1:]]
    n, m = len(feeder.nodes), len(feeder.branches)
    a = np.zeros((m, n))
    for row, branch in enumerate(ordered):
        a[row, position[branch.from_node]] = 1.0
        a[row, position[branch.to_node]] = -1.0
    return IncidenceModel(
        a=a,
        a_s=a[:, 0].copy(),
        a_m=a[:, 1:].copy(),
        branch_order=tuple(branch.id for branch in ordered),
        nodes=feeder.nodes,
    )


def branch_by_id(feeder: Feeder) -> dict[str, Branch]:
    return {branch.id: branch for branch in feeder.branches}


def impedance_blocks(inc: IncidenceModel, feeder: Feeder) -> list[np.ndarray]:
    """Per-branch impedances in incidence row order, checked against the
    minimum-magnitude tolerance; 1x1 arrays in single-phase mode."""
    by_id = branch_by_id(feeder)
    blocks = []
    for branch_id in inc.branch_order:
        branch = by_id[branch_id]
        if feeder.phase_count == 1:
            z = complex(branch.impedance)
            if abs(z) < MIN_IMPEDANCE:
                raise SingularError(
                    f"branch {branch_id}: impedance magnitude {abs(z):.3e} "
                    f"is below {MIN_IMPEDANCE:g}"
                )
            blocks.append(np.array([[z]], dtype=np.complex128))
        else:
            z = branch.matrix()
            if abs(np.linalg.det(z)) < MIN_IMPEDANCE**3:
                raise SingularError(
                    f"branch {branch_id}: impedance matrix is singular"
                )
            blocks.append(z)
    return blocks


def phase_expand(matrix: np.ndarray, phase_count: int) -> np.ndarray:
    """Kronecker block extension: each incidence entry becomes a scaled
    identity block of the phase size."""
    if phase_count == 1:
        return matrix.astype(np.complex128)
    return np.kron(matrix, np.eye(phase_count)).astype(np.complex128)


def branch_impedance_matrix(inc: IncidenceModel, feeder: Feeder) -> np.ndarray:
    """Block-diagonal impedance of all branches in incidence row order."""
    blocks = impedance_blocks(inc, feeder)
    if not blocks:
        return np.zeros((0, 0), dtype=np.complex128)
    return block_diag(*blocks).astype(np.complex128)


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
    blocks = impedance_blocks(inc, feeder)
    inverses = [np.linalg.inv(block) for block in blocks]
    c = (
        block_diag(*inverses).astype(np.complex128)
        if inverses
        else np.zeros((0, 0), dtype=np.complex128)
    )
    a = phase_expand(inc.a, feeder.phase_count)
    return a.T @ c @ a
