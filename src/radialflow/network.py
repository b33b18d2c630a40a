"""Radial feeder model and incidence-matrix machinery.

A feeder is a tree rooted at the slack node: n nodes, n - 1 branches. The
oriented incidence matrix A (one row per branch, +1 at the from node, -1 at
the to node) links branch drops to node voltages, and its slack/non-slack
split (A_S, A_M) yields the reduced impedance matrix
D = A_M^-1 Z A_M^-T, the inverse of the slack-reduced bus admittance. Row k
of A_M is the branch feeding node k + 1: A_M = S U, S the orientations
(+-1), U unsigned, and S Z S = Z as Z is block diagonal. So D = U^-1 Z U^-T,
where U^-1 sums down each node's path from the slack and U^-T over its
subtree. ``path_sums`` and ``subtree_sums`` do so in place with one Python
walk per column of a payload, one row per node, over flat (node, parent)
sequences each tree builds once: ``TreeInfo.downward``, parents first in
walk order, and ``upward``, the same walk in reverse. Each converts the
payload to Python lists and back once per call.
``drop_through`` chains them into root - D J, the one tree pass of BFS's
sweep and of linear-full's correction.
``reduced_impedance`` walks ``downward`` too. linear-simple's direct solve
is ``eliminate``, leaves first, and ``substitute``, down from the slack,
one Python walk over ``downward``. Single-phase ``eliminate`` is a scalar
loop over it in reverse, so every pass up the tree adds siblings in the
same order; three-phase ``eliminate`` takes a few numpy steps per level of
heavy chains (``TreeInfo.chains``), O(log depth) of them per level. Either
rejects a pivot I + A_k z_k below ``PIVOT_TOLERANCE`` (1e-9) in magnitude,
at p = 3 in determinant, det X_k / det X_heavy along a chain. So no other
module reads the walk order itself. The bus admittance Y = A^T C A is
scattered from the per-branch admittance blocks, without forming A or any
dense product.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import RadialityError, SingularError
from .loads import (
    LoadTable,
    NodeId,
    ZipLoad,
    load_table,
    rotate_into_phases,
)

#: Impedances with magnitude below this are rejected; the model has no
#: zero-impedance switch representation.
MIN_IMPEDANCE = 1e-9

#: Elimination pivots (p = 3: their determinants) below this are rejected.
PIVOT_TOLERANCE = 1e-9

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
            # Plain Python on the nine entries: a numpy array per branch
            # costs more than the checks themselves.
            try:
                (_, ab, ac), (ba, _, bc), (ca, cb, _) = self.impedance
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"branch {self.id}: matrix impedance must be 3x3"
                ) from exc
            entries = chain.from_iterable(self.impedance)
            if not all(map(cmath.isfinite, entries)):
                raise ValueError(f"branch {self.id}: impedance must be finite")
            try:
                asymmetry = max(abs(ab - ba), abs(ac - ca), abs(bc - cb))
            except OverflowError:  # a finite difference past the float range
                asymmetry = math.inf
            if asymmetry > _MATRIX_SYMMETRY_TOL:
                raise ValueError(
                    f"branch {self.id}: impedance matrix is not symmetric"
                )


@dataclass(frozen=True)
class Feeder:
    """Immutable description of a radial feeder.

    ``nodes`` lists every node with the slack first, in any order;
    parse-produced feeders list them in the tree's walk order (parents
    before children).
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
        if not (cmath.isfinite(v_s) and v_s != 0):
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
    def impedances(self) -> np.ndarray:
        """The branch impedances in incidence row order as one read-only
        (m, p, p) stack, built once per feeder object on first use."""
        branches = self.tree.branches
        p = self.phase_count
        stack = np.asarray(
            [branch.impedance for branch in branches], dtype=np.complex128
        ).reshape(len(branches), p, p)
        stack.flags.writeable = False
        return stack

    @cached_property
    def checked_impedances(self) -> np.ndarray:
        """``impedances``, checked once per feeder object against the
        minimum-magnitude tolerance on first use; a failing check raises
        SingularError, and again on every later use."""
        branches = self.tree.branches
        p = self.phase_count
        stack = self.impedances
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

    @cached_property
    def load_table(self) -> LoadTable:
        """The loads summed per node and phase (wye) and per node and leg
        (delta), with the load factors of their slots at voltage scale
        ``h``, computed once per feeder object on first use."""
        return load_table(self.loads, self.nodes, self.phase_count, self.h)

    @property
    def h(self) -> float:
        """Voltage scale 1/V_base; unity for per-unit analysis."""
        return 1.0 / self.v_base

    def slack_phasors(self) -> np.ndarray:
        """Slack voltage per phase (rotated nominals in three-phase mode)."""
        return rotate_into_phases(self.slack_voltage, self.phase_count)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...] = ()


@dataclass(frozen=True)
class IncidenceModel:
    """Signed incidence matrix of a validated feeder and its slack split.

    ``a`` is a read-only m x n array with columns ordered as ``nodes``;
    ``a_s`` (the slack column) and ``a_m`` (the square non-slack block) are
    views of it. Row k holds the branch feeding node k + 1, so ``a_m`` has
    that branch's orientation (+-1) on its diagonal and the opposite sign in
    the parent's column, whatever the node order.
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
    (-1 for the slack), and the branch feeding node k + 1, which is
    incidence row k, with the from/to positions of its stored orientation
    in ``ends`` (shape (m, 2)). The walks of the kernels and the plan of
    the three-phase ``eliminate`` are built on first use."""

    order: tuple[int, ...]
    parent: tuple[int, ...]
    branches: tuple[Branch, ...]
    ends: np.ndarray

    @cached_property
    def downward(self) -> tuple:
        """The walk of ``path_sums`` and ``substitute`` as flat
        (nodes, parents) tuples, built once per tree: every non-slack node
        in walk order, parents first. The single-phase ``eliminate`` walks
        it in reverse."""
        nodes = self.order[1:]
        return nodes, tuple(map(self.parent.__getitem__, nodes))

    @cached_property
    def upward(self) -> tuple:
        """The walk of ``subtree_sums`` as flat (nodes, parents) tuples,
        built once per tree: ``downward`` in reverse, children before
        parents, less the slack's children, whose sums have nowhere to go."""
        parent = self.parent
        nodes = tuple(k for k in reversed(self.order) if parent[k] > 0)
        return nodes, tuple(map(parent.__getitem__, nodes))

    @cached_property
    def chains(self) -> tuple:
        """The plan of the three-phase ``eliminate``, built once per tree on
        its first use: the tree cut into heavy chains, each node's largest
        child subtree (the first in walk order on a tie) continuing its
        chain and each child of the slack heading one. A node's chain level
        counts the chain heads on its path from the slack.

        Returns (rows, levels). ``rows`` lists the incidence rows (node k
        is row k - 1) in plan order: deepest chain level first, each by
        falling count of chain nodes from the node to its chain's tail,
        ties in walk order. Per chain level, ``levels`` holds its slice of
        plan positions; its scan rounds, for d = 1, 2, 4, ... below its
        longest chain, the slice of its nodes with more than d chain nodes
        below them and the plan positions d chain nodes down from them; and
        its chain heads' plan positions and their parents' (None for the
        slack's children)."""
        nodes, parents = self.downward
        n = len(self.order)
        # Slot n stands for "no child", of size and tail 0.
        size, heavy, tail = [1] * n + [0], [n] * (n + 1), [0] * (n + 1)
        for node, up in zip(reversed(nodes), reversed(parents)):
            tail[node] = tail[heavy[node]] + 1  # chain nodes down to its tail
            if size[node] >= size[heavy[up]]:
                heavy[up] = node
            size[up] += size[node]
        heavy[0] = n  # every child of the slack heads a chain
        level, key = [0] * n, [0] * n
        for node, up in zip(nodes, parents):
            level[node] = depth = level[up] + (heavy[up] != node)
            key[node] = -depth * n - tail[node]
        plan = sorted(nodes, key=key.__getitem__)
        position = [0] * (n + 1)
        for k, node in enumerate(plan):
            position[node] = k
        parent = self.parent
        heads = [
            k for k, node in enumerate(plan) if heavy[parent[node]] != node
        ]
        rakes = np.array(
            [heads, [position[parent[plan[k]]] for k in heads]], dtype=np.intp
        )
        jumps = [
            np.array([position[heavy[node]] for node in plan], dtype=np.intp)
        ]
        while 1 << len(jumps) < max(tail):
            jumps.append(jumps[-1][jumps[-1]])
        levels, stop = [], 0
        for depth in range(level[plan[0]] if plan else 0, 0, -1):
            start = stop
            stop = bisect_left(plan, -depth * n, start, key=key.__getitem__)
            rounds = []
            for jump in jumps:
                active = bisect_left(
                    plan, -depth * n - (1 << len(rounds)), start, stop,
                    key=key.__getitem__,
                )
                if active == start:
                    break
                rounds.append((slice(start, active), jump[start:active]))
            rake = slice(bisect_left(heads, start), bisect_left(heads, stop))
            levels.append((
                slice(start, stop), tuple(rounds),
                rakes[:, rake] if depth > 1 else None,
            ))
        return np.array(plan, dtype=np.intp) - 1, tuple(levels)


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
    """Walk order and parent positions, rooted at the slack.

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
    frontier = 0
    while frontier < len(order):
        node = order[frontier]
        frontier += 1
        for neighbor, branch in adjacency[node]:
            if neighbor == 0 or feeding[neighbor] is not None:
                continue
            parent[neighbor] = node
            feeding[neighbor] = branch
            order.append(neighbor)
    branches = tuple(feeding[1:])
    ends = np.array(
        [(position[b.from_node], position[b.to_node]) for b in branches],
        dtype=np.intp,
    ).reshape(-1, 2)
    return TreeInfo(
        order=tuple(order),
        parent=tuple(parent),
        branches=branches,
        ends=ends,
    )


def in_walk_order(
    feeder: Feeder, impedances: np.ndarray | None = None
) -> Feeder:
    """The feeder with its nodes listed in walk order (slack first, parents
    before children), validated in the declared order.

    The tree is walked once, on ``feeder``; the returned feeder is handed
    that tree relabelled to its own positions, which is what
    ``tree_structure`` would give it, and, when given, ``impedances``: the
    (m, p, p) impedance stack in ``feeder.branches`` order.
    """
    tree = feeder.tree
    ordered = replace(
        feeder, nodes=tuple(feeder.nodes[k] for k in tree.order)
    )
    order = np.asarray(tree.order, dtype=np.intp)
    walk = np.empty_like(order)
    walk[order] = np.arange(order.size)
    # Row k feeds walk node k + 1, which was row order[k + 1] - 1.
    rows = order[1:] - 1
    parent = np.asarray(tree.parent, dtype=np.intp)[order]
    parent[1:] = walk[parent[1:]]
    branches = tuple(tree.branches[row] for row in rows.tolist())
    # Seeding the instance dict is what a cached_property's first use does.
    ordered.__dict__["tree"] = TreeInfo(
        order=tuple(range(order.size)),
        parent=tuple(parent.tolist()),
        branches=branches,
        ends=walk[tree.ends[rows]],
    )
    if impedances is not None:
        row_of = {id(branch): k for k, branch in enumerate(feeder.branches)}
        stack = impedances[[row_of[id(branch)] for branch in branches]]
        stack.flags.writeable = False
        ordered.__dict__["impedances"] = stack
    return ordered


def build_incidence(feeder: Feeder) -> IncidenceModel:
    """Build the oriented incidence matrix and its slack split."""
    tree = feeder.tree
    # Row k holds the branch feeding node k + 1.
    m = len(tree.branches)
    a = np.zeros((m, len(feeder.nodes)))
    rows = np.arange(m)
    a[rows, tree.ends[:, 0]] = 1.0
    a[rows, tree.ends[:, 1]] = -1.0
    a.flags.writeable = False
    return IncidenceModel(
        a=a,
        a_s=a[:, 0],
        a_m=a[:, 1:],
        branch_order=tuple(branch.id for branch in tree.branches),
        nodes=feeder.nodes,
    )


def _block_diagonal(stack: np.ndarray) -> np.ndarray:
    """Dense block-diagonal matrix of an (m, p, p) stack."""
    m, p, _ = stack.shape
    out = np.zeros((m, p, m, p), dtype=np.complex128)
    rows = np.arange(m)
    out[rows, :, rows, :] = stack
    return out.reshape(m * p, m * p)


def branch_impedance_matrix(
    inc: IncidenceModel | None, feeder: Feeder
) -> np.ndarray:
    """Block-diagonal impedance of all branches in incidence row order.

    Read from ``feeder.tree`` alone; ``inc`` is unused and may be None.
    """
    return _block_diagonal(feeder.checked_impedances)


def _walk(
    values: np.ndarray, root, targets: tuple, sources: tuple
) -> np.ndarray:
    """Run x[target] += x[source] over the pairs of ``targets`` and
    ``sources`` in turn, in place on each column of the rows of ``values``,
    with x[k] the column's entry in row k - 1 (node k) and x[0] its entry
    of ``root``, broadcast over the rows' shape. Returns ``values``."""
    m = len(values)
    x = np.empty((m + 1, *values.shape[1:]), dtype=values.dtype)
    x[0] = root
    x[1:] = values
    flat = x.reshape(m + 1, -1)
    columns = flat.T.tolist()
    for column in columns:
        for target, source in zip(targets, sources):
            column[target] += column[source]
    flat.T[...] = columns
    values[...] = x[1:]
    return values


def path_sums(tree: TreeInfo, root, steps: np.ndarray) -> np.ndarray:
    """Down the tree, in place: row k - 1 of ``steps`` (the branch feeding
    node k) becomes ``root`` plus the steps on node k's path from the
    slack, x[k] = x[parent] + steps[k - 1] with x[slack] = root. Returns
    ``steps``. One Python walk per column of the rows over
    ``tree.downward``, parents first."""
    nodes, parents = tree.downward
    return _walk(steps, root, nodes, parents)


def subtree_sums(tree: TreeInfo, values: np.ndarray) -> np.ndarray:
    """Up the tree, in place: row k - 1 of ``values`` (node k) becomes the
    sum of ``values`` over node k's subtree. Returns ``values``. One Python
    walk per column of the rows over ``tree.upward``: each node added into
    its parent after all of its children, siblings in reverse walk order,
    as ``eliminate`` adds them."""
    nodes, parents = tree.upward
    return _walk(values, 0, parents, nodes)


def drop_through(feeder: Feeder, root, draw: np.ndarray) -> np.ndarray:
    """root - D draw, in place on the (m, p) ``draw`` (row k - 1 node k's),
    returned: ``subtree_sums`` of it, each branch's current, times the
    impedances, and ``path_sums`` of the negated drops from ``root``."""
    tree = feeder.tree
    subtree_sums(tree, draw)
    drops = feeder.checked_impedances @ draw[..., np.newaxis]
    np.negative(drops[..., 0], out=draw)
    return path_sums(tree, root, draw)


def eliminate(feeder: Feeder, stack: np.ndarray) -> np.ndarray:
    """Leaves first, in place on the (m, p, p + 1) ``stack``: row k - 1,
    node k's own loads [A_k | B_k], gains its children's eliminated rows and
    becomes [A | B] = (I + A_k z_k)^-1 [A_k | B_k], z_k the impedance
    feeding node k: the subtree's current A x_parent + B. Returns ``stack``.

    A scalar loop over ``tree.downward`` in reverse when p = 1, which adds
    siblings in the order of ``subtree_sums``. Otherwise per chain level
    of ``tree.chains``, deepest first: each node's 7x7 transfer along its
    chain, their suffix products down to the chain's tail in O(log length)
    batched rounds (Hillis-Steele), one batched solve for every node's
    [A | B] and one ``np.add.at`` raking the chain heads into their parents.
    A pivot I + A_k z_k (at p = 3, its determinant) below
    ``PIVOT_TOLERANCE`` in magnitude raises SingularError naming its node,
    the chain level's last in walk order if several are, as the scalar loop
    meets it first. The x blocks of the transfer products obey
    X_k = (I + z_k A_k) X_heavy, so the determinant is det X_k / det X_heavy
    (det X_k at a chain's tail): 0/0, not flagged, above a singular pivot."""
    tree, z = feeder.tree, feeder.checked_impedances
    m, p, _ = stack.shape
    if p == 1:
        a, b = ([0j, *column] for column in stack[:, 0].T.tolist())
        z = [0j, *z.reshape(m).tolist()]
        nodes, parents = tree.downward
        tol = PIVOT_TOLERANCE
        for node, up in zip(reversed(nodes), reversed(parents)):
            pivot = 1.0 + a[node] * z[node]
            # The real part first: abs() overflows past the float range.
            if -tol < pivot.real < tol and abs(pivot) < tol:
                raise _singular_pivot(feeder, node, abs(pivot))
            a[node] /= pivot
            b[node] /= pivot
            a[up] += a[node]
            b[up] += b[node]
        stack[:, 0, 0], stack[:, 0, 1] = a[1:], b[1:]
        return stack
    rows, levels = tree.chains
    work = stack[rows]
    # Node k's transfer (x_k, 1, I_heavy) -> (x_parent, 1, I_k) along its
    # chain, with [C | w] its own loads plus its light children's [A | B]:
    # [[I + z C, z w, z], [0, 1, 0], [C, w, I]].
    t = np.zeros((m, 7, 7), dtype=np.complex128)
    t[:, :3, 4:] = z[rows]
    t.reshape(m, 49)[:, 24::8] = 1.0  # the diagonal from (3, 3) on
    for level, rounds, rake in levels:
        block, transfer = work[level], t[level]
        np.matmul(transfer[:, :3, 4:], block, out=transfer[:, :3, :4])
        transfer.reshape(-1, 49)[:, :17:8] += 1.0  # I + z C
        transfer[:, 4:, :4] = block
        # Suffix products to each chain's tail: T_k <- T_k T_(k + d) for
        # d = 1, 2, 4, ..., k + d the node d chain nodes below k.
        for active, below in rounds:
            np.matmul(t[active], t[below], out=t[active])
        # |det X_k / det X_heavy|; the first round's nodes are the non-tails.
        with np.errstate(all="ignore"):
            det = np.abs(np.linalg.det(transfer[:, :3, :3]))
            if rounds:
                below = rounds[0][1]
                det[: len(below)] /= det[below - level.start]
            flagged = np.flatnonzero(det < PIVOT_TOLERANCE)
        if flagged.size:
            found = dict(zip(rows[level][flagged].tolist(), det[flagged]))
            row = max(found, key=lambda row: tree.order.index(row + 1))
            raise _singular_pivot(feeder, row + 1, found[row])
        # Applied to (x_tail, 1, 0): x_parent = G (x_tail, 1) and
        # I_k = H (x_tail, 1), so [A | B] = H G^-1.
        pivots = transfer[:, :4, :4]
        try:
            block = np.linalg.solve(
                pivots.swapaxes(1, 2), transfer[:, 4:, :4].swapaxes(1, 2)
            ).swapaxes(1, 2)
        except np.linalg.LinAlgError:
            raise SingularError("elimination pivot is singular") from None
        work[level] = block
        if rake is not None:
            heads, parents = rake
            np.add.at(work, parents, work[heads])
    stack[rows] = work
    return stack


def _singular_pivot(feeder: Feeder, node: int, magnitude) -> SingularError:
    return SingularError(
        f"elimination pivot of node {feeder.nodes[node]} has magnitude "
        f"{magnitude:.3e}, below {PIVOT_TOLERANCE:g}"
    )


def substitute(feeder: Feeder, drops: np.ndarray) -> np.ndarray:
    """Down the tree from the slack phasors: the (m, p) voltages, row
    k - 1 node k's x_k = x_parent - ``drops``[k - 1] [x_parent; 1], with
    ``drops`` the impedances times the stack ``eliminate`` leaves. Parents
    first, one Python walk over ``tree.downward`` with node k in slot k and
    the slack in slot 0, each 3x3 product unrolled when p = 3."""
    tree, p = feeder.tree, feeder.phase_count
    slack = feeder.slack_phasors()
    if p == 1:
        gain, offset = ([0j, *row] for row in drops[:, 0].T.tolist())
        x = [complex(slack[0])] * len(gain)
        for node, up in zip(*tree.downward):
            upper = x[up]
            x[node] = upper - (gain[node] * upper + offset[node])
        return np.array(x[1:], dtype=np.complex128).reshape(-1, 1)
    rows = [None, *drops.reshape(-1, 12).tolist()]
    x = [None] * len(rows)
    x[0] = tuple(slack.tolist())
    for node, up in zip(*tree.downward):
        a, b, c = x[up]
        g0, g1, g2, t0, g3, g4, g5, t1, g6, g7, g8, t2 = rows[node]
        x[node] = (
            a - (g0 * a + g1 * b + g2 * c + t0),
            b - (g3 * a + g4 * b + g5 * c + t1),
            c - (g6 * a + g7 * b + g8 * c + t2),
        )
    return np.fromiter(
        chain.from_iterable(x[1:]), dtype=np.complex128, count=3 * len(x) - 3
    ).reshape(-1, 3)


def reduced_impedance(
    inc: IncidenceModel | None, feeder: Feeder
) -> ReducedImpedance:
    """Compute D = A_M^-1 Z A_M^-T.

    A_M = S U with S the branch orientations, and S Z S = Z as Z is block
    diagonal and each s_k^2 = 1: D = U^-1 Z U^-T, two path sums with no
    sign applied, in O(n^2) for any node order. Both walk the tree in
    place on the block-diagonal Z, a numpy step per node, on its rows and
    then on its columns, so D is the only (np)^2 array and is never
    inverted explicitly. U is read from ``feeder.tree``, so ``inc`` is
    unused and may be None.
    """
    tree, p = feeder.tree, feeder.phase_count
    m = len(tree.branches)
    x = branch_impedance_matrix(inc, feeder)
    # Rows of x, then rows of x^T: x = U^-1 Z, then x^T = U^-1 (U^-1 Z)^T.
    # Parents first, each node's row gains its parent's; the slack's
    # children keep theirs.
    for rows in (
        x.reshape(m, p, m * p),
        x.reshape(m * p, m, p).transpose(1, 2, 0),
    ):
        for node, up in zip(*tree.downward):
            if up:
                rows[node - 1] += rows[up - 1]
    return ReducedImpedance(d=x)


def ybus(inc: IncidenceModel, feeder: Feeder) -> np.ndarray:
    """Full bus admittance matrix A^T C A with C the branch admittances.

    Scattered straight from the (m, p, p) admittance stack: branch k with
    ends (f, t) adds y_k to the diagonal blocks (f, f) and (t, t) and puts
    -y_k in (f, t) and (t, f). No dense product is formed, so the cost is
    the O((np)^2) zero fill plus O(m p^2), and the output is the only
    (np)^2 allocation. Rows sum to zero (no shunt elements are modeled);
    the lower-right block is the inverse of the reduced impedance matrix.
    Raises ValueError when ``inc`` was built for another node list.
    """
    if inc.nodes != feeder.nodes:
        raise ValueError("incidence model belongs to a different feeder")
    n, p = len(feeder.nodes), feeder.phase_count
    y = np.linalg.inv(feeder.checked_impedances)
    ends = feeder.tree.ends
    # Each node's diagonal block sums its branches in incidence row order.
    diagonal = np.zeros((n, p, p), dtype=np.complex128)
    np.add.at(diagonal, ends.ravel(), np.repeat(y, 2, axis=0))
    out = np.zeros((n, p, n, p), dtype=np.complex128)
    nodes = np.arange(n)
    out[nodes, :, nodes, :] = diagonal
    f, t = ends.T
    out[f, :, t, :] = out[t, :, f, :] = -y
    return out.reshape(n * p, n * p)
