import ast
import collections
import dataclasses
import itertools
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import radialflow.network
from radialflow import (
    BfsOptions,
    Branch,
    Feeder,
    RadialityError,
    SingularError,
    ZipLoad,
    build_incidence,
    parse_feeder,
    reduced_impedance,
    solve_bfs,
    validate_radial,
    ybus,
)
from radialflow.network import (
    TreeInfo,
    branch_impedance_matrix,
    drop_through,
    eliminate,
    in_walk_order,
    path_sums,
    substitute,
    subtree_sums,
)
from helpers import (
    brute_force_reduced_impedance,
    chain_feeder,
    dense_ybus,
    level_eliminate,
    level_path_sums,
    level_substitute,
    level_subtree_sums,
    perfbench_gen,
    random_radial_feeder,
    shuffled,
    two_bus_feeder,
)


def make_feeder(nodes, branches, phase_count=1, v_s=1.0 + 0j):
    return Feeder(
        name="t",
        phase_count=phase_count,
        nodes=tuple(nodes),
        slack_voltage=v_s,
        branches=tuple(branches),
    )


class TestValidateRadial:
    def test_smallest_tree_ok(self):
        report = validate_radial(two_bus_feeder())
        assert report.ok
        assert report.violations == ()

    def test_cycle_detected(self):
        feeder = make_feeder(
            ["1", "2", "3"],
            [
                Branch("b1", "1", "2", 0.01 + 0.01j),
                Branch("b2", "2", "3", 0.01 + 0.01j),
                Branch("b3", "3", "1", 0.01 + 0.01j),
            ],
        )
        report = validate_radial(feeder)
        assert not report.ok
        assert any("cycle" in v for v in report.violations)
        # m = n also breaks the node/branch count relation
        assert any("plus one" in v for v in report.violations)

    def test_disconnected_forest(self):
        feeder = make_feeder(
            ["1", "2", "3", "4"],
            [
                Branch("b1", "1", "2", 0.01 + 0.01j),
                Branch("b2", "3", "4", 0.01 + 0.01j),
            ],
        )
        report = validate_radial(feeder)
        assert not report.ok
        assert any("disconnected" in v for v in report.violations)

    def test_unknown_node_reference(self):
        feeder = make_feeder(
            ["1", "2"], [Branch("b1", "1", "99", 0.01 + 0.01j)]
        )
        report = validate_radial(feeder)
        assert not report.ok
        assert any("99" in v for v in report.violations)


class TestBuildIncidence:
    def test_single_branch(self):
        inc = build_incidence(two_bus_feeder())
        assert np.array_equal(inc.a, [[1.0, -1.0]])
        assert np.array_equal(inc.a_s, [1.0])
        assert np.array_equal(inc.a_m, [[-1.0]])
        assert inc.branch_order == ("b1",)
        assert np.shares_memory(inc.a_m, inc.a)
        assert np.shares_memory(inc.a_s, inc.a)
        assert not inc.a.flags.writeable

    def test_three_node_chain(self):
        feeder = chain_feeder(3, 0.01 + 0.01j)
        inc = build_incidence(feeder)
        assert np.array_equal(inc.a_m, [[-1.0, 0.0], [1.0, -1.0]])

    def test_slack_split_identity(self):
        # A_M^-1 A_S is a column of exact -1 entries for any radial feeder.
        rng = np.random.default_rng(42)
        for _ in range(25):
            feeder = random_radial_feeder(rng, int(rng.integers(2, 30)))
            inc = build_incidence(feeder)
            x = np.linalg.solve(inc.a_m, inc.a_s)
            assert np.all(x == -1.0)

    def test_rejects_invalid_feeder(self):
        feeder = make_feeder(
            ["1", "2", "3", "4"],
            [
                Branch("b1", "1", "2", 0.01 + 0.01j),
                Branch("b2", "3", "4", 0.01 + 0.01j),
            ],
        )
        with pytest.raises(RadialityError):
            build_incidence(feeder)


class TestReducedImpedance:
    def test_two_bus_value(self):
        feeder = two_bus_feeder(z=0.01 + 0.02j)
        red = reduced_impedance(build_incidence(feeder), feeder)
        assert np.allclose(red.d, [[0.01 + 0.02j]])

    def test_three_node_chain_closed_form(self):
        r = 0.02 + 0.0j
        feeder = chain_feeder(3, r)
        red = reduced_impedance(build_incidence(feeder), feeder)
        assert np.allclose(red.d, [[r, r], [r, 2 * r]], atol=1e-14)

    def test_matches_brute_force_inversion(self):
        # Both phase counts, in declared and in shuffled node order with
        # reversed branches.
        rng = np.random.default_rng(3)
        for phase_count, shuffle in itertools.product((1, 3), (False, True)):
            for _ in range(10):
                feeder = random_radial_feeder(
                    rng, int(rng.integers(2, 20)), phase_count=phase_count
                )
                if shuffle:
                    feeder = shuffled(rng, feeder)
                inc = build_incidence(feeder)
                red = reduced_impedance(inc, feeder)
                # branch rows follow incidence order, rebuild accordingly
                by_id = {b.id: b.impedance for b in feeder.branches}
                size = len(inc.branch_order) * phase_count
                z = np.zeros((size, size), dtype=complex)
                for k, bid in enumerate(inc.branch_order):
                    block = slice(k * phase_count, (k + 1) * phase_count)
                    z[block, block] = by_id[bid]
                a_m = np.kron(inc.a_m, np.eye(phase_count))
                expected = brute_force_reduced_impedance(a_m, z)
                assert np.allclose(red.d, expected, rtol=0, atol=1e-12)
                # The solvers' matrix products round differently on an
                # F-ordered D, which would move the voltages' last bits.
                assert red.d.flags.c_contiguous

    def test_inverse_identity(self):
        rng = np.random.default_rng(4)
        feeder = random_radial_feeder(rng, 20)
        inc = build_incidence(feeder)
        red = reduced_impedance(inc, feeder)
        by_id = {b.id: complex(b.impedance) for b in feeder.branches}
        z_inv = np.diag([1 / by_id[bid] for bid in inc.branch_order])
        lhs = (inc.a_m.T @ z_inv @ inc.a_m) @ red.d
        assert np.allclose(lhs, np.eye(red.d.shape[0]), atol=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for phase_count in (1, 3):
            feeder = random_radial_feeder(rng, 12, phase_count=phase_count)
            red = reduced_impedance(build_incidence(feeder), feeder)
            assert np.allclose(red.d, red.d.T, atol=1e-10)

    def test_tiny_impedance_rejected(self):
        feeder = two_bus_feeder(z=1e-10 + 0j)
        with pytest.raises(SingularError):
            reduced_impedance(build_incidence(feeder), feeder)

    @pytest.mark.parametrize("phase_count", [1, 3])
    def test_branch_orientation_does_not_change_d(self, phase_count):
        # The orientations cancel in D = A_M^-1 Z A_M^-T: reversing every
        # branch gives the same matrix to the last bit.
        rng = np.random.default_rng(70 + phase_count)
        for _ in range(10):
            feeder = random_radial_feeder(
                rng, int(rng.integers(2, 30)), phase_count
            )
            reversed_ = replace(feeder, branches=tuple(
                replace(b, from_node=b.to_node, to_node=b.from_node)
                for b in feeder.branches
            ))
            d = reduced_impedance(None, feeder).d
            assert np.array_equal(reduced_impedance(None, reversed_).d, d)

    @pytest.mark.parametrize("n, phase_count", [(400, 1), (120, 3)])
    def test_peak_memory_is_about_the_output(self, n, phase_count):
        # Both passes run in place on Z, which becomes D.
        gen = perfbench_gen()
        doc = gen.feeder_doc(18, n, phase_count, 0.92)
        feeder = parse_feeder(gen.dumps(doc))
        tracemalloc.start()
        try:
            d = reduced_impedance(None, feeder).d
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.flags.c_contiguous
        assert peak <= 1.25 * d.nbytes

    def test_non_topological_node_order_still_correct(self):
        # Parsing lists parents before children, but directly built
        # feeders may not; the substitution follows the tree, not the
        # node order, and must agree with explicit inversion.
        feeder = make_feeder(
            ["1", "3", "2"],
            [
                Branch("b1", "1", "2", 0.01 + 0.02j),
                Branch("b2", "2", "3", 0.03 + 0.01j),
            ],
        )
        inc = build_incidence(feeder)
        by_id = {b.id: complex(b.impedance) for b in feeder.branches}
        z = np.diag([by_id[bid] for bid in inc.branch_order])
        expected = brute_force_reduced_impedance(inc.a_m, z)
        red = reduced_impedance(inc, feeder)
        assert np.allclose(red.d, expected, atol=1e-13)


def _path_oracle(parent, root, steps):
    """For node k, row k - 1: root plus the steps of every branch on the
    node's path from the slack, climbing the parent links node by node."""
    x = np.empty_like(steps)
    for k in range(1, len(parent)):
        x[k - 1] = root
        node = k
        while node != 0:
            x[k - 1] += steps[node - 1]
            node = parent[node]
    return x


def _subtree_oracle(parent, values):
    """For node k, row k - 1: each non-slack node's value added to its own
    row and to the rows of its non-slack ancestors."""
    x = np.zeros_like(values)
    for k in range(1, len(parent)):
        node = k
        while node != 0:
            x[node - 1] += values[k - 1]
            node = parent[node]
    return x


def _integer_valued(rng, shape):
    # Small integers add exactly in any order, so the kernels must match
    # the oracles bit for bit.
    return rng.integers(-9, 10, shape) + 1j * rng.integers(-9, 10, shape)


class TestTreeKernels:
    def _feeders(self, phase_count):
        rng = np.random.default_rng(90 + phase_count)
        for _ in range(12):
            feeder = random_radial_feeder(
                rng, int(rng.integers(2, 40)), phase_count
            )
            yield feeder
            yield shuffled(rng, feeder)
            yield shuffled(rng, feeder, flip=1.0)
        gen = perfbench_gen()
        doc = gen.feeder_doc(5, 60, phase_count, 0.93)
        yield parse_feeder(gen.dumps(doc))
        yield make_feeder(["1"], [], phase_count)

    @pytest.mark.parametrize("phase_count", [1, 3])
    def test_path_sums_match_the_path_oracle(self, phase_count):
        rng = np.random.default_rng(phase_count)
        for feeder in self._feeders(phase_count):
            m, tree = len(feeder.nodes) - 1, feeder.tree
            for trailing in ((phase_count,), (phase_count, 4)):
                root = _integer_valued(rng, trailing)
                steps = _integer_valued(rng, (m, *trailing))
                expected = _path_oracle(tree.parent, root, steps)
                assert path_sums(tree, root, steps) is steps
                assert np.array_equal(steps, expected)

    @pytest.mark.parametrize("phase_count", [1, 3])
    def test_subtree_sums_match_the_subtree_oracle(self, phase_count):
        rng = np.random.default_rng(10 + phase_count)
        for feeder in self._feeders(phase_count):
            m, tree = len(feeder.nodes) - 1, feeder.tree
            values = _integer_valued(rng, (m, phase_count))
            expected = _subtree_oracle(tree.parent, values)
            assert subtree_sums(tree, values) is values
            assert np.array_equal(values, expected)


def _spread_complex(rng, shape):
    # Magnitudes over six decades: the sums round, so a change in the
    # order of additions shows in the last bits.
    scale = 10.0 ** rng.uniform(-3, 3, shape)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


class TestWalkKernels:
    """``path_sums`` on (m, p) payloads and ``subtree_sums`` on any payload
    walk the tree in Python; they must add in the order of the per-level
    numpy oracles, bit for bit."""

    def _feeders(self, phase_count):
        rng = np.random.default_rng(30 + phase_count)
        for _ in range(6):
            feeder = random_radial_feeder(
                rng, int(rng.integers(2, 200)), phase_count, profile="zip"
            )
            yield in_walk_order(feeder)
            yield shuffled(rng, feeder)
            yield shuffled(rng, feeder, flip=1.0)
        chain = [(k - 1, k) for k in range(1, 2000)]
        yield random_radial_feeder(rng, 2000, phase_count, edges=chain)
        star = [(0, k) for k in range(1, 200)]
        yield random_radial_feeder(rng, 200, phase_count, edges=star)

    @pytest.mark.parametrize("phase_count", [1, 3])
    def test_kernels_add_in_the_per_level_order(self, phase_count):
        rng = np.random.default_rng(40 + phase_count)
        for feeder in self._feeders(phase_count):
            m, tree = len(feeder.nodes) - 1, feeder.tree
            for trailing in ((phase_count,), (phase_count, 4)):
                root = _spread_complex(rng, trailing)
                steps = _spread_complex(rng, (m, *trailing))
                expected = level_path_sums(tree, root, steps.copy())
                assert path_sums(tree, root, steps) is steps
                assert np.array_equal(steps, expected)
                values = _spread_complex(rng, (m, *trailing))
                expected = level_subtree_sums(tree, values.copy())
                assert subtree_sums(tree, values) is values
                assert np.array_equal(values, expected)
            # A strided payload, whose rows cannot be reshaped as a view.
            values = _spread_complex(rng, (m, 4, phase_count))
            values = values.transpose(0, 2, 1)
            expected = level_subtree_sums(tree, values.copy())
            assert subtree_sums(tree, values) is values
            assert np.array_equal(values, expected)
            # A scalar root, as the assembly of the linear system passes.
            steps = _spread_complex(rng, (m, phase_count))
            expected = level_path_sums(tree, 0.0, steps.copy())
            assert np.array_equal(path_sums(tree, 0.0, steps), expected)

    def test_one_order_up_the_tree(self):
        # With A = 0 every pivot is 1, so the single-phase ``eliminate``
        # leaves the subtree sums of B, added in its own order.
        assert [field.name for field in dataclasses.fields(TreeInfo)] == [
            "order", "parent", "branches", "ends",
        ]
        rng = np.random.default_rng(45)
        for feeder in self._feeders(1):
            m = len(feeder.nodes) - 1
            stack = np.zeros((m, 1, 2), dtype=np.complex128)
            stack[:, 0, 1] = _spread_complex(rng, m)
            expected = subtree_sums(feeder.tree, stack[:, :, 1].copy())
            eliminate(feeder, stack)
            assert np.array_equal(stack[:, :, 1], expected)

    @pytest.mark.parametrize("phase_count", [1, 3])
    def test_bfs_matches_the_per_level_kernels(self, phase_count, monkeypatch):
        opts = BfsOptions(tolerance=1e-10)
        calls = collections.Counter()

        def counted(oracle):
            def call(*args):
                calls[oracle.__name__] += 1
                return oracle(*args)
            return call

        for feeder in self._feeders(phase_count):
            sol = solve_bfs(feeder, opts)
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(
                    radialflow.network, "path_sums", counted(level_path_sums)
                )
                patch.setattr(
                    radialflow.network,
                    "subtree_sums",
                    counted(level_subtree_sums),
                )
                expected = solve_bfs(feeder, opts)
            # The sweep ran on the oracles, not on the kernels themselves.
            assert calls["level_path_sums"] == expected.iterations
            assert calls["level_subtree_sums"] == expected.iterations
            assert sol.iterations == expected.iterations
            assert np.array_equal(sol.voltages, expected.voltages)

    @pytest.mark.parametrize("phase_count", [1, 3])
    def test_reduced_impedance_matches_the_per_level_passes(
        self, phase_count
    ):
        rng = np.random.default_rng(50 + phase_count)
        p = phase_count
        feeders = [
            random_radial_feeder(rng, int(rng.integers(2, 60)), p)
            for _ in range(4)
        ]
        feeders += [shuffled(rng, f, flip=0.5) for f in feeders]
        feeders.append(random_radial_feeder(
            rng, 120, p, edges=[(k - 1, k) for k in range(1, 120)]
        ))
        feeders.append(random_radial_feeder(
            rng, 40, p, edges=[(0, k) for k in range(1, 40)]
        ))
        for feeder in feeders:
            m, tree = len(feeder.nodes) - 1, feeder.tree
            x = branch_impedance_matrix(None, feeder)
            level_path_sums(tree, 0.0, x.reshape(m, p, m * p))
            level_path_sums(
                tree, 0.0, x.reshape(m * p, m, p).transpose(1, 2, 0)
            )
            assert np.array_equal(reduced_impedance(None, feeder).d, x)

    def test_single_phase_solves_build_no_chain_plan(self):
        rng = np.random.default_rng(55)
        feeder = shuffled(rng, random_radial_feeder(rng, 40, profile="zip"))
        for method in ("linear-simple", "linear-full", "bfs"):
            sol = radialflow.solve(feeder, method)
            radialflow.summarize(sol, None, feeder)
            radialflow.residual(feeder, sol)
        assert "chains" not in vars(feeder.tree)

    def test_only_network_reads_the_walk_order(self):
        # The walk order is a decision of ``network``: no other module of
        # the package reads a tree's walk, parents, depth levels or chains.
        walk = {
            "schedule", "chains", "downward", "upward", "order", "parent",
            "levels",
        }
        package = Path(radialflow.__file__).parent
        readers = [
            f"{path.name}:{node.lineno} .{node.attr}"
            for path in sorted(package.glob("*.py"))
            if path.name != "network.py"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr in walk
        ]
        assert readers == []


class TestDropThrough:
    """``drop_through`` is root - D draw on the tree, D the reduced
    impedance."""

    def _feeders(self, phase_count):
        rng = np.random.default_rng(60 + phase_count)
        for _ in range(4):
            feeder = random_radial_feeder(
                rng, int(rng.integers(2, 60)), phase_count, profile="zip"
            )
            yield in_walk_order(feeder)
            yield shuffled(rng, feeder, flip=0.5)
        chain = [(k - 1, k) for k in range(1, 2000)]
        yield random_radial_feeder(rng, 2000, phase_count, edges=chain)
        star = [(0, k) for k in range(1, 200)]
        yield random_radial_feeder(rng, 200, phase_count, edges=star)

    @staticmethod
    def _d_times(feeder, draw):
        """D draw, with D from ``reduced_impedance``; past 2000 unknowns,
        where the 3-phase chain's D would take 576 MB, as
        A_M^-1 Z A_M^-T draw with A_M inverted explicitly."""
        m, p = draw.shape
        if m * p <= 2000:
            d = reduced_impedance(None, feeder).d
            return (d @ draw.reshape(-1)).reshape(m, p)
        a_inv = np.linalg.inv(build_incidence(feeder).a_m)
        currents = (a_inv.T @ draw)[..., np.newaxis]
        return a_inv @ (feeder.checked_impedances @ currents)[..., 0]

    @pytest.mark.parametrize("phase_count", [1, 3])
    def test_matches_the_dense_reduced_impedance(self, phase_count):
        rng = np.random.default_rng(70 + phase_count)
        for feeder in self._feeders(phase_count):
            m = len(feeder.nodes) - 1
            root = _spread_complex(rng, (phase_count,))
            draw = _spread_complex(rng, (m, phase_count))
            dense = self._d_times(feeder, draw)
            assert drop_through(feeder, root, draw) is draw
            scale = max(np.max(np.abs(dense)), np.max(np.abs(root)))
            assert np.max(np.abs(draw - (root - dense))) <= 1e-12 * scale


class TestEliminationKernels:
    """The three-phase ``eliminate`` (suffix scans along heavy chains) and
    ``substitute`` (one Python walk) against the per-depth-level oracles
    they replace."""

    @settings(max_examples=80)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 80),
        # Up to where BFS stops converging on about a quarter of them.
        z_scale=st.floats(1.0, 300.0),
        shuffle=st.booleans(),
    )
    def test_kernels_match_the_per_level_oracles(
        self, seed, n, z_scale, shuffle
    ):
        rng = np.random.default_rng(seed)
        feeder = random_radial_feeder(
            rng, n, 3, profile="zip", delta_fraction=0.4, z_scale=z_scale
        )
        if shuffle:
            feeder = shuffled(rng, feeder)
        seeds = []

        def recording(model_feeder, stack):
            seeds.append(stack.copy())
            return eliminate(model_feeder, stack)

        with mock.patch.object(radialflow.linsolve, "eliminate", recording):
            model = radialflow.assemble(feeder)
        stack = eliminate(feeder, seeds[0].copy())
        expected = level_eliminate(feeder, seeds[0].copy())
        assert np.max(np.abs(stack - expected)) <= 1e-13 * np.max(
            np.abs(expected)
        )
        x = substitute(feeder, model.drops)
        expected = level_substitute(feeder, model.drops)
        # The oracle's batched matvec may fuse multiply-adds, which Python
        # arithmetic does not: a few units in the last place apart.
        assert np.max(np.abs(x - expected)) <= 1e-15 * np.max(
            np.abs(expected)
        )


class TestYbus:
    def test_two_bus_closed_form(self):
        z = 0.01 + 0.02j
        feeder = two_bus_feeder(z=z)
        y = ybus(build_incidence(feeder), feeder)
        assert np.allclose(y, [[1 / z, -1 / z], [-1 / z, 1 / z]])

    def test_symmetric_and_rows_sum_to_zero(self):
        rng = np.random.default_rng(6)
        for phase_count in (1, 3):
            feeder = random_radial_feeder(rng, 15, phase_count=phase_count)
            y = ybus(build_incidence(feeder), feeder)
            assert np.allclose(y, y.T, atol=1e-12)
            assert np.max(np.abs(y.sum(axis=1))) < 1e-12 * np.max(np.abs(y))

    def test_reduced_block_inverts_d(self):
        feeder = chain_feeder(3, 0.015 + 0.025j)
        inc = build_incidence(feeder)
        y = ybus(inc, feeder)
        red = reduced_impedance(inc, feeder)
        assert np.allclose(y[1:, 1:] @ red.d, np.eye(2), atol=1e-10)


    @staticmethod
    def assert_matches_oracle(feeder):
        inc = build_incidence(feeder)
        y = ybus(inc, feeder)
        expected = dense_ybus(inc, feeder)
        assert y.flags.c_contiguous
        assert y.shape == expected.shape
        scale = np.max(np.abs(expected), initial=0.0)
        assert np.max(np.abs(y - expected), initial=0.0) <= 1e-13 * scale

    @pytest.mark.parametrize("phase_count", [1, 3])
    def test_matches_dense_oracle(self, phase_count):
        rng = np.random.default_rng(60 + phase_count)
        for n in (2, 3, 9, 40):
            feeder = random_radial_feeder(rng, n, phase_count=phase_count)
            self.assert_matches_oracle(feeder)
            # Reversed branches and a non-topological node order.
            self.assert_matches_oracle(shuffled(rng, feeder, flip=0.5))

    @pytest.mark.parametrize("phase_count", [1, 3])
    def test_star_feeder_matches_dense_oracle(self, phase_count):
        # Five branches meet at the slack; every other node is a leaf.
        rng = np.random.default_rng(70)
        z = 0.01 + 0.02j
        nodes = [str(i) for i in range(6)]
        branches = []
        for i in range(1, 6):
            zi = z * rng.uniform(0.5, 2.0)
            if phase_count == 3:
                zi = tuple(
                    tuple(zi if r == c else 0.3 * zi for c in range(3))
                    for r in range(3)
                )
            ends = ("0", nodes[i]) if i % 2 else (nodes[i], "0")
            branches.append(Branch(f"b{i}", *ends, zi))
        self.assert_matches_oracle(make_feeder(nodes, branches, phase_count))

    @pytest.mark.parametrize("phase_count", [1, 3])
    def test_single_node_feeder_is_zero_block(self, phase_count):
        feeder = make_feeder(["1"], [], phase_count)
        y = ybus(build_incidence(feeder), feeder)
        assert y.shape == (phase_count, phase_count)
        assert not y.any()
        self.assert_matches_oracle(feeder)

    def test_rejects_incidence_of_another_feeder(self):
        rng = np.random.default_rng(71)
        feeder = random_radial_feeder(rng, 8)
        other = random_radial_feeder(rng, 9)
        with pytest.raises(ValueError, match="different feeder"):
            ybus(build_incidence(other), feeder)
        reordered = shuffled(rng, feeder, flip=0.0)
        with pytest.raises(ValueError, match="different feeder"):
            ybus(build_incidence(reordered), feeder)

    @pytest.mark.parametrize("n, phase_count", [(400, 1), (120, 3)])
    def test_peak_memory_is_about_the_output(self, n, phase_count):
        # The scatter allocates nothing else of the output's size; the dense
        # product A^T C A peaks at about four times it.
        gen = perfbench_gen()
        doc = gen.feeder_doc(17, n, phase_count, 0.92)
        feeder = parse_feeder(gen.dumps(doc))
        inc = build_incidence(feeder)
        tracemalloc.start()
        try:
            y = ybus(inc, feeder)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * y.nbytes


def test_branch_flow_reconstruction():
    # e = AV and I = A^T Z^-1 e reproduce Y V for arbitrary voltages.
    rng = np.random.default_rng(7)
    feeder = random_radial_feeder(rng, 18)
    inc = build_incidence(feeder)
    y = ybus(inc, feeder)
    v = rng.normal(size=18) + 1j * rng.normal(size=18)
    by_id = {b.id: complex(b.impedance) for b in feeder.branches}
    z_inv = np.diag([1 / by_id[bid] for bid in inc.branch_order])
    drops = inc.a @ v
    currents = z_inv @ drops
    assert np.allclose(inc.a.T @ currents, y @ v, atol=1e-12)


def test_ymm_d_identity_property_suite():
    # Y_MM D = I over at least 100 random trees up to 50 nodes.
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(2, 51))
        feeder = random_radial_feeder(rng, n)
        inc = build_incidence(feeder)
        y = ybus(inc, feeder)
        red = reduced_impedance(inc, feeder)
        identity = y[1:, 1:] @ red.d
        assert np.max(np.abs(identity - np.eye(n - 1))) < 1e-10


_TWO_NODES = dict(
    name="t",
    phase_count=1,
    nodes=("1", "2"),
    slack_voltage=1.0 + 0j,
    branches=(Branch("b1", "1", "2", 0.01 + 0.01j),),
)


class TestFeederConstruction:
    def test_phase_count_guard(self):
        with pytest.raises(ValueError):
            make_feeder(["1"], [], phase_count=2)

    def test_zero_slack_voltage_rejected(self):
        with pytest.raises(ValueError):
            make_feeder(["1"], [], v_s=0j)

    def test_slack_beyond_the_float_range_of_its_magnitude_is_accepted(self):
        # |1.7e308 + 1.7e308j| overflows a float; the phasor is still
        # finite and nonzero.
        huge = complex(1.7e308, 1.7e308)
        assert make_feeder(["1"], [], v_s=huge).slack_voltage == huge

    def test_matrix_impedance_on_single_phase_rejected(self):
        zmat = tuple(
            tuple(0.01 + 0.01j if i == j else 0j for j in range(3))
            for i in range(3)
        )
        with pytest.raises(ValueError):
            make_feeder(["1", "2"], [Branch("b1", "1", "2", zmat)])

    def test_asymmetric_matrix_rejected(self):
        rows = [[0.01 + 0.01j] * 3 for _ in range(3)]
        rows[0][1] = 0.002 + 0.001j
        with pytest.raises(ValueError):
            Branch("b1", "1", "2", tuple(tuple(r) for r in rows))

    @pytest.mark.parametrize(
        "impedance",
        [
            ((0.01j, 0.0), (0.0, 0.01j)),
            ((0.01j, 0, 0), (0, 0.01j, 0), (0, 0, 0.01j, 0)),
            ((0.01j, 0, 0), (0, 0.01j, 0)),
            (0.01j, 0.01j, 0.01j),
        ],
    )
    def test_matrix_must_be_three_by_three(self, impedance):
        with pytest.raises(ValueError, match="b1: matrix impedance must be 3x3"):
            Branch("b1", "1", "2", impedance)

    @pytest.mark.parametrize("spread, symmetric", [(5e-13, True), (2e-12, False)])
    @pytest.mark.parametrize("row, col", [(1, 0), (2, 0), (1, 2)])
    def test_symmetry_tolerance(self, row, col, spread, symmetric):
        rows = [[0.01 + 0.02j if i == j else 0.003j for j in range(3)]
                for i in range(3)]
        rows[row][col] += spread
        impedance = tuple(map(tuple, rows))
        if symmetric:
            assert Branch("b1", "1", "2", impedance).impedance == impedance
        else:
            with pytest.raises(ValueError, match="b1: impedance matrix is not"):
                Branch("b1", "1", "2", impedance)

    @pytest.mark.parametrize(
        "impedance",
        [
            complex(math.nan, 0.01),
            complex(0.01, math.inf),
            tuple(
                tuple(complex(math.nan) if i == j == 1 else 0.01j
                      for j in range(3))
                for i in range(3)
            ),
        ],
    )
    def test_non_finite_impedance_rejected(self, impedance):
        with pytest.raises(ValueError, match="finite"):
            Branch("b1", "1", "2", impedance)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("phase_count", True),
            ("slack_voltage", complex(math.nan, 0.0)),
            ("slack_voltage", complex(math.inf, 0.0)),
            ("v_base", math.nan),
            ("v_base", math.inf),
            ("s_base", math.nan),
        ],
    )
    def test_non_finite_or_boolean_field_rejected(self, field, value):
        with pytest.raises(ValueError):
            Feeder(**{**_TWO_NODES, field: value})

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("nodes", (), "needs at least the slack node"),
            ("loads", (ZipLoad(node="3", s_p=0.1),), "unknown node 3"),
            ("loads", (ZipLoad(node="1", s_p=0.1),), "at the slack node"),
        ],
    )
    def test_node_or_load_outside_the_feeder_rejected(
        self, field, value, message
    ):
        with pytest.raises(ValueError, match=message):
            Feeder(**{**_TWO_NODES, field: value})

    def test_delta_load_needs_three_phase(self):
        load = ZipLoad(node="2", s_p=0.1, connection="delta")
        with pytest.raises(ValueError):
            Feeder(**_TWO_NODES, loads=(load,))


class TestImpedanceStack:
    @pytest.mark.parametrize("phase_count", [1, 3])
    def test_read_only_stack_in_incidence_row_order(self, phase_count):
        rng = np.random.default_rng(41)
        feeder = shuffled(rng, random_radial_feeder(rng, 15, phase_count))
        stack = feeder.impedances
        assert stack.shape == (14, phase_count, phase_count)
        assert not stack.flags.writeable
        for block, branch in zip(stack, feeder.tree.branches):
            expected = np.reshape(branch.impedance, (phase_count,) * 2)
            assert np.array_equal(block, expected)
        assert feeder.checked_impedances is stack

    @pytest.mark.parametrize("n, phase_count", [(40, 1), (30, 3)])
    def test_parse_hands_over_the_stack_it_read(self, n, phase_count):
        gen = perfbench_gen()
        feeder = parse_feeder(gen.dumps(gen.feeder_doc(5, n, phase_count, 0.95)))
        handed = vars(feeder)["impedances"]
        assert not handed.flags.writeable
        rebuilt = replace(feeder).impedances
        assert handed.dtype == rebuilt.dtype
        assert np.array_equal(handed, rebuilt)
        # Parse hands over the stack, not its check.
        assert "checked_impedances" not in vars(feeder)

    def test_stack_is_checked_once_per_feeder(self, monkeypatch):
        feeder = random_radial_feeder(np.random.default_rng(42), 12, 3)
        calls = []
        det = np.linalg.det

        def counted(stack):
            calls.append(stack.shape)
            return det(stack)

        monkeypatch.setattr(np.linalg, "det", counted)
        first = feeder.checked_impedances
        assert feeder.checked_impedances is first
        assert calls == [(11, 3, 3)]

    @pytest.mark.parametrize("phase_count", [1, 3])
    def test_failing_check_raises_from_every_entry_point(self, phase_count):
        from radialflow import assemble

        feeder = random_radial_feeder(
            np.random.default_rng(43), 6, phase_count
        )
        tiny = 1e-10 if phase_count == 1 else tuple(
            tuple(1e-10 if i == j else 0.0 for j in range(3))
            for i in range(3)
        )
        branches = list(feeder.branches)
        branches[3] = replace(branches[3], impedance=tiny)
        feeder = replace(feeder, branches=tuple(branches))
        for call in (assemble, solve_bfs, assemble):
            with pytest.raises(
                SingularError, match=f"^branch {branches[3].id}: impedance"
            ):
                call(feeder)


def test_single_node_feeder_is_trivial():
    from radialflow import assemble, solve_bfs, solve_linear, residual

    feeder = make_feeder(["1"], [], v_s=1.02 + 0j)
    assert validate_radial(feeder).ok
    for sol in (solve_linear(assemble(feeder)), solve_bfs(feeder)):
        assert np.array_equal(sol.voltages, [1.02 + 0j])
    assert residual(feeder, solve_bfs(feeder)) == 0.0
