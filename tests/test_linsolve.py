import ast
import cmath
import math
import re
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest

import radialflow
from radialflow import (
    BfsOptions,
    Branch,
    ConvergenceError,
    Feeder,
    SingularError,
    ZipLoad,
    assemble,
    network,
    node_errors,
    parse_feeder,
    residual,
    solve,
    solve_bfs,
    solve_linear,
    solve_linear_full,
    summarize,
    v_min,
)
from radialflow import linsolve
from radialflow.cli import main
from radialflow.io import serialize_feeder
from radialflow.linsolve import check_v0
from radialflow.loads import PHASE_ROTATIONS, load_vectors
from helpers import (
    chain_feeder,
    dense_linear_system,
    linear_full_system,
    linearize_vsq,
    perfbench_gen,
    random_radial_feeder,
    real_embedding,
    shuffled,
    singular_pivot_feeder,
    stacked_solve,
    two_bus_feeder,
)


def _zip_delta_feeder(rng, n, phase_count):
    return random_radial_feeder(
        rng, n, phase_count, profile="zip",
        delta_fraction=0.4 if phase_count == 3 else 0.0,
    )


def _reversed(feeder):
    """The feeder with every branch stored in reverse orientation."""
    return replace(feeder, branches=tuple(
        replace(b, from_node=b.to_node, to_node=b.from_node)
        for b in feeder.branches
    ))


def _three_phase_feeder(edges, z_self):
    """Three-phase feeder on nodes 1..n with the (parent, child) ``edges``
    on positions 0..n-1, coupled branches of self impedance ``z_self`` and
    a ZIP load at every non-slack node, every third one wye and the rest
    delta."""
    n = len(edges) + 1
    z = tuple(
        tuple(z_self if i == j else 0.4 * z_self for j in range(3))
        for i in range(3)
    )
    return Feeder(
        name="three-phase", phase_count=3,
        nodes=tuple(str(k) for k in range(1, n + 1)),
        slack_voltage=1.0 + 0j,
        branches=tuple(
            Branch(f"b{k}", str(a + 1), str(b + 1), z)
            for k, (a, b) in enumerate(edges)
        ),
        loads=tuple(
            ZipLoad(node=str(k), s_z=2e-4j, s_i=3e-4 + 1e-4j,
                    s_p=4e-4 + 2e-4j,
                    connection="delta" if k % 3 else "wye")
            for k in range(2, n + 1)
        ),
    )


_Z3 = tuple(
    tuple(0.01 + 0.02j if i == j else 0.004j for j in range(3))
    for i in range(3)
)


def _pivot_probe(phase_count, s_z):
    """Chain 0-1-2, z = 0.1 per phase, a constant-impedance load of 1 at
    node 2 and of ``s_z`` on phase a of node 1. Node 2's pivot is 1.1 and
    its eliminated A is 1 / 1.1, so node 1's phase-a pivot is
    1 + 0.1 (s_z + 1 / 1.1) for a real ``s_z``, while its dense diagonal
    entry is 1 + 0.1 s_z."""
    z = 0.1 + 0j
    if phase_count == 3:
        z = tuple(
            tuple(z if i == j else 0j for j in range(3)) for i in range(3)
        )
    return Feeder(
        name="pivot-probe", phase_count=phase_count,
        nodes=("0", "1", "2"), slack_voltage=1.0 + 0j,
        branches=(Branch("b1", "0", "1", z), Branch("b2", "1", "2", z)),
        loads=(
            ZipLoad(node="1", s_z=s_z, phase="a"),
            ZipLoad(node="2", s_z=1.0 + 0j),
        ),
    )


def _dense_solve(feeder):
    """Voltages at every node from the dense oracle system."""
    sys_a, sys_b = dense_linear_system(feeder)
    x = np.linalg.solve(sys_a, sys_b) if sys_b.size else sys_b
    return np.concatenate([feeder.slack_phasors(), x])


def _fifty_digit_lu(sys_a, sys_b):
    """The complex system sys_a x = sys_b solved by LU in 50-digit
    arithmetic, rounded to complex128."""
    with mpmath.workdps(50):
        x = mpmath.lu_solve(
            mpmath.matrix([[mpmath.mpc(v) for v in row] for row in sys_a]),
            mpmath.matrix([mpmath.mpc(v) for v in sys_b]),
        )
        return np.array([complex(v) for v in x], dtype=complex)


def _fifty_digit_solve(feeder):
    """The dense oracle system solved by LU in 50-digit arithmetic."""
    x = _fifty_digit_lu(*dense_linear_system(feeder))
    return np.concatenate([feeder.slack_phasors(), x])


def _linear_full_feeders(rng):
    """The bundled feeders, plus random ZIP/delta feeders at both phase
    counts with v_s != 1 and v_base != 1, half of them shuffled."""
    feeders = [radialflow.example_feeder(name) for name in (
        "two_bus", "balanced_ten_bus", "unbalanced_ten_bus"
    )]
    for phase_count, largest in ((1, 30), (3, 15)):
        for k in range(6):
            feeder = random_radial_feeder(
                rng, int(rng.integers(2, largest + 1)), phase_count,
                profile="zip",
                v_s=complex(rng.uniform(0.93, 1.08), rng.uniform(-0.03, 0.03)),
                delta_fraction=0.4 if phase_count == 3 else 0.0,
            )
            feeder = replace(feeder, v_base=float(rng.uniform(0.9, 1.1)))
            feeders.append(shuffled(rng, feeder) if k % 2 else feeder)
    return feeders


class TestLinearizeVsq:
    def test_unity_point(self):
        assert linearize_vsq(1.0 + 0j) == (1.0 + 0j, 1.0 + 0j, -1.0)

    def test_rotated_point(self):
        v0 = cmath.exp(-2j * math.pi / 3)
        c_v, c_vbar, c_0 = linearize_vsq(v0)
        assert cmath.isclose(c_v, cmath.exp(2j * math.pi / 3))
        assert cmath.isclose(c_vbar, v0)
        assert abs(c_0 + 1.0) < 1e-15

    def test_exact_at_expansion_point(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            v0 = complex(rng.normal(1, 0.1), rng.normal(0, 0.1))
            c_v, c_vbar, c_0 = linearize_vsq(v0)
            value = c_v * v0 + c_vbar * np.conjugate(v0) + c_0
            assert abs(value - abs(v0) ** 2) < 1e-14

    def test_zero_point_rejected(self):
        with pytest.raises(ValueError):
            linearize_vsq(0j)


class TestAssemble:
    def test_zero_loads(self):
        feeder = chain_feeder(4, 0.01 + 0.02j, v_s=1.05 + 0j)
        sys_a, sys_b = dense_linear_system(feeder)
        assert np.array_equal(sys_a, np.eye(3))
        assert np.array_equal(sys_b, np.full(3, 1.05 + 0j))
        # No subtree draws any current.
        assert not np.any(assemble(feeder).drops)

    def test_two_bus_constant_impedance(self):
        z = 0.01 + 0.02j
        s_z = 0.5 + 0.2j
        feeder = two_bus_feeder(z=z, s_z=s_z)
        sys_a, _ = dense_linear_system(feeder)
        assert np.allclose(sys_a, [[1 + z * np.conjugate(s_z)]])
        # The eliminated drop z [c, w] / (1 + c z), c = conj(s_z), w = 0.
        c = np.conjugate(s_z)
        assert np.allclose(
            assemble(feeder).drops[0, 0], [z * c / (1 + c * z), 0], atol=0
        )

    def test_constant_power_only_keeps_identity(self):
        z, s_p = 0.01 + 0.02j, 0.2 + 0.1j
        feeder = two_bus_feeder(z=z, s_p=s_p)
        sys_a, _ = dense_linear_system(feeder)
        assert np.array_equal(sys_a, np.eye(1))
        # The eliminated drop z [c, w] / (1 + c z), c = 0, w = conj(s_p).
        assert np.allclose(
            assemble(feeder).drops[0, 0], [0, z * np.conjugate(s_p)], atol=0
        )

    def test_singular_diagonal_rejected(self):
        # A constant-impedance load cancelling the diagonal entry exactly.
        z = 0.1 + 0j
        feeder = two_bus_feeder(z=z, s_z=-10.0 + 0j)
        with pytest.raises(SingularError):
            assemble(feeder)

    def test_near_singular_pivot_is_named(self):
        # The elimination pivot, like the dense diagonal entry, is the
        # nonzero 1e-10, below the tolerance.
        feeder = two_bus_feeder(z=0.1 + 0j, s_z=-(10.0 - 1e-9) + 0j)
        with pytest.raises(
            SingularError, match=r"^elimination pivot of node 2 has magnitude "
            r"1\.0\d\de-10, below 1e-09$"
        ):
            assemble(feeder)

    @pytest.mark.parametrize("phase_count", [1, 3])
    def test_singular_pivot_rejected(self, phase_count):
        feeder = singular_pivot_feeder(phase_count)
        sys_a, _ = dense_linear_system(feeder)
        assert np.min(np.abs(np.diagonal(sys_a))) == 1.0
        with pytest.raises(
            SingularError,
            match=r"^elimination pivot of node 3 has magnitude "
            r"0\.000e\+00, below 1e-09$",
        ):
            solve_linear(assemble(feeder))

    @pytest.mark.parametrize("phase_count", [1, 3])
    def test_singular_pivots_of_one_level_name_its_last_node(
        self, phase_count
    ):
        # Fork 1-2-{3, 4}: node 4 copies node 3's branch and load, so both
        # pivots of their level are zero. Either phase count names node 4,
        # the first that the scalar walk, last node of a level first, meets.
        chain = singular_pivot_feeder(phase_count)
        feeder = replace(
            chain,
            nodes=(*chain.nodes, "4"),
            branches=(
                *chain.branches,
                replace(chain.branches[-1], id="b4", to_node="4"),
            ),
            loads=(*chain.loads, replace(chain.loads[0], node="4")),
        )
        with pytest.raises(
            SingularError,
            match=r"^elimination pivot of node 4 has magnitude "
            r"0\.000e\+00, below 1e-09$",
        ):
            assemble(feeder)

    @pytest.mark.parametrize(
        "phase_count, delta, magnitude",
        [(1, 1e-10, r"1\.000e-11"), (3, 1e-11, r"1\.19\de-12")],
        ids=["1", "3"],
    )
    def test_near_singular_pivot_under_a_sound_diagonal_is_named(
        self, phase_count, delta, magnitude
    ):
        # Node 1's pivot is 0.1 delta, at p = 3 times the pivots
        # 1 + 0.1 / 1.1 of phases b and c; its dense diagonal entry -0.09.
        feeder = _pivot_probe(phase_count, -(10 + 1 / 1.1) + delta)
        sys_a, _ = dense_linear_system(feeder)
        assert np.min(np.abs(np.diagonal(sys_a))) > 0.09
        with pytest.raises(
            SingularError, match=r"^elimination pivot of node 1 has "
            rf"magnitude {magnitude}, below 1e-09$",
        ):
            assemble(feeder)

    @pytest.mark.parametrize("phase_count", [1, 3])
    def test_near_singular_pivot_is_a_cli_solver_error(
        self, tmp_path, capsys, phase_count
    ):
        path = tmp_path / "probe.json"
        feeder = _pivot_probe(phase_count, -(10 + 1 / 1.1) + 1e-10)
        path.write_text(serialize_feeder(feeder))
        assert main(["solve", str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        # The document holds s_z to 12 digits, which moves the pivot.
        assert re.fullmatch(
            r"solver error: elimination pivot of node 1 has magnitude "
            r"\S+e-1[12], below 1e-09\n", err
        )

    @pytest.mark.parametrize("phase_count", [1, 3])
    def test_near_zero_diagonal_over_sound_pivots_solves(self, phase_count):
        # Node 1's dense diagonal entry is 1e-13 and its pivot 0.09. The
        # loads are constant-impedance, so both linear modes are exact.
        feeder = _pivot_probe(phase_count, -10 + 1e-12)
        sys_a, _ = dense_linear_system(feeder)
        assert np.min(np.abs(np.diagonal(sys_a))) < 1e-12
        simple = solve(feeder, "linear-simple").voltages
        full = solve(feeder, "linear-full").voltages
        assert np.max(np.abs(simple - full)) <= 1e-12 * np.max(np.abs(full))
        phase_a = np.abs(simple.reshape(3, phase_count)[:, 0])
        assert np.allclose(phase_a, [1.0, 11.0, 10.0], rtol=1e-9, atol=0)

    def test_pivot_past_the_float_range_is_no_overflow(self):
        # 1 + c z has finite parts but a magnitude past the float range,
        # where abs() raises OverflowError.
        feeder = two_bus_feeder(z=1.0 + 0j, s_z=complex(1.3e308, 1.3e308))
        with pytest.raises(SingularError, match="non-finite voltages"):
            solve_linear(assemble(feeder))

    @pytest.mark.parametrize("phase_count", [1, 3])
    def test_sub_minimum_impedance_rejected(self, phase_count):
        # The elimination never inverts an impedance, but the model has no
        # zero-impedance switch, as in the other solvers.
        feeder = random_radial_feeder(
            np.random.default_rng(22), 6, phase_count
        )
        tiny = 1e-10 if phase_count == 1 else tuple(
            tuple(1e-10 if i == j else 0.0 for j in range(3))
            for i in range(3)
        )
        branches = list(feeder.branches)
        branches[2] = replace(branches[2], impedance=tiny)
        with pytest.raises(SingularError, match=f"branch {branches[2].id}:"):
            assemble(replace(feeder, branches=tuple(branches)))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            solve(two_bus_feeder(), "both")


class TestSolveLinear:
    def test_zero_loads_identity(self):
        feeder = chain_feeder(6, 0.005 + 0.01j, v_s=1.05 + 0j)
        sol = solve_linear(assemble(feeder))
        assert np.array_equal(sol.voltages, np.full(6, 1.05 + 0j))
        assert sol.iterations == 0
        assert sol.converged

    def test_two_bus_constant_power_value(self):
        sol = solve_linear(assemble(two_bus_feeder()))
        assert sol.voltages[0] == 1.0 + 0j
        assert cmath.isclose(sol.voltages[1], 0.996 - 0.003j, abs_tol=1e-15)

    def test_pure_constant_current_exact(self):
        rng = np.random.default_rng(2)
        feeder = random_radial_feeder(rng, 15, profile="i_only")
        sol = solve_linear(assemble(feeder))
        assert residual(feeder, sol) < 1e-10

    def test_pure_constant_impedance_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            feeder = random_radial_feeder(
                rng, int(rng.integers(3, 25)), profile="z_only"
            )
            sol = solve_linear(assemble(feeder))
            assert residual(feeder, sol) < 1e-10

    def test_superposition_of_rhs_load_types(self):
        # P-only and I-only deviations share the identity system matrix and
        # add linearly.
        z = 0.006 + 0.012j
        p_loads = tuple(
            ZipLoad(node=str(i), s_p=0.02 + 0.008j) for i in (2, 4, 5)
        )
        i_loads = tuple(
            ZipLoad(node=str(i), s_i=0.015 + 0.005j) for i in (3, 5)
        )
        base = chain_feeder(5, z)
        f_p = chain_feeder(5, z, loads=p_loads)
        f_i = chain_feeder(5, z, loads=i_loads)
        f_both = chain_feeder(5, z, loads=p_loads + i_loads)
        dev_p = solve_linear(assemble(f_p)).voltages - 1.0
        dev_i = solve_linear(assemble(f_i)).voltages - 1.0
        dev_both = solve_linear(assemble(f_both)).voltages - 1.0
        assert np.max(np.abs(dev_both - (dev_p + dev_i))) < 1e-12

    def test_combined_system_matches_component_assembly(self):
        # The tree elimination solves the dense system on D, whatever the
        # node order or the branch orientations.
        rng = np.random.default_rng(4)
        for phase_count, n in zip((1, 3) * 10, rng.integers(2, 40, 20)):
            feeder = _zip_delta_feeder(rng, int(n), phase_count)
            for variant in (feeder, shuffled(rng, feeder), _reversed(feeder)):
                sol = solve_linear(assemble(variant))
                error = np.max(np.abs(sol.voltages - _dense_solve(variant)))
                assert error <= 1e-14

    @pytest.mark.parametrize("phase_count", [1, 3])
    def test_non_finite_model_is_a_solver_error(self, phase_count):
        # Non-finite drops give non-finite voltages, not numpy warnings,
        # which the test settings turn into errors.
        rng = np.random.default_rng(15)
        model = assemble(random_radial_feeder(rng, 8, phase_count))
        drops = np.full_like(model.drops, complex(math.inf, math.inf))
        with pytest.raises(SingularError, match="non-finite"):
            solve_linear(replace(model, drops=drops))

    def test_matches_a_fifty_digit_solve(self):
        rng = np.random.default_rng(12)
        feeders = [radialflow.example_feeder(name) for name in (
            "two_bus", "balanced_ten_bus", "unbalanced_ten_bus"
        )]
        feeders += [
            _zip_delta_feeder(rng, int(rng.integers(2, 31)), phase_count)
            for phase_count in (1, 3) for _ in range(5)
        ]
        for feeder in feeders:
            error = solve(feeder).voltages - _fifty_digit_solve(feeder)
            assert np.max(np.abs(error)) <= 1e-15

    @pytest.mark.parametrize("phase_count", [1, 3])
    def test_node_order_does_not_change_the_solve(self, phase_count):
        # Each level is eliminated and substituted in walk order, whatever
        # order the nodes are listed in: results agree to the last bit.
        rng = np.random.default_rng(13 + phase_count)
        for _ in range(15):
            n = int(rng.integers(2, 30))
            feeder = _zip_delta_feeder(rng, n, phase_count)
            other = shuffled(rng, feeder)
            sol = solve(feeder)
            moved = solve(other)
            position = {node: i for i, node in enumerate(other.nodes)}
            back = [position[node] for node in feeder.nodes]
            v = moved.voltages.reshape(-1, phase_count)[back].reshape(-1)
            assert np.array_equal(v, sol.voltages)

    @pytest.mark.parametrize(
        "shape",
        ["chain", "chain-3", "comb-3", "star", "single-1", "single-3"],
    )
    def test_extreme_tree_shapes_match_the_dense_system(self, shape):
        if shape == "chain":  # depth = n = 2000
            n = 2000
            parts = dict(s_z=2e-5j, s_i=3e-5 + 1e-5j, s_p=4e-5 + 2e-5j)
            loads = tuple(
                ZipLoad(node=str(k), **parts) for k in range(2, n + 1)
            )
            feeder = chain_feeder(n, 1e-5 + 2e-5j, loads=loads)
        elif shape == "chain-3":  # one chain of depth 600, V_min 0.946
            feeder = _three_phase_feeder(
                [(k - 1, k) for k in range(1, 601)], 3e-4 + 6e-4j
            )
        elif shape == "comb-3":  # a 3-node tooth on each of 100, V_min 0.959
            spine = [(k - 1, k) for k in range(1, 101)]
            teeth = [
                (k if j == 0 else 101 + 3 * (k - 1) + j - 1,
                 101 + 3 * (k - 1) + j)
                for k in range(1, 101) for j in range(3)
            ]
            feeder = _three_phase_feeder(spine + teeth, 2e-3 + 4e-3j)
        elif shape == "star":  # depth 1, 199 leaves in one level
            zs, zm = 0.004 + 0.009j, 0.0015 + 0.004j
            z = tuple(
                tuple(zs if i == j else zm for j in range(3)) for i in range(3)
            )
            leaves = tuple(str(k) for k in range(2, 201))
            feeder = Feeder(
                name="star", phase_count=3, nodes=("1", *leaves),
                slack_voltage=1.0 + 0j,
                branches=tuple(Branch(f"b{k}", "1", k, z) for k in leaves),
                loads=tuple(
                    ZipLoad(node=k, s_z=0.01j, s_i=0.005, s_p=0.01 + 0.004j,
                            connection="delta" if int(k) % 3 else "wye")
                    for k in leaves
                ),
            )
        else:
            phase_count = int(shape[-1])
            feeder = Feeder(
                name="single", phase_count=phase_count, nodes=("1",),
                slack_voltage=1.02 + 0.01j, branches=(),
            )
        sol = solve(feeder)
        assert np.max(np.abs(sol.voltages - _dense_solve(feeder))) <= 1e-12

    def test_three_phase_elimination_solves_do_not_grow_with_depth(
        self, monkeypatch
    ):
        # One batched solve per chain level: a chain of any depth is one
        # level, where one solve per depth level made 64 and 512 calls.
        solve_dense = np.linalg.solve
        calls = Counter()

        def counted(*args):
            calls[depth] += 1
            return solve_dense(*args)

        monkeypatch.setattr(np.linalg, "solve", counted)
        for depth in (64, 512):
            assemble(_three_phase_feeder(
                [(k - 1, k) for k in range(1, depth + 1)], 1e-4 + 2e-4j
            ))
        assert 1 <= calls[64] <= calls[512] <= calls[64] + 2

    def test_solve_builds_no_dense_matrix(self, monkeypatch):
        names = (
            "reduced_impedance", "branch_impedance_matrix", "build_incidence",
            "ybus",
        )
        originals = {name: getattr(network, name) for name in names}
        calls = Counter()

        def counting(name):
            def counted(*args):
                calls[name] += 1
                return originals[name](*args)

            return counted

        for module_name, module in list(sys.modules.items()):
            if module_name.partition(".")[0] != "radialflow":
                continue
            for name, original in originals.items():
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting(name))
        for name in ("two_bus", "balanced_ten_bus", "unbalanced_ten_bus"):
            solve(radialflow.example_feeder(name))
        assert not calls

    def test_peak_memory_is_a_small_share_of_d(self):
        gen = perfbench_gen()
        feeder = parse_feeder(gen.dumps(gen.feeder_doc(19, 2000, 1, 0.92)))
        d_bytes = (len(feeder.nodes) - 1) ** 2 * 16
        tracemalloc.start()
        try:
            solve(feeder)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.05 * d_bytes


class TestSolveLinearFull:
    def test_matches_simple_at_unit_slack(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            feeder = random_radial_feeder(
                rng, int(rng.integers(2, 25)), profile="zip"
            )
            simple = solve_linear(assemble(feeder))
            full = solve_linear_full(feeder)
            assert np.max(np.abs(simple.voltages - full.voltages)) < 1e-12

    def test_default_point_matches_a_fifty_digit_solve(self):
        # At v0 = the slack voltage the conjugate term vanishes, and the
        # complex system M1 x = b is solved as it stands.
        for feeder in _linear_full_feeders(np.random.default_rng(21)):
            m1, m2, b = linear_full_system(feeder)
            assert not np.any(m2)
            exact = np.concatenate(
                [feeder.slack_phasors(), _fifty_digit_lu(m1, b)]
            )
            error = solve(feeder, "linear-full").voltages - exact
            assert np.max(np.abs(error)) <= 1e-15

    def test_other_points_match_a_fifty_digit_solve(self):
        # Away from the slack voltage, the real embedding of
        # M1 x + diag(m2) conj(x) = b solved by LU in 50-digit arithmetic.
        for feeder in _linear_full_feeders(np.random.default_rng(23)):
            for v0 in (1.05, 0.97 + 0.02j, 0.9 - 0.05j):
                m1, m2, b = linear_full_system(feeder, v0)
                if not np.any(m2):
                    continue  # v0 is this feeder's slack voltage
                stacked, rhs = real_embedding(m1, m2, b)
                with mpmath.workdps(50):
                    xy = mpmath.lu_solve(
                        mpmath.matrix(stacked.tolist()),
                        mpmath.matrix(rhs.tolist()),
                    )
                    xy = np.array([float(v) for v in xy])
                exact = xy[: b.size] + 1j * xy[b.size:]
                x = solve(feeder, "linear-full", v0=v0).voltages
                error = x[feeder.phase_count:] - exact
                assert np.max(np.abs(error)) <= 2e-15

    def test_default_point_matches_the_stacked_real_solve(self):
        for feeder in _linear_full_feeders(np.random.default_rng(22)):
            x = solve(feeder, "linear-full").voltages[feeder.phase_count:]
            error = x - stacked_solve(*linear_full_system(feeder))
            assert np.max(np.abs(error)) <= 1e-13

    def test_other_points_match_the_stacked_real_solve(self):
        # Away from the slack voltage the system is only real-linear: the
        # stacked real solve of size 2np.
        general = 0
        feeders = _linear_full_feeders(np.random.default_rng(23))
        for feeder in feeders:
            for v0 in (1.0, 1.05, 0.97 + 0.02j):
                m1, m2, b = linear_full_system(feeder, v0)
                if not np.any(m2):
                    continue  # v0 is this feeder's slack voltage
                general += 1
                x = solve(feeder, "linear-full", v0=v0).voltages
                exact = stacked_solve(m1, m2, b)
                error = x[feeder.phase_count:] - exact
                assert np.max(np.abs(error)) <= 1e-13 * np.max(np.abs(exact))
        # Every random feeder's slack voltage differs from all three.
        assert general >= 3 * (len(feeders) - 3)

    def test_peak_memory_is_about_d(self):
        # D's (np)^2 array holds the complex system; LAPACK's work copy is
        # allocated outside the traced heap.
        gen = perfbench_gen()
        feeder = parse_feeder(gen.dumps(gen.feeder_doc(19, 1000, 1, 0.92)))
        d_bytes = (len(feeder.nodes) - 1) ** 2 * 16
        tracemalloc.start()
        try:
            solve(feeder, "linear-full")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * d_bytes

    def test_zero_loads_any_slack(self):
        for v_s in (1.05 + 0j, 0.98 + 0.01j, 1.1 + 0j):
            feeder = chain_feeder(5, 0.01 + 0.02j, v_s=v_s)
            sol = solve_linear_full(feeder)
            assert np.max(np.abs(sol.voltages - v_s)) < 1e-12

    def test_matching_point_beats_unity_point(self):
        # Linearizing at the actual source voltage tracks the oracle better
        # than linearizing at 1.0 when the source sits at 1.05.
        feeder = two_bus_feeder(
            z=0.02 + 0.04j, s_p=0.3 + 0.1j, v_s=1.05 + 0j
        )
        oracle = solve_bfs(feeder, BfsOptions(tolerance=1e-12))
        at_vs = solve_linear_full(feeder, 1.05)
        at_one = solve_linear_full(feeder, 1.0)
        err_vs = np.max(node_errors(at_vs, oracle))
        err_one = np.max(node_errors(at_one, oracle))
        assert err_vs < err_one

    def test_pure_impedance_exact_at_shifted_slack(self):
        rng = np.random.default_rng(6)
        feeder = random_radial_feeder(
            rng, 10, profile="z_only", v_s=1.05 + 0j
        )
        sol = solve_linear_full(feeder)
        assert residual(feeder, sol) < 1e-10

    def test_default_point_is_slack_voltage(self):
        feeder = chain_feeder(3, 0.01 + 0.02j, v_s=1.04 + 0j)
        assert np.array_equal(
            solve(feeder, "linear-full").voltages,
            solve(feeder, "linear-full", v0=1.04).voltages,
        )

    def test_singular_system_is_a_singular_error(self):
        # I + h^2 D conj(s_z) = 1 + 0.5 * -2 = 0 and the linearization
        # point is the slack voltage: the stacked real system is all zero.
        feeder = two_bus_feeder(z=0.5 + 0j, s_z=-2 + 0j)
        with pytest.raises(SingularError):
            solve_linear_full(feeder)

    @staticmethod
    def _restricted_solve(feeder, monkeypatch, v0=None):
        """linear-full at ``v0``, by default the slack voltage, the shapes
        of the matrices it factored and the number of slots holding a
        constant-impedance load; asserts each factor is complex at the
        default point and real elsewhere, and the voltages match the dense
        oracle, M1 x = b or its stacked real solve, to 2e-15 relative."""
        shapes = []
        solve_dense = np.linalg.solve

        def recorded(a, b):
            shapes.append(a.shape)
            assert a.dtype == (np.complex128 if v0 is None else np.float64)
            return solve_dense(a, b)

        monkeypatch.setattr(np.linalg, "solve", recorded)
        x = solve(feeder, "linear-full", v0=v0).voltages[feeder.phase_count:]
        monkeypatch.undo()
        m1, m2, b = linear_full_system(feeder, v0)
        assert np.any(m2) == (v0 is not None)
        if v0 is None:
            exact = np.linalg.solve(m1, b)
        else:
            exact = stacked_solve(m1, m2, b)
        assert np.max(np.abs(x - exact)) <= 2e-15 * np.max(np.abs(exact))
        impedance_slots = np.count_nonzero(
            load_vectors(feeder)[0][feeder.phase_count:]
        )
        return shapes, impedance_slots

    @pytest.mark.parametrize("profile", ["i_only", "p_only"])
    @pytest.mark.parametrize("phase_count", [1, 3])
    def test_no_impedance_load_factors_nothing(
        self, profile, phase_count, monkeypatch
    ):
        rng = np.random.default_rng(31)
        for n in (2, 9, 24):
            feeder = random_radial_feeder(
                rng, n, phase_count, profile=profile, v_s=1.03 - 0.01j,
                delta_fraction=0.4 if phase_count == 3 else 0.0,
            )
            shapes, slots = self._restricted_solve(feeder, monkeypatch)
            assert (shapes, slots) == ([], 0)

    @pytest.mark.parametrize("phase_count", [1, 3])
    def test_impedance_load_in_every_slot(self, phase_count, monkeypatch):
        rng = np.random.default_rng(32)
        for n in (2, 11, 26):
            feeder = random_radial_feeder(
                rng, n, phase_count, v_s=0.98 + 0.02j
            )
            feeder = replace(feeder, loads=tuple(
                ZipLoad(node, s_z=complex(*rng.uniform(0.01, 0.05, 2)),
                        s_p=complex(*rng.uniform(0.0, 0.05, 2)))
                for node in feeder.nodes[1:]
            ))
            shapes, slots = self._restricted_solve(feeder, monkeypatch)
            assert slots == (n - 1) * phase_count
            assert shapes == [(slots, slots)]

    def test_single_phase_wye_and_delta_loads(self, monkeypatch):
        # Three-phase feeders whose loads sit on single phases and delta
        # legs: K holds one or two of each node's three phases.
        rng = np.random.default_rng(33)
        for n in (5, 14, 30):
            feeder = random_radial_feeder(rng, n, 3, v_s=1.04)
            loads = []
            for node in feeder.nodes[1:]:
                connection = ("wye", "delta")[int(rng.integers(2))]
                phase = ("a", "b", "c")[int(rng.integers(3))]
                loads.append(ZipLoad(
                    node, phase=phase, connection=connection,
                    s_z=complex(*rng.uniform(0.01, 0.04, 2)),
                    s_i=0.02 + 0.01j, s_p=0.03 + 0.01j,
                ))
            feeder = replace(feeder, loads=tuple(loads))
            shapes, slots = self._restricted_solve(feeder, monkeypatch)
            assert 0 < slots < (n - 1) * 3
            assert shapes == [(slots, slots)]

    @pytest.mark.parametrize("phase_count", [1, 3])
    def test_any_node_order_factors_only_the_impedance_slots(
        self, phase_count, monkeypatch
    ):
        rng = np.random.default_rng(34)
        for k in range(6):
            feeder = shuffled(rng, random_radial_feeder(
                rng, int(rng.integers(3, 30)), phase_count, profile="zip",
                v_s=complex(rng.uniform(0.95, 1.06), 0.01),
                delta_fraction=0.4 if phase_count == 3 else 0.0,
            ))
            shapes, slots = self._restricted_solve(feeder, monkeypatch)
            assert shapes == ([(slots, slots)] if slots else [])

    @pytest.mark.parametrize("phase_count", [1, 3])
    def test_other_points_factor_only_the_impedance_slots(
        self, phase_count, monkeypatch
    ):
        # The real embedding of the K block, (2|K|)^2, not of all 2np
        # unknowns; nothing at all without a constant-impedance load.
        rng = np.random.default_rng(35)
        factored = 0
        for profile in ("zip", "i_only", "p_only"):
            for n in (2, 9, 24):
                feeder = random_radial_feeder(
                    rng, n, phase_count, profile=profile, v_s=1.01 - 0.01j,
                    delta_fraction=0.4 if phase_count == 3 else 0.0,
                )
                for v0 in (1.02, 0.97 + 0.02j):
                    shapes, slots = self._restricted_solve(
                        feeder, monkeypatch, v0
                    )
                    assert shapes == (
                        [(2 * slots, 2 * slots)] if slots else []
                    )
                    assert slots == 0 or profile == "zip"
                    factored += bool(slots)
        assert factored >= 4

    @pytest.mark.parametrize("z", [0.01 + 0.02j, _Z3], ids=["1", "3"])
    def test_point_where_the_conjugate_term_cancels_is_singular(self, z):
        # At v0 = v_s / 2, |q| = 1 and x + q conj(x) has lost x's component
        # along i sqrt(q): with no constant-impedance load to pin it, the
        # system is singular. No numpy warning, which the test settings
        # turn into an error.
        for v_s in (1.04, 0.98 + 0.01j):
            feeder = chain_feeder(4, z, v_s=v_s, loads=(
                ZipLoad("3", s_p=0.1 + 0.02j, s_i=0.05), ZipLoad("4", s_p=0.05)
            ))
            with pytest.raises(SingularError):
                solve(feeder, "linear-full", v0=v_s / 2)

    def test_one_solve_site(self):
        # One solve path at every linearization point: the module factors
        # a matrix in one place.
        module = ast.parse(Path(linsolve.__file__).read_text())
        sites = [
            node.lineno for node in ast.walk(module)
            if isinstance(node, ast.Call)
            and ast.unparse(node.func) == "np.linalg.solve"
        ]
        assert len(sites) == 1

    def test_slack_voltage_as_v0_is_the_default(self):
        # A given v0 is rotated into each phase as the slack voltage is.
        for feeder in _linear_full_feeders(np.random.default_rng(23)):
            given = solve(feeder, "linear-full", v0=feeder.slack_voltage)
            assert np.array_equal(
                given.voltages, solve(feeder, "linear-full").voltages
            )


class TestThreePhase:
    def _balanced_pair(self, rng):
        zs, zm = 0.004 + 0.009j, 0.0015 + 0.004j
        zmat = tuple(
            tuple(zs if i == j else zm for j in range(3)) for i in range(3)
        )
        n = 6
        nodes = tuple(str(i) for i in range(1, n + 1))
        parts = dict(s_p=0.04 + 0.015j, s_z=0.02 + 0.008j, s_i=0.01 + 0.004j)
        f3 = Feeder(
            name="bal3", phase_count=3, nodes=nodes, slack_voltage=1.0 + 0j,
            branches=tuple(
                Branch(f"b{i}", str(i), str(i + 1), zmat)
                for i in range(1, n)
            ),
            loads=tuple(
                ZipLoad(node=str(i), phase="all", **parts)
                for i in range(2, n + 1)
            ),
        )
        f1 = Feeder(
            name="bal1", phase_count=1, nodes=nodes, slack_voltage=1.0 + 0j,
            branches=tuple(
                Branch(f"b{i}", str(i), str(i + 1), zs - zm)
                for i in range(1, n)
            ),
            loads=tuple(
                ZipLoad(node=str(i), **parts) for i in range(2, n + 1)
            ),
        )
        return f3, f1

    def test_balanced_equals_rotated_single_phase(self):
        # Mutually coupled but balanced lines reduce to the positive
        # sequence impedance z_self - z_mutual.
        f3, f1 = self._balanced_pair(np.random.default_rng(7))
        s3 = solve(f3)
        s1 = solve_linear(assemble(f1))
        expected = np.kron(s1.voltages, np.array(PHASE_ROTATIONS))
        assert np.max(np.abs(s3.voltages - expected)) < 1e-10

    def test_zero_loads_rotated_nominals(self):
        f3, _ = self._balanced_pair(np.random.default_rng(8))
        empty = Feeder(
            name="empty", phase_count=3, nodes=f3.nodes,
            slack_voltage=1.02 + 0j, branches=f3.branches,
        )
        sol = solve(empty)
        expected = np.kron(
            np.full(len(f3.nodes), 1.02 + 0j), np.array(PHASE_ROTATIONS)
        )
        assert np.max(np.abs(sol.voltages - expected)) < 1e-12

    def test_single_phase_load_depresses_its_phase(self):
        f3, _ = self._balanced_pair(np.random.default_rng(9))
        loaded = Feeder(
            name="a-only", phase_count=3, nodes=f3.nodes,
            slack_voltage=1.0 + 0j, branches=f3.branches,
            loads=(ZipLoad(node=f3.nodes[-1], phase="a", s_p=0.15 + 0.05j),),
        )
        sol = solve(loaded)
        tail = np.abs(sol.voltages[-3:])
        assert tail[0] < tail[1]
        assert tail[0] < tail[2]
        oracle = solve_bfs(loaded, BfsOptions(tolerance=1e-10))
        tail_oracle = np.abs(oracle.voltages[-3:])
        assert tail_oracle[0] < tail_oracle[1]
        assert tail_oracle[0] < tail_oracle[2]

    def test_full_mode_dispatch(self):
        f3, _ = self._balanced_pair(np.random.default_rng(10))
        simple = solve(f3, "linear-simple")
        full = solve(f3, "linear-full")
        assert np.max(np.abs(simple.voltages - full.voltages)) < 1e-12


def test_oracle_proximity_light_load():
    # Light constant-power loading stays close to the iterative reference.
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 31))
        feeder = random_radial_feeder(rng, n, profile="p_only")
        sol = solve_linear(assemble(feeder))
        ref = solve_bfs(feeder, BfsOptions(tolerance=1e-10))
        eps = node_errors(sol, ref)
        assert np.max(eps) <= 5e-3
        assert np.mean(eps) <= 1e-3


def test_point_beyond_the_float_range_of_its_magnitude_is_named():
    # |v0| itself overflows: the point is valid, but 1 - |q|^2 is zero.
    huge = complex(1.7e308, 1.7e308)
    assert check_v0(huge) == huge
    with pytest.raises(
        SingularError, match="^linear-full produced non-finite voltages$"
    ):
        solve(two_bus_feeder(), "linear-full", v0=huge)


@pytest.mark.parametrize("name", ["two_bus", "unbalanced_ten_bus"])
@pytest.mark.parametrize("v0", [1e-309, 5e-324, 5e-324j])
def test_point_whose_reciprocal_overflows_is_named(name, v0):
    # 1/|v0| overflows, so neither q = (v0 - v_s)/conj(v0) nor the
    # constant-power term conj(s_p)/conj(v0) has a float value: the same
    # rule as a point whose magnitude overflows. RuntimeWarnings are errors.
    with pytest.raises(
        SingularError, match="^linear-full produced non-finite voltages$"
    ):
        solve(radialflow.example_feeder(name), "linear-full", v0=v0)


@pytest.mark.parametrize("name", ["two_bus", "unbalanced_ten_bus"])
def test_subnormal_point_whose_reciprocal_is_finite_solves(name):
    assert 1e-308 < sys.float_info.min  # subnormal
    x = solve(radialflow.example_feeder(name), "linear-full", v0=1e-308)
    assert np.all(np.isfinite(x.voltages))


def test_linearization_point_validation():
    with pytest.raises(ValueError):
        check_v0(0j)


@pytest.mark.parametrize(
    "value", [complex("nan"), complex("inf"), complex(1, math.inf),
              complex(math.nan, 1)]
)
def test_linearization_point_rejects_non_finite_phasors(value):
    with pytest.raises(ValueError, match="positive magnitude"):
        check_v0(value)
    with pytest.raises(ValueError, match="positive magnitude"):
        solve(two_bus_feeder(), "linear-full", v0=value)


@pytest.mark.parametrize("z", [0.01 + 0.02j, _Z3], ids=["1", "3"])
@pytest.mark.parametrize("v_s, v0", [(1.0, 1.5e154)])
def test_overflowing_linearization_point_is_named(z, v_s, v0):
    # q = (v0 - v_s) / conj(v0) rounds to unit magnitude, so 1 - |q|^2 is
    # zero, where the other methods still solve the feeder.
    feeder = chain_feeder(3, z, v_s=v_s, loads=(ZipLoad("3", s_p=0.1),))
    with pytest.raises(
        SingularError, match="^linear-full produced non-finite voltages$"
    ):
        solve(feeder, "linear-full", v0=v0)
    for method in ("linear-simple", "bfs"):
        assert np.all(np.isfinite(solve(feeder, method).voltages))


@pytest.mark.parametrize("z", [0.01 + 0.02j, _Z3], ids=["1", "3"])
def test_point_near_zero_matches_the_stacked_real_solve(z):
    # |q|^2 = |v0 - v_s|^2 / |v0|^2 overflows below about 1e-154.
    feeder = chain_feeder(4, z, loads=(
        ZipLoad("3", s_z=0.02, s_i=0.05, s_p=0.1 + 0.02j),
        ZipLoad("4", s_p=0.05),
    ))
    for v0 in (1e-100, 1e-200 + 1e-200j):
        x = solve(feeder, "linear-full", v0=v0).voltages
        exact = stacked_solve(*linear_full_system(feeder, v0))
        error = x[feeder.phase_count:] - exact
        assert np.max(np.abs(error)) <= 1e-13 * np.max(np.abs(exact))


@pytest.mark.parametrize("z", [0.01 + 0.02j, _Z3], ids=["1", "3"])
def test_slack_below_the_overflow_solves(z):
    # |v_s|^2 overflows past about 1.34e154; no method forms it.
    for v_s in (1.3e154, 1.5e154):
        feeder = chain_feeder(
            3, z, v_s=v_s, loads=(ZipLoad("3", s_p=0.1),)
        )
        for method in ("linear-simple", "linear-full", "bfs"):
            assert np.all(np.isfinite(solve(feeder, method).voltages))


@pytest.mark.parametrize("name", ["balanced_ten_bus", "unbalanced_ten_bus"])
@pytest.mark.parametrize("method", ["linear-simple", "linear-full", "bfs"])
def test_overflowing_voltage_scale_is_a_solver_error(name, method):
    # h * h overflows; the solvers report it without numpy warnings, which
    # the test settings turn into errors.
    import radialflow

    feeder = replace(radialflow.example_feeder(name), v_base=1e-300)
    with pytest.raises((SingularError, ConvergenceError)):
        solve(feeder, method)


@pytest.mark.parametrize("phase_count", [1, 3])
@pytest.mark.parametrize("method", ["linear-simple", "linear-full", "bfs"])
def test_slack_only_feeder(phase_count, method):
    feeder = Feeder("slack", phase_count, ("1",), 1.02 + 0j, ())
    sol = solve(feeder, method)
    assert np.array_equal(sol.voltages, feeder.slack_phasors())
    report = summarize(sol, None, feeder)
    assert (report.p_loss, report.q_loss) == (0.0, 0.0)
    assert report.v_min == v_min(sol) == pytest.approx(1.02)
    assert residual(feeder, sol) == 0.0
