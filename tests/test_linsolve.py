import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from radialflow import (
    BfsOptions,
    Branch,
    ConvergenceError,
    Feeder,
    LinearizationPoint,
    SingularError,
    ZipLoad,
    assemble,
    linearize_vsq,
    node_errors,
    residual,
    solve,
    solve_bfs,
    solve_linear,
    solve_linear_full,
)
from radialflow.loads import PHASE_ROTATIONS
from helpers import chain_feeder, random_radial_feeder, two_bus_feeder


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
        model = assemble(feeder)
        assert np.array_equal(model.sys_a, np.eye(3))
        assert np.array_equal(model.sys_b, np.full(3, 1.05 + 0j))

    def test_two_bus_constant_impedance(self):
        z = 0.01 + 0.02j
        s_z = 0.5 + 0.2j
        feeder = two_bus_feeder(z=z, s_z=s_z)
        model = assemble(feeder)
        assert np.allclose(model.sys_a, [[1 + z * np.conjugate(s_z)]])

    def test_constant_power_only_keeps_identity(self):
        feeder = two_bus_feeder(s_p=0.2 + 0.1j)
        model = assemble(feeder)
        assert np.array_equal(model.sys_a, np.eye(1))

    def test_singular_diagonal_rejected(self):
        # A constant-impedance load cancelling the diagonal entry exactly.
        z = 0.1 + 0j
        feeder = two_bus_feeder(z=z, s_z=-10.0 + 0j)
        with pytest.raises(SingularError):
            assemble(feeder)

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
        rng = np.random.default_rng(4)
        feeder = random_radial_feeder(rng, 12, profile="zip")
        model = assemble(feeder)
        sol = solve_linear(model)
        direct = np.linalg.solve(model.sys_a, model.sys_b)
        assert np.array_equal(sol.voltages[1:], direct)


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
        point = LinearizationPoint.for_feeder(feeder)
        assert point.phasors == (1.04 + 0j,)


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


def test_linearization_point_validation():
    with pytest.raises(ValueError):
        LinearizationPoint((0j,))
    feeder = two_bus_feeder()
    with pytest.raises(ValueError):
        solve_linear_full(feeder, LinearizationPoint((1.0 + 0j, 1.0 + 0j)))


@pytest.mark.parametrize("name", ["balanced_ten_bus", "unbalanced_ten_bus"])
@pytest.mark.parametrize("method", ["linear-simple", "linear-full", "bfs"])
def test_overflowing_voltage_scale_is_a_solver_error(name, method):
    # h * h overflows; the solvers report it without numpy warnings, which
    # the test settings turn into errors.
    import radialflow

    feeder = replace(radialflow.example_feeder(name), v_base=1e-300)
    with pytest.raises((SingularError, ConvergenceError)):
        solve(feeder, method)
