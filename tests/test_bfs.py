from dataclasses import replace

import numpy as np
import pytest

from radialflow import (
    BfsOptions,
    Branch,
    ConvergenceError,
    RadialityError,
    SingularError,
    ZipLoad,
    assemble,
    build_incidence,
    power_balance,
    residual,
    solve_bfs,
    solve_linear,
)
from helpers import (
    chain_feeder,
    random_radial_feeder,
    shuffled,
    two_bus_feeder,
    two_bus_fixed_point,
)


class TestSolveBfs:
    def test_zero_loads_one_iteration(self):
        feeder = chain_feeder(5, 0.01 + 0.02j, v_s=1.03 + 0j)
        sol = solve_bfs(feeder)
        assert sol.converged
        assert sol.iterations == 1
        assert np.array_equal(sol.voltages, np.full(5, 1.03 + 0j))

    def test_two_bus_matches_scalar_oracle(self):
        z, s_p = 0.01 + 0.02j, 0.2 + 0.1j
        feeder = two_bus_feeder(z=z, s_p=s_p)
        sol = solve_bfs(feeder, BfsOptions(tolerance=1e-10))
        oracle = two_bus_fixed_point(1.0 + 0j, z, s_p)
        assert abs(sol.voltages[1] - oracle) < 1e-10
        # the fixed point satisfies the exact quadratic nodal equation
        v = sol.voltages[1]
        lhs = v * np.conjugate(v) - np.conjugate(v) * 1.0
        assert abs(lhs + z * np.conjugate(s_p)) < 1e-9

    def test_pure_constant_current_two_iterations(self):
        rng = np.random.default_rng(1)
        feeder = random_radial_feeder(rng, 12, profile="i_only")
        sol = solve_bfs(feeder)
        assert sol.iterations <= 3
        linear = solve_linear(assemble(feeder))
        assert np.max(np.abs(sol.voltages - linear.voltages)) < 1e-9

    def test_convergence_error_carries_last_iterate(self):
        feeder = two_bus_feeder(s_p=0.3 + 0.1j)
        with pytest.raises(ConvergenceError) as excinfo:
            solve_bfs(feeder, BfsOptions(tolerance=1e-14, max_iterations=2))
        last = excinfo.value.last_solution
        assert last is not None
        assert not last.converged
        assert last.voltages.shape == (2,)

    def test_random_suite_converges_at_healthy_voltages(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            feeder = random_radial_feeder(
                rng, int(rng.integers(2, 31)), profile="zip",
                load_scale=2.0,
            )
            sol = solve_bfs(feeder)
            assert sol.converged
            assert np.min(np.abs(sol.voltages)) >= 0.8

    def test_residual_tracks_tolerance(self):
        rng = np.random.default_rng(3)
        for tolerance in (1e-6, 1e-8, 1e-10):
            feeder = random_radial_feeder(rng, 15, profile="zip")
            sol = solve_bfs(feeder, BfsOptions(tolerance=tolerance))
            assert residual(feeder, sol) <= 100 * tolerance

    def test_cyclic_feeder_rejected(self):
        chain = chain_feeder(4, 0.01 + 0.02j)
        ring = replace(chain, branches=chain.branches + (
            Branch("ring", chain.nodes[-1], chain.slack, 0.01 + 0.02j),
        ))
        with pytest.raises(RadialityError, match="cycle"):
            solve_bfs(ring)

    @pytest.mark.parametrize("phase_count", [1, 3])
    def test_sub_minimum_impedance_rejected(self, phase_count):
        feeder = random_radial_feeder(
            np.random.default_rng(21), 6, phase_count
        )
        tiny = 1e-10 if phase_count == 1 else tuple(
            tuple(1e-10 if i == j else 0.0 for j in range(3))
            for i in range(3)
        )
        branches = list(feeder.branches)
        branches[2] = replace(branches[2], impedance=tiny)
        with pytest.raises(SingularError, match=f"branch {branches[2].id}:"):
            solve_bfs(replace(feeder, branches=tuple(branches)))

    @pytest.mark.parametrize("phase_count", [1, 3])
    def test_node_order_does_not_change_the_sweep(self, phase_count):
        # The sweep sums each node's children in walk order, whatever order
        # the nodes are listed in: results agree to the last bit.
        rng = np.random.default_rng(40 + phase_count)
        for _ in range(15):
            feeder = random_radial_feeder(
                rng, int(rng.integers(2, 30)), phase_count, profile="zip",
                delta_fraction=0.3 if phase_count == 3 else 0.0,
            )
            other = shuffled(rng, feeder)
            sol = solve_bfs(feeder, BfsOptions(tolerance=1e-10))
            moved = solve_bfs(other, BfsOptions(tolerance=1e-10))
            position = {node: i for i, node in enumerate(other.nodes)}
            back = [position[node] for node in feeder.nodes]
            v = moved.voltages.reshape(-1, phase_count)[back].reshape(-1)
            assert np.array_equal(v, sol.voltages)
            assert moved.iterations == sol.iterations

    def test_options_validation(self):
        with pytest.raises(ValueError):
            BfsOptions(tolerance=0.0)
        with pytest.raises(ValueError):
            BfsOptions(max_iterations=0)

    def test_three_phase_delta_converges(self):
        import radialflow

        feeder = radialflow.example_feeder("unbalanced_ten_bus")
        sol = solve_bfs(feeder, BfsOptions(tolerance=1e-10))
        assert sol.converged
        assert residual(feeder, sol) < 1e-8


class TestResidual:
    def test_bfs_solution_small_residual(self):
        rng = np.random.default_rng(4)
        feeder = random_radial_feeder(rng, 20, profile="zip")
        sol = solve_bfs(feeder, BfsOptions(tolerance=1e-10))
        assert residual(feeder, sol) < 1e-8

    def test_zero_load_exact(self):
        feeder = chain_feeder(3, 0.01 + 0.02j)
        sol = solve_bfs(feeder)
        assert residual(feeder, sol) < 1e-14

    def test_linear_residual_shrinks_with_load(self):
        z = 0.008 + 0.016j
        values = []
        for scale in (1.0, 0.7, 0.4, 0.1):
            loads = tuple(
                ZipLoad(node=str(i), s_p=scale * (0.04 + 0.015j))
                for i in range(2, 6)
            )
            feeder = chain_feeder(5, z, loads=loads)
            sol = solve_linear(assemble(feeder))
            values.append(residual(feeder, sol))
        assert all(v > 0 for v in values)
        assert values == sorted(values, reverse=True)

    def test_dimension_mismatch(self):
        f_small = chain_feeder(3, 0.01 + 0.02j)
        f_large = chain_feeder(4, 0.01 + 0.02j)
        sol = solve_bfs(f_large)
        with pytest.raises(ValueError):
            residual(f_small, sol)


def test_energy_balance_on_converged_runs():
    rng = np.random.default_rng(5)
    for phase_count, delta_fraction in ((1, 0.0), (3, 0.5)):
        for _ in range(5):
            feeder = random_radial_feeder(
                rng, int(rng.integers(3, 15)), phase_count=phase_count,
                profile="zip", delta_fraction=delta_fraction,
            )
            sol = solve_bfs(feeder, BfsOptions(tolerance=1e-12))
            inc = build_incidence(feeder)
            slack, load, loss = power_balance(feeder, inc, sol)
            assert abs(slack - load - loss) < 1e-8
