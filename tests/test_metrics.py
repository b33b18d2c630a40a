import numpy as np
import pytest

from radialflow import (
    BfsOptions,
    Branch,
    DimensionError,
    Feeder,
    Solution,
    UnsupportedPhaseError,
    ZipLoad,
    assemble,
    branch_flows,
    build_incidence,
    injection_current,
    losses,
    luvr,
    node_errors,
    solve_bfs,
    solve_linear,
    summarize,
    v_min,
)
from helpers import chain_feeder, random_radial_feeder, shuffled, two_bus_feeder
from radialflow.loads import PHASE_ROTATIONS
from radialflow.network import branch_impedance_matrix, phase_expand


def _three_phase_solution(mags_by_node):
    voltages = np.concatenate(
        [np.array(m) * np.array(PHASE_ROTATIONS) for m in mags_by_node]
    )
    return Solution(
        voltages=voltages,
        method="bfs",
        iterations=1,
        converged=True,
        nodes=tuple(str(i + 1) for i in range(len(mags_by_node))),
        phase_count=3,
    )


class TestBranchFlows:
    def test_zero_load_flows_are_zero(self):
        feeder = chain_feeder(4, 0.01 + 0.02j)
        sol = solve_bfs(feeder)
        flows = branch_flows(sol, build_incidence(feeder), feeder)
        assert np.max(np.abs(flows.currents)) == 0
        assert np.max(np.abs(flows.drops)) == 0
        assert np.max(np.abs(flows.sending_power)) == 0

    def test_two_bus_current_closes_kcl(self):
        z, s_p = 0.01 + 0.02j, 0.2 + 0.1j
        feeder = two_bus_feeder(z=z, s_p=s_p)
        sol = solve_bfs(feeder, BfsOptions(tolerance=1e-12))
        flows = branch_flows(sol, build_incidence(feeder), feeder)
        expected = (sol.voltages[0] - sol.voltages[1]) / z
        assert abs(flows.currents[0, 0] - expected) < 1e-12
        drawn = -injection_current(feeder.loads[0], sol.voltages[1])
        assert abs(flows.currents[0, 0] - drawn) < 1e-9

    def test_orientation_flip_changes_signs_not_loss(self):
        z = 0.01 + 0.02j
        loads = (ZipLoad(node="3", s_p=0.1 + 0.04j),)
        forward = chain_feeder(3, z, loads=loads)
        flipped = Feeder(
            name="flipped",
            phase_count=1,
            nodes=("1", "2", "3"),
            slack_voltage=1.0 + 0j,
            branches=(
                Branch("b1", "1", "2", z),
                Branch("b2", "3", "2", z),
            ),
            loads=loads,
        )
        sol_f = solve_bfs(forward, BfsOptions(tolerance=1e-12))
        sol_r = solve_bfs(flipped, BfsOptions(tolerance=1e-12))
        assert np.max(np.abs(sol_f.voltages - sol_r.voltages)) < 1e-12
        flows_f = branch_flows(sol_f, build_incidence(forward), forward)
        flows_r = branch_flows(sol_r, build_incidence(flipped), flipped)
        row = flows_f.branch_ids.index("b2")
        assert abs(flows_f.drops[row, 0] + flows_r.drops[row, 0]) < 1e-12
        assert abs(flows_f.currents[row, 0] + flows_r.currents[row, 0]) < 1e-10
        assert losses(flows_f) == pytest.approx(losses(flows_r), abs=1e-12)

    @pytest.mark.parametrize("phase_count", [1, 3])
    def test_matches_dense_oracle(self, phase_count):
        # I = Z^-1 A V with the dense block-diagonal Z and the
        # phase-expanded A, on topological and shuffled node orders with
        # some branches stored in reverse.
        rng = np.random.default_rng(30 + phase_count)
        for trial in range(16):
            feeder = random_radial_feeder(
                rng, int(rng.integers(2, 25)), phase_count, profile="zip"
            )
            if trial % 2:
                feeder = shuffled(rng, feeder)
            sol = solve_linear(assemble(feeder))
            inc = build_incidence(feeder)
            flows = branch_flows(sol, inc, feeder)
            drops = phase_expand(inc.a, phase_count) @ sol.voltages
            currents = np.linalg.solve(
                branch_impedance_matrix(inc, feeder), drops
            )
            assert np.max(np.abs(flows.currents.reshape(-1) - currents)) < 1e-12
            assert np.array_equal(flows.drops.reshape(-1), drops)

    def test_solution_of_another_feeder_rejected(self):
        small, large = chain_feeder(3, 0.01 + 0.02j), chain_feeder(4, 0.01j)
        with pytest.raises(ValueError):
            branch_flows(solve_bfs(large), build_incidence(small), small)


class TestLosses:
    def test_zero_loads(self):
        feeder = chain_feeder(4, 0.01 + 0.02j)
        sol = solve_bfs(feeder)
        assert losses(branch_flows(sol, build_incidence(feeder), feeder)) == (0, 0)

    def test_two_bus_closed_form(self):
        z = 0.01 + 0.02j
        feeder = two_bus_feeder(z=z)
        sol = solve_bfs(feeder, BfsOptions(tolerance=1e-12))
        flows = branch_flows(sol, build_incidence(feeder), feeder)
        p, q = losses(flows)
        expected = abs(flows.currents[0, 0]) ** 2 * z
        assert p == pytest.approx(expected.real, rel=1e-10)
        assert q == pytest.approx(expected.imag, rel=1e-10)
        assert p > 0 and q > 0

    def test_linear_within_two_percent_of_bfs(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            feeder = random_radial_feeder(
                rng, int(rng.integers(5, 25)), profile="p_only"
            )
            inc = build_incidence(feeder)
            ref = solve_bfs(feeder, BfsOptions(tolerance=1e-10))
            lin = solve_linear(assemble(feeder))
            p_ref, _ = losses(branch_flows(ref, inc, feeder))
            p_lin, _ = losses(branch_flows(lin, inc, feeder))
            assert p_ref > 0
            assert abs(p_lin - p_ref) / p_ref <= 0.02


class TestNodeErrors:
    def test_identical_solutions(self):
        feeder = chain_feeder(4, 0.01 + 0.02j)
        sol = solve_bfs(feeder)
        assert np.array_equal(node_errors(sol, sol), np.zeros(4))

    def test_single_node_difference(self):
        feeder = chain_feeder(6, 0.01 + 0.02j)
        a = solve_bfs(feeder)
        shifted = a.voltages.copy()
        shifted[4] = shifted[4] / abs(shifted[4]) * (abs(a.voltages[4]) + 0.002)
        b = Solution(
            voltages=shifted, method="bfs", iterations=1, converged=True,
            nodes=a.nodes, phase_count=1,
        )
        eps = node_errors(a, b)
        assert eps[4] == pytest.approx(0.002, abs=1e-12)
        assert np.max(np.delete(eps, 4)) == 0

    def test_complex_difference_variant(self):
        feeder = chain_feeder(3, 0.01 + 0.02j)
        a = solve_bfs(feeder)
        rotated = a.voltages * np.exp(1j * 0.01)
        b = Solution(
            voltages=rotated, method="bfs", iterations=1, converged=True,
            nodes=a.nodes, phase_count=1,
        )
        # same magnitudes, different angles
        assert np.max(node_errors(a, b)) < 1e-12
        assert np.min(node_errors(a, b, kind="complex")) > 1e-3

    def test_dimension_mismatch(self):
        a = solve_bfs(chain_feeder(3, 0.01 + 0.02j))
        b = solve_bfs(chain_feeder(4, 0.01 + 0.02j))
        with pytest.raises(DimensionError):
            node_errors(a, b)


class TestLuvr:
    def test_balanced_is_zero(self):
        sol = _three_phase_solution([(1.0, 1.0, 1.0), (1.0, 1.0, 1.0)])
        assert np.array_equal(luvr(sol), np.zeros(2))

    def test_printed_example(self):
        sol = _three_phase_solution([(1.05, 1.00, 0.98)])
        expected = 100 * abs(1.05 - 1.01) / 1.01
        assert luvr(sol)[0] == pytest.approx(expected, abs=1e-12)
        assert luvr(sol)[0] == pytest.approx(3.9604, abs=1e-4)

    def test_scale_invariant(self):
        sol = _three_phase_solution([(1.04, 0.99, 0.97)])
        scaled = _three_phase_solution([(2.08, 1.98, 1.94)])
        assert luvr(sol)[0] == pytest.approx(luvr(scaled)[0], rel=1e-12)

    def test_strict_variant_uses_max_deviation(self):
        # With the low phase farthest from the average, the strict form
        # reports a larger rate than the printed form.
        sol = _three_phase_solution([(1.01, 1.00, 0.90)])
        default = luvr(sol)[0]
        strict = luvr(sol, strict=True)[0]
        assert strict > default

    def test_single_phase_unsupported(self):
        sol = solve_bfs(chain_feeder(3, 0.01 + 0.02j))
        with pytest.raises(UnsupportedPhaseError):
            luvr(sol)


class TestSummarize:
    def test_report_fields(self):
        feeder = two_bus_feeder()
        inc = build_incidence(feeder)
        ref = solve_bfs(feeder, BfsOptions(tolerance=1e-10))
        lin = solve_linear(assemble(feeder))
        report = summarize(lin, inc, feeder, reference=ref)
        assert report.v_min == pytest.approx(abs(lin.voltages[1]))
        assert report.epsilon is not None
        assert report.luvr is None
        assert report.p_loss > 0

    def test_v_min_excludes_slack(self):
        feeder = chain_feeder(4, 0.02 + 0.04j, v_s=0.95 + 0j,
                              loads=(ZipLoad(node="4", s_p=0.05 + 0.02j),))
        sol = solve_bfs(feeder, BfsOptions(tolerance=1e-10))
        assert v_min(sol) < 0.95
