import math

import numpy as np
import pytest

from radialflow import (
    Branch,
    Feeder,
    RadialityError,
    SingularError,
    ZipLoad,
    build_incidence,
    reduced_impedance,
    validate_radial,
    ybus,
)
from helpers import (
    brute_force_reduced_impedance,
    chain_feeder,
    random_radial_feeder,
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
        rng = np.random.default_rng(3)
        for _ in range(10):
            feeder = random_radial_feeder(rng, int(rng.integers(2, 20)))
            inc = build_incidence(feeder)
            red = reduced_impedance(inc, feeder)
            # branch rows follow incidence order, rebuild accordingly
            by_id = {b.id: complex(b.impedance) for b in feeder.branches}
            z = np.diag([by_id[bid] for bid in inc.branch_order])
            expected = brute_force_reduced_impedance(inc.a_m, z)
            assert np.allclose(red.d, expected, atol=1e-12)

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

    def test_non_topological_node_order_still_correct(self):
        # Parsing normalizes node order, but directly built feeders may
        # list children before parents; the LU fallback must agree.
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


class TestFeederConstruction:
    def test_phase_count_guard(self):
        with pytest.raises(ValueError):
            make_feeder(["1"], [], phase_count=2)

    def test_zero_slack_voltage_rejected(self):
        with pytest.raises(ValueError):
            make_feeder(["1"], [], v_s=0j)

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
        fields = dict(
            name="t",
            phase_count=1,
            nodes=("1", "2"),
            slack_voltage=1.0 + 0j,
            branches=(Branch("b1", "1", "2", 0.01 + 0.01j),),
        )
        fields[field] = value
        with pytest.raises(ValueError):
            Feeder(**fields)

    def test_delta_load_needs_three_phase(self):
        with pytest.raises(ValueError):
            Feeder(
                name="t",
                phase_count=1,
                nodes=("1", "2"),
                slack_voltage=1.0 + 0j,
                branches=(Branch("b1", "1", "2", 0.01 + 0.01j),),
                loads=(ZipLoad(node="2", s_p=0.1, connection="delta"),),
            )


def test_single_node_feeder_is_trivial():
    from radialflow import assemble, solve_bfs, solve_linear, residual

    feeder = make_feeder(["1"], [], v_s=1.02 + 0j)
    assert validate_radial(feeder).ok
    for sol in (solve_linear(assemble(feeder)), solve_bfs(feeder)):
        assert np.array_equal(sol.voltages, [1.02 + 0j])
    assert residual(feeder, solve_bfs(feeder)) == 0.0
