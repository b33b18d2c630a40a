import math
from dataclasses import replace

import numpy as np
import pytest

from radialflow import (
    VoltageCollapseError,
    ZipLoad,
    delta_to_wye_injections,
    injection_current,
)
from radialflow.loads import (
    PHASE_ROTATIONS,
    drop_zero_loads,
    load_table,
    load_vectors,
    nodal_injections,
)
from helpers import (
    chain_feeder,
    random_radial_feeder,
    shuffled,
    unfactored_draw,
    unfactored_injections,
)


NOMINAL_ABC = np.array(PHASE_ROTATIONS)

Z1 = 0.01 + 0.02j
Z3 = tuple(
    tuple(0.01 + 0.02j if i == j else 0.004 + 0.008j for j in range(3))
    for i in range(3)
)


def _node_vectors(load):
    """load_vectors of a 2-node three-phase feeder, as (s_z, s_i, s_p) at
    node 2's phases a, b, c."""
    s_z, s_i, s_p = load_vectors(chain_feeder(2, Z3, loads=(load,)))
    return s_z[3:], s_i[3:], s_p[3:]


class TestInjectionCurrent:
    def test_constant_power_at_unity(self):
        load = ZipLoad(node="2", s_p=0.1 + 0.05j)
        assert injection_current(load, 1.0 + 0j) == -(0.1 - 0.05j)

    def test_zero_load(self):
        load = ZipLoad(node="2")
        assert injection_current(load, 1.0 + 0j) == 0

    def test_constant_impedance_half_voltage(self):
        load = ZipLoad(node="2", s_z=1.0 + 0j)
        assert injection_current(load, 0.5 + 0j) == -0.5 + 0j

    def test_impedance_part_homogeneous(self):
        v = 0.93 - 0.04j
        one = injection_current(ZipLoad(node="2", s_z=0.2 + 0.1j), v)
        two = injection_current(ZipLoad(node="2", s_z=0.4 + 0.2j), v)
        assert two == 2 * one

    def test_constant_current_independent_of_voltage(self):
        load = ZipLoad(node="2", s_i=0.3 + 0.1j)
        a = injection_current(load, 1.0 + 0j)
        b = injection_current(load, 0.7 - 0.2j)
        assert a == b

    def test_voltage_collapse_guard(self):
        load = ZipLoad(node="2", s_p=0.1)
        with pytest.raises(VoltageCollapseError):
            injection_current(load, 1e-7 + 0j)

    def test_scale_factor(self):
        # h scales the impedance part quadratically, the current part
        # linearly and leaves the power part alone.
        load = ZipLoad(node="2", s_z=0.2, s_i=0.1, s_p=0.05)
        v = 1.0 + 0j
        expected = -(0.25 * 0.2 * v + 0.5 * 0.1 + 0.05)
        assert injection_current(load, v, h=0.5) == expected


class TestDeltaInjections:
    def test_all_legs_zero(self):
        out = delta_to_wye_injections([], NOMINAL_ABC)
        assert np.array_equal(out, np.zeros(3))

    def test_balanced_power_legs(self):
        loads = [ZipLoad(node="2", s_p=0.3 + 0.1j, phase="all",
                         connection="delta")]
        out = delta_to_wye_injections(loads, NOMINAL_ABC)
        mags = np.abs(out)
        assert np.max(mags) - np.min(mags) < 1e-12
        # phases 120 degrees apart
        angles = np.sort(np.angle(out))
        gaps = np.diff(angles)
        assert np.allclose(gaps, 2 * math.pi / 3, atol=1e-12)

    def test_single_leg_enters_and_leaves(self):
        loads = [ZipLoad(node="2", s_p=0.2 + 0.05j, phase="a",
                         connection="delta")]
        out = delta_to_wye_injections(loads, NOMINAL_ABC)
        assert out[2] == 0
        assert abs(out[0] + out[1]) < 1e-15

    def test_injections_sum_to_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            loads = [
                ZipLoad(
                    node="2",
                    s_z=complex(*rng.uniform(0, 0.1, 2)),
                    s_i=complex(*rng.uniform(0, 0.1, 2)),
                    s_p=complex(*rng.uniform(0, 0.1, 2)),
                    phase=str(rng.choice(["a", "b", "c", "all"])),
                    connection="delta",
                )
            ]
            v = NOMINAL_ABC * (1 + rng.uniform(-0.05, 0.05, 3)) * np.exp(
                1j * rng.uniform(-0.05, 0.05, 3)
            )
            out = delta_to_wye_injections(loads, v)
            assert abs(out.sum()) < 1e-12

    def test_collapsed_line_voltage(self):
        loads = [ZipLoad(node="2", s_p=0.1, phase="a", connection="delta")]
        collapsed = np.array([1.0, 1.0, PHASE_ROTATIONS[2]])
        with pytest.raises(VoltageCollapseError):
            delta_to_wye_injections(loads, collapsed)

    @pytest.mark.parametrize(
        "connection,v_abc,message",
        [
            ("delta", NOMINAL_ABC[:2], "exactly three phase voltages"),
            ("wye", NOMINAL_ABC, "only delta loads"),
        ],
    )
    def test_malformed_call_rejected(self, connection, v_abc, message):
        loads = [ZipLoad(node="2", s_p=0.1, phase="a", connection=connection)]
        with pytest.raises(ValueError, match=message):
            delta_to_wye_injections(loads, v_abc)

    def test_balanced_leg_power_at_nominal(self):
        # Each leg consumes exactly its specified power at nominal voltage.
        s = 0.3 + 0.1j
        loads = [ZipLoad(node="2", s_z=s, phase="all", connection="delta")]
        out = delta_to_wye_injections(loads, NOMINAL_ABC)
        total = np.sum(NOMINAL_ABC * np.conjugate(-out))
        assert abs(total - 3 * s) < 1e-12


class TestWyeEquivalents:
    """Delta legs enter ``load_vectors`` split onto their two phases."""

    def test_wye_passes_through(self):
        load = ZipLoad(node="2", s_p=0.1)
        s_z, s_i, s_p = _node_vectors(load)
        assert np.array_equal(s_p, np.full(3, load.s_p))
        assert not np.any(s_z) and not np.any(s_i)

    def test_split_factors_conserve_power(self):
        load = ZipLoad(node="2", s_p=0.12 + 0.05j, s_z=0.04 + 0.01j,
                       phase="a", connection="delta")
        s_z, _, s_p = _node_vectors(load)
        assert np.count_nonzero(s_p) == 2
        assert abs(s_p.sum() - load.s_p) < 1e-15
        assert abs(s_z.sum() - load.s_z) < 1e-15

    def test_balanced_delta_equals_balanced_wye(self):
        s = 0.09 + 0.04j
        load = ZipLoad(node="2", s_p=s, phase="all", connection="delta")
        _, _, s_p = _node_vectors(load)
        for value in s_p:
            assert abs(value - s) < 1e-12

    def test_equivalents_match_exact_injections_at_nominal(self):
        load = ZipLoad(node="2", s_p=0.15 + 0.06j, phase="b",
                       connection="delta")
        exact = delta_to_wye_injections([load], NOMINAL_ABC)
        _, _, s_p = _node_vectors(load)
        approx = np.array([
            injection_current(
                ZipLoad(node="2", s_p=s_p[idx]), NOMINAL_ABC[idx],
                rotation=PHASE_ROTATIONS[idx],
            )
            for idx in range(3)
        ])
        assert np.max(np.abs(exact - approx)) < 1e-12


#: Several loads per node: wye "all" plus a single-phase wye at node 2,
#: delta "all" plus a single-leg delta at node 3, both kinds at node 4.
_STACKED = (
    ZipLoad(node="2", s_z=0.02 + 0.01j, s_i=0.01, s_p=0.03 + 0.01j),
    ZipLoad(node="2", s_p=0.04 + 0.02j, s_i=0.005j, phase="b"),
    ZipLoad(node="3", s_z=0.01 + 0.004j, s_p=0.02 + 0.01j,
            connection="delta"),
    ZipLoad(node="3", s_i=0.03 + 0.01j, s_p=0.01, phase="c",
            connection="delta"),
    ZipLoad(node="4", s_p=0.02 + 0.01j, phase="a"),
    ZipLoad(node="4", s_z=0.015, s_p=0.01 + 0.002j, phase="b",
            connection="delta"),
)


class TestStackedLoads:
    """Loads sharing a node add up in the feeder's load table."""

    def _voltages(self, feeder):
        rng = np.random.default_rng(5)
        n, p = len(feeder.nodes), feeder.phase_count
        nominal = np.tile(NOMINAL_ABC[:p], n)
        return nominal * (1 + rng.uniform(-0.05, 0.05, n * p)) * np.exp(
            1j * rng.uniform(-0.05, 0.05, n * p)
        )

    def test_injections_are_the_per_load_sum(self):
        feeder = chain_feeder(4, Z3, loads=_STACKED)
        v = self._voltages(feeder)
        expected = np.zeros(12, dtype=complex)
        for load in feeder.loads:
            base = feeder.nodes.index(load.node) * 3
            if load.connection == "delta":
                expected[base : base + 3] += delta_to_wye_injections(
                    [load], v[base : base + 3], feeder.h
                )
                continue
            phases = range(3) if load.phase == "all" else ["abc".index(load.phase)]
            for k in phases:
                expected[base + k] += injection_current(
                    load, v[base + k], feeder.h, PHASE_ROTATIONS[k]
                )
        got = nodal_injections(feeder, v)
        assert np.max(np.abs(got - expected)) < 1e-14

    def test_single_phase_injections_are_the_per_load_sum(self):
        loads = (
            ZipLoad(node="2", s_z=0.02, s_p=0.03 + 0.01j),
            ZipLoad(node="2", s_i=0.01 + 0.002j, s_p=0.01, phase="c"),
            ZipLoad(node="3", s_p=0.02 + 0.01j),
        )
        feeder = chain_feeder(3, Z1, loads=loads)
        v = self._voltages(feeder)
        expected = np.zeros(3, dtype=complex)
        for load in loads:
            k = feeder.nodes.index(load.node)
            expected[k] += injection_current(load, v[k], feeder.h)
        got = nodal_injections(feeder, v)
        assert np.max(np.abs(got - expected)) < 1e-14

    def test_load_vectors_are_the_per_leg_split(self):
        feeder = chain_feeder(4, Z3, loads=_STACKED)
        expected = np.zeros((3, 12), dtype=complex)
        for load in feeder.loads:
            base = feeder.nodes.index(load.node) * 3
            parts = np.array([load.s_z, load.s_i, load.s_p])
            legs = range(3) if load.phase == "all" else ["abc".index(load.phase)]
            for leg in legs:
                if load.connection == "wye":
                    expected[:, base + leg] += parts
                    continue
                p, q = leg, (leg + 1) % 3
                rho_p, rho_q = PHASE_ROTATIONS[p], PHASE_ROTATIONS[q]
                expected[:, base + p] += parts * rho_p / (rho_p - rho_q)
                expected[:, base + q] += parts * -rho_q / (rho_p - rho_q)
        got = np.array(load_vectors(feeder))
        assert np.max(np.abs(got - expected)) < 1e-14

    @pytest.mark.parametrize("z", [Z1, Z3], ids=["1", "3"])
    def test_load_vectors_are_fresh_arrays(self, z):
        feeder = chain_feeder(3, z, loads=(ZipLoad(node="2", s_p=0.02),))
        s_z, s_i, s_p = load_vectors(feeder)
        s_p *= 2
        assert np.array_equal(load_vectors(feeder)[2], s_p / 2)


class TestInjectionBits:
    """The load factors kept in the load table give every injection bit
    for bit what the per-slot formula gives with its factors formed on each
    evaluation."""

    def _cases(self, phase_count):
        rng = np.random.default_rng(60 + phase_count)
        for v_base in (1.0, 12.47, 1e-3):
            for _ in range(4):
                feeder = random_radial_feeder(
                    rng, int(rng.integers(2, 40)), phase_count,
                    profile="zip", delta_fraction=0.4,
                )
                feeder = replace(feeder, v_base=v_base)
                for copy in (feeder, shuffled(rng, feeder)):
                    yield rng, copy, self._voltages(rng, copy)

    @staticmethod
    def _voltages(rng, feeder):
        n, p = len(feeder.nodes), feeder.phase_count
        nominal = np.tile(NOMINAL_ABC[:p], n)
        return nominal * (1 + rng.uniform(-0.08, 0.08, n * p)) * np.exp(
            1j * rng.uniform(-0.1, 0.1, n * p)
        )

    @pytest.mark.parametrize("phase_count", [1, 3])
    def test_nodal_injections(self, phase_count):
        for _, feeder, v in self._cases(phase_count):
            p = feeder.phase_count
            expected = unfactored_injections(
                feeder.load_table, v.reshape(-1, p), feeder.h
            )
            got = nodal_injections(feeder, v)
            assert np.array_equal(got, expected.reshape(-1))

    @pytest.mark.parametrize("phase_count", [1, 3])
    def test_injection_current(self, phase_count):
        for rng, feeder, v in self._cases(phase_count):
            # Each wye load at one of the sampled voltages.
            for load, voltage in zip(feeder.loads, v):
                if load.connection == "delta":
                    continue
                rotation = PHASE_ROTATIONS[int(rng.integers(0, 3))]
                stack = np.array(
                    [load.s_z, load.s_i, load.s_p], dtype=complex
                ).reshape(3, 1, 1)
                draw = unfactored_draw(
                    stack, np.array([[voltage]]), feeder.h,
                    np.array([rotation]),
                )
                got = injection_current(load, voltage, feeder.h, rotation)
                assert got == -complex(draw[0, 0])

    def test_delta_to_wye_injections(self):
        for rng, feeder, v in self._cases(3):
            loads = [
                load for load in feeder.loads if load.connection == "delta"
            ]
            nodes = tuple(dict.fromkeys(load.node for load in loads))
            v_abc = v[3:6]
            table = load_table(loads, nodes, 3, feeder.h)
            expected = unfactored_injections(
                table, np.broadcast_to(v_abc, (len(nodes), 3)), feeder.h
            ).sum(axis=0)
            got = delta_to_wye_injections(loads, v_abc, feeder.h)
            assert np.array_equal(got, expected)


class TestNodalCollapse:
    def test_wye_slot_names_the_node(self):
        feeder = chain_feeder(
            3, Z3, loads=(ZipLoad(node="3", s_p=0.1, phase="b"),)
        )
        v = np.tile(NOMINAL_ABC, 3)
        v[7] = 1e-7
        with pytest.raises(VoltageCollapseError, match="at node 3"):
            nodal_injections(feeder, v)

    def test_delta_leg_names_the_leg_and_node(self):
        load = ZipLoad(node="2", s_p=0.1, phase="a", connection="delta")
        feeder = chain_feeder(3, Z3, loads=(load,))
        v = np.tile(NOMINAL_ABC, 3)
        v[4] = v[3]  # phases a and b coincide: leg ab sees no voltage
        with pytest.raises(
            VoltageCollapseError, match="on leg ab at node 2"
        ):
            nodal_injections(feeder, v)

    def test_unloaded_slots_are_not_checked(self):
        feeder = chain_feeder(3, Z1, loads=(ZipLoad(node="2"),))
        v = np.array([1.0, 0.0, 0.0], dtype=complex)
        assert not np.any(nodal_injections(feeder, v))


def test_drop_zero_loads_warns(caplog):
    loads = [ZipLoad(node="2"), ZipLoad(node="3", s_p=0.1)]
    with caplog.at_level("WARNING"):
        kept = drop_zero_loads(loads)
    assert len(kept) == 1
    assert kept[0].node == "3"
    assert any("all-zero load" in r.message for r in caplog.records)


@pytest.mark.parametrize("value", ["x", None])
@pytest.mark.parametrize("name", ["s_z", "s_i", "s_p"])
def test_a_component_that_is_not_a_number_is_a_type_error(name, value):
    with pytest.raises(TypeError):
        ZipLoad(node="2", **{name: value})


@pytest.mark.parametrize("value", [
    complex(math.nan, 0), complex(0, math.inf), math.nan, -math.inf,
])
@pytest.mark.parametrize("name", ["s_z", "s_i", "s_p"])
def test_a_non_finite_component_is_named(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
        ZipLoad(node="2", **{name: value})


def test_invalid_fields_rejected():
    with pytest.raises(ValueError):
        ZipLoad(node="2", phase="d")
    with pytest.raises(ValueError):
        ZipLoad(node="2", connection="mesh")
    with pytest.raises(ValueError):
        ZipLoad(node="2", s_p=complex(float("nan"), 0))
