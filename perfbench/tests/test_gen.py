import numpy as np
import pytest

import gen
import radialflow as rf


@pytest.mark.parametrize("phases", [1, 3])
def test_same_seed_gives_identical_json(phases):
    a = gen.dumps(gen.feeder_doc([4, 1], 40, phases, 0.92, slack_voltage=1.02))
    b = gen.dumps(gen.feeder_doc([4, 1], 40, phases, 0.92, slack_voltage=1.02))
    c = gen.dumps(gen.feeder_doc([5, 1], 40, phases, 0.92, slack_voltage=1.02))
    assert a == b
    assert a != c


@pytest.mark.parametrize("n,phases,target", [(2, 1, 0.97), (30, 1, 0.9), (60, 3, 0.93)])
def test_calibrated_feeder_reaches_target_vmin(n, phases, target):
    feeder = rf.parse_feeder(gen.dumps(gen.feeder_doc(7, n, phases, target)))
    assert len(feeder.nodes) == n
    sol = rf.solve_bfs(feeder, rf.BfsOptions(tolerance=1e-10))
    assert sol.converged
    assert rf.v_min(sol) == pytest.approx(target, abs=1e-4)


def test_three_phase_feeders_mix_delta_and_single_phase_loads():
    doc = gen.feeder_doc(3, 200, 3, 0.93)
    connections = [load["connection"] for load in doc["loads"]]
    share = connections.count("delta") / len(connections)
    assert 0.2 < share < 0.4
    assert {load["phase"] for load in doc["loads"]} == {"all", "a", "b", "c"}
    for branch in doc["branches"]:
        z = np.array([complex(e["re"], e["im"]) for e in branch["impedance"]]).reshape(3, 3)
        assert np.array_equal(z, z.T)


def test_scaled_multiplies_every_load_component():
    doc = gen.feeder_doc(1, 10, 1, 0.95)
    half = gen.scaled(doc, 0.5)
    for a, b in zip(doc["loads"], half["loads"]):
        for key in ("s_z", "s_i", "s_p"):
            assert b[key]["re"] == pytest.approx(0.5 * a[key]["re"], rel=1e-8)
    assert half["branches"] == doc["branches"]
