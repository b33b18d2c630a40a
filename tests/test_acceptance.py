"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the test outcomes.
"""

import json
import time

import numpy as np

import radialflow
from radialflow import (
    BfsOptions,
    ZipLoad,
    assemble,
    build_incidence,
    branch_flows,
    losses,
    luvr,
    node_errors,
    power_balance,
    reduced_impedance,
    residual,
    solve,
    solve_bfs,
    solve_linear,
    solve_linear_full,
    ybus,
)
from radialflow.cli import main
from radialflow.io import serialize_feeder
from helpers import chain_feeder, random_radial_feeder, two_bus_fixed_point


def _report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {text}")


def test_criterion_1_zero_load_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(50):
        phase_count = 3 if i % 4 == 0 else 1
        n = int(rng.integers(2, 51 if phase_count == 1 else 21))
        v_s = complex(rng.uniform(0.95, 1.08), 0)
        feeder = random_radial_feeder(
            rng, n, phase_count=phase_count, profile="none", v_s=v_s
        )
        nominal = np.tile(feeder.slack_phasors(), n)
        for sol in (
            solve_linear(assemble(feeder)),
            solve_linear_full(feeder),
            solve_bfs(feeder),
        ):
            worst = max(worst, float(np.max(np.abs(sol.voltages - nominal))))
    elapsed = time.perf_counter() - started
    assert worst < 1e-12
    assert elapsed < 5.0
    _report(1, f"zero-load identity, 50 feeders, worst deviation "
               f"{worst:.2e} < 1e-12 in {elapsed:.2f}s")


def test_criterion_2_exact_model_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(102)
    worst_residual = 0.0
    worst_gap = 0.0
    for profile in ("z_only", "i_only"):
        for _ in range(15):
            n = int(rng.integers(2, 31))
            feeder = random_radial_feeder(rng, n, profile=profile)
            lin = solve_linear(assemble(feeder))
            ref = solve_bfs(feeder, BfsOptions(tolerance=1e-12))
            worst_residual = max(worst_residual, residual(feeder, lin))
            worst_gap = max(
                worst_gap, float(np.max(np.abs(lin.voltages - ref.voltages)))
            )
    elapsed = time.perf_counter() - started
    assert worst_residual < 1e-10
    assert worst_gap < 1e-8
    assert elapsed < 5.0
    _report(2, f"constant-Z/constant-I exactness: residual {worst_residual:.2e} "
               f"< 1e-10, linear-vs-BFS gap {worst_gap:.2e} < 1e-8")


def _light_load_suite():
    rng = np.random.default_rng(103)
    for _ in range(100):
        n = int(rng.integers(2, 31))
        yield random_radial_feeder(rng, n, profile="p_only", v_s=1.0 + 0j)


def test_criterion_3_oracle_proximity_light_load():
    started = time.perf_counter()
    worst_max, worst_mean = 0.0, 0.0
    for feeder in _light_load_suite():
        assert max((abs(l.s_p) for l in feeder.loads), default=0.0) <= 0.05
        lin = solve_linear(assemble(feeder))
        ref = solve_bfs(feeder, BfsOptions(tolerance=1e-10))
        eps = node_errors(lin, ref)
        worst_max = max(worst_max, float(np.max(eps)))
        worst_mean = max(worst_mean, float(np.mean(eps)))
    elapsed = time.perf_counter() - started
    assert worst_max <= 5e-3
    assert worst_mean <= 1e-3
    assert elapsed < 30.0
    _report(3, f"oracle proximity over 100 light-load feeders: max eps "
               f"{worst_max:.2e} <= 5e-3, mean eps {worst_mean:.2e} <= 1e-3 "
               f"in {elapsed:.2f}s")


def test_criterion_4_loss_accuracy():
    worst = 0.0
    for feeder in _light_load_suite():
        inc = build_incidence(feeder)
        lin = solve_linear(assemble(feeder))
        ref = solve_bfs(feeder, BfsOptions(tolerance=1e-10))
        p_ref, _ = losses(branch_flows(ref, inc, feeder))
        p_lin, _ = losses(branch_flows(lin, inc, feeder))
        if p_ref > 1e-12:
            worst = max(worst, abs(p_lin - p_ref) / p_ref)
    assert worst <= 0.02
    _report(4, f"loss accuracy: worst relative gap {worst * 100:.3f}% <= 2%")


def test_criterion_5_linearization_point_sensitivity():
    loads = tuple(
        ZipLoad(node=str(i), s_p=0.03 + 0.012j + 0.003j * (i % 3))
        for i in range(2, 11)
    )
    feeder = chain_feeder(10, 0.006 + 0.012j, v_s=1.05 + 0j, loads=loads)
    ref = solve_bfs(feeder, BfsOptions(tolerance=1e-12))
    err_matched = float(np.max(node_errors(solve_linear_full(feeder, 1.05), ref)))
    err_unity = float(np.max(node_errors(solve_linear_full(feeder, 1.0), ref)))
    assert err_matched < err_unity
    _report(5, f"expansion at the source voltage beats unity point: "
               f"{err_matched:.2e} < {err_unity:.2e}")


def test_criterion_6_algebraic_identities():
    rng = np.random.default_rng(106)
    worst_inverse = 0.0
    worst_modes = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 26))
        feeder = random_radial_feeder(rng, n, profile="zip", v_s=1.0 + 0j)
        inc = build_incidence(feeder)
        red = reduced_impedance(inc, feeder)
        y = ybus(inc, feeder)
        gap = np.max(np.abs(y[1:, 1:] @ red.d - np.eye(n - 1)))
        worst_inverse = max(worst_inverse, float(gap))
        slack_map = np.linalg.solve(inc.a_m, inc.a_s)
        assert np.all(slack_map == -1.0)
        simple = solve_linear(assemble(feeder))
        full = solve_linear_full(feeder)
        worst_modes = max(
            worst_modes, float(np.max(np.abs(simple.voltages - full.voltages)))
        )
    assert worst_inverse < 1e-10
    assert worst_modes < 1e-12
    _report(6, f"identities over 100 feeders: |Y_MM D - I| {worst_inverse:.2e} "
               f"< 1e-10, slack map exactly -1, full-vs-simple at unit slack "
               f"{worst_modes:.2e} < 1e-12")


def test_criterion_7_unbalanced_parity():
    started = time.perf_counter()
    feeder = radialflow.example_feeder("unbalanced_ten_bus")
    ref = solve_bfs(feeder, BfsOptions(tolerance=1e-10))
    lin = solve(feeder)
    rate_ref = luvr(ref)
    rate_lin = luvr(lin)
    over_ref = {feeder.nodes[i] for i in np.flatnonzero(rate_ref > 1.0)}
    over_lin = {feeder.nodes[i] for i in np.flatnonzero(rate_lin > 1.0)}
    gap = float(np.max(np.abs(rate_ref - rate_lin)))
    elapsed = time.perf_counter() - started
    assert over_ref == over_lin
    assert len(over_ref) > 0
    assert gap <= 0.1
    assert elapsed < 10.0
    _report(7, f"unbalance parity: {sorted(over_ref)} exceed 1% under both "
               f"solvers, max LUVR gap {gap:.3f} points <= 0.1")


def test_criterion_8_bfs_self_consistency():
    z, s_p = 0.01 + 0.02j, 0.2 + 0.1j
    feeder = radialflow.example_feeder("two_bus")
    sol = solve_bfs(feeder, BfsOptions(tolerance=1e-10))
    oracle = two_bus_fixed_point(1.0 + 0j, z, s_p)
    analytic_gap = abs(sol.voltages[1] - oracle)
    assert analytic_gap < 1e-9

    rng = np.random.default_rng(108)
    worst_balance = 0.0
    for phase_count, delta_fraction in ((1, 0.0), (3, 0.6)):
        for _ in range(10):
            n = int(rng.integers(2, 21))
            feeder = random_radial_feeder(
                rng, n, phase_count=phase_count, profile="zip",
                delta_fraction=delta_fraction,
            )
            sol = solve_bfs(feeder, BfsOptions(tolerance=1e-10))
            assert sol.converged
            inc = build_incidence(feeder)
            slack, load, loss = power_balance(feeder, inc, sol)
            worst_balance = max(worst_balance, abs(slack - load - loss))
    assert worst_balance < 1e-8
    _report(8, f"BFS self-consistency: two-bus gap {analytic_gap:.2e} < 1e-9, "
               f"worst energy imbalance {worst_balance:.2e} < 1e-8")


def test_criterion_9_cli_contract(tmp_path, capsys):
    valid = tmp_path / "valid.json"
    valid.write_text(serialize_feeder(radialflow.example_feeder("two_bus")))
    cyclic = tmp_path / "cyclic.json"
    cyclic.write_text(json.dumps({
        "schema_version": "1",
        "slack": {"node": "1", "voltage": {"re": 1.0, "im": 0.0}},
        "branches": [
            {"id": "b1", "from": "1", "to": "2",
             "impedance": {"re": 0.01, "im": 0.02}},
            {"id": "b2", "from": "2", "to": "3",
             "impedance": {"re": 0.01, "im": 0.02}},
            {"id": "b3", "from": "3", "to": "1",
             "impedance": {"re": 0.01, "im": 0.02}},
        ],
    }))
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{broken")

    assert main(["validate", str(valid)]) == 0
    assert "OK" in capsys.readouterr().out
    assert main(["validate", str(cyclic)]) == 2
    assert "cycle" in capsys.readouterr().out
    assert main(["validate", str(malformed)]) == 1
    capsys.readouterr()
    assert main([
        "solve", str(valid), "--method", "bfs",
        "--tolerance", "1e-14", "--max-iterations", "2",
    ]) == 3
    capsys.readouterr()

    reruns = []
    for argv in (
        ["solve", str(valid), "--format", "json"],
        ["solve", str(valid), "--format", "csv"],
        ["compare", str(valid), "--format", "csv"],
        ["metrics", str(valid), "--format", "json"],
    ):
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        reruns.append(argv[0])
    _report(9, f"CLI exit codes 0/1/2/3 verified, byte-identical reruns for "
               f"{reruns}")
