import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import radialflow
from radialflow import (
    BfsOptions,
    network,
    node_errors,
    solve_bfs,
    solve_linear_full,
)
from radialflow.cli import LINEAR_METHODS, main
from radialflow.io import serialize_feeder
from helpers import two_bus_feeder

VALID = serialize_feeder(radialflow.example_feeder("two_bus"))

CYCLIC = """
{
  "schema_version": "1",
  "slack": {"node": "1", "voltage": {"re": 1.0, "im": 0.0}},
  "branches": [
    {"id": "b1", "from": "1", "to": "2", "impedance": {"re": 0.01, "im": 0.02}},
    {"id": "b2", "from": "2", "to": "3", "impedance": {"re": 0.01, "im": 0.02}},
    {"id": "b3", "from": "3", "to": "1", "impedance": {"re": 0.01, "im": 0.02}}
  ]
}
"""


@pytest.fixture
def valid_file(tmp_path):
    path = tmp_path / "valid.json"
    path.write_text(VALID)
    return str(path)


@pytest.fixture
def cyclic_file(tmp_path):
    path = tmp_path / "cyclic.json"
    path.write_text(CYCLIC)
    return str(path)


@pytest.fixture
def malformed_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{this is not json")
    return str(path)


class TestExitCodes:
    def test_validate_ok(self, valid_file, capsys):
        assert main(["validate", valid_file]) == 0
        assert capsys.readouterr().out == "OK\n"

    def test_validate_cycle(self, cyclic_file, capsys):
        assert main(["validate", cyclic_file]) == 2
        assert "cycle" in capsys.readouterr().out

    def test_validate_malformed(self, malformed_file, capsys):
        assert main(["validate", malformed_file]) == 1

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.json")]) == 1

    def test_solve_ok(self, valid_file, capsys):
        assert main(["solve", valid_file]) == 0

    @pytest.mark.parametrize("method", (*LINEAR_METHODS, "bfs"))
    def test_non_finite_linear_solution_is_a_solver_error(
        self, tmp_path, method
    ):
        doc = json.loads(VALID)
        doc["options"]["v_base"] = 1e-300
        path = tmp_path / "tiny_base.json"
        path.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "radialflow.cli", "solve", str(path),
             "--format", "csv", "--method", method],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        # One diagnostic line: no traceback, no numpy warning.
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("solver error: ")

    def test_nodes_not_a_list_is_a_parse_error(self, tmp_path):
        doc = json.loads(VALID)
        doc["nodes"] = 5
        path = tmp_path / "int_nodes.json"
        path.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "radialflow.cli", "solve", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "nodes: expected a list" in proc.stderr

    def test_solve_on_cycle_is_validation_error(self, cyclic_file):
        assert main(["solve", cyclic_file]) == 2

    def test_solver_failure_maps_to_three(self, valid_file):
        code = main([
            "solve", valid_file, "--method", "bfs",
            "--tolerance", "1e-14", "--max-iterations", "2",
        ])
        assert code == 3

    def test_compare_and_metrics_ok(self, valid_file):
        assert main(["compare", valid_file]) == 0
        assert main(["metrics", valid_file]) == 0

    @pytest.mark.parametrize("value", ["0", "0j", "nan"])
    @pytest.mark.parametrize("method", ["linear-simple", "linear-full"])
    def test_degenerate_v0_is_a_usage_error(self, valid_file, capsys, method, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", valid_file, "--method", method, "--v0", value])
        assert excinfo.value.code == 2
        assert "--v0" in capsys.readouterr().err

    def test_non_finite_input_is_a_parse_error(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(VALID.replace('"re": 0.01', '"re": NaN', 1))
        proc = subprocess.run(
            [sys.executable, "-m", "radialflow.cli", "solve", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "branches[0].impedance" in proc.stderr


@pytest.mark.parametrize("command", ["compare", "metrics"])
def test_one_topology_pass_per_feeder_object(monkeypatch, capsys, command):
    # parse_feeder validates the declared order, then reorders the nodes:
    # two Feeder objects, each validated and walked once.
    originals = {
        name: getattr(network, name)
        for name in ("validate_radial", "tree_structure")
    }
    calls = Counter()

    def counting(name):
        def counted(feeder):
            calls[name] += 1
            return originals[name](feeder)

        return counted

    for module_name, module in list(sys.modules.items()):
        if module_name.partition(".")[0] != "radialflow":
            continue
        for name, original in originals.items():
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting(name))
    path = Path(radialflow.__file__).parent / "data" / "unbalanced_ten_bus.json"
    assert main([command, str(path)]) == 0
    assert calls["validate_radial"] <= 2
    assert calls["tree_structure"] <= 2


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "command",
        [
            ["solve", "--method", "linear-simple"],
            ["solve", "--method", "linear-full"],
            ["solve", "--method", "bfs"],
            ["compare"],
            ["metrics"],
        ],
    )
    def test_byte_identical_reruns(self, valid_file, capsys, command, fmt):
        argv = [command[0], valid_file, *command[1:], "--format", fmt]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first  # non-empty


class TestSolveCommand:
    def test_zero_load_voltages_flat(self, tmp_path, capsys):
        doc = json.loads(VALID)
        doc["loads"] = []
        doc["slack"]["voltage"] = {"re": 1.02, "im": 0.0}
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        for line in lines[1:]:
            assert float(line.split(",")[2]) == pytest.approx(1.02)

    def test_bfs_matches_scalar_oracle(self, valid_file, capsys):
        assert main([
            "solve", valid_file, "--method", "bfs", "--tolerance", "1e-10",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        from helpers import two_bus_fixed_point

        oracle = two_bus_fixed_point(1.0 + 0j, 0.01 + 0.02j, 0.2 + 0.1j)
        row = next(r for r in doc["nodes"] if r["id"] == "2")
        assert abs(complex(row["v_re"], row["v_im"]) - oracle) < 1e-9

    def test_v0_override_changes_full_solution(self, tmp_path, capsys):
        feeder = two_bus_feeder(z=0.02 + 0.04j, s_p=0.3 + 0.1j, v_s=1.05 + 0j)
        path = tmp_path / "shifted.json"
        path.write_text(serialize_feeder(feeder))
        argv = ["solve", str(path), "--method", "linear-full"]
        assert main(argv + ["--v0", "1.05"]) == 0
        at_vs = capsys.readouterr().out
        assert main(argv + ["--v0", "1.0"]) == 0
        at_one = capsys.readouterr().out
        assert at_vs != at_one
        # matching the source voltage tracks the reference better
        ref = solve_bfs(feeder, BfsOptions(tolerance=1e-12))
        err_vs = np.max(node_errors(solve_linear_full(feeder, 1.05), ref))
        err_one = np.max(node_errors(solve_linear_full(feeder, 1.0), ref))
        assert err_vs < err_one

    def test_output_file(self, valid_file, tmp_path, capsys):
        out = tmp_path / "result.json"
        assert main(["solve", valid_file, "-o", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["method"] == "linear-simple"


class TestCompareCommand:
    def test_zero_load_epsilon_zero(self, tmp_path, capsys):
        doc = json.loads(VALID)
        doc["loads"] = []
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(doc))
        assert main(["compare", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["summary"]["max_epsilon"] == 0
        assert all(row["epsilon"] == 0 for row in out["nodes"])

    def test_three_phase_reports_luvr_parity(self, tmp_path, capsys):
        feeder = radialflow.example_feeder("unbalanced_ten_bus")
        path = tmp_path / "unbalanced.json"
        path.write_text(serialize_feeder(feeder))
        assert main(["compare", str(path), "--tolerance", "1e-10"]) == 0
        doc = json.loads(capsys.readouterr().out)
        summary = doc["summary"]["luvr_over_1pct"]
        assert summary["identical"] is True
        assert summary["count_linear"] == summary["count_bfs"] > 0
        assert "luvr_linear" in doc["nodes"][0]

    def test_csv_is_plot_ready(self, valid_file, capsys):
        assert main(["compare", valid_file, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "id,phase,v_mag_linear,v_mag_bfs,epsilon"
        assert len(lines) == 3


class TestMetricsCommand:
    def test_json_fields(self, valid_file, capsys):
        assert main(["metrics", valid_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["method"] == "bfs"
        assert doc["converged"] is True
        assert doc["p_loss"] > 0
        assert doc["v_min"] < 1.0


def test_console_entry_point_runs(valid_file):
    proc = subprocess.run(
        [sys.executable, "-m", "radialflow.cli", "validate", valid_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "OK\n"


def test_method_flag_rejected_outside_solve_and_compare(valid_file, capsys):
    for command in ("validate", "metrics"):
        with pytest.raises(SystemExit) as excinfo:
            main([command, valid_file, "--method", "bfs"])
        assert excinfo.value.code == 2
        capsys.readouterr()
