import copy
import json
import sys
import tempfile
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
from radialflow.linsolve import check_v0
from helpers import (
    perfbench_gen,
    run_cli,
    run_python,
    singular_pivot_feeder,
    two_bus_feeder,
)
from test_golden import COMMANDS, DATA, FEEDERS

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
        proc = run_cli(
            "solve", str(path), "--format", "csv", "--method", method
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        # One diagnostic line: no traceback, no numpy warning.
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("solver error: ")

    @pytest.mark.parametrize("phase_count", [1, 3])
    def test_singular_elimination_pivot_is_a_solver_error(
        self, tmp_path, phase_count
    ):
        path = tmp_path / "short.json"
        path.write_text(serialize_feeder(singular_pivot_feeder(phase_count)))
        proc = run_cli("solve", str(path), "--format", "csv")
        assert proc.returncode == 3
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("solver error: ")

    def test_nodes_not_a_list_is_a_parse_error(self, tmp_path):
        doc = json.loads(VALID)
        doc["nodes"] = 5
        path = tmp_path / "int_nodes.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("solve", str(path))
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

    @pytest.mark.parametrize("command", ["solve", "compare", "metrics"])
    def test_out_of_memory_is_a_solver_error(
        self, valid_file, capsys, monkeypatch, command
    ):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("radialflow.cli.solve", exhausted)
        assert main([command, valid_file]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "solver error: out of memory\n"

    @pytest.mark.parametrize("command", ["solve", "compare", "metrics"])
    def test_out_of_memory_keeps_numpy_s_message(
        self, valid_file, capsys, monkeypatch, command
    ):
        message = (
            "Unable to allocate 57.2 GiB for an array with shape "
            "(87600, 87600) and data type complex128"
        )

        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr("radialflow.cli.solve", exhausted)
        assert main([command, valid_file]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"solver error: out of memory ({message})\n"

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
        proc = run_cli("solve", str(path))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "branches[0].impedance" in proc.stderr


class TestUnusableInput:
    @pytest.mark.parametrize("flag, value", [
        ("--max-iterations", "0"),
        ("--tolerance", "0"),
        ("--tolerance", "-1"),
        ("--tolerance", "inf"),
        ("--tolerance", "nan"),
    ])
    def test_bfs_option_out_of_range_is_a_usage_error(
        self, valid_file, flag, value
    ):
        # Also under linear-simple, which never reads the BFS options.
        proc = run_cli("solve", valid_file, flag, value)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert f"argument {flag}: " in proc.stderr

    @pytest.mark.parametrize("command", ["solve", "compare", "metrics"])
    @pytest.mark.parametrize("flag, value", [
        ("--max-iterations", "2.5"),
        ("--max-iterations", "-3"),
        ("--tolerance", "1e-400"),
        ("--tolerance", "tiny"),
    ])
    def test_every_bfs_command_validates_its_options(
        self, valid_file, capsys, command, flag, value
    ):
        with pytest.raises(SystemExit) as excinfo:
            main([command, valid_file, flag, value])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("flag, text", [
        *(("--tolerance", text) for text in (
            "1e-8", "1", "1_000", "5e-324", "1e-400", "0", "-0.0", "-1",
            "inf", "-inf", "nan", "1e400", "tiny", "", "0x10",
        )),
        *(("--max-iterations", text) for text in (
            "1", "100", "+7", " 5", "0", "-3", "2.5", "1e3", "inf", "",
        )),
        *(("--v0", text) for text in (
            "1.05", "1.05+0j", "(1+2j)", "-1", "1j", "1e-320", "0", "0j",
            "-0-0j", "nan", "inf", "1e400", "nanj", "abc", "",
        )),
    ])
    def test_flags_are_rejected_exactly_where_the_option_types_reject(
        self, valid_file, capsys, flag, text
    ):
        # One owner per rule: the CLI turns the text into a number, and
        # BfsOptions or check_v0 decides whether it is allowed.
        build = {
            "--tolerance": lambda: BfsOptions(tolerance=float(text)),
            "--max-iterations": lambda: BfsOptions(max_iterations=int(text)),
            "--v0": lambda: check_v0(complex(text)),
        }[flag]
        try:
            build()
            rejected = False
        except ValueError:
            rejected = True
        # linear-simple reads none of these flags, so only the flag's own
        # check can make the run fail.
        try:
            code = main(["solve", valid_file, f"{flag}={text}"])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code == (2 if rejected else 0)
        if rejected:
            assert f"argument {flag}: " in captured.err

    @pytest.fixture
    def undecodable_file(self, tmp_path):
        path = tmp_path / "latin1.json"
        assert '"two-bus"' in VALID
        text = VALID.replace('"two-bus"', '"caf\xe9"')
        path.write_bytes(text.encode("latin-1"))
        return str(path)

    @pytest.fixture
    def deep_file(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        return str(path)

    @pytest.mark.parametrize("fixture, message", [
        ("undecodable_file", "cannot read {path}: 'utf-8' codec"),
        ("deep_file", "invalid JSON: "),
    ], ids=["undecodable", "deep"])
    def test_unreadable_input_is_a_parse_error(
        self, request, fixture, message
    ):
        path = request.getfixturevalue(fixture)
        message = message.format(path=path)
        proc = run_cli("solve", path)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"parse error: {message}")
        assert len(proc.stderr.splitlines()) == 1
        proc = run_cli("validate", path)
        assert proc.returncode == 1
        assert proc.stdout.startswith(f"PARSE ERROR: {message}")
        assert proc.stderr == ""

    @pytest.mark.parametrize("command", ["validate", "solve", "metrics"])
    def test_unwritable_output_is_a_parse_error(
        self, valid_file, tmp_path, command
    ):
        target = tmp_path / "missing" / "out.json"
        proc = run_cli(command, valid_file, "-o", str(target))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == (
            f"parse error: cannot write {target}: No such file or directory\n"
        )
        assert not target.parent.exists()


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


def _overflowing_file(tmp_path, **parts) -> str:
    path = tmp_path / "overflow.json"
    path.write_text(serialize_feeder(two_bus_feeder(**parts)))
    return str(path)


OVERFLOWING_LOAD = {"s_p": 1e308 + 1e308j}
OVERFLOWING_SLACK = {"v_s": 1e308 + 1e308j}

#: Finite, but its magnitude overflows a float, and so do its rotations
#: into phases b and c.
HUGE = complex(1.7e308, 1.7e308)
HUGE_V0_ERROR = "solver error: linear-full produced non-finite voltages\n"


def _reject_constant(name):
    raise ValueError(f"{name} is not a JSON number")


class TestNonFiniteResult:
    """A result that overflows to inf or NaN is a solver error: JSON holds
    no such number, and a CSV row of it is no result either."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("parts, command", [
        (OVERFLOWING_LOAD, ["solve"]),
        (OVERFLOWING_LOAD, ["solve", "--method", "linear-full"]),
        (OVERFLOWING_LOAD, ["compare"]),
        (OVERFLOWING_LOAD, ["metrics"]),
        (OVERFLOWING_SLACK, ["compare"]),
        (OVERFLOWING_SLACK, ["metrics"]),
    ])
    def test_is_a_solver_error(self, tmp_path, capsys, parts, command, fmt):
        # In-process, where the test settings turn a numpy RuntimeWarning
        # into an error.
        argv = [command[0], _overflowing_file(tmp_path, **parts),
                *command[1:], "--format", fmt]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("solver error: ")
        assert captured.err.count("\n") == 1
        out = tmp_path / "out"
        assert main([*argv, "-o", str(out)]) == 3
        assert not out.exists()
        capsys.readouterr()

    def test_is_one_line_on_stderr(self, tmp_path):
        path = _overflowing_file(tmp_path, **OVERFLOWING_SLACK)
        proc = run_cli("metrics", path)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == "solver error: result is not finite: nan\n"

    def test_overflowing_linearization_point_is_named(self, tmp_path, capsys):
        # 1 - |q|^2 rounds to zero at v0 = 1.5e154 and v_s = 1.
        path = _overflowing_file(tmp_path, v_s=1.0)
        argv = ["solve", path, "--method", "linear-full", "--v0", "1.5e154"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == HUGE_V0_ERROR
        for method in ("linear-simple", "bfs"):
            assert main(["solve", path, "--method", method]) == 0
            capsys.readouterr()

    @pytest.mark.parametrize("feeder", [
        two_bus_feeder(v_s=HUGE),
        replace(
            radialflow.example_feeder("unbalanced_ten_bus"),
            slack_voltage=HUGE,
        ),
    ], ids=["1", "3"])
    @pytest.mark.parametrize("command", [
        ["solve"], ["solve", "--method", "linear-full"],
        ["solve", "--method", "bfs"], ["compare"], ["metrics"],
    ])
    def test_magnitude_beyond_the_float_range_has_an_exit_code(
        self, tmp_path, capsys, command, feeder
    ):
        path = tmp_path / "overflow.json"
        path.write_text(serialize_feeder(feeder))
        code = main([command[0], str(path), *command[1:]])
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err
        if "linear-full" in command:
            # At one phase the voltages stay finite, but not their
            # magnitudes, as with the other methods.
            expected = HUGE_V0_ERROR
            if feeder.phase_count == 1:
                expected = "solver error: result is not finite: inf\n"
            assert (code, err) == (3, expected)

    @pytest.mark.parametrize("name", ["two_bus", "unbalanced_ten_bus"])
    def test_v0_whose_reciprocal_overflows_is_named(self, name, capsys):
        argv = [
            "solve", str(DATA / f"{name}.json"), "--method", "linear-full",
            "--v0", "5e-324",
        ]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == HUGE_V0_ERROR

    @pytest.mark.parametrize("name", ["two_bus", "unbalanced_ten_bus"])
    def test_v0_beyond_the_float_range_is_named(self, name):
        proc = run_cli(
            "solve", str(DATA / f"{name}.json"), "--method", "linear-full",
            "--v0", "1.7e308+1.7e308j",
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == HUGE_V0_ERROR

    @pytest.mark.parametrize("method", ["linear-simple", "linear-full", "bfs"])
    def test_finite_result_at_the_float_range_is_written(
        self, tmp_path, capsys, method
    ):
        # Both voltages are 1e308+1e308j and the losses zero: all finite.
        path = _overflowing_file(tmp_path, **OVERFLOWING_SLACK)
        assert main(["solve", path, "--method", method]) == 0
        doc = json.loads(
            capsys.readouterr().out, parse_constant=_reject_constant
        )
        assert doc["metrics"]["v_min"] == pytest.approx(2**0.5 * 1e308)


def _json_paths(node, prefix=()):
    """Every path into a JSON document, the document itself first."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _json_paths(child, (*prefix, key))


FEEDER_DOCS = {
    name: json.loads((DATA / f"{name}.json").read_text()) for name in FEEDERS
}
FEEDER_PATHS = {
    name: list(_json_paths(doc)) for name, doc in FEEDER_DOCS.items()
}
HOSTILE_VALUES = [
    *({"re": re, "im": im} for re in (1.7e308, -1.7e308)
      for im in (1.7e308, -1.7e308)),
    {"mag": 1.7e308, "angle_deg": 45},
    1e-320, 0, -1, 1e154, True, None, "x", [], {},
]
FUZZ_COMMANDS = [
    [command, *(("--method", method) if method else ())]
    for command, method in COMMANDS
] + [["solve", "--method", "linear-full", "--v0", "1.7e308+1.7e308j"]]


@st.composite
def _hostile_documents(draw):
    """A bundled feeder's document with one value, or one subtree, replaced
    by a hostile value."""
    name = draw(st.sampled_from(FEEDERS))
    path = draw(st.sampled_from(FEEDER_PATHS[name]))
    value = draw(st.sampled_from(HOSTILE_VALUES))
    if not path:
        return value
    doc = copy.deepcopy(FEEDER_DOCS[name])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@given(doc=_hostile_documents(), command=st.sampled_from(FUZZ_COMMANDS))
def test_every_document_has_an_exit_code(doc, command):
    # The exit-code contract holds for any input: main returns a code and
    # raises nothing. The file is made here, as hypothesis runs the body
    # many times per call of a function-scoped fixture such as tmp_path.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "feeder.json"
        path.write_text(json.dumps(doc))
        assert main([command[0], str(path), *command[1:]]) in (0, 1, 2, 3)


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

    @pytest.mark.parametrize("method", ["linear-simple", "bfs"])
    def test_peak_memory_is_a_small_share_of_incidence(self, tmp_path, method):
        # The dense incidence matrix A would be m x n float64, n = m + 1.
        gen = perfbench_gen()
        doc = gen.feeder_doc(19, 2000, 1, 0.92)
        path = tmp_path / "large.json"
        path.write_text(gen.dumps(doc))
        m = len(doc["branches"])
        a_bytes = m * (m + 1) * 8
        argv = ["solve", str(path), "-o", str(tmp_path / "out.json")]
        tracemalloc.start()
        try:
            assert main([*argv, "--method", method]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * a_bytes

    def test_output_file(self, valid_file, tmp_path, capsys):
        out = tmp_path / "result.json"
        assert main(["solve", valid_file, "-o", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["method"] == "linear-simple"

    def test_linear_full_singular_system_is_one_solver_error(self, tmp_path):
        # z = 0.5 and s_z = -2 make the system matrix exactly zero.
        path = tmp_path / "singular.json"
        feeder = two_bus_feeder(z=0.5 + 0j, s_z=-2 + 0j)
        path.write_text(serialize_feeder(feeder))
        proc = run_cli("solve", str(path), "--method", "linear-full")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("solver error: ")
        assert proc.stderr.count("\n") == 1


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
    proc = run_cli("validate", valid_file)
    assert proc.returncode == 0
    assert proc.stdout == "OK\n"


def test_cli_imports_no_scipy():
    # The solve path is plain numpy; importing scipy would add several
    # tenths of a second to every CLI run.
    path = Path(radialflow.__file__).parent / "data" / "unbalanced_ten_bus.json"
    child = (
        "import sys\n"
        "from radialflow.cli import main\n"
        f"assert main(['solve', {str(path)!r}]) == 0\n"
        "loaded = [m for m in sys.modules if m.partition('.')[0] == 'scipy']\n"
        "assert not loaded, loaded\n"
    )
    proc = run_python("-c", child)
    assert proc.returncode == 0, proc.stderr


def test_method_flag_rejected_outside_solve_and_compare(valid_file, capsys):
    for command in ("validate", "metrics"):
        with pytest.raises(SystemExit) as excinfo:
            main([command, valid_file, "--method", "bfs"])
        assert excinfo.value.code == 2
        capsys.readouterr()
