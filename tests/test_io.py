import json
import math

import numpy as np
import pytest

import radialflow
from radialflow import (
    BfsOptions,
    ParseError,
    ValidationError,
    build_incidence,
    node_errors,
    parse_feeder,
    serialize_feeder,
    solve_bfs,
    solve_linear,
    assemble,
    summarize,
    write_solution,
)
from radialflow.cli import main

MINIMAL = """
{
  "schema_version": "1",
  "name": "mini",
  "phase_count": 1,
  "slack": {"node": "1", "voltage": {"re": 1.0, "im": 0.0}},
  "branches": [
    {"id": "b1", "from": "1", "to": "2", "impedance": {"re": 0.01, "im": 0.02}}
  ],
  "loads": [
    {"node": "2", "s_p": {"re": 0.2, "im": 0.1}}
  ]
}
"""


class TestParseFeeder:
    def test_minimal_document(self):
        feeder = parse_feeder(MINIMAL)
        assert len(feeder.nodes) == 2
        assert len(feeder.branches) == 1
        assert feeder.slack == "1"
        assert feeder.loads[0].s_p == 0.2 + 0.1j
        assert feeder.h == 1.0

    def test_unknown_node_named_in_error(self):
        doc = json.loads(MINIMAL)
        doc["nodes"] = ["1", "2"]
        doc["branches"][0]["to"] = "99"
        with pytest.raises(ParseError, match="99"):
            parse_feeder(json.dumps(doc))

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            parse_feeder("{not json")

    def test_round_trip_identity(self):
        first = parse_feeder(MINIMAL)
        second = parse_feeder(serialize_feeder(first))
        assert first == second

    def test_round_trip_three_phase(self):
        feeder = radialflow.example_feeder("unbalanced_ten_bus")
        again = parse_feeder(serialize_feeder(feeder))
        assert feeder == again

    def test_magnitude_angle_form(self):
        doc = json.loads(MINIMAL)
        doc["slack"]["voltage"] = {"mag": 1.05, "angle_deg": 30.0}
        feeder = parse_feeder(json.dumps(doc))
        assert abs(feeder.slack_voltage) == pytest.approx(1.05)
        assert math.degrees(np.angle(feeder.slack_voltage)) == pytest.approx(30.0)

    def test_cycle_raises_validation_error(self):
        doc = json.loads(MINIMAL)
        doc["branches"].append(
            {"id": "b2", "from": "2", "to": "3", "impedance": {"re": 0.01, "im": 0.01}}
        )
        doc["branches"].append(
            {"id": "b3", "from": "3", "to": "1", "impedance": {"re": 0.01, "im": 0.01}}
        )
        with pytest.raises(ValidationError, match="cycle"):
            parse_feeder(json.dumps(doc))

    def test_duplicate_node_id_is_invalid(self, tmp_path, capsys):
        doc = json.loads(MINIMAL)
        doc["branches"].append(
            {"id": "b2", "from": "2", "to": "3", "impedance": {"re": 0.01, "im": 0.01}}
        )
        doc["nodes"] = ["1", "2", "2", "3"]
        with pytest.raises(ValidationError, match="duplicate node id 2"):
            parse_feeder(json.dumps(doc))
        path = tmp_path / "duplicate.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().out == "INVALID\n- duplicate node id 2\n"

    @pytest.mark.parametrize(
        "edit,field",
        [
            (lambda d: d["slack"].update(voltage={"re": math.nan}),
             "slack.voltage"),
            (lambda d: d["branches"][0].update(impedance={"im": math.inf}),
             r"branches\[0\].impedance"),
            (lambda d: d["loads"][0].update(s_i={"mag": -math.inf}),
             r"loads\[0\].s_i"),
            (lambda d: d["loads"][0].update(s_z=math.nan), r"loads\[0\].s_z"),
            (lambda d: d.update(options={"v_base": math.nan}), "options.v_base"),
            (lambda d: d.update(options={"s_base": math.inf}), "options.s_base"),
        ],
    )
    def test_non_finite_number_names_field(self, edit, field):
        doc = json.loads(MINIMAL)
        edit(doc)
        with pytest.raises(ParseError, match=field):
            parse_feeder(json.dumps(doc))

    @pytest.mark.parametrize("value", [True, 3.0])
    def test_phase_count_must_be_an_integer(self, value):
        doc = json.loads(MINIMAL)
        doc["phase_count"] = value
        with pytest.raises(ParseError, match="phase_count"):
            parse_feeder(json.dumps(doc))

    @pytest.mark.parametrize("nodes", [5, "12", {"1": "2"}])
    def test_nodes_must_be_a_list(self, nodes):
        doc = json.loads(MINIMAL)
        doc["nodes"] = nodes
        with pytest.raises(ParseError, match="nodes: expected a list"):
            parse_feeder(json.dumps(doc))

    def test_matrix_impedance_entry_count(self):
        doc = json.loads(MINIMAL)
        doc["phase_count"] = 3
        doc["branches"][0]["impedance"] = [{"re": 0.01, "im": 0.01}] * 8
        with pytest.raises(ParseError, match="nine"):
            parse_feeder(json.dumps(doc))

    def test_load_at_slack_rejected(self):
        doc = json.loads(MINIMAL)
        doc["loads"][0]["node"] = "1"
        with pytest.raises(ParseError, match="slack"):
            parse_feeder(json.dumps(doc))

    def test_zero_load_dropped(self):
        doc = json.loads(MINIMAL)
        doc["loads"][0]["s_p"] = {"re": 0.0, "im": 0.0}
        feeder = parse_feeder(json.dumps(doc))
        assert feeder.loads == ()

    def test_nodes_normalized_topologically(self):
        doc = json.loads(MINIMAL)
        doc["nodes"] = ["2", "1"]
        feeder = parse_feeder(json.dumps(doc))
        assert feeder.nodes == ("1", "2")

    def test_unrecognized_schema_version(self):
        doc = json.loads(MINIMAL)
        doc["schema_version"] = "99"
        with pytest.raises(ParseError, match="schema_version"):
            parse_feeder(json.dumps(doc))

    def test_v_base_sets_scale(self):
        doc = json.loads(MINIMAL)
        doc["options"] = {"v_base": 400.0}
        feeder = parse_feeder(json.dumps(doc))
        assert feeder.h == pytest.approx(1 / 400.0)


class TestWriteSolution:
    def _solved(self):
        feeder = parse_feeder(MINIMAL)
        inc = build_incidence(feeder)
        ref = solve_bfs(feeder, BfsOptions(tolerance=1e-10))
        lin = solve_linear(assemble(feeder))
        report = summarize(lin, inc, feeder, reference=ref)
        return feeder, lin, ref, report

    def test_zero_load_csv_is_flat(self):
        feeder = parse_feeder(
            MINIMAL.replace('"re": 0.2, "im": 0.1', '"re": 0.0, "im": 0.0')
        )
        sol = solve_bfs(feeder)
        text = write_solution(sol, None, "csv")
        lines = text.strip().splitlines()
        assert lines[0] == "id,phase,v_mag,angle_deg"
        for line in lines[1:]:
            assert line.split(",")[2] == "1.0"

    def test_json_reparses_to_same_values(self):
        _, lin, _, report = self._solved()
        doc = json.loads(write_solution(lin, report, "json"))
        assert doc["method"] == "linear-simple"
        v2 = next(row for row in doc["nodes"] if row["id"] == "2")
        assert abs(complex(v2["v_re"], v2["v_im"]) - lin.voltages[1]) < 1e-12
        assert abs(doc["metrics"]["v_min"] - abs(lin.voltages[1])) < 1e-12

    def test_csv_epsilon_column_matches_node_errors(self):
        _, lin, ref, report = self._solved()
        eps = node_errors(lin, ref)
        text = write_solution(lin, report, "csv")
        lines = text.strip().splitlines()
        assert lines[0].endswith("epsilon")
        read_back = [float(line.split(",")[-1]) for line in lines[1:]]
        assert np.allclose(read_back, eps, atol=1e-15)

    def test_deterministic_output(self):
        _, lin, _, report = self._solved()
        assert write_solution(lin, report, "json") == write_solution(
            lin, report, "json"
        )

    def test_unknown_format(self):
        _, lin, _, report = self._solved()
        with pytest.raises(ValueError):
            write_solution(lin, report, "yaml")

    def test_luvr_column_present_for_three_phase(self):
        feeder = radialflow.example_feeder("unbalanced_ten_bus")
        inc = build_incidence(feeder)
        sol = solve_bfs(feeder, BfsOptions(tolerance=1e-10))
        report = summarize(sol, inc, feeder)
        text = write_solution(sol, report, "csv")
        lines = text.strip().splitlines()
        assert lines[0] == "id,phase,v_mag,angle_deg,luvr"
        assert len(lines) == 1 + 3 * len(feeder.nodes)


def test_example_feeders_parse():
    for name in ("two_bus", "balanced_ten_bus", "unbalanced_ten_bus"):
        feeder = radialflow.example_feeder(name)
        assert feeder.nodes[0] == "1"


def test_physical_bases_round_trip():
    doc = json.loads(MINIMAL)
    doc["options"] = {"v_base": 400.0, "s_base": 1e5}
    feeder = parse_feeder(json.dumps(doc))
    assert feeder.s_base == pytest.approx(1e5)
    again = parse_feeder(serialize_feeder(feeder))
    assert feeder == again


def test_physical_units_scale_consistently():
    # A feeder in volts/ohms/VA solves to v_base times its per-unit twin.
    from radialflow import Branch, Feeder, ZipLoad

    v_b, s_b = 400.0, 1e5
    z_pu, s_pu = 0.01 + 0.02j, 0.2 + 0.1j
    z_base = v_b * v_b / s_b
    pu = Feeder(
        name="pu", phase_count=1, nodes=("1", "2"), slack_voltage=1.0 + 0j,
        branches=(Branch("b1", "1", "2", z_pu),),
        loads=(ZipLoad(node="2", s_p=s_pu, s_z=0.1 + 0.02j),),
    )
    phys = Feeder(
        name="phys", phase_count=1, nodes=("1", "2"),
        slack_voltage=complex(v_b), v_base=v_b, s_base=s_b,
        branches=(Branch("b1", "1", "2", z_pu * z_base),),
        loads=(ZipLoad(node="2", s_p=s_pu * s_b, s_z=(0.1 + 0.02j) * s_b),),
    )
    from radialflow import solve_linear_full

    for solver in (
        lambda f: solve_linear(assemble(f)),
        lambda f: solve_linear_full(f),
        lambda f: solve_bfs(f, BfsOptions(tolerance=1e-12)),
    ):
        ratio = solver(phys).voltages / solver(pu).voltages
        assert np.allclose(ratio, v_b, rtol=1e-10)
