import ast
import functools
import hashlib
import json
import math
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import radialflow
from radialflow import (
    BfsOptions,
    ParseError,
    SingularError,
    ValidationError,
    build_incidence,
    node_errors,
    parse_feeder,
    network,
    serialize_feeder,
    solve,
    solve_bfs,
    solve_linear,
    assemble,
    summarize,
    write_solution,
)
from radialflow.cli import main
from radialflow.io import node_rows
from helpers import perfbench_gen, random_radial_feeder, shuffled

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

    @pytest.mark.parametrize("opening, closing", [("[", "]"), ('{"a":', "}")])
    def test_nesting_past_the_recursion_limit_is_a_parse_error(
        self, opening, closing
    ):
        depth = 100_000
        with pytest.raises(ParseError, match="invalid JSON: "):
            parse_feeder(opening * depth + "0" + closing * depth)

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
            # Complex parts and option bases are JSON numbers: a bool or a
            # numeric string is rejected as it is in a bare value.
            (lambda d: d["slack"].update(voltage={"re": True}),
             "slack.voltage: complex parts must be finite numbers$"),
            (lambda d: d["branches"][0].update(impedance={"re": "1.5"}),
             r"branches\[0\].impedance: complex parts must be finite numbers$"),
            (lambda d: d["loads"][0].update(s_p={"re": 0.2, "im": False}),
             r"loads\[0\].s_p: complex parts must be finite numbers$"),
            (lambda d: d["loads"][0].update(s_z={"mag": "1", "angle_deg": 3}),
             r"loads\[0\].s_z: complex parts must be finite numbers$"),
            (lambda d: d["loads"][0].update(s_i={"mag": 1, "angle_deg": True}),
             r"loads\[0\].s_i: complex parts must be finite numbers$"),
            (lambda d: d.update(options={"v_base": True}),
             "options.v_base: expected a number$"),
            (lambda d: d.update(options={"v_base": "400"}),
             "options.v_base: expected a number$"),
            (lambda d: d.update(options={"s_base": False}),
             "options.s_base: expected a number$"),
        ],
    )
    def test_non_finite_number_names_field(self, edit, field):
        doc = json.loads(MINIMAL)
        edit(doc)
        with pytest.raises(ParseError, match=field):
            parse_feeder(json.dumps(doc))

    @pytest.mark.parametrize(
        "options", [{"v_base": True}, {"s_base": "1e5"}]
    )
    def test_option_base_of_another_type_exits_1(
        self, options, tmp_path, capsys
    ):
        doc = json.loads(MINIMAL)
        doc["options"] = options
        path = tmp_path / "feeder.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path)]) == 1
        assert "expected a number" in capsys.readouterr().err

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

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_number_is_a_solver_error(self, fmt):
        _, lin, _, report = self._solved()
        voltages = lin.voltages.copy()
        voltages[1] = complex(math.inf, 0.0)
        with pytest.raises(SingularError, match="not finite"):
            write_solution(replace(lin, voltages=voltages), report, fmt)
        # Also a number that only the JSON document holds.
        report = replace(report, p_loss=math.nan)
        with pytest.raises(SingularError, match="not finite"):
            write_solution(lin, report, fmt)

    def test_node_rows_share_a_per_node_column_across_phases(self):
        rows = node_rows(("1", "2"), 3, v=list(range(6)), luvr=[0.5, 1 / 3])
        assert [row["phase"] for row in rows] == ["a", "b", "c"] * 2
        assert [row["v"] for row in rows] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        luvr = [0.5] * 3 + [0.333333333333] * 3
        assert [row["luvr"] for row in rows] == luvr
        assert list(rows[0]) == ["id", "phase", "v", "luvr"]

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


# The parser must give the same feeders and the same first error as the
# scalar parser it replaced. The expected values below were captured from
# that parser: a feeder by the SHA-256 of its repr (exact to the last bit of
# every float), an error by its type and full text.

DATA = Path(radialflow.__file__).parent / "data"


SOURCES = (
    "two_bus", "balanced_ten_bus", "unbalanced_ten_bus", "gen-1ph-n40",
    "gen-3ph-n30", "timeseries-base", "shuffled-1ph", "shuffled-3ph",
)


@functools.cache
def _source_texts() -> dict[str, str]:
    """The documents of SOURCES: the bundled feeders, benchmark-generated
    ones and shuffled random ones with an explicit ``nodes`` list."""
    gen = perfbench_gen()
    rng = np.random.default_rng(808)
    docs = {
        name: json.loads((DATA / f"{name}.json").read_text())
        for name in SOURCES[:3]
    }
    docs["gen-1ph-n40"] = gen.feeder_doc(17, 40, 1, 0.92)
    docs["gen-3ph-n30"] = gen.feeder_doc(17, 30, 3, 0.92)
    docs["timeseries-base"] = gen.feeder_doc(
        [0, 2], 150, 3, 0.93, slack_voltage=1.02, name="timeseries"
    )
    for label, feeder in (
        ("shuffled-1ph", random_radial_feeder(rng, 25, profile="zip")),
        ("shuffled-3ph", random_radial_feeder(
            rng, 20, 3, profile="zip", delta_fraction=0.4)),
    ):
        docs[label] = json.loads(serialize_feeder(shuffled(rng, feeder)))
    return {name: json.dumps(docs[name]) for name in SOURCES}


def _source_doc(name: str) -> dict:
    return json.loads(_source_texts()[name])


def _complex_slots(doc: dict):
    """(container, key) of every complex value in a feeder document."""
    yield doc["slack"], "voltage"
    for branch in doc["branches"]:
        if isinstance(branch["impedance"], list):
            yield from ((branch["impedance"], i) for i in range(9))
        else:
            yield branch, "impedance"
    for load in doc["loads"]:
        yield from ((load, key) for key in ("s_z", "s_i", "s_p") if key in load)


def _polar(value: dict) -> dict:
    z = complex(value["re"], value["im"])
    return {"mag": abs(z), "angle_deg": math.degrees(math.atan2(z.imag, z.real))}


def _bare(value: dict):
    if value["im"] == 0:
        return value["re"]
    return {"im": value["im"]} if value["re"] == 0 else value


_FORMS = {
    "polar": lambda k, value: _polar(value),
    "bare": lambda k, value: _bare(value),
    # Every third value polar, every third bare: the array pass meets a
    # form it does not take part-way through each section.
    "mixed": lambda k, value: (value, _polar(value), _bare(value))[k % 3],
}


def _rewritten(doc: dict, form: str) -> dict:
    for k, (container, key) in enumerate(_complex_slots(doc)):
        container[key] = _FORMS[form](k, container[key])
    return doc


def _parse_docs() -> dict[str, str]:
    texts = {}
    for name, text in _source_texts().items():
        texts[name] = text
        for form in _FORMS:
            texts[f"{name}/{form}"] = json.dumps(
                _rewritten(json.loads(text), form)
            )
    near = json.loads(texts["unbalanced_ten_bus"])
    near["branches"][4]["impedance"][1]["re"] += 5e-13
    texts["unbalanced_ten_bus/asymmetry-within-tolerance"] = json.dumps(near)
    return texts


EXPECTED_FEEDERS: dict[str, str] = {
    "balanced_ten_bus":
        "9151f0aba31b1f81e00c5cc349ddd5084172e19daf8ee5c9bc6a70eeca146661",
    "balanced_ten_bus/bare":
        "9151f0aba31b1f81e00c5cc349ddd5084172e19daf8ee5c9bc6a70eeca146661",
    "balanced_ten_bus/mixed":
        "430bdf2abb084acca9ee8f7ac972004ad3473bd4c214963fb7fb9e41d9c1a23b",
    "balanced_ten_bus/polar":
        "9ee51b91cf03792d5d17059d2b9604d96f7acc74c9e9992775231893799e304c",
    "gen-1ph-n40":
        "6516a86e2642d988716609aba8c4e5a74e9d8473cf8f1f2581813627c7ccd193",
    "gen-1ph-n40/bare":
        "6516a86e2642d988716609aba8c4e5a74e9d8473cf8f1f2581813627c7ccd193",
    "gen-1ph-n40/mixed":
        "89c015358ebcfef72afd2ba419979879328c24d3883e74f1c0471cfe45eb90eb",
    "gen-1ph-n40/polar":
        "874b00454562d5f5eb8e709ac10e07807576bf20302587d8f2b8e8c59991acd1",
    "gen-3ph-n30":
        "feb5a729bdd2a55c0b71d45fa14c6f9200e5040bc7da05c80ee9a6fb57ec68d3",
    "gen-3ph-n30/bare":
        "feb5a729bdd2a55c0b71d45fa14c6f9200e5040bc7da05c80ee9a6fb57ec68d3",
    "gen-3ph-n30/mixed":
        "56add7e112edea672c8e26f924d1f7ae254d6df2ebe86a36bf3b006c71993f98",
    "gen-3ph-n30/polar":
        "74a9764c64cceaf023e69b19204db578025db2939b2d0ac45700820ffa4a8442",
    "shuffled-1ph":
        "f74cf26c5261df90e3ea541efbf2ac5852d451e44bb7d2b5c7b8f01912218364",
    "shuffled-1ph/bare":
        "f74cf26c5261df90e3ea541efbf2ac5852d451e44bb7d2b5c7b8f01912218364",
    "shuffled-1ph/mixed":
        "ed7d75d8a77aaa26d414a0a251f8b4b4c28cb38af791210cd3bcda5a870a276e",
    "shuffled-1ph/polar":
        "259b1ea9015cf5fade3b0751deec33f83ad32fb8e5fcaa3bb3c8a988824aadd4",
    "shuffled-3ph":
        "c0f92f81acc198908d9d74429b845b973f38f635aae95941f4f2feb0b82398df",
    "shuffled-3ph/bare":
        "c0f92f81acc198908d9d74429b845b973f38f635aae95941f4f2feb0b82398df",
    "shuffled-3ph/mixed":
        "dc8ad3706650691a93234653271b1a739dbfd6e33a1d48795253672c898216f8",
    "shuffled-3ph/polar":
        "992c84bc85a978606c143c38e2a59c28193dfe2adf3c14713dbe45321f9fcaaa",
    "timeseries-base":
        "f28afbfc6591bd4406524bb364f389afb53be8e8d9afdfdc5ba0e44b7529b447",
    "timeseries-base/bare":
        "f28afbfc6591bd4406524bb364f389afb53be8e8d9afdfdc5ba0e44b7529b447",
    "timeseries-base/mixed":
        "fdaf502747e4f974278f6684b73d5b442f4cf89c004ffee77bf2f056a02a888f",
    "timeseries-base/polar":
        "db72996215701b60190853f5afe0bc65cf5f2160eeadb1870646669b25972e9a",
    "two_bus":
        "4dfd0cfe3696f883d7f2d603da0645e1ead7ce592bcdc185fafaf68022fc60bf",
    "two_bus/bare":
        "4dfd0cfe3696f883d7f2d603da0645e1ead7ce592bcdc185fafaf68022fc60bf",
    "two_bus/mixed":
        "0cfefd34bd961b1356a2c727c26c4663135bf277e6a96b6fd566fc4d90525f44",
    "two_bus/polar":
        "0cfefd34bd961b1356a2c727c26c4663135bf277e6a96b6fd566fc4d90525f44",
    "unbalanced_ten_bus":
        "5d65b676a1529c5458c210ceae9884e128246d370ba4819bb9f835d56a69a991",
    "unbalanced_ten_bus/asymmetry-within-tolerance":
        "45d3bb294981b48d55e31dedbc304ff3be5ef8c8b18b0bddd58fde2de50a4d2d",
    "unbalanced_ten_bus/bare":
        "5d65b676a1529c5458c210ceae9884e128246d370ba4819bb9f835d56a69a991",
    "unbalanced_ten_bus/mixed":
        "13106e7f3d6f20f1e13ad5a2a209689765ea9c004e63ee873b36896f57859b2c",
    "unbalanced_ten_bus/polar":
        "0c4e64bdf6d37d829ad01539a7045e16b29377424d721709c0fca0254de5b49e",
}


def _corrupt(base: str, *edits) -> str:
    """``base``'s document after ``edits``: each edits it in place or, when
    not callable, is the document that replaces it."""
    doc = _source_doc(base)
    for edit in edits:
        if callable(edit):
            edit(doc)
        else:
            doc = edit
    return json.dumps(doc)


def _set(path, value):
    def edit(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return edit


def _drop(path):
    def edit(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]
    return edit


_NAN = {"re": math.nan, "im": 0.01}
_SCALAR = {"re": 0.01, "im": 0.02}

BAD_DOCS = {
    "nan-then-missing-to": ("gen-3ph-n30", _set(
        ("branches", 3, "impedance", 4), _NAN), _drop(("branches", 7, "to"))),
    "missing-to-then-nan": ("gen-3ph-n30", _drop(("branches", 3, "to")), _set(
        ("branches", 7, "impedance", 0), _NAN)),
    "asymmetric-then-nan-load": ("unbalanced_ten_bus", _set(
        ("branches", 2, "impedance", 1), {"re": 0.5, "im": 0.0}), _set(
        ("loads", 0, "s_p"), _NAN)),
    "overflowing-asymmetry": ("unbalanced_ten_bus", _set(
        ("branches", 2, "impedance", 1), {"re": 1.7e308, "im": 1.7e308})),
    "eight-entries-then-nan": ("gen-3ph-n30", lambda d: d["branches"][5][
        "impedance"].pop(), _set(("branches", 9, "impedance", 2), _NAN)),
    "load-list-then-nan": ("gen-3ph-n30", _set(("loads", 2, "s_p"), [
        0.1, 0.2]), _set(("loads", 4, "s_z"), _NAN)),
    "load-string-then-nan": ("gen-3ph-n30", _set(("loads", 2, "s_p"), "0.1"),
                             _set(("loads", 4, "s_z"), _NAN)),
    "scalar-3ph-impedance-then-nan-load": ("gen-3ph-n30", _set(
        ("branches", 1, "impedance"), _SCALAR), _set(("loads", 0, "s_i"), _NAN)),
    "scalar-3ph-impedance": ("gen-3ph-n30", _set(
        ("branches", 1, "impedance"), _SCALAR)),
    "matrix-1ph-impedance": ("gen-1ph-n40", _set(
        ("branches", 4, "impedance"), [_SCALAR] * 9)),
    "self-loop-then-nan": ("gen-1ph-n40", lambda d: d["branches"][2].update(
        to=d["branches"][2]["from"]), _set(("branches", 5, "impedance"), _NAN)),
    "bad-phase-then-nan": ("gen-3ph-n30", _set(("loads", 1, "phase"), "d"),
                           _set(("loads", 3, "s_p"), _NAN)),
    "nan-and-bad-phase-in-one-load": ("gen-3ph-n30", _set(
        ("loads", 1, "phase"), "d"), _set(("loads", 1, "s_z"), _NAN)),
    "unknown-load-node-then-nan": ("gen-1ph-n40", _set(
        ("loads", 1, "node"), "zz"), _set(("loads", 4, "s_p"), _NAN)),
    "load-at-slack": ("gen-1ph-n40", _set(("loads", 3, "node"), "n0")),
    "huge-integer": ("gen-3ph-n30", _set(
        ("branches", 2, "impedance", 0, "re"), 10**400)),
    "inf-then-missing-from": ("gen-1ph-n40", _set(
        ("branches", 10, "impedance", "im"), math.inf), _drop(
        ("branches", 12, "from"))),
    "branch-not-object": ("gen-1ph-n40", _set(("branches", 6), 5)),
    "missing-impedance": ("gen-3ph-n30", _drop(("branches", 4, "impedance"))),
    "entry-not-object": ("gen-3ph-n30", _set(
        ("branches", 2, "impedance", 3), "x")),
    "entry-without-parts": ("gen-3ph-n30", _set(
        ("branches", 2, "impedance", 3), {"foo": 1})),
    "load-not-object": ("gen-3ph-n30", _set(("loads", 3), [1])),
    "delta-load-1ph": ("gen-1ph-n40", _set(("loads", 0, "connection"), "delta")),
    "nan-load-then-nan-option": ("gen-1ph-n40", _set(
        ("loads", 5, "s_i"), _NAN), _set(("options",), {"v_base": math.nan})),
    "cycle": ("gen-1ph-n40", _set(("branches", 10, "to"), "n4")),
    "duplicate-node": ("shuffled-3ph", lambda d: d["nodes"].append(d["nodes"][3])),
    "top-level-list": ("two_bus", [1, 2]),
    "slack-not-object": ("two_bus", _set(("slack",), "1")),
    "branches-not-list": ("gen-1ph-n40", _set(("branches",), {})),
    "slack-missing-from-nodes": ("shuffled-1ph", lambda d: d["nodes"].remove(
        d["slack"]["node"])),
    "loads-not-list": ("gen-3ph-n30", _set(("loads",), {"node": "n2"})),
    "options-not-object": ("gen-1ph-n40", _set(("options",), [1.0])),
    # Every value below is good, or fails before the named field, so these
    # reach the section's loop with converted values or name the first item.
    "missing-to": ("gen-3ph-n30", _drop(("branches", 7, "to"))),
    "missing-load-node": ("gen-1ph-n40", _drop(("loads", 3, "node"))),
    "load-not-object-after-missing-node": ("gen-3ph-n30", _drop(
        ("loads", 1, "node")), _set(("loads", 4), 7)),
    "unknown-node-after-nan-load": ("gen-1ph-n40", _set(
        ("loads", 1, "s_p"), _NAN), _set(("loads", 4, "node"), "zz")),
}

EXPECTED_ERRORS: dict[str, tuple[str, str]] = {
    "asymmetric-then-nan-load": (
        "ParseError",
        "branches[2]: branch b3: impedance matrix is not symmetric",
    ),
    "bad-phase-then-nan": (
        "ParseError",
        "loads[1]: unknown phase 'd'",
    ),
    "branch-not-object": (
        "ParseError",
        "branches[6]: expected an object",
    ),
    "branches-not-list": (
        "ParseError",
        "branches: expected a list",
    ),
    "cycle": (
        "RadialityError",
        "cycle detected through branch b11 (n10-n4); disconnected from slack: n11, n12, n15, n16, n17, n18, n19, n20, n21, n37, n38",
    ),
    "delta-load-1ph": (
        "ParseError",
        "delta load at node n2 requires three-phase mode",
    ),
    "duplicate-node": (
        "RadialityError",
        "duplicate node id 8",
    ),
    "eight-entries-then-nan": (
        "ParseError",
        "branches[5].impedance: matrix impedance needs nine row-major entries",
    ),
    "entry-not-object": (
        "ParseError",
        "branches[2].impedance[3]: expected a complex value object",
    ),
    "entry-without-parts": (
        "ParseError",
        "branches[2].impedance[3]: complex value needs re/im or mag/angle_deg",
    ),
    "huge-integer": (
        "ParseError",
        "branches[2].impedance[0]: complex parts must be finite numbers",
    ),
    "inf-then-missing-from": (
        "ParseError",
        "branches[10].impedance: complex parts must be finite numbers, got {'re': 0.00396670532, 'im': inf}",
    ),
    "load-at-slack": (
        "ParseError",
        "loads[3]: loads at the slack node are not modeled",
    ),
    "load-not-object-after-missing-node": (
        "ParseError",
        "loads[1]: missing required field 'node'",
    ),
    "load-list-then-nan": (
        "ParseError",
        "loads[2].s_p: expected a complex value object",
    ),
    "load-not-object": (
        "ParseError",
        "loads[3]: expected an object",
    ),
    "load-string-then-nan": (
        "ParseError",
        "loads[2].s_p: expected a complex value object",
    ),
    "loads-not-list": (
        "ParseError",
        "loads: expected a list",
    ),
    "matrix-1ph-impedance": (
        "ParseError",
        "branch b5: single-phase feeders need scalar impedances",
    ),
    "missing-impedance": (
        "ParseError",
        "branches[4]: missing required field 'impedance'",
    ),
    "missing-load-node": (
        "ParseError",
        "loads[3]: missing required field 'node'",
    ),
    "missing-to": (
        "ParseError",
        "branches[7]: missing required field 'to'",
    ),
    "missing-to-then-nan": (
        "ParseError",
        "branches[3]: missing required field 'to'",
    ),
    "nan-and-bad-phase-in-one-load": (
        "ParseError",
        "loads[1].s_z: complex parts must be finite numbers, got {'re': nan, 'im': 0.01}",
    ),
    "nan-load-then-nan-option": (
        "ParseError",
        "loads[5].s_i: complex parts must be finite numbers, got {'re': nan, 'im': 0.01}",
    ),
    "nan-then-missing-to": (
        "ParseError",
        "branches[3].impedance[4]: complex parts must be finite numbers, got {'re': nan, 'im': 0.01}",
    ),
    "options-not-object": (
        "ParseError",
        "options: expected an object",
    ),
    "overflowing-asymmetry": (
        "ParseError",
        "branches[2]: branch b3: impedance matrix is not symmetric",
    ),
    "scalar-3ph-impedance": (
        "ParseError",
        "branch b2: three-phase feeders need 3x3 impedance matrices",
    ),
    "scalar-3ph-impedance-then-nan-load": (
        "ParseError",
        "loads[0].s_i: complex parts must be finite numbers, got {'re': nan, 'im': 0.01}",
    ),
    "self-loop-then-nan": (
        "ParseError",
        "branches[2]: branch b3 connects node n2 to itself",
    ),
    "slack-missing-from-nodes": (
        "ParseError",
        "slack node 1 missing from nodes",
    ),
    "slack-not-object": (
        "ParseError",
        "slack: expected an object",
    ),
    "top-level-list": (
        "ParseError",
        "top level must be a JSON object",
    ),
    "unknown-load-node-then-nan": (
        "ParseError",
        "loads[1]: unknown node zz",
    ),
    "unknown-node-after-nan-load": (
        "ParseError",
        "loads[1].s_p: complex parts must be finite numbers, got {'re': nan, 'im': 0.01}",
    ),
}


@pytest.mark.parametrize("name", sorted(EXPECTED_FEEDERS))
def test_parse_gives_the_same_feeder(name, parse_docs):
    feeder = parse_feeder(parse_docs[name])
    assert hashlib.sha256(repr(feeder).encode()).hexdigest() == (
        EXPECTED_FEEDERS[name]
    )


@pytest.mark.parametrize("name", sorted(EXPECTED_ERRORS))
def test_parse_names_the_same_first_error(name):
    with pytest.raises(Exception) as info:
        parse_feeder(_corrupt(*BAD_DOCS[name]))
    assert (type(info.value).__name__, str(info.value)) == EXPECTED_ERRORS[name]


def test_every_document_has_an_expected_value(parse_docs):
    assert sorted(EXPECTED_FEEDERS) == sorted(parse_docs)
    assert sorted(EXPECTED_ERRORS) == sorted(BAD_DOCS)


def test_one_reader_per_section():
    # One loop reads each section: the module builds a Branch at one site
    # and a ZipLoad at one site, so every field rule has one copy.
    module = ast.parse(Path(radialflow.io.__file__).read_text())
    calls = Counter(
        ast.unparse(node.func) for node in ast.walk(module)
        if isinstance(node, ast.Call)
    )
    assert (calls["Branch"], calls["ZipLoad"]) == (1, 1)


@pytest.fixture(scope="module")
def parse_docs():
    return _parse_docs()


@pytest.mark.parametrize("name", SOURCES)
def test_parse_walks_the_tree_once(name, monkeypatch):
    calls = {"validate_radial": 0, "tree_structure": 0}
    for fname in calls:
        original = getattr(network, fname)

        def counted(*args, _fname=fname, _original=original):
            calls[_fname] += 1
            return _original(*args)

        # Every alias, as the package modules import each other's functions.
        for module in (radialflow, network, radialflow.io):
            if getattr(module, fname, None) is original:
                monkeypatch.setattr(module, fname, counted)
    feeder = parse_feeder(_source_texts()[name])
    tree = feeder.tree
    solve(feeder, "linear-simple")
    assert calls == {"validate_radial": 1, "tree_structure": 1}
    monkeypatch.undo()

    fresh = network.tree_structure(feeder)
    assert tree.order == fresh.order
    assert tree.parent == fresh.parent
    assert tree.branches == fresh.branches
    assert tree.ends.dtype == fresh.ends.dtype
    assert np.array_equal(tree.ends, fresh.ends)
