import dataclasses
import json
import types

import pytest

import radialflow as rf
import run
import workloads
from workloads import Cli, Context, Recorder, cli_op, cli_problems, solve_group

EPS_BOUND = 0.01


def _namespace(**overrides):
    names = {name: getattr(rf, name) for name in rf.__all__}
    names.update(overrides)
    return types.SimpleNamespace(**names)


@pytest.fixture
def feeder():
    return rf.example_feeder("unbalanced_ten_bus")


def test_clean_group_passes_and_tracks_error(feeder):
    rec = Recorder()
    ref = solve_group(rf, feeder, "x", rec, EPS_BOUND)
    assert ref is not None
    assert rec.failures == []
    assert rec.attempted == 4
    assert 0 < rec.eps["simple"][feeder.name] < EPS_BOUND


def test_perturbed_solution_is_counted_as_failed(feeder):
    def perturbed(model):
        sol = rf.solve_linear(model)
        return dataclasses.replace(sol, voltages=sol.voltages * 1.05)

    rec = Recorder()
    ref = solve_group(_namespace(solve_linear=perturbed), feeder, "x", rec, EPS_BOUND)
    assert ref is None
    assert rec.attempted == 4
    assert len(rec.failures) == 1
    assert rec.failures[0].startswith("linear_simple_s")


def test_raising_operation_fails_it_and_the_ones_after(feeder):
    def broken(*args, **kwargs):
        raise rf.ConvergenceError("no convergence")

    rec = Recorder()
    assert solve_group(_namespace(solve_bfs=broken), feeder, "x", rec, EPS_BOUND) is None
    assert rec.attempted == 4
    assert [f.split()[0] for f in rec.failures] == ["bfs_s", "metrics_s"]


def test_repeated_bfs_is_sampled_and_must_repeat_its_voltages(feeder):
    rec = Recorder()
    assert solve_group(rf, feeder, "x", rec, EPS_BOUND, bfs_repeats=3) is not None
    assert rec.attempted == 6
    assert len(rec.samples["bfs_s"]["x"]) == 3

    calls = []

    def drifting(*args, **kwargs):
        sol = rf.solve_bfs(*args, **kwargs)
        calls.append(sol)
        return dataclasses.replace(sol, voltages=sol.voltages * (1 + 1e-12 * len(calls)))

    rec = Recorder()
    assert solve_group(_namespace(solve_bfs=drifting), feeder, "x", rec, EPS_BOUND,
                       bfs_repeats=3) is None
    assert [f.split()[0] for f in rec.failures] == ["bfs_s"] * 3


def test_nonzero_cli_exit_is_counted_as_failed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    rec = Recorder()
    ctx = Context(rf, rec, Cli(run.ROOT), tmp_path)
    cli_op(ctx, "cli_solve_s", bad, None, "x")
    assert rec.attempted == 1
    assert rec.failures == ["cli_solve_s [x]: exit code 1"]


@pytest.mark.parametrize("metric", list(workloads.CLI_OPS))
def test_cli_output_must_match_library_digits(tmp_path, feeder, metric):
    rec = Recorder()
    ref = solve_group(rf, feeder, "x", rec, EPS_BOUND)
    path = tmp_path / "feeder.json"
    path.write_text(rf.serialize_feeder(feeder), encoding="utf-8")
    cli_op(Context(rf, rec, Cli(run.ROOT, in_process=True), tmp_path), metric, path, ref, "x")
    assert rec.failures == []
    text = (tmp_path / "out.json").read_text(encoding="utf-8")
    assert cli_problems(metric, text, ref) == []

    doc = json.loads(text)
    if metric == "cli_metrics_s":
        doc["v_min"] += 1e-9
    else:
        key = {"cli_compare_s": "v_mag_bfs"}.get(metric, "v_im")
        doc["nodes"][-1][key] += 1e-9
    assert cli_problems(metric, json.dumps(doc), ref) != []
    doc["nodes"] = doc.get("nodes", [])[:-1]
    if metric != "cli_metrics_s":
        assert cli_problems(metric, json.dumps(doc), ref) == ["wrong node count"]
    assert cli_problems(metric, "not json", ref) == ["output is not JSON"]
