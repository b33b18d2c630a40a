import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads


class TinyEnsemble(workloads.Ensemble):
    name = "tiny"
    COUNT = 8
    CLI_EVERY = 2
    pass_len = COUNT


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_printed_with_its_unit(monkeypatch, capsys, trace, section):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", TinyEnsemble)
    code = run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())[section]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
    assert any(line.startswith("env ") and '"seed": 3' in line for line in lines)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "timeseries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
