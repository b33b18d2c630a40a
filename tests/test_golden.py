"""Byte-for-byte CLI output on the bundled feeders.

The files under ``golden/`` are the CLI's standard output for each command,
method and format on each bundled feeder; refactors must reproduce them
exactly. ``validate`` ignores ``--format``, so one file serves both formats.
"""

from pathlib import Path

import pytest

import radialflow
from radialflow.cli import main

GOLDEN = Path(__file__).parent / "golden"
DATA = Path(radialflow.__file__).parent / "data"
FEEDERS = ("two_bus", "balanced_ten_bus", "unbalanced_ten_bus")
COMMANDS = (
    ("validate", None),
    ("solve", "linear-simple"),
    ("solve", "linear-full"),
    ("solve", "bfs"),
    ("compare", "linear-simple"),
    ("compare", "linear-full"),
    ("metrics", None),
)


def _golden_name(feeder: str, command: str, method: str | None, fmt: str) -> str:
    if command == "validate":
        return f"{feeder}.validate.txt"
    label = f"{command}-{method}" if method else command
    return f"{feeder}.{label}.{fmt}"


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command,method", COMMANDS)
@pytest.mark.parametrize("feeder", FEEDERS)
def test_cli_output_matches_golden(feeder, command, method, fmt, capsys):
    argv = [command, str(DATA / f"{feeder}.json"), "--format", fmt]
    if method:
        argv += ["--method", method]
    assert main(argv) == 0
    expected = (GOLDEN / _golden_name(feeder, command, method, fmt)).read_bytes()
    assert capsys.readouterr().out.encode() == expected
