"""Feeder-file parsing and result serialization.

The feeder document is JSON with a top-level ``schema_version`` and the
sections ``slack``, ``branches``, ``loads`` and ``options``. Complex values
are objects with either ``re``/``im`` or ``mag``/``angle_deg`` keys; angles
live in degrees in files and radians internally. Three-phase branch
impedances are nine complex entries, row-major. Quantities are per-unit
unless ``options.v_base`` declares a physical voltage base.
"""

from __future__ import annotations

import cmath
import csv
import io as _stdio
import json
import math
from dataclasses import replace
from typing import Any, Iterable, Sequence

import numpy as np

from .errors import ParseError
from .linsolve import Solution
from .loads import PHASES, ZipLoad, drop_zero_loads
from .metrics import MetricsReport
from .network import Branch, Feeder

SCHEMA_VERSION = "1"

_KNOWN_VERSIONS = ("1",)


def _require(obj: dict, key: str, ctx: str) -> Any:
    if key not in obj:
        raise ParseError(f"{ctx}: missing required field {key!r}")
    return obj[key]


def _finite(value: Any, ctx: str) -> float:
    """A number as a float; ParseError naming ``ctx`` unless it is finite
    (JSON admits NaN and Infinity)."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{ctx}: expected a number") from exc
    if not math.isfinite(number):
        raise ParseError(f"{ctx}: expected a finite number, got {value!r}")
    return number


def _complex(value: Any, ctx: str) -> complex:
    try:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            z = complex(value)
        elif not isinstance(value, dict):
            raise ParseError(f"{ctx}: expected a complex value object")
        elif "re" in value or "im" in value:
            z = complex(float(value.get("re", 0.0)), float(value.get("im", 0.0)))
        elif "mag" in value:
            mag = float(value["mag"])
            angle = math.radians(float(value.get("angle_deg", 0.0)))
            z = complex(mag * math.cos(angle), mag * math.sin(angle))
        else:
            raise ParseError(
                f"{ctx}: complex value needs re/im or mag/angle_deg"
            )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{ctx}: complex parts must be finite numbers") from exc
    if not cmath.isfinite(z):
        raise ParseError(
            f"{ctx}: complex parts must be finite numbers, got {value!r}"
        )
    return z


def _impedance(value: Any, ctx: str):
    if isinstance(value, list):
        if len(value) != 9:
            raise ParseError(
                f"{ctx}: matrix impedance needs nine row-major entries"
            )
        flat = [_complex(entry, f"{ctx}[{i}]") for i, entry in enumerate(value)]
        return tuple(tuple(flat[row * 3 : row * 3 + 3]) for row in range(3))
    return _complex(value, ctx)


def parse_feeder(text: str) -> Feeder:
    """Parse and validate a feeder document.

    Radiality is validated in the declared node order, then the nodes are
    reordered topologically (slack first, parents before children).
    Radiality violations raise RadialityError, anything structural raises
    ParseError naming the offending field.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level must be a JSON object")

    version = str(doc.get("schema_version", SCHEMA_VERSION))
    if version not in _KNOWN_VERSIONS:
        raise ParseError(f"unrecognized schema_version {version!r}")

    name = str(doc.get("name", "feeder"))
    phase_count = doc.get("phase_count", 1)
    if type(phase_count) is not int or phase_count not in (1, 3):
        raise ParseError(f"phase_count must be 1 or 3, got {phase_count!r}")

    slack = _require(doc, "slack", "slack")
    if not isinstance(slack, dict):
        raise ParseError("slack: expected an object")
    slack_node = str(_require(slack, "node", "slack"))
    slack_voltage = _complex(_require(slack, "voltage", "slack.voltage"),
                             "slack.voltage")

    branches = []
    raw_branches = doc.get("branches", [])
    if not isinstance(raw_branches, list):
        raise ParseError("branches: expected a list")
    for i, raw in enumerate(raw_branches):
        ctx = f"branches[{i}]"
        if not isinstance(raw, dict):
            raise ParseError(f"{ctx}: expected an object")
        try:
            branches.append(
                Branch(
                    id=str(raw.get("id", f"b{i + 1}")),
                    from_node=str(_require(raw, "from", ctx)),
                    to_node=str(_require(raw, "to", ctx)),
                    impedance=_impedance(
                        _require(raw, "impedance", ctx), f"{ctx}.impedance"
                    ),
                )
            )
        except ValueError as exc:
            raise ParseError(f"{ctx}: {exc}") from exc

    explicit_nodes = doc.get("nodes")
    if explicit_nodes is not None:
        nodes = [str(node) for node in explicit_nodes]
        if slack_node not in nodes:
            raise ParseError(f"slack node {slack_node} missing from nodes")
        nodes.remove(slack_node)
        nodes.insert(0, slack_node)
        known = set(nodes)
        for branch in branches:
            for endpoint in (branch.from_node, branch.to_node):
                if endpoint not in known:
                    raise ParseError(
                        f"branch {branch.id} references unknown node "
                        f"{endpoint}"
                    )
    else:
        nodes = [slack_node]
        known = {slack_node}
        for branch in branches:
            for endpoint in (branch.from_node, branch.to_node):
                if endpoint not in known:
                    known.add(endpoint)
                    nodes.append(endpoint)

    loads = []
    raw_loads = doc.get("loads", [])
    if not isinstance(raw_loads, list):
        raise ParseError("loads: expected a list")
    for i, raw in enumerate(raw_loads):
        ctx = f"loads[{i}]"
        if not isinstance(raw, dict):
            raise ParseError(f"{ctx}: expected an object")
        node = str(_require(raw, "node", ctx))
        if node not in set(nodes):
            raise ParseError(f"{ctx}: unknown node {node}")
        if node == slack_node:
            raise ParseError(
                f"{ctx}: loads at the slack node are not modeled"
            )
        try:
            loads.append(
                ZipLoad(
                    node=node,
                    s_z=_complex(raw.get("s_z", 0.0), f"{ctx}.s_z"),
                    s_i=_complex(raw.get("s_i", 0.0), f"{ctx}.s_i"),
                    s_p=_complex(raw.get("s_p", 0.0), f"{ctx}.s_p"),
                    phase=str(raw.get("phase", "all")),
                    connection=str(raw.get("connection", "wye")),
                )
            )
        except ValueError as exc:
            raise ParseError(f"{ctx}: {exc}") from exc

    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise ParseError("options: expected an object")
    v_base = _finite(options.get("v_base", 1.0), "options.v_base")
    s_base = _finite(options.get("s_base", 1.0), "options.s_base")

    try:
        feeder = Feeder(
            name=name,
            phase_count=phase_count,
            nodes=tuple(nodes),
            slack_voltage=slack_voltage,
            branches=tuple(branches),
            loads=drop_zero_loads(loads),
            v_base=v_base,
            s_base=s_base,
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return replace(feeder, nodes=feeder.tree.order)


def render_json(doc: Any) -> str:
    """Two-space indented JSON text with a trailing newline."""
    return json.dumps(doc, indent=2) + "\n"


def render_csv(columns: Sequence[str], rows: Iterable[dict[str, Any]]) -> str:
    """CSV text: a header of ``columns``, then each row's values for them."""
    buffer = _stdio.StringIO()
    writer = csv.DictWriter(
        buffer, columns, extrasaction="ignore", lineterminator="\n"
    )
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def fmt_number(value: float) -> float:
    """Round to 12 significant digits for stable, re-parseable output."""
    return float(f"{value:.12g}")


def _complex_doc(value: complex) -> dict:
    return {"re": fmt_number(value.real), "im": fmt_number(value.imag)}


def serialize_feeder(feeder: Feeder) -> str:
    """Feeder back to its JSON document form (normalized node order)."""
    doc: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "name": feeder.name,
        "phase_count": feeder.phase_count,
        "slack": {
            "node": feeder.slack,
            "voltage": _complex_doc(feeder.slack_voltage),
        },
        "nodes": list(feeder.nodes),
        "branches": [
            {
                "id": branch.id,
                "from": branch.from_node,
                "to": branch.to_node,
                "impedance": (
                    [
                        _complex_doc(entry)
                        for row in branch.impedance
                        for entry in row
                    ]
                    if isinstance(branch.impedance, tuple)
                    else _complex_doc(complex(branch.impedance))
                ),
            }
            for branch in feeder.branches
        ],
        "loads": [
            {
                "node": load.node,
                "phase": load.phase,
                "connection": load.connection,
                "s_z": _complex_doc(load.s_z),
                "s_i": _complex_doc(load.s_i),
                "s_p": _complex_doc(load.s_p),
            }
            for load in feeder.loads
        ],
        "options": {"v_base": fmt_number(feeder.v_base), "s_base": fmt_number(feeder.s_base)},
    }
    return render_json(doc)


def phase_label(index: int, phase_count: int) -> str:
    return PHASES[index] if phase_count == 3 else ""


def _solution_rows(sol: Solution, report: MetricsReport | None):
    p = sol.phase_count
    for node_idx, node in enumerate(sol.nodes):
        for phase in range(p):
            flat = node_idx * p + phase
            v = sol.voltages[flat]
            row: dict[str, Any] = {
                "id": node,
                "phase": phase_label(phase, p),
                "v_re": fmt_number(v.real),
                "v_im": fmt_number(v.imag),
                "v_mag": fmt_number(abs(v)),
                "angle_deg": fmt_number(math.degrees(np.angle(v))),
            }
            if report is not None and report.epsilon is not None:
                row["epsilon"] = fmt_number(float(report.epsilon[flat]))
            if report is not None and report.luvr is not None:
                row["luvr"] = fmt_number(float(report.luvr[node_idx]))
            yield row


def write_solution(
    sol: Solution, report: MetricsReport | None = None, format: str = "json"
) -> str:
    """Serialize a solution (plus optional metrics) to JSON or CSV.

    CSV holds one row per node and phase with magnitude and angle in
    degrees; JSON adds rectangular parts and the summary metrics. Numbers
    carry 12 significant digits and the field order is fixed, so identical
    inputs yield identical bytes.
    """
    if format == "json":
        doc: dict[str, Any] = {
            "schema_version": SCHEMA_VERSION,
            "method": sol.method,
            "converged": sol.converged,
            "iterations": sol.iterations,
            "phase_count": sol.phase_count,
            "nodes": list(_solution_rows(sol, report)),
        }
        if report is not None:
            doc["metrics"] = {
                "p_loss": fmt_number(report.p_loss),
                "q_loss": fmt_number(report.q_loss),
                "v_min": fmt_number(report.v_min),
            }
            if report.luvr is not None:
                doc["metrics"]["luvr_over_1pct"] = int(
                    np.sum(report.luvr > 1.0)
                )
        return render_json(doc)
    if format == "csv":
        columns = ["id", "phase", "v_mag", "angle_deg"]
        if report is not None and report.epsilon is not None:
            columns.append("epsilon")
        if report is not None and report.luvr is not None:
            columns.append("luvr")
        return render_csv(columns, _solution_rows(sol, report))
    raise ValueError(f"unknown format {format!r}")
