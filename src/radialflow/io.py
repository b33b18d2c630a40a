"""Feeder-file parsing and result serialization.

The feeder document is JSON with a top-level ``schema_version`` and the
sections ``slack``, ``branches``, ``loads`` and ``options``. Complex values
are objects with either ``re``/``im`` or ``mag``/``angle_deg`` keys; angles
live in degrees in files and radians internally. Three-phase branch
impedances are nine complex entries, row-major. Quantities are per-unit
unless ``options.v_base`` declares a physical voltage base. The branches
and the loads are each read by one loop, which applies every field rule
once, in document order, and names the first bad field. A section whose
complex values are all finite ``re``/``im`` numbers has them converted
up front in one array; any other has them converted value by value.

Results leave through one row writer, ``node_rows`` (a row per node and
phase), and one choice of format, ``render``. Every number passes through
``fmt_number``, which raises SingularError on an infinite or NaN value.
"""

from __future__ import annotations

import cmath
import csv
import io as _stdio
import json
import math
import operator
from itertools import chain
from typing import Any, Iterable, Sequence

import numpy as np

from .errors import ParseError, SingularError
from .loads import PHASES, ZipLoad, drop_zero_loads
from .metrics import MetricsReport
from .network import Branch, Feeder, Solution, in_walk_order

SCHEMA_VERSION = "1"

_KNOWN_VERSIONS = ("1",)


def _require(obj: dict, key: str, ctx: str) -> Any:
    if key not in obj:
        raise ParseError(f"{ctx}: missing required field {key!r}")
    return obj[key]


def _number(value: Any) -> float:
    """A JSON number as a float; TypeError for anything else, bools
    included."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _finite(value: Any, ctx: str) -> float:
    """A number as a float; ParseError naming ``ctx`` unless it is finite
    (JSON admits NaN and Infinity)."""
    try:
        number = _number(value)
    except (TypeError, OverflowError) as exc:
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
            z = complex(_number(value.get("re", 0.0)),
                        _number(value.get("im", 0.0)))
        elif "mag" in value:
            mag = _number(value["mag"])
            angle = math.radians(_number(value.get("angle_deg", 0.0)))
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


_PARTS = operator.itemgetter("re", "im")
_ZERO = {"re": 0.0, "im": 0.0}
_COMPONENTS = ("s_z", "s_i", "s_p")


def _complex_array(values: Iterable) -> np.ndarray | None:
    """A section's ``re``/``im`` objects as one complex array, or None
    for any other form, a part that is not a number, a non-finite part, an
    integer past the float range or an error raised by ``values`` itself."""
    try:
        parts = list(chain.from_iterable(map(_PARTS, values)))
        if not set(map(type, parts)) <= {int, float}:
            return None
        z = np.array(parts, dtype=np.float64)
    except (LookupError, TypeError, AttributeError, OverflowError):
        return None
    return z.view(np.complex128) if np.isfinite(z).all() else None


def _branches(raw_branches: list, phase_count: int):
    """The branches in document order and, when every impedance converts
    at once, their (m, p, p) impedance stack (else None)."""
    impedances = (raw["impedance"] for raw in raw_branches)
    if phase_count == 3:
        # Nine entries a branch; any other value fails the conversion.
        impedances = chain.from_iterable(
            z if type(z) is list and len(z) == 9 else (None,)
            for z in impedances
        )
    z = _complex_array(impedances)
    stack = values = None
    if z is not None:
        stack = z.reshape(len(raw_branches), phase_count, phase_count)
        values = z.tolist()
        if phase_count == 3:
            # Rows of three, then matrices of three rows, grouped by
            # zipping one iterator with itself.
            rows = zip(*[iter(values)] * 3)
            values = list(zip(*[rows] * 3))
    branches = []
    for i, raw in enumerate(raw_branches):
        try:
            branches.append(Branch(
                str(raw["id"]) if "id" in raw else f"b{i + 1}",
                str(raw["from"]),
                str(raw["to"]),
                _impedance(raw["impedance"], f"branches[{i}].impedance")
                if values is None else values[i],
            ))
        except (LookupError, TypeError):
            if not isinstance(raw, dict):
                raise ParseError(f"branches[{i}]: expected an object") from None
            for key in ("from", "to", "impedance"):
                _require(raw, key, f"branches[{i}]")
            raise
        except ValueError as exc:
            raise ParseError(f"branches[{i}]: {exc}") from exc
    return branches, stack


def _loads(raw_loads: list, known: set, slack_node: str) -> list[ZipLoad]:
    z = _complex_array(
        raw.get(key, _ZERO) for raw in raw_loads for key in _COMPONENTS
    )
    values = None if z is None else z.reshape(-1, 3).tolist()
    loads = []
    for i, raw in enumerate(raw_loads):
        try:
            node = str(raw["node"])
        except (LookupError, TypeError):
            if not isinstance(raw, dict):
                raise ParseError(f"loads[{i}]: expected an object") from None
            _require(raw, "node", f"loads[{i}]")
            raise
        if node not in known:
            raise ParseError(f"loads[{i}]: unknown node {node}")
        if node == slack_node:
            raise ParseError(
                f"loads[{i}]: loads at the slack node are not modeled"
            )
        if values is None:
            s_z, s_i, s_p = (
                _complex(raw.get(key, 0.0), f"loads[{i}].{key}")
                for key in _COMPONENTS
            )
        else:
            s_z, s_i, s_p = values[i]
        try:
            loads.append(ZipLoad(
                node, s_z, s_i, s_p,
                str(raw.get("phase", "all")),
                str(raw.get("connection", "wye")),
            ))
        except ValueError as exc:
            raise ParseError(f"loads[{i}]: {exc}") from exc
    return loads


def parse_feeder(text: str) -> Feeder:
    """Parse and validate a feeder document.

    Radiality is validated in the declared node order, then the nodes are
    reordered topologically (slack first, parents before children), and
    the reordered feeder keeps the tree and the impedance stack the parse
    computed. Radiality violations raise RadialityError, anything
    structural raises ParseError naming the first offending field.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nesting deeper than the interpreter's stack.
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

    raw_branches = doc.get("branches", [])
    if not isinstance(raw_branches, list):
        raise ParseError("branches: expected a list")
    branches, impedances = _branches(raw_branches, phase_count)

    explicit_nodes = doc.get("nodes")
    if explicit_nodes is not None:
        if not isinstance(explicit_nodes, list):
            raise ParseError("nodes: expected a list")
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

    raw_loads = doc.get("loads", [])
    if not isinstance(raw_loads, list):
        raise ParseError("loads: expected a list")
    loads = _loads(raw_loads, known, slack_node)

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
    return in_walk_order(feeder, impedances)


def render_json(doc: Any) -> str:
    """Two-space indented JSON text with a trailing newline."""
    return json.dumps(doc, indent=2) + "\n"


def render(
    doc: Any, columns: Sequence[str], rows: Iterable[dict], format: str
) -> str:
    """The output in ``format``: ``doc`` as JSON, or as CSV a header of
    ``columns``, then each of ``rows``' values for them."""
    if format == "json":
        return render_json(doc)
    if format != "csv":
        raise ValueError(f"unknown format {format!r}")
    buffer = _stdio.StringIO()
    writer = csv.DictWriter(
        buffer, columns, extrasaction="ignore", lineterminator="\n"
    )
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def fmt_number(value: float) -> float:
    """Round to 12 significant digits for stable, re-parseable output.
    Raises SingularError on a non-finite value, which JSON cannot hold."""
    if not math.isfinite(value):
        raise SingularError(f"result is not finite: {value}")
    return float(f"{value:.12g}")


def _complex_doc(value: complex) -> dict:
    return {"re": float(value.real), "im": float(value.imag)}


def serialize_feeder(feeder: Feeder) -> str:
    """Feeder back to its JSON document form (normalized node order). Each
    float is written as the shortest text that parses back to it, so the
    document parses back to an equal feeder."""
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
        "options": {
            "v_base": float(feeder.v_base),
            "s_base": float(feeder.s_base),
        },
    }
    return render_json(doc)


def phase_label(index: int, phase_count: int) -> str:
    return PHASES[index] if phase_count == 3 else ""


def node_rows(
    nodes: Sequence[str], phase_count: int, **columns: Sequence[float]
) -> list[dict[str, Any]]:
    """One row per node and phase, node-major: ``id``, ``phase``, then each
    of ``columns`` by name through ``fmt_number``. A column holds one value
    per node and phase, or one per node, which its phases share."""
    p = phase_count
    names = ("id", "phase", *columns)
    cells = [
        [node for node in nodes for _ in range(p)],
        [phase_label(phase, p) for phase in range(p)] * len(nodes),
    ]
    for values in columns.values():
        numbers = list(map(fmt_number, values))
        if len(numbers) != len(cells[0]):  # one per node, for each phase
            numbers = [number for number in numbers for _ in range(p)]
        cells.append(numbers)
    return [dict(zip(names, row)) for row in zip(*cells)]


def write_solution(
    sol: Solution, report: MetricsReport | None = None, format: str = "json"
) -> str:
    """Serialize a solution (plus optional metrics) to JSON or CSV.

    CSV holds one row per node and phase with magnitude and angle in
    degrees; JSON adds rectangular parts and the summary metrics. Numbers
    carry 12 significant digits and the field order is fixed, so identical
    inputs yield identical bytes. Raises SingularError on a non-finite
    number.
    """
    voltages = sol.voltages
    columns = {
        "v_re": voltages.real.tolist(),
        "v_im": voltages.imag.tolist(),
        "v_mag": [abs(v) for v in voltages],
        "angle_deg": [math.degrees(np.angle(v)) for v in voltages],
    }
    if report is not None and report.epsilon is not None:
        columns["epsilon"] = report.epsilon.tolist()
    if report is not None and report.luvr is not None:
        columns["luvr"] = report.luvr.tolist()
    rows = node_rows(sol.nodes, sol.phase_count, **columns)
    doc: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "method": sol.method,
        "converged": sol.converged,
        "iterations": sol.iterations,
        "phase_count": sol.phase_count,
        "nodes": rows,
    }
    if report is not None:
        doc["metrics"] = {
            "p_loss": fmt_number(report.p_loss),
            "q_loss": fmt_number(report.q_loss),
            "v_min": fmt_number(report.v_min),
        }
        if report.luvr is not None:
            doc["metrics"]["luvr_over_1pct"] = int(np.sum(report.luvr > 1.0))
    # CSV leaves out the rectangular parts.
    return render(doc, ["id", "phase", *list(columns)[2:]], rows, format)
