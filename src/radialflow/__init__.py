"""Linearized ZIP power flow for radial distribution feeders.

The package pairs a non-iterative linear solver (built on a first-order
Wirtinger expansion of the voltage products introduced by constant-power
loads) with a backward-forward-sweep reference solver, shared ZIP and delta
load models, evaluation metrics, a feeder JSON format and a CLI.
"""

from importlib import resources

from .bfs import BfsOptions, residual, solve_bfs
from .errors import (
    ConvergenceError,
    DimensionError,
    ParseError,
    RadialFlowError,
    RadialityError,
    SingularError,
    UnsupportedPhaseError,
    ValidationError,
    VoltageCollapseError,
)
from .io import parse_feeder, serialize_feeder, write_solution
from .linsolve import (
    LinearModel,
    assemble,
    solve,
    solve_linear,
    solve_linear_full,
)
from .loads import ZipLoad, delta_to_wye_injections, injection_current
from .metrics import (
    BranchFlows,
    MetricsReport,
    branch_flows,
    losses,
    luvr,
    node_errors,
    power_balance,
    summarize,
    v_min,
)
from .network import (
    Branch,
    Feeder,
    IncidenceModel,
    ReducedImpedance,
    Solution,
    ValidationReport,
    build_incidence,
    reduced_impedance,
    validate_radial,
    ybus,
)

__version__ = "0.1.0"


def example_feeder(name: str) -> Feeder:
    """Load one of the bundled example feeders by file stem, e.g.
    ``two_bus``, ``balanced_ten_bus`` or ``unbalanced_ten_bus``."""
    text = (
        resources.files(__name__).joinpath("data", f"{name}.json").read_text()
    )
    return parse_feeder(text)


__all__ = [
    "BfsOptions",
    "Branch",
    "BranchFlows",
    "ConvergenceError",
    "DimensionError",
    "Feeder",
    "IncidenceModel",
    "LinearModel",
    "MetricsReport",
    "ParseError",
    "RadialFlowError",
    "RadialityError",
    "ReducedImpedance",
    "SingularError",
    "Solution",
    "UnsupportedPhaseError",
    "ValidationError",
    "ValidationReport",
    "VoltageCollapseError",
    "ZipLoad",
    "assemble",
    "branch_flows",
    "build_incidence",
    "delta_to_wye_injections",
    "example_feeder",
    "injection_current",
    "losses",
    "luvr",
    "node_errors",
    "parse_feeder",
    "power_balance",
    "reduced_impedance",
    "residual",
    "serialize_feeder",
    "solve",
    "solve_bfs",
    "solve_linear",
    "solve_linear_full",
    "summarize",
    "v_min",
    "validate_radial",
    "write_solution",
    "ybus",
]
