"""Solver invariants past light load.

``random_radial_feeder`` draws at most 0.05 p.u. per load, so its
``load_scale`` saturates; ``scaled`` multiplies the drawn loads up to
10^2.5 times, far enough that BFS stops converging on some feeders.
"""

import io
import json
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

import radialflow
from radialflow import BfsOptions, RadialFlowError, power_balance, residual
from radialflow.cli import main
from radialflow.io import serialize_feeder
from helpers import random_radial_feeder, scaled, shuffled

BFS = BfsOptions(tolerance=1e-10)


def _solve(feeder, method):
    """The method's solution with finite voltages, or None when it raises a
    RadialFlowError; any other exception or a RuntimeWarning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            sol = radialflow.solve(feeder, method, bfs=BFS)
        except RadialFlowError:
            return None
    assert np.isfinite(sol.voltages).all()
    return sol


def _relative_gap(voltages, reference):
    return np.max(np.abs(voltages - reference)) / np.max(np.abs(reference))


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 60),
    phase_count=st.sampled_from([1, 3]),
    shape=st.sampled_from(["random", "chain", "star"]),
    profile=st.sampled_from(["none", "p_only", "z_only", "i_only", "zip"]),
    delta_fraction=st.floats(0.0, 1.0),
    z_scale=st.floats(1.0, 5.0),
    decades=st.floats(0.0, 2.5),
    shuffle=st.booleans(),
)
def test_solvers_past_light_load(
    seed, n, phase_count, shape, profile, delta_fraction, z_scale, decades,
    shuffle,
):
    rng = np.random.default_rng(seed)
    edges = {
        "random": None,
        "chain": [(k - 1, k) for k in range(1, n)],
        "star": [(0, k) for k in range(1, n)],
    }[shape]
    feeder = random_radial_feeder(
        rng, n, phase_count, profile=profile, z_scale=z_scale,
        delta_fraction=delta_fraction, edges=edges,
    )
    feeder = scaled(feeder, 10.0**decades)
    if shuffle:
        feeder = shuffled(rng, feeder)
    simple, _, bfs = (
        _solve(feeder, method)
        for method in ("linear-simple", "linear-full", "bfs")
    )

    if bfs is not None:
        assert residual(feeder, bfs) <= 1e-8
        slack, load, loss = power_balance(feeder, None, bfs)
        assert abs(slack - load - loss) <= 1e-8 * abs(slack)
        # Constant-impedance and constant-current wye loads are linear in
        # the voltage, which linear-simple then solves exactly.
        if profile in ("z_only", "i_only") and all(
            zip_load.connection == "wye" for zip_load in feeder.loads
        ):
            assert _relative_gap(simple.voltages, bfs.voltages) <= 1e-9

    reordered = shuffled(rng, feeder)
    other = _solve(reordered, "linear-simple")
    assert (other is None) == (simple is None)
    if simple is not None:
        slot = {node: k for k, node in enumerate(reordered.nodes)}
        back = [slot[node] for node in feeder.nodes]
        v = other.voltages.reshape(n, phase_count)[back].ravel()
        assert _relative_gap(v, simple.voltages) <= 1e-12


CLI_COMMANDS = [
    ["solve", "--method", "linear-simple"],
    ["solve", "--method", "linear-full"],
    ["solve", "--method", "bfs"],
    ["compare", "--method", "linear-simple"],
    ["compare", "--method", "linear-full"],
    ["metrics"],
]


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 30),
    phase_count=st.sampled_from([1, 3]),
    shape=st.sampled_from(["random", "chain", "star"]),
    profile=st.sampled_from(["none", "p_only", "z_only", "i_only", "zip"]),
    delta_fraction=st.floats(0.0, 1.0),
    decades=st.floats(0.0, 3.0),
)
def test_cli_exit_contract_past_light_load(
    seed, n, phase_count, shape, profile, delta_fraction, decades
):
    # Every command answers 0 with a JSON document, or 3 with one line,
    # however heavy the load. The file is made here, as hypothesis runs the
    # body many times per call of a function-scoped fixture such as
    # tmp_path.
    edges = {
        "random": None,
        "chain": [(k - 1, k) for k in range(1, n)],
        "star": [(0, k) for k in range(1, n)],
    }[shape]
    feeder = random_radial_feeder(
        np.random.default_rng(seed), n, phase_count, profile=profile,
        delta_fraction=delta_fraction, edges=edges,
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "feeder.json"
        path.write_text(serialize_feeder(scaled(feeder, 10.0**decades)))
        for command in CLI_COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([command[0], str(path), *command[1:]])
            assert code in (0, 3)
            if code == 3:
                assert out.getvalue() == ""
                lines = err.getvalue().splitlines()
                assert len(lines) == 1
                assert lines[0].startswith("solver error: ")
            else:
                json.loads(out.getvalue())
