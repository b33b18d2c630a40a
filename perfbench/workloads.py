"""The benchmark workloads: inputs built from the seed, the operations each
one times, and the checks that decide whether an operation failed.

Every workload is a closed loop with one caller: ``step(i, ctx)`` runs the
i-th group of operations and returns only when all of them have finished.
Each workload runs the four in-process operations (linear-simple,
linear-full, BFS, metrics) and the four CLI commands (``solve``,
``solve --method linear-full``, ``compare``, ``metrics``), in proportions
suited to its inputs, and checks every CLI output against the in-process
result for the same feeder.
"""

from __future__ import annotations

import json
import math
import os
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

import gen

#: BFS tolerance of every in-process and CLI solve in the benchmark.
BFS_TOLERANCE = 1e-10
#: Largest accepted nodal residual max |Y V - I(V)| of a converged BFS.
RESIDUAL_BOUND = 1e-8
CLI_TIMEOUT_S = 150

IN_PROCESS_OPS = ("linear_simple_s", "linear_full_s", "bfs_s", "metrics_s")
CLI_OPS = {
    "cli_solve_s": ("solve",),
    "cli_solve_full_s": ("solve", "--method", "linear-full"),
    "cli_compare_s": ("compare", "--tolerance", repr(BFS_TOLERANCE)),
    "cli_metrics_s": ("metrics", "--tolerance", repr(BFS_TOLERANCE)),
}


def same_digits(printed, value: float) -> bool:
    """Whether a number the CLI printed (12 significant digits) agrees with
    the library's value to within one unit in the last printed digit. The
    unit of slack absorbs a last-bit difference in a derived quantity such
    as |V|, which can flip the rounding of the 12th digit."""
    if not isinstance(printed, (int, float)) or isinstance(printed, bool):
        return False
    if printed == float(f"{value:.12g}"):
        return True
    return value != 0 and abs(printed - value) <= 10.0 ** (math.floor(math.log10(abs(value))) - 11)


class Recorder:
    """Timing samples, failures and linearization errors of one run.

    Samples are kept per metric and per input class (a feeder of
    ``cli-large``, or the whole workload), so a metric can be reported as
    the mean over classes of each class's median.
    """

    def __init__(self):
        self.samples: dict[str, dict[str, list[float]]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        #: Max per-node |V| error against BFS of each distinct input solved,
        #: by feeder name (the same input always gives the same error).
        self.eps: dict[str, dict[str, float]] = {"simple": {}, "full": {}}

    def record(self, metric: str, cls: str, seconds: float, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{metric} [{cls}]: " + "; ".join(problems))
        else:
            self.samples.setdefault(metric, {}).setdefault(cls, []).append(seconds)

    def value(self, metric: str) -> float | None:
        classes = self.samples.get(metric)
        if not classes:
            return None
        return statistics.fmean(statistics.median(v) for v in classes.values())

    def pooled(self, metric: str) -> list[float]:
        return [s for v in self.samples.get(metric, {}).values() for s in v]


@dataclass
class Reference:
    """In-process results for one feeder, which CLI outputs must match."""

    simple: Any
    full: Any
    bfs: Any


def _v_min(sol) -> float:
    p = sol.phase_count
    return float(np.min(np.abs(sol.voltages[p:])))


def _eps(sol, ref) -> float:
    return float(np.max(np.abs(np.abs(sol.voltages) - np.abs(ref.voltages))))


def group_problems(results: dict, size: int, three_phase: bool, eps_bound: float):
    """Check one feeder's in-process results; returns problems per
    operation and the (simple, full) errors against BFS (None if unknown)."""
    problems: dict[str, list[str]] = {op: [] for op in IN_PROCESS_OPS}
    for op in ("linear_simple_s", "linear_full_s", "bfs_s"):
        v = results[op].voltages
        if v.shape != (size,) or not np.all(np.isfinite(v)):
            problems[op].append("voltages have the wrong shape or are not finite")
    bfs = results["bfs_s"]
    if not bfs.converged:
        problems["bfs_s"].append("BFS did not converge")
    report, res = results["metrics_s"]
    if not res <= RESIDUAL_BOUND:
        problems["bfs_s"].append(f"BFS residual {res:.3e} above {RESIDUAL_BOUND:g}")
    if any(problems[op] for op in ("linear_simple_s", "linear_full_s", "bfs_s")):
        return problems, None, None
    eps_s = _eps(results["linear_simple_s"], bfs)
    eps_f = _eps(results["linear_full_s"], bfs)
    for op, eps in (("linear_simple_s", eps_s), ("linear_full_s", eps_f)):
        if not eps <= eps_bound:
            problems[op].append(f"error against BFS {eps:.3e} above {eps_bound:g}")
    if report.epsilon is None or abs(float(np.max(report.epsilon)) - eps_s) > 1e-12:
        problems["metrics_s"].append("summarize epsilon differs from |V| error")
    if abs(report.v_min - _v_min(results["linear_simple_s"])) > 1e-12:
        problems["metrics_s"].append("summarize v_min differs from the solution")
    if three_phase and (report.luvr is None or report.luvr.shape != (size // 3,)):
        problems["metrics_s"].append("summarize gave no per-node LUVR")
    return problems, eps_s, eps_f


def solve_group(rf, feeder, cls: str, rec: Recorder, eps_bound: float,
                bfs_repeats: int = 1) -> Reference | None:
    """Time the four in-process operations on one parsed feeder, check them
    and record them; returns the results the CLI outputs are checked
    against, or None when an operation failed. ``bfs_repeats`` calls
    ``solve_bfs`` that many times in a row, each a sample of ``bfs_s`` that
    must give the same voltages as the others."""
    opts = rf.BfsOptions(tolerance=BFS_TOLERANCE)

    def metrics(res):
        inc = rf.build_incidence(feeder)
        report = rf.summarize(res["linear_simple_s"], inc, feeder, reference=res["bfs_s"])
        return report, rf.residual(feeder, res["bfs_s"])

    calls = (
        ("linear_simple_s", lambda res: rf.solve_linear(rf.assemble(feeder))),
        ("linear_full_s", lambda res: rf.solve_linear_full(feeder)),
        ("bfs_s", lambda res: rf.solve_bfs(feeder, opts)),
        ("metrics_s", metrics),
    )
    results: dict[str, Any] = {}
    times: dict[str, list[float]] = {}
    repeats_differ = False
    for op, call in calls:
        times[op] = []
        for _ in range(bfs_repeats if op == "bfs_s" else 1):
            start = time.perf_counter()
            try:
                result = call(results)
            except Exception as exc:  # an operation's failure is a measurement
                rec.record(op, cls, 0.0, [f"raised {type(exc).__name__}: {exc}"])
                for rest in IN_PROCESS_OPS[IN_PROCESS_OPS.index(op) + 1:]:
                    rec.record(rest, cls, 0.0, ["not run: an earlier operation failed"])
                for done, seconds in times.items():
                    for t in seconds:
                        rec.record(done, cls, t, [])
                return None
            times[op].append(time.perf_counter() - start)
            if op in results:
                repeats_differ |= not np.array_equal(result.voltages, results[op].voltages)
            results[op] = result
    size = len(feeder.nodes) * feeder.phase_count
    problems, eps_s, eps_f = group_problems(results, size, feeder.phase_count == 3, eps_bound)
    if repeats_differ:
        problems["bfs_s"].append("repeated BFS solves gave different voltages")
    for op in IN_PROCESS_OPS:
        for seconds in times[op]:
            rec.record(op, cls, seconds, problems[op])
    if eps_s is None:
        return None
    rec.eps["simple"][feeder.name] = eps_s
    rec.eps["full"][feeder.name] = eps_f
    if any(problems.values()):
        return None
    return Reference(results["linear_simple_s"], results["linear_full_s"], results["bfs_s"])


def cli_problems(metric: str, text: str, ref: Reference) -> list[str]:
    """Check one CLI JSON output against the in-process reference, at the
    12 significant digits the writer prints."""
    try:
        doc = json.loads(text)
    except ValueError:
        return ["output is not JSON"]
    sol = ref.bfs
    rows_expected = len(sol.nodes) * sol.phase_count
    if metric == "cli_metrics_s":
        if doc.get("converged") is not True or doc.get("iterations") != ref.bfs.iterations:
            return ["BFS convergence differs from the library"]
        if not same_digits(doc.get("v_min"), _v_min(ref.bfs)):
            return ["v_min differs from the library"]
        if sol.phase_count == 3 and len(doc.get("luvr", {})) != len(sol.nodes):
            return ["wrong node count"]
        return []
    rows = doc.get("nodes")
    if not isinstance(rows, list) or len(rows) != rows_expected:
        return ["wrong node count"]
    if metric == "cli_compare_s":
        pairs = (("v_mag_linear", np.abs(ref.simple.voltages)),
                 ("v_mag_bfs", np.abs(ref.bfs.voltages)))
    else:
        lib = ref.full if metric == "cli_solve_full_s" else ref.simple
        pairs = (("v_re", lib.voltages.real), ("v_im", lib.voltages.imag))
    for key, values in pairs:
        for row, value in zip(rows, values):
            if not same_digits(row.get(key), float(value)):
                return [f"{key} at node {row.get('id')} differs from the library"]
    return []


def run_child(cmd: list[str], cwd: Path, env: dict[str, str], timeout: float) -> tuple[int, float]:
    """Run a child process to completion; returns its exit code and wall
    time. Waits on a pidfd rather than through ``subprocess``'s timeout,
    which polls with sleeps of up to 50 ms and would quantize the timing."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        fd = os.pidfd_open(proc.pid)
        try:
            if not select.select([fd], [], [], timeout)[0]:
                proc.kill()
        finally:
            os.close(fd)
        code = proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return code, time.perf_counter() - start


def child_env(root: Path) -> dict[str, str]:
    """Environment of every child interpreter: the checkout's sources on
    the path, and the parent's pinned BLAS thread count."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Cli:
    """Runs CLI commands as fresh ``python -m radialflow.cli`` processes, or,
    in the traced run, in-process through ``radialflow.cli.main`` inside a
    ``cli.<command>`` span."""

    def __init__(self, root: Path, tracer=None, in_process: bool = False):
        self.root = root
        self.tracer = tracer
        self.in_process = in_process or tracer is not None
        self.env = child_env(root)

    def run(self, argv: list[str]) -> tuple[int, float]:
        if not self.in_process:
            return run_child([sys.executable, "-m", "radialflow.cli", *argv],
                             self.root, self.env, CLI_TIMEOUT_S)
        from radialflow import cli

        start = time.perf_counter()
        if self.tracer is None:
            code = cli.main(argv)
        else:
            with self.tracer.span(f"cli.{argv[0]}"):
                code = cli.main(argv)
        return code, time.perf_counter() - start


def cli_op(ctx: "Context", metric: str, path: Path, ref: Reference | None, cls: str) -> None:
    """Run one CLI command on ``path``, check its output and record it."""
    command = CLI_OPS[metric]
    out = ctx.workdir / "out.json"
    out.unlink(missing_ok=True)
    try:
        code, seconds = ctx.cli.run([command[0], str(path), "-o", str(out), *command[1:]])
    except OSError as exc:
        ctx.rec.record(metric, cls, 0.0, [f"could not run: {exc}"])
        return
    if code != 0:
        problems = [f"exit code {code}"]
    elif ref is None:
        problems = ["no in-process result to check against"]
    else:
        problems = cli_problems(metric, out.read_text(encoding="utf-8"), ref)
    ctx.rec.record(metric, cls, seconds, problems)


@dataclass
class Context:
    rf: Any
    rec: Recorder
    cli: Cli
    workdir: Path


class Workload:
    """Inputs written under ``workdir/inputs``; subclasses define steps."""

    name = ""
    #: Largest accepted per-node |V| error of a linear solution against BFS.
    eps_bound = 0.0
    #: Steps in one pass over every input and every CLI command; a timed
    #: run covers at least one pass, a traced pass exactly one.
    pass_len = 1
    #: Whether set-up parses the inputs and runs a warm-up operation.
    setup_parses = True

    def __init__(self, seed: int, workdir: Path):
        self.inputs = workdir / "inputs"
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.paths: list[Path] = []
        self.feeders: list[Any] = []

    def _write(self, label: str, doc: dict) -> None:
        path = self.inputs / f"{label}.json"
        path.write_text(gen.dumps(doc), encoding="utf-8")
        self.paths.append(path)

    def setup(self, rf) -> None:
        self.feeders = [rf.parse_feeder(p.read_text(encoding="utf-8")) for p in self.paths]

    def step(self, i: int, ctx: Context) -> None:
        raise NotImplementedError


class CliLarge(Workload):
    """Step i works on feeder i mod 2 and runs one CLI command, so a pass of
    8 steps runs every command on both feeders. Every other step on a feeder
    first runs the in-process operations, whose results the CLI outputs are
    checked against until the next such step; this leaves most of the run to
    the CLI commands, which take several times longer."""

    name = "cli-large"
    eps_bound = 0.01
    FEEDERS = (("1ph-n800", 800, 1, 0.93), ("3ph-n240", 240, 3, 0.94))
    SLACK_VOLTAGE = 1.03
    #: BFS takes tens of ms here, the other in-process operations hundreds,
    #: so one BFS sample is at the mercy of the machine's short speed swings;
    #: each group therefore times it several times.
    BFS_REPEATS = 5
    pass_len = 2 * len(CLI_OPS)
    setup_parses = False

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.refs: list[Reference | None] = [None] * len(self.FEEDERS)
        for k, (label, n, phases, vmin) in enumerate(self.FEEDERS):
            self._write(label, gen.feeder_doc(
                [seed, 1, k], n, phases, vmin,
                slack_voltage=self.SLACK_VOLTAGE, name=label,
            ))

    def step(self, i: int, ctx: Context) -> None:
        k = i % len(self.FEEDERS)
        label = self.FEEDERS[k][0]
        if i % (2 * len(self.FEEDERS)) < len(self.FEEDERS):
            self.refs[k] = solve_group(ctx.rf, self.feeders[k], label, ctx.rec, self.eps_bound,
                                       self.BFS_REPEATS)
        metric = list(CLI_OPS)[(i // len(self.FEEDERS)) % len(CLI_OPS)]
        cli_op(ctx, metric, self.paths[k], self.refs[k], label)


class TimeSeries(Workload):
    """One fixed feeder at 48 load snapshots; every other snapshot also runs
    one CLI command on that snapshot's file, rotating through the four, so
    each command runs on six snapshots spread over the day."""

    name = "timeseries"
    eps_bound = 0.01
    SNAPSHOTS = 48
    N = 150
    CLI_EVERY = 2
    pass_len = SNAPSHOTS

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        # The feeder is the same for every seed; the seed draws the profile.
        base = gen.feeder_doc([0, 2], self.N, 3, 0.93, slack_voltage=1.02, name="timeseries")
        for k, factor in enumerate(self.profile(seed)):
            label = f"snapshot-{k:02d}"
            self._write(label, {**gen.scaled(base, factor), "name": label})

    @classmethod
    def profile(cls, seed: int) -> np.ndarray:
        """Load factors in 0.35-1.0 of a two-peak daily curve, half-hourly,
        with seeded per-snapshot jitter (the peak lands in 0.96-1.0)."""
        rng = np.random.default_rng([seed, 2])
        t = np.arange(cls.SNAPSHOTS) / cls.SNAPSHOTS
        shape = 0.6 * np.exp(-(((t - 0.33) / 0.08) ** 2)) + np.exp(-(((t - 0.79) / 0.09) ** 2))
        shape = (shape - shape.min()) / (shape.max() - shape.min())
        return 0.35 + 0.65 * shape * rng.uniform(0.94, 1.0, cls.SNAPSHOTS)

    def step(self, i: int, ctx: Context) -> None:
        k = i % self.SNAPSHOTS
        ref = solve_group(ctx.rf, self.feeders[k], "snapshot", ctx.rec, self.eps_bound)
        if i % self.CLI_EVERY == self.CLI_EVERY - 1:
            metric = list(CLI_OPS)[(i // self.CLI_EVERY) % len(CLI_OPS)]
            cli_op(ctx, metric, self.paths[k], ref, "snapshot")


class Ensemble(Workload):
    """200 distinct small feeders, each parsed from its JSON text; every
    20th feeder also runs one CLI command, rotating through the four."""

    name = "ensemble-small"
    eps_bound = 0.03
    COUNT = 200
    CLI_EVERY = 20
    pass_len = COUNT

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        # Every seed gets the same (size, phases, loading) triples: sizes
        # spread evenly over 5-60, phases alternating, and loading from light
        # (V_min 0.995 at a 1.0 p.u. slack) to heavy (V_min 0.90 at 1.05 p.u.)
        # along a golden-ratio sequence, uncorrelated with size. The seed
        # draws each feeder's tree, impedances and loads, and the order.
        k = np.arange(self.COUNT)
        sizes = 5 + (k * 56) // self.COUNT
        phases = np.where(k % 2 == 0, 1, 3)
        load = (k * 0.6180339887498949 + 0.5 / self.COUNT) % 1.0
        for j in np.random.default_rng([seed, 3]).permutation(self.COUNT):
            label = f"feeder-{len(self.paths):03d}"
            self._write(label, gen.feeder_doc(
                [seed, 3, int(j)], int(sizes[j]), int(phases[j]), 0.995 - 0.095 * load[j],
                slack_voltage=1.0 + 0.05 * load[j], name=label,
            ))
        self.texts = [p.read_text(encoding="utf-8") for p in self.paths]

    def step(self, i: int, ctx: Context) -> None:
        k = i % self.COUNT
        start = time.perf_counter()
        try:
            feeder = ctx.rf.parse_feeder(self.texts[k])
        except Exception as exc:  # an operation's failure is a measurement
            ctx.rec.record("parse_s", "ensemble", 0.0, [f"raised {type(exc).__name__}: {exc}"])
            return
        ctx.rec.record("parse_s", "ensemble", time.perf_counter() - start, [])
        ref = solve_group(ctx.rf, feeder, "ensemble", ctx.rec, self.eps_bound)
        if i % self.CLI_EVERY == 0:
            metric = list(CLI_OPS)[(i // self.CLI_EVERY) % len(CLI_OPS)]
            cli_op(ctx, metric, self.paths[k], ref, "ensemble")


WORKLOADS = {w.name: w for w in (CliLarge, TimeSeries, Ensemble)}
