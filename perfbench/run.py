"""radialflow benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``): ``cli-large``, ``timeseries`` and
``ensemble-small``. Inputs are generated from ``--seed``; radialflow is
imported from the checkout's ``src`` directory and nowhere else, and the CLI
runs as ``python -m radialflow.cli`` with that directory on its path.

With ``--trace 0`` the run measures set-up (the median of several fresh
interpreters, each doing the workload's set-up) and then runs the workload
for ``--seconds``, and at least one full pass over its inputs, timing every
operation. It reports each end-to-end timing listed in ``BENCHMARK.json`` as
the median of its samples (for ``cli-large``, the mean of the two feeders'
medians), and ``eps_mean_simple``/``eps_mean_full`` as the mean over the
distinct inputs solved of each one's max per-node |V| error against BFS.
The worst input's error is printed too, and any input above the workload's
bound fails the run; a mean, unlike the max over a few hundred generated
feeders, hardly moves from one seed to the next.

With ``--trace 1`` it alternates untraced and traced passes of a fixed set
of steps, with the CLI called in-process, and reports the per-layer metrics
of ``BENCHMARK.json`` plus the trace overhead.

Human-readable lines (environment, percentiles, sample counts, error rate)
come first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code
is 0 when every operation passed its checks, 1 when one failed, and 2 when
the checkout holds no radialflow sources.

The benchmark's own tests: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: BLAS threads of the benchmark and every child; 1 keeps timings
#: independent of the machine's core count and of its other tenants.
BLAS_THREADS = 1
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
PERCENTILES = (99, 95, 90, 75)


def pin_blas() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _blas_version(module) -> str:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_version(numpy),
        "scipy_blas": _blas_version(scipy),
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def measure_setup(workload, env: dict) -> list[float]:
    """Wall time of fresh interpreters doing the workload's set-up."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), str(SRC)]
    if workload.setup_parses:
        cmd.append(str(workload.inputs))
    from workloads import run_child

    times = []
    for _ in range(SETUP_REPEATS):
        code, seconds = run_child(cmd, ROOT, env, SETUP_TIMEOUT_S)
        if code != 0:
            raise RuntimeError(f"set-up probe exited with code {code}")
        times.append(seconds)
    return times


def tail(samples: list[float]) -> str:
    """Median, the highest listed percentile with at least ten samples
    beyond it, the fastest sample and the sample count."""
    ordered = sorted(samples)
    n = len(ordered)
    text = f"median={statistics.median(ordered):.6g}"
    for p in PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            text += f" p{p}={ordered[rank - 1]:.6g}"
            break
    return text + f" min={ordered[0]:.6g} n={n}"


def timed_run(workload, ctx, seconds: float) -> int:
    steps = 0
    deadline = time.perf_counter() + seconds
    while steps < workload.pass_len or time.perf_counter() < deadline:
        workload.step(steps, ctx)
        steps += 1
    return steps


def traced_run(workload, rf, workdir: Path, seconds: float):
    """Alternate untraced and traced passes over the workload;
    returns the recorder, the per-layer totals of each traced pass and the
    (untraced, traced) wall time of each pair."""
    from spans import Tracer, layer_totals, top_level_seconds
    from workloads import Cli, Context, Recorder

    rec = Recorder()
    tracer = Tracer()
    plain = Context(rf, rec, Cli(ROOT, in_process=True), workdir)
    traced = Context(rf, rec, Cli(ROOT, tracer=tracer), workdir)
    totals, walls = [], []
    deadline = time.perf_counter() + seconds
    # Start another pair only if it is expected to end before the deadline.
    while not walls or time.perf_counter() + sum(walls[-1]) < deadline:
        start = time.perf_counter()
        for i in range(workload.pass_len):
            workload.step(i, plain)
        untraced = time.perf_counter() - start
        tracer.spans = []
        tracer.install()
        try:
            start = time.perf_counter()
            for i in range(workload.pass_len):
                workload.step(i, traced)
            wall = time.perf_counter() - start
        finally:
            tracer.uninstall()
        walls.append((untraced, wall))
        totals.append(layer_totals(tracer.spans))
        top = top_level_seconds(tracer.spans)
        if top > wall:
            rec.failures.append(f"top-level spans {top:.6f} s exceed traced wall {wall:.6f} s")
    return rec, totals, walls


def per_layer_values(totals: list[dict], walls: list[tuple[float, float]], rec) -> dict:
    """Self times as the median over traced passes; counts and bytes from
    one pass, after checking every pass repeated them exactly."""
    values: dict[str, float] = {}
    for key in totals[0]:
        series = [t.get(key) for t in totals]
        if key.endswith(".self_s"):
            values[key] = statistics.median(series)
        else:
            if len(set(series)) != 1:
                rec.failures.append(f"{key} differs between traced passes: {series}")
            values[key] = series[0]
    values["trace.overhead_s"] = (
        statistics.median(w for _, w in walls) - statistics.median(u for u, _ in walls)
    )
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "radialflow" / "__init__.py").is_file():
        print(f"no radialflow sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pin_blas()
    sys.path.insert(0, str(SRC))
    import radialflow as rf
    import radialflow.cli  # noqa: F401  (traced runs rebind its names too)

    if not Path(rf.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"radialflow imported from {rf.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import (
        CLI_OPS, IN_PROCESS_OPS, WORKLOADS, Cli, Context, Recorder, child_env, solve_group,
    )

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workdir = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        print(f"# radialflow benchmark workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print("env " + json.dumps(environment(args.seed), sort_keys=True))
        if args.trace:
            workload.setup(rf)
            solve_group(rf, workload.feeders[0], "warm-up", Recorder(), workload.eps_bound)
            rec, totals, walls = traced_run(workload, rf, workdir, args.seconds)
            values = per_layer_values(totals, walls, rec)
            print(f"traced passes={len(walls)} steps/pass={workload.pass_len} " + " ".join(
                f"untraced={u:.6f}s traced={w:.6f}s" for u, w in walls))
            names = spec["per_layer"]
        else:
            setup_times = measure_setup(workload, child_env(ROOT))
            workload.setup(rf)
            solve_group(rf, workload.feeders[0], "warm-up", Recorder(), workload.eps_bound)
            rec = Recorder()
            ctx = Context(rf, rec, Cli(ROOT), workdir)
            steps = timed_run(workload, ctx, args.seconds)
            print(f"steps={steps} pass={workload.pass_len}")
            print(f"setup_s {tail(setup_times)}")
            for metric in ("parse_s", *IN_PROCESS_OPS, *CLI_OPS):
                if rec.pooled(metric):
                    print(f"{metric} value={rec.value(metric):.6g} pooled {tail(rec.pooled(metric))}")
            for kind, errors in rec.eps.items():
                if errors:
                    print(f"eps_{kind} mean={statistics.fmean(errors.values()):.6g} "
                          f"max={max(errors.values()):.6g} inputs={len(errors)}")
            values = {
                "setup_s": statistics.median(setup_times),
                **{m: rec.value(m) for m in (*IN_PROCESS_OPS, *CLI_OPS)},
                "peak_rss_mb": peak_rss_mb(),
                **{f"eps_mean_{kind}": statistics.fmean(errors.values())
                   for kind, errors in rec.eps.items() if errors},
            }
            names = spec["end_to_end"]
        metrics = {}
        for entry in names:
            value = values.get(entry["name"])
            if value is None:
                rec.failures.append(f"metric {entry['name']} was not measured")
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        failed = len(rec.failures)
        attempted = max(rec.attempted, failed, 1)
        print(f"error_rate {failed / attempted:.6g} ({failed}/{attempted})")
        for line in rec.failures[:20]:
            print(f"FAILED {line}", file=sys.stderr)
        correct = failed == 0
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
