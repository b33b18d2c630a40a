"""One fresh interpreter's share of a workload's set-up, timed from outside.

Usage: python3 setup_probe.py SRC_DIR [INPUTS_DIR]

Imports radialflow from SRC_DIR; with INPUTS_DIR, also parses every
``*.json`` feeder in it and runs one warm-up round of the in-process
operations on the first. The caller times the whole process.
"""

import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    sys.path.insert(0, argv[0])
    import radialflow as rf

    if len(argv) > 1:
        paths = sorted(Path(argv[1]).glob("*.json"))
        feeders = [rf.parse_feeder(p.read_text(encoding="utf-8")) for p in paths]
        feeder = feeders[0]
        simple = rf.solve_linear(rf.assemble(feeder))
        rf.solve_linear_full(feeder)
        bfs = rf.solve_bfs(feeder, rf.BfsOptions(tolerance=1e-10))
        rf.summarize(simple, rf.build_incidence(feeder), feeder, reference=bfs)
        rf.residual(feeder, bfs)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
