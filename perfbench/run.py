"""rqtraj benchmark: the fig1-3 CLI runs end to end, or one traced in-process run.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig3 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --out result.json

``--trace 0`` times whole CLI commands as fresh processes (closed loop, one
client, one process at a time) and reports the end-to-end metrics of
BENCHMARK.json.  Times are medians over repetitions, scaled to a reference
machine speed by a calibration process run before each timed one.  The
first repetition runs the committed config (seed 0) and the accuracy
metrics are read from its outputs, so they are exact and the same for
every seed.  ``--trace 1`` runs the pipeline in process, untraced and
traced, next to one CLI repetition, and reports the per-layer metrics.
``all`` runs every workload in both modes and prints everything.
Human-readable lines come first; the last line of standard output is one
JSON object.  The exit code is 1 when an output check failed and 2 when
the program is not there.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spawner import Spawner  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the final JSON object, with every traced span, here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rqtraj" / "cli.py").is_file():
        print(f"perfbench: no rqtraj sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The spawner starts every timed process, and each inherits the spawner's
    # peak RSS as a floor (see spawner.py).  So it starts while this process
    # is still small, before numpy, rqtraj and the harness are imported.
    with Spawner() as spawner:
        import harness
        return harness.run(args, spawner)


if __name__ == "__main__":
    sys.exit(main())
