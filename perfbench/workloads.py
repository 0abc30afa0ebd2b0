"""Benchmark workloads and the seeded input generator.

Each workload is one of the paper's figure configs, ``configs/fig*.cfg``.
Seed 0 returns the committed config byte for byte, and any other seed
scales every hidden parameter a and b by its own factor drawn uniformly
from [0.9, 1.1].  Grid, sample counts and regime stay fixed, so a seed
changes the trajectories but not the amount of work.
"""

from __future__ import annotations

import random
import re
from pathlib import Path

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

_SETS_LINE = re.compile(r"^sets = (.*)$", re.MULTILINE)


# workload name -> figure number passed to ``rqtraj figure --figure``; why
# each was chosen is recorded in BENCHMARK.json
WORKLOADS = {"fig1": 1, "fig2": 2, "fig3": 3}


def config_text(workload: str, seed: int) -> str:
    """The config file the program sees for ``workload`` under ``seed``."""
    text = (CONFIGS / f"{workload}.cfg").read_text()
    if seed == 0:
        return text
    rng = random.Random(seed)
    match = _SETS_LINE.search(text)
    scaled = []
    for chunk in match.group(1).split(";"):
        a, b = (float(v) for v in chunk.split(","))
        scaled.append(f"{a * rng.uniform(0.9, 1.1)!r},{b * rng.uniform(0.9, 1.1)!r}")
    return text[: match.start(1)] + "; ".join(scaled) + text[match.end(1):]
