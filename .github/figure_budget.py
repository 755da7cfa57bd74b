"""Regenerate one paper figure cold, in its own process, under a budget.

    python .github/figure_budget.py fig6

Fails on a non-zero exit, more than WALL_S seconds of wall time or a
peak resident set above RSS_MIB (the child's ``ru_maxrss``).  This is
what keeps a scale-dependent blow-up — the fig6 OOM — from coming back
unnoticed: tier-1 and the benchmark ledger only run reduced scales.
One figure per invocation, so RUSAGE_CHILDREN is that figure's alone.
"""

import os
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WALL_S = 180
RSS_MIB = 512


def main(figure: str) -> int:
    t0 = time.monotonic()
    try:
        status = subprocess.run(
            [sys.executable, "-m", "repro.cli", figure, "--no-cache", "--quiet"],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            stdout=subprocess.DEVNULL,  # the tables are not the point
            timeout=WALL_S,
        ).returncode
    except subprocess.TimeoutExpired:
        print(f"OVER BUDGET {figure}: still running after {WALL_S} s (killed)")
        return 1
    wall = time.monotonic() - t0
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"{figure}: exit {status}, {wall:.1f} s, {rss:.0f} MiB")
    if status != 0:
        return status
    if rss > RSS_MIB:
        print(f"OVER BUDGET {figure}: peak RSS {rss:.0f} MiB > {RSS_MIB} MiB")
        return 1
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
