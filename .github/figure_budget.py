"""Regenerate one paper figure cold, in its own process, under a budget.

    python .github/figure_budget.py fig6
    python .github/figure_budget.py fig8 --procs 128

Arguments after the figure go to ``repro-mpi <figure>`` unchanged.

Fails on a non-zero exit, more than WALL_S seconds of wall time or a
peak resident set above RSS_MIB (the child's ``ru_maxrss``).  This is
what keeps a scale-dependent blow-up — the fig6 OOM — from coming back
unnoticed: tier-1 and the benchmark ledger only run reduced scales.
One figure per invocation, so RUSAGE_CHILDREN is that figure's alone.

``ru_maxrss`` is read after the child has exited, so on its own a
runaway still ends as the kernel's OOM kill.  The child therefore runs
under ``RLIMIT_AS`` = AS_MIB: it dies of a ``MemoryError`` it can
report, with the figure named here.  AS_MIB bounds *address space*, not
memory, and is not the budget (RSS_MIB is).  Unlimited, the seven
figures peak at 1122–1184 MiB of address space on 2 cores against
45–103 MiB resident: nearly all of it is glibc reserving a 64 MiB
malloc arena per rank thread (16 arenas on 2 cores, one per thread —
~2.2 GiB at 32 ranks — on wider machines).  Reservations count toward
the limit, and a ceiling they can reach starves real allocations (under
300 MiB fig6 fails to allocate a 1 MiB array), so the ceiling clears
the widest case with room to spare.
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
AS_MIB = 4096
#: How an exhausted address space surfaces in the child's traceback:
#: a failed allocation, or a rank thread whose stack could not be mapped.
_OUT_OF_MEMORY = ("MemoryError", "can't start new thread")


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (AS_MIB << 20, AS_MIB << 20))


def main(figure: str, *args: str) -> int:
    name = " ".join((figure, *args))
    t0 = time.monotonic()
    try:
        child = subprocess.run(
            [sys.executable, "-m", "repro.cli", figure, *args,
             "--no-cache", "--quiet"],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            stdout=subprocess.DEVNULL,  # the tables are not the point
            stderr=subprocess.PIPE,
            text=True,
            timeout=WALL_S,
            preexec_fn=_limit_address_space,
        )
    except subprocess.TimeoutExpired:
        print(f"OVER BUDGET {name}: still running after {WALL_S} s (killed)")
        return 1
    wall = time.monotonic() - t0
    status = child.returncode
    sys.stderr.write(child.stderr)
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"{name}: exit {status}, {wall:.1f} s, {rss:.0f} MiB")
    if status != 0:
        if any(sign in child.stderr for sign in _OUT_OF_MEMORY):
            print(f"OVER BUDGET {name}: MemoryError under {AS_MIB} MiB")
        return status
    if rss > RSS_MIB:
        print(f"OVER BUDGET {name}: peak RSS {rss:.0f} MiB > {RSS_MIB} MiB")
        return 1
    return 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
