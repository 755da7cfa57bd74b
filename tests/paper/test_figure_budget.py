"""The figure budget's hard memory ceiling (``.github/figure_budget.py``)."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[2] / ".github" / "figure_budget.py"


def test_figure_over_the_address_space_ceiling_dies_typed_and_named(
    monkeypatch, capfd
):
    """Under a ceiling fig6 cannot fit in, the child dies of a
    MemoryError it reports — not of an OOM kill — and the budget names
    the figure and the ceiling."""
    spec = importlib.util.spec_from_file_location("figure_budget", SCRIPT)
    budget = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(budget)
    assert budget.AS_MIB >= 4 * budget.RSS_MIB

    # One BLAS thread: the child's import footprint (~113 MiB of address
    # space) then does not grow with the host's core count; fig6 on top
    # of it needs ~150 MiB.  The ceiling sits below the first job's
    # rank-thread stacks (16 x 512 KiB), so the child dies starting a
    # thread.  A ceiling those stacks fit under can instead run out
    # inside an exception being unwound, which CPython 3.11 retries
    # forever (observed spinning on a failed arena mmap in
    # PyLong_FromLong under _PyEval_EvalFrameDefault): a hang, not a
    # typed death.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(budget, "AS_MIB", 116)
    assert budget.main("fig6") != 0
    out, err = capfd.readouterr()
    assert "OVER BUDGET fig6: MemoryError under 116 MiB" in out
    assert "Traceback" in err  # the child's own report is passed through
