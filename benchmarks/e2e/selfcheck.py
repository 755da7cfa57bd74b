"""Self-test of the benchmark at ``--scale smoke`` (seconds, not minutes).

Run it either way::

    python3 benchmarks/e2e/selfcheck.py
    python3 -m pytest benchmarks/e2e/selfcheck.py

It is deliberately not named ``test_*.py``: the repo's tier-1 command
collects from the root, and a benchmark's self-test has no business in
that budget.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "benchmarks" / "e2e" / "bench_e2e.py"),
         "--scale", "smoke", "--seconds", "1", *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _mini_checkout(tmp: Path, *, with_program: bool) -> Path:
    """What the driver's checkout looks like, as far as the benchmark
    can tell: BENCHMARK.json, the files under ``paths`` and (optionally)
    the program and the micro-loop module the drivers import."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp / "BENCHMARK.json")
    shutil.copytree(HERE, tmp / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_program:
        shutil.copy(ROOT / "benchmarks" / "bench_micro.py", tmp / "benchmarks")
        shutil.copytree(ROOT / "src", tmp / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return tmp


def test_benchmark_json_is_within_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), names
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_workload_prints_every_metric_with_its_unit():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            result = _result(_run(ROOT, "--workload", workload, "--trace", trace))
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1
            declared = {m["name"]: m["unit"] for m in SPEC[key]}
            printed = {n: cell["unit"] for n, cell in result["metrics"].items()}
            assert printed == declared, (workload, trace)
            if trace == "1":
                assert result["metrics"]["trace.coverage"]["value"] >= 0.97
            else:
                assert all(cell["value"] > 0 for cell in result["metrics"].values())


def test_corrupted_expected_digest_fails_the_run():
    with tempfile.TemporaryDirectory() as tmp:
        root = _mini_checkout(Path(tmp), with_program=True)
        assert _result(_run(root, "--workload", "osu_blocking"))["correct"]
        pins_path = root / "benchmarks" / "e2e" / "expected.json"
        pins = json.loads(pins_path.read_text())
        pins["smoke"]["osu_blocking"]["tables_sha"]["fig5a"] = "0" * 64
        pins_path.write_text(json.dumps(pins))
        proc = _run(root, "--workload", "osu_blocking")
        assert proc.returncode != 0
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert not result["correct"] and result["failed"] >= 1


def test_without_the_program_it_exits_nonzero_and_prints_no_result():
    with tempfile.TemporaryDirectory() as tmp:
        root = _mini_checkout(Path(tmp), with_program=False)
        proc = _run(root, "--workload", "osu_blocking")
        assert proc.returncode != 0
        assert not proc.stdout.strip()


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            print(name, "...", end=" ", flush=True)
            fn()
            print("ok")
