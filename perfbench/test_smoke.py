"""Smoke test of the benchmark itself: every workload, untraced and traced,
at a tiny size, must pass its correctness gate and emit exactly the metrics
BENCHMARK.json names, each with its unit.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py
    python3 perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402

# GF(3) with d = 3 is the only exhaustive space that finishes instantly; it
# is empty, so it checks the plumbing of fuzz-exhaustive, not its numbers.
TINY = wl.Sizes(
    exhaustive_field="gf:3",
    exhaustive_expect=(0, 0),
    sparse_trials=200,
    min_calls=10,
    pipeline_cycles=1,
    pipeline_cells=(("F1", "gf:5", 3), ("F4", "ext:gf:2:1,1,1", 3), ("F1", "cyclo:4", 3)),
    setup_repeats=2,
    trace_calls=3,
    exhaustive_sample_trials=200,
    count_trials=100,
    ext_fuzz_trials=50,
)


def _declared(kind: str) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def test_every_workload_emits_every_metric():
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        declared = _declared(kind)
        for workload in run.WORKLOADS:
            with tempfile.TemporaryDirectory(dir=work_root) as workdir:
                result = run.run(workload, 7, 0, trace, ROOT / "src", Path(workdir), TINY)
            label = f"{workload} --trace {trace}"
            assert result["correct"] and result["failed"] == 0, label
            assert result["attempted"] >= 1, label
            metrics = result["metrics"]
            assert set(metrics) == set(declared), (label, set(metrics) ^ set(declared))
            for name, unit in declared.items():
                value = metrics[name]["value"]
                assert metrics[name]["unit"] == unit, (label, name)
                assert isinstance(value, (int, float)) and not isinstance(value, bool)
            if trace:
                assert metrics["search.ext_fuzz_failed"]["value"] == 1, label
            json.dumps(result, allow_nan=False)


def test_exits_nonzero_without_sources():
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_work") as empty:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "fuzz-sparse",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=empty, capture_output=True, text=True, timeout=60,
        )
    assert proc.returncode != 0
    assert proc.stdout == ""


if __name__ == "__main__":
    test_every_workload_emits_every_metric()
    test_exits_nonzero_without_sources()
    print("smoke test passed")
