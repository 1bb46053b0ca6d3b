"""Smoke test of the benchmark itself, on a tiny scenario (M=8, K=2, L=3).

    python3 perfbench/smoke_test.py
    python3 -m pytest -q perfbench/smoke_test.py

Runs every workload's code path timed and traced through run.py and
checks that every metric BENCHMARK.json names is printed with its unit,
that the outputs pass their checks, that the counts repeat exactly between
two traced runs of one seed, and that pool-worker spans are collected under
both the fork and the spawn start method. Takes about a minute.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, seed: int = 3) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
                           "--tiny"], cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    names = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in names]
    for m in names:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float))
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in lines[:-1]), f"{m['name']} not printed with its unit"
    return result["metrics"]


def test_workloads_timed_and_traced():
    for workload in (w["name"] for w in SPEC["workloads"]):
        timed = bench(workload, 0)
        assert timed["ok_ratio"]["value"] == 1.0
        assert timed["trials_per_s"]["value"] > 0
        first, second = bench(workload, 1), bench(workload, 1)
        for name in tracing.EXACT:
            assert first[name]["value"] == second[name]["value"], (workload, name)
        assert second["trace.count_mismatches"]["value"] == 0
        if workload == "gaussian-study":
            assert first["codec.decode.calls"]["value"] == 0
        else:
            assert first["codec.decode.calls"]["value"] > 0


def test_worker_spans_under_fork_and_spawn():
    workload = wl.make_workloads(nproc=2, tiny=True)["sweep-parallel"]
    counts = {}
    for method in ("fork", "spawn"):
        b = run.Bench(workload, seed=3, trace=True, tiny=True, record=False)
        res = b.round(0, trace=True, start_method=method)
        assert res is not None and b.failed == 0, b.problems
        spans = tracing.load_spans(res["span_dir"])
        trials = [s for s in spans if s["name"] == "harness.trial"]
        assert len(trials) == workload.pairs, method
        campaign_procs = {s["proc"] for s in spans if s["name"] == "harness.run_campaign"}
        assert campaign_procs and not campaign_procs & {s["proc"] for s in trials}, method
        counts[method] = tracing.layer_metrics(spans, res["wall_s"], 2)["codec.decode.calls"]
    assert counts["fork"] == counts["spawn"] > 0


if __name__ == "__main__":
    test_workloads_timed_and_traced()
    test_worker_spans_under_fork_and_spawn()
    print("smoke test passed")
