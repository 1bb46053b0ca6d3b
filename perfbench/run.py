"""Campaign benchmark for ullsim: trials/s on three paper workloads.

    python3 perfbench/run.py --workload coded-paper --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the program is imported from
`src/`). Each round is a fresh interpreter (`child.py`) that calls
`ullsim.cli.main` in-process. `--trace 0` runs a workload's rounds, each
on its own campaign seeds, and prints the end-to-end metrics; `--trace 1`
runs round 0 untraced and then traced and prints the per-layer metrics.
Every output CSV is checked. The last stdout line is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.

Every interpreter runs with OPENBLAS/OMP/MKL_NUM_THREADS=1 (see README.md).
Outputs, logs, spans and a result file go to `.perfbench_out/` in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference"
DEFAULT_SEED = 1
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 5      # set-up-only interpreters per timed run, besides the rounds
DEADLINE_S = 170.0     # no child starts or keeps running past this
END_TO_END = {"setup_s": "s", "trials_per_s": "1/s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}


class Bench:
    def __init__(self, workload: wl.Workload, seed: int, trace: bool, tiny: bool, record: bool):
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.record = record
        self.start = time.monotonic()
        self.tag = f"{workload.name}-seed{seed}" + ("-tiny" if tiny else "")
        self.out = ROOT / ".perfbench_out" / f"{self.tag}-trace{int(trace)}"
        shutil.rmtree(self.out, ignore_errors=True)
        (self.out / "tmp").mkdir(parents=True)
        self.config = self.out / "scenario.cfg"
        scenario, self.K = wl.TINY_SCENARIO if tiny else wl.PAPER_SCENARIO
        self.config.write_text(scenario)
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = {**os.environ, **PINNED, "TMPDIR": str(self.out / "tmp"),
                    "PYTHONPATH": src + (os.pathsep + path if path else "")}
        self.n_jobs = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.contexts: list[dict] = []

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.start)

    def child(self, calls: list, trace: bool = False, span_dir: Path | None = None,
              start_method: str | None = None) -> dict | None:
        """Run child.py on one job; None if it failed or ran out of time.

        `start_method` forces the traced pool's start method (smoke test only).
        """
        self.n_jobs += 1
        stem = self.out / f"job{self.n_jobs}"
        job = {"config": str(self.config), "rate": self.workload.rate, "calls": calls,
               "trace": trace, "span_dir": str(span_dir) if span_dir else None,
               "start_method": start_method, "result": f"{stem}.result.json"}
        timeout = self.remaining()
        if timeout <= 0:
            return None
        with open(f"{stem}.log", "w") as log:
            job["spawned"] = time.monotonic()
            Path(f"{stem}.json").write_text(json.dumps(job))
            proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), f"{stem}.json"],
                                    cwd=ROOT, env=self.env, stdout=log, stderr=log,
                                    start_new_session=True)
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                pass
            finally:
                # The child's pool workers share its process group.
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
        if proc.returncode != 0 or not Path(job["result"]).exists():
            self.problems.append(f"job{self.n_jobs} exited with {proc.returncode}; "
                                 f"see {stem}.log")
            return None
        return json.loads(Path(job["result"]).read_text())

    def campaign_seed(self, index: int, call: int) -> int:
        """Seed of call `call` in round `index`: every trial gets its own drop.

        Trials of one campaign seed share their drops across modes, so rp and
        sp of one round, and different rounds, get different seeds.
        """
        return (self.seed * 16 + index) * 4 + call

    def round(self, index: int, trace: bool = False,
              start_method: str | None = None) -> dict | None:
        """One fresh interpreter running every call of the workload once."""
        out_dir = self.out / f"job{self.n_jobs + 1}-round{index}"
        calls = [[c.argv[0], str(self.config), *c.argv[1:],
                  "--seed", str(self.campaign_seed(index, i)), "--out", wl.out_arg(c, out_dir)]
                 for i, c in enumerate(self.workload.calls)]
        span_dir = out_dir / "spans" if trace else None
        res = self.child(calls, trace, span_dir, start_method)
        pairs = self.workload.pairs
        self.attempted += pairs
        if res is None:
            self.failed += pairs
            return None
        self.contexts.append(res["context"])
        if (res["wrapped_bindings"] > 0) != trace:
            self.problems.append(f"round {out_dir.name}: {res['wrapped_bindings']} "
                                 f"tracing wrappers with trace={trace}")
            self.failed += pairs
        for call, code in zip(self.workload.calls, res["codes"]):
            if code != 0:
                self.problems.append(f"{call.label}: cli.main returned {code}")
                self.failed += call.pairs
                continue
            failed, problems = self.check(call, out_dir, index)
            self.failed += failed
            self.problems += problems
        res["wall_s"] = sum(res["walls"])
        res["peak_rss_mb"] = (res["maxrss_kb"] + res["children_maxrss_kb"]) / 1024.0
        res["span_dir"] = span_dir
        return res

    def check(self, call: wl.Call, out_dir: Path, index: int) -> tuple[int, list[str]]:
        produced = wl.csv_path(call, out_dir)
        ref = REFERENCE / f"{self.workload.name}-round{index}-{call.label}.csv"
        if self.record:
            REFERENCE.mkdir(exist_ok=True)
            shutil.copyfile(produced, ref)
        if self.seed != DEFAULT_SEED or self.tiny:
            return wl.check_call(call, produced, self.K)
        if not ref.exists():
            return call.pairs, [f"{call.label}: no reference {ref.name}"]
        return wl.check_call(call, produced, self.K, ref)

    # -- the two kinds of run ------------------------------------------------

    def timed(self, seconds: float) -> dict:
        rounds = []
        for index in range(self.workload.rounds(seconds)):
            r = self.round(index)
            if r is None:
                break
            rounds.append(r)
        setups = [r["setup_s"] for r in rounds]
        for _ in range(SETUP_SAMPLES):
            r = self.child([])
            if r is not None:
                setups.append(r["setup_s"])
        if not rounds:
            return {}
        return {
            "setup_s": statistics.median(setups),
            # Rounds run different drops, so pool them rather than take a median.
            "trials_per_s": (len(rounds) * self.workload.pairs
                             / sum(r["wall_s"] for r in rounds)),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
            "ok_ratio": 1.0 - self.failed / self.attempted,
            "_round_walls_s": [r["walls"] for r in rounds],
            "_round_peak_rss_mb": [r["peak_rss_mb"] for r in rounds],
            "_setup_samples_s": setups,
        }

    def traced(self) -> dict:
        plain = self.round(0)
        traced = self.round(0, trace=True) if plain is not None else None
        if traced is None:
            return {}
        spans = tracing.load_spans(traced["span_dir"])
        with open(self.out / "trace.jsonl", "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
        shutil.rmtree(traced["span_dir"])
        workers = max(c.workers for c in self.workload.calls)
        metrics = tracing.layer_metrics(spans, traced["wall_s"], workers)
        metrics["trace_overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
        metrics["trace.count_mismatches"] = self.count_mismatches(metrics)
        return metrics

    def count_mismatches(self, metrics: dict) -> int:
        """Count metrics that differ from the reference or the last traced run."""
        counts = {k: metrics[k] for k in tracing.EXACT}
        previous = []
        record = ROOT / ".perfbench_out" / "counts" / f"{self.tag}.json"
        ref = REFERENCE / f"{self.workload.name}-counts.json"
        if self.record:
            ref.write_text(json.dumps(counts, indent=1) + "\n")
        elif self.seed == DEFAULT_SEED and not self.tiny and ref.exists():
            previous.append(("reference", json.loads(ref.read_text())))
        if record.exists():
            previous.append(("last traced run", json.loads(record.read_text())))
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(counts))
        differ = set()
        for source, old in previous:
            for key, value in counts.items():
                if old.get(key) != value:
                    differ.add(key)
                    print(f"count changed vs {source}: {key} {old.get(key)} -> {value}",
                          file=sys.stderr)
        return len(differ)

    def context(self) -> dict:
        try:
            cpu = next(line.split(":", 1)[1].strip()
                       for line in open("/proc/cpuinfo") if line.startswith("model name"))
        except (OSError, StopIteration):
            cpu = "unknown"
        src_lines = sum(len(p.read_bytes().splitlines())
                        for p in sorted((ROOT / "src").rglob("*.py")))
        return {"workload": self.workload.name, "seed": self.seed, "tiny": self.tiny,
                "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "thread_env": PINNED,
                **(self.contexts[0] if self.contexts else {}), "src_lines": src_lines}


def main(argv: list[str] | None = None) -> int:
    names = list(wl.make_workloads(1))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="M=8, K=2, L=3 scenario for the smoke test")
    parser.add_argument("--record-reference", action="store_true",
                        help=f"store this run's CSVs and counts as the seed-{DEFAULT_SEED} "
                             "reference")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "ullsim" / "__init__.py").is_file():
        print(f"error: no ullsim sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    workload = wl.make_workloads(len(os.sched_getaffinity(0)), args.tiny)[args.workload]
    bench = Bench(workload, args.seed, bool(args.trace), args.tiny, args.record_reference)
    if bench.child([]) is None:                # also fills the bytecode caches
        print("error: the program's set-up failed:\n  " + "\n  ".join(bench.problems),
              file=sys.stderr)
        return 1
    if args.trace:
        metrics, units = bench.traced(), tracing.UNITS
    else:
        metrics, units = bench.timed(args.seconds), END_TO_END
    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if not metrics:
        print("error: no round completed", file=sys.stderr)
        return 1

    context = bench.context()
    samples = {k[1:]: v for k, v in metrics.items() if k.startswith("_")}
    result = {"correct": bench.failed == 0 and not bench.problems,
              "attempted": bench.attempted, "failed": bench.failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    (bench.out / "result.json").write_text(
        json.dumps({"context": context, **samples, **result}, indent=1) + "\n")
    print("context " + json.dumps(context))
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_ratio':40s} {bench.failed / bench.attempted:.6g} ratio")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
