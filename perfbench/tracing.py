"""Span tracing from outside the program, and the per-layer metrics.

`install` wraps every public function of the layer modules at every module
binding that refers to it (`ullsim.receiver.decode`, `ullsim.codec.decode`,
`ullsim.codec.ldpc.decode`, ... all become one wrapper), plus
`harness._run_pair` as the `harness.trial` span. It also replaces
`ullsim.harness.ProcessPoolExecutor` with a pool whose workers install the
same wrappers at start (or inherit them under fork) and write their spans
when they exit, so worker spans are collected under either start method.

Spans stay in memory and are written as JSONL, one file per process, when
the process ends its traced work. `layer_metrics` merges them and computes
self time (duration minus the time covered by direct child spans).

Nothing in `src/` changes. An untraced round imports this module only to
count wrappers (`wrapped_bindings`), and must find none.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from pathlib import Path

LAYERS = ("netgeom", "pilots", "airlink", "chest", "combine", "codec",
          "metrics", "receiver", "harness")
MARK = "__perfbench_wrapped__"

# Layers whose summed self time is reported as `<name>.s`.
SECONDS = ("codec.decode", "codec.syndrome_ok", "codec.encode", "codec.soft_symbols",
           "combine.effective_stats", "combine.combine_iterative",
           "combine.combine_initial", "combine.build_combiner",
           "chest.lmmse_filter", "chest.psi_pilot", "chest.psi_data_aided_bound",
           "chest.pilot_observation", "chest.data_aided_observation",
           "netgeom.make_network", "netgeom.local_scattering_correlation",
           "airlink.correlation_sqrt", "airlink.simulate_blocks",
           "airlink.draw_channels", "airlink.crandn", "airlink.receive",
           "pilots.assign_pilots",
           "metrics.se_mutual_info", "metrics.se_uatf_samples")
# Layers whose span count is reported as `<name>.calls`.
CALLS = ("codec.decode", "combine.effective_stats", "chest.lmmse_filter",
         "chest.data_aided_observation", "netgeom.local_scattering_correlation",
         "airlink.correlation_sqrt")
# Metrics that must repeat exactly between traced runs of one seed.
EXACT = tuple(f"{n}.calls" for n in CALLS) + (
    "codec.decode.codewords", "codec.decode.ok_ratio", "chest.projection_fallbacks",
    "receiver.iterations", "receiver.all_decoded_ratio", "receiver.ue_decoded_ratio")
# Every per-layer metric, in the order it is reported: name -> unit.
UNITS = {f"{n}.s": "s/trial" for n in SECONDS}
UNITS.update({f"{n}.calls": "count" for n in CALLS})
UNITS.update({
    "codec.decode.codewords": "count", "codec.decode.ok_ratio": "ratio",
    "chest.projection_fallbacks": "count", "receiver.run_receiver.self_s": "s/trial",
    "receiver.iterations": "count", "receiver.all_decoded_ratio": "ratio",
    "receiver.ue_decoded_ratio": "ratio", "harness.trial.s": "s/trial",
    "harness.reduce_csv.s": "s/trial", "harness.worker_busy_frac": "ratio",
    "trace_overhead_ratio": "ratio", "trace.count_mismatches": "count",
})


# ---------------------------------------------------------------------------
# Recording (runs inside the traced program's processes)


def _decode_attrs(result) -> dict:
    good = result[2]
    return {"codewords": int(good.size), "ok": int(good.sum())}


def _receiver_attrs(result) -> dict:
    ok = result.final.soft.decoded_ok
    return {"iterations": len(result.states) - 1,
            "all_decoded": int(result.termination == "all_decoded"),
            "ue_decoded": int(ok.sum()), "ue": int(ok.size),
            "fallbacks": int(sum(s.fallback_blocks for s in result.states))}


def _trial_attrs(result) -> dict:
    return {"trial": [result[0], result[1]], "rows": len(result[2])}


ATTRS = {"codec.decode": _decode_attrs, "receiver.run_receiver": _receiver_attrs,
         "harness.trial": _trial_attrs}


class Tracer:
    """Keeps the spans of one process in memory."""

    def __init__(self, span_dir: Path):
        self.span_dir = Path(span_dir)
        self.reset()

    def reset(self) -> None:
        # Unique per process even if the OS reuses a pid within one run.
        self.proc = f"{os.getpid()}-{time.monotonic_ns()}"
        self.spans: list[dict] = []
        self.stack: list[int] = []

    def open(self, name: str) -> dict:
        span = {"id": len(self.spans), "parent": self.stack[-1] if self.stack else None,
                "name": name, "t0": time.perf_counter()}
        self.spans.append(span)
        self.stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["t1"] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                self.close(span)
            if attrs is not None:
                span.update(attrs(result))
            return result

        setattr(wrapper, MARK, fn)
        return wrapper

    def dump(self) -> None:
        """Write this process's spans as JSONL and forget them."""
        self.span_dir.mkdir(parents=True, exist_ok=True)
        with open(self.span_dir / f"{self.proc}.jsonl", "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({"proc": self.proc, **span}) + "\n")
        self.spans = []


_tracer: Tracer | None = None      # the tracer of this process, once installed


def _ullsim_modules() -> list:
    """ullsim and every ullsim submodule imported so far."""
    return [mod for name, mod in list(sys.modules.items())
            if name == "ullsim" or name.startswith("ullsim.")]


def _layer_of(module_name: str) -> str | None:
    parts = module_name.split(".")
    return parts[1] if len(parts) > 1 and parts[1] in LAYERS else None


def wrapped_bindings() -> int:
    """How many ullsim module bindings currently hold a tracing wrapper."""
    return sum(1 for mod in _ullsim_modules()
               for obj in vars(mod).values() if hasattr(obj, MARK))


def install(span_dir: Path, mp_context=None) -> Tracer:
    """Wrap the layer functions of this process and trace pool workers."""
    global _tracer
    tracer = Tracer(span_dir)
    wrappers: dict[int, object] = {}
    import ullsim                        # imports every layer module
    for mod in _ullsim_modules():
        for attr, obj in list(vars(mod).items()):
            if not inspect.isfunction(obj) or hasattr(obj, MARK):
                continue
            layer = _layer_of(obj.__module__)
            if layer is None:
                continue
            if obj.__name__ == "_run_pair" and layer == "harness":
                name = "harness.trial"
            elif obj.__name__.startswith("_"):
                continue
            else:
                name = f"{layer}.{obj.__name__}"
            if id(obj) not in wrappers:
                wrappers[id(obj)] = tracer.wrap(name, obj)
            setattr(mod, attr, wrappers[id(obj)])
    ullsim.harness.ProcessPoolExecutor = _traced_pool(tracer, mp_context)
    _tracer = tracer
    return tracer


def _traced_pool(tracer: Tracer, mp_context):
    from concurrent.futures import ProcessPoolExecutor

    class TracedPool(ProcessPoolExecutor):
        """The program's pool, with tracing workers and a `harness.pool` span."""

        def __init__(self, max_workers=None, **kwargs):
            kwargs.setdefault("mp_context", mp_context)
            super().__init__(max_workers=max_workers, initializer=_worker_init,
                             initargs=(str(tracer.span_dir),), **kwargs)
            self._span = tracer.open("harness.pool")
            self._span["workers"] = self._max_workers

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.close(self._span)

    return TracedPool


def _worker_init(span_dir: str) -> None:
    """Pool initializer: trace this worker and write its spans at exit."""
    from multiprocessing import util
    global _tracer
    if _tracer is None:                  # spawn/forkserver: a fresh interpreter
        install(Path(span_dir))
    _tracer.reset()                      # fork: drop the parent's spans
    util.Finalize(None, _tracer.dump, exitpriority=10)


# ---------------------------------------------------------------------------
# Analysis (runs in run.py, standard library only)


def load_spans(span_dir: Path) -> list[dict]:
    spans = []
    for path in sorted(Path(span_dir).glob("*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def layer_metrics(spans: list[dict], wall_s: float, workers: int) -> dict[str, float]:
    """Per-layer metrics from one traced campaign's spans.

    `.s` metrics are summed self seconds per trial; counts are totals for
    the campaign. `wall_s` is the wall time of the traced `cli.main` calls.
    """
    by_key = {(s["proc"], s["id"]): s for s in spans}
    child_time = {key: 0.0 for key in by_key}
    child_ends = {}
    for s in spans:
        if s["parent"] is not None:
            parent = (s["proc"], s["parent"])
            child_time[parent] += s["t1"] - s["t0"]
            child_ends.setdefault(parent, []).append((s["name"], s["t1"]))
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    totals: dict[str, int] = {}
    for key, s in by_key.items():
        name = s["name"]
        self_s[name] = self_s.get(name, 0.0) + (s["t1"] - s["t0"]) - child_time[key]
        calls[name] = calls.get(name, 0) + 1
        for attr in ("codewords", "ok", "iterations", "all_decoded", "ue_decoded",
                     "ue", "fallbacks"):
            if attr in s:
                totals[attr] = totals.get(attr, 0) + s[attr]

    trials = max(calls.get("harness.trial", 0), 1)
    out: dict[str, float] = {}
    for name in SECONDS:
        out[f"{name}.s"] = self_s.get(name, 0.0) / trials
    for name in CALLS:
        out[f"{name}.calls"] = calls.get(name, 0)
    out["codec.decode.codewords"] = totals.get("codewords", 0)
    out["codec.decode.ok_ratio"] = _ratio(totals.get("ok", 0), totals.get("codewords", 0))
    out["chest.projection_fallbacks"] = totals.get("fallbacks", 0)
    out["receiver.run_receiver.self_s"] = self_s.get("receiver.run_receiver", 0.0) / trials
    out["receiver.iterations"] = totals.get("iterations", 0)
    out["receiver.all_decoded_ratio"] = _ratio(totals.get("all_decoded", 0),
                                               calls.get("receiver.run_receiver", 0))
    out["receiver.ue_decoded_ratio"] = _ratio(totals.get("ue_decoded", 0), totals.get("ue", 0))
    out["harness.trial.s"] = sum(self_s.get(n, 0.0) for n in (
        "harness.trial", "harness.run_coded_trial", "harness.run_gaussian_trial")) / trials
    # Reduce and CSV: each run_campaign's time after its last trial or pool
    # span ended, plus CSV writers called outside run_campaign (the study's).
    reduce_s = 0.0
    for key, s in by_key.items():
        if s["name"] == "harness.run_campaign":
            ends = [t1 for name, t1 in child_ends.get(key, [])
                    if name in ("harness.trial", "harness.pool")]
            reduce_s += s["t1"] - (max(ends) if ends else s["t0"])
        elif s["name"] in ("harness.write_csv", "harness.emit_figure_data"):
            parent = by_key.get((s["proc"], s["parent"])) if s["parent"] is not None else None
            if parent is None or parent["name"] != "harness.run_campaign":
                reduce_s += s["t1"] - s["t0"]
    out["harness.reduce_csv.s"] = reduce_s / trials
    busy = sum(s["t1"] - s["t0"] for s in spans if s["name"] == "harness.trial")
    out["harness.worker_busy_frac"] = busy / (workers * wall_s) if wall_s > 0 else 0.0
    return out


def _ratio(num: float, den: float) -> float:
    """num/den, or 0 when nothing was attempted."""
    return num / den if den else 0.0
