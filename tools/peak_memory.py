"""Traced memory of each receiver stage in one paper-point coded trial.

    python3 tools/peak_memory.py --mode sp --seed 1

Runs one coded trial (`harness.run_coded_trial`, `ScenarioConfig()`
defaults: M=100, K=10, L=4, tau_c=200; rate 1/2, MR, i_max=8, psi bound)
under tracemalloc, with the stage functions below wrapped at every ullsim
module binding that refers to them, the way perfbench's tracer wraps them.
For each stage it prints the number of calls, the traced bytes live when
the first and the last call started, and the highest traced peak during
any call (live bytes included), in MB. The LDPC code is built before
tracing starts, as the benchmark builds it during set-up. Under the table
it prints the process's peak resident set (`ru_maxrss`), which also
counts the interpreter, the imported modules and what tracemalloc does not
see; its gap to the trial's traced peak is that untraced part. Beside it
goes the number of threads the trial split its stacked kernels over (all
usable cores, as for any library caller): each thread gets its own malloc
arena, which `ru_maxrss` sees and tracemalloc does not.

numpy reports its array buffers to tracemalloc, so the figures are the
program's Python and numpy allocations; BLAS/LAPACK workspaces and the
interpreter itself are not in them. It imports ullsim from the `src/`
next to this script: to measure another revision, run that revision's
copy of this script. Nothing in `src/` changes.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import resource
import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# (stage, module that defines the function, function name), in trial order.
STAGES = (
    ("trial", "ullsim.harness", "run_coded_trial"),
    ("drop", "ullsim.netgeom", "make_network"),
    ("blocks", "ullsim.airlink", "simulate_blocks"),
    ("R^1/2", "ullsim.airlink", "correlation_sqrt"),
    ("receive", "ullsim.airlink", "receive"),
    ("receiver", "ullsim.receiver", "run_receiver"),
    ("psi", "ullsim.chest", "psi_pilot"),
    ("psi", "ullsim.chest", "psi_data_aided_bound"),
    ("LMMSE", "ullsim.chest", "lmmse_filter"),
    ("estimate-and-combine", "ullsim.receiver", "estimate_and_combine"),
    # One call per cell: combining stays per cell for its memory.
    ("combiner", "ullsim.combine", "build_combiner"),
    ("combine", "ullsim.combine", "combine_initial"),
    ("combine", "ullsim.combine", "combine_iterative"),
    ("effective_stats", "ullsim.combine", "effective_stats"),
    ("decode", "ullsim.codec.ldpc", "decode"),
)
MB = 1e6


class Recorder:
    """Per-function call count, live bytes at entry and traced peak.

    tracemalloc keeps one peak, so a call resets it on entry and, on exit,
    folds its own peak into the enclosing call's running maximum.
    """

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.open: list[int] = []          # running peak of every open call

    def wrap(self, name: str, fn):
        entry = self.stats.setdefault(name, {"calls": 0, "first": None,
                                              "last": None, "peak": 0})

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            live, peak = tracemalloc.get_traced_memory()
            if self.open:
                self.open[-1] = max(self.open[-1], peak)
            tracemalloc.reset_peak()
            self.open.append(live)
            try:
                return fn(*args, **kwargs)
            finally:
                peak = max(self.open.pop(), tracemalloc.get_traced_memory()[1])
                if self.open:
                    self.open[-1] = max(self.open[-1], peak)
                entry["calls"] += 1
                if entry["first"] is None:
                    entry["first"] = live
                entry["last"] = live
                entry["peak"] = max(entry["peak"], peak)

        return wrapper


def install(recorder: Recorder) -> None:
    """Replace every ullsim binding of each stage function by its wrapper."""
    import ullsim  # noqa: F401            imports every layer module
    for _, module, attr in STAGES:
        fn = getattr(importlib.import_module(module), attr)
        wrapper = recorder.wrap(f"{module.split('.')[-1]}.{attr}", fn)
        for name, mod in list(sys.modules.items()):
            if name != "ullsim" and not name.startswith("ullsim."):
                continue
            for key, obj in list(vars(mod).items()):
                if obj is fn:
                    setattr(mod, key, wrapper)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=["rp", "sp"], default="sp")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    from ullsim import ScenarioConfig, _threads
    from ullsim import harness
    campaign = harness.Campaign(config=ScenarioConfig(), mode=args.mode, trials=1,
                                seed=args.seed, i_max=8)
    harness.get_code(campaign.code_rate)
    recorder = Recorder()
    install(recorder)

    tracemalloc.start()
    harness.run_coded_trial(campaign, 0, 0)
    tracemalloc.stop()

    print(f"coded {args.mode} trial, seed {args.seed}: tracemalloc MB "
          f"(live at the first and last call's entry, peak over all calls)")
    print(f"{'stage':<22}{'function':<30}{'calls':>6}{'first':>9}{'last':>9}{'peak':>9}")
    for stage, module, attr in STAGES:
        name = f"{module.split('.')[-1]}.{attr}"
        s = recorder.stats[name]
        if not s["calls"]:
            continue
        print(f"{stage:<22}{name:<30}{s['calls']:>6}{s['first'] / MB:>9.1f}"
              f"{s['last'] / MB:>9.1f}{s['peak'] / MB:>9.1f}")
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss   # kB on Linux
    print(f"process peak RSS (ru_maxrss): {maxrss_kb * 1e3 / MB:.1f} MB, "
          f"kernels split over {_threads._count} thread(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
