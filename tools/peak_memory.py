"""Traced memory of each receiver stage in one paper-point trial, or at another M.

    python3 tools/peak_memory.py --mode sp --seed 1
    python3 tools/peak_memory.py --mode study --seed 1
    python3 tools/peak_memory.py --mode rp --M 256

Runs one coded trial (`harness.run_coded_trial`, `ScenarioConfig()`
defaults: M=100, K=10, L=4, tau_c=200, or M from `--M`; rate 1/2, MR,
i_max=8, psi bound),
or with `--mode study` one (grid point, trial) pair of the Gaussian-symbol
study (`harness._run_variants`: the rp, rp3 and sp variants on one shared
drop and one shared link-by-link channel pass, sigma_est = 0.6, MR), under
tracemalloc, with the stage functions below wrapped at every ullsim module
binding that refers to them, the way perfbench's tracer wraps them (and
two private ones, the study's `_run_variants` and `_draw_pair`, which
perfbench does not trace).
For each stage it prints the number of calls, the traced bytes live when
the first and the last call started, and the highest traced peak during
any call (live bytes included), in MB. The LDPC code is built before
tracing starts, as the benchmark builds it during set-up. Under the table
it prints the process's peak resident set (`ru_maxrss`), which also
counts the interpreter, the imported modules and what tracemalloc does not
see; its gap to the trial's traced peak is that untraced part. Beside it
goes the number of threads the trial split its stacked kernels over (all
usable cores, as for any library caller), how many of them ran the
serving cells, and the share each cell's kernels split over: each
thread gets its own malloc arena, which `ru_maxrss` sees and tracemalloc
does not, and holds one cell's filter, covariances and combining vectors
at a time.

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
# A stage the run does not reach is not printed.
STAGES = (
    ("trial", "ullsim.harness", "run_coded_trial"),
    ("study pair", "ullsim.harness", "_run_variants"),
    # The study pair draws every variant's symbols, the drop and, in one
    # shared link pass, every variant's channels before any variant runs.
    ("pair draws", "ullsim.harness", "_draw_pair"),
    ("symbols", "ullsim.airlink", "gaussian_symbols"),
    ("drop", "ullsim.netgeom", "make_network"),
    ("blocks", "ullsim.airlink", "simulate_blocks"),
    # Channels are drawn link by link, each R^1/2 made once and dropped in
    # turn: a coded trial's pass (in simulate_blocks) draws one stream, the
    # study pair's one per variant. Neither run makes the whole R^1/2 stack.
    ("link pass", "ullsim.airlink", "draw_link_by_link"),
    ("study variant", "ullsim.harness", "run_gaussian_trial"),
    ("receive", "ullsim.airlink", "receive"),
    ("receiver", "ullsim.receiver", "run_receiver"),
    # psi is one call per pass, for every cell, on Toeplitz generators (a
    # pilot-only fallback adds one). LMMSE, the combiner, combining and
    # effective_stats make one call per serving cell, for their memory: a
    # pass calls each L times, the cells spread over the trial's threads,
    # and each thread holds one cell's C at a time. Combining forms one
    # block's (M, n_data) residual at a time on each thread.
    ("psi", "ullsim.chest", "psi_pilot"),
    ("psi", "ullsim.chest", "psi_data_aided_bound"),
    ("LMMSE", "ullsim.chest", "lmmse_filter"),
    ("estimate-and-combine", "ullsim.receiver", "estimate_and_combine"),
    ("combiner", "ullsim.combine", "build_combiner"),
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
    parser.add_argument("--mode", choices=["rp", "sp", "study"], default="sp")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--M", type=int, default=100, help="BS antennas")
    args = parser.parse_args(argv)

    from ullsim import ScenarioConfig, _threads
    from ullsim import harness
    if args.mode == "study":
        campaign = harness.Campaign(config=ScenarioConfig(M=args.M), pipeline="gaussian",
                                    grid_param="sigma_est", grid_values=(0.6,),
                                    trials=1, seed=args.seed)
        variants = [sub for _, sub in harness._study_variants(campaign)]
        title = f"Gaussian study pair ({len(variants)} variants)"
    else:
        campaign = harness.Campaign(config=ScenarioConfig(M=args.M), mode=args.mode, trials=1,
                                    seed=args.seed, i_max=8)
        harness.get_code(campaign.code_rate)
        title = f"coded {args.mode} trial"
    recorder = Recorder()
    install(recorder)

    tracemalloc.start()
    if args.mode == "study":
        harness._run_variants((variants, 0, 0))
    else:
        harness.run_coded_trial(campaign, 0, 0)
    tracemalloc.stop()

    print(f"{title}, M={args.M}, seed {args.seed}: tracemalloc MB "
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
    L = campaign.config.L
    print(f"process peak RSS (ru_maxrss): {maxrss_kb * 1e3 / MB:.1f} MB, "
          f"kernels split over {_threads._count} thread(s), serving cells over "
          f"{min(_threads._count, L)} and each cell's kernels over "
          f"{max(1, _threads._count // L)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
