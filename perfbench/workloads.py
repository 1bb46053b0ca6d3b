"""The benchmark's workloads and the checks on the CSVs they write.

Each workload is a list of `ullsim` command lines that one round runs
through `ullsim.cli.main`. The scenario is the paper's (`ScenarioConfig()`
defaults: M=100, K=10, L=4, tau_c=200, tau_p=10, delta=0.3, 0 dB design
SNR); the smoke test swaps in a tiny one. Only the standard library is
used here, so the checks do not depend on the code they check.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

# (scenario file, K). Three cells make the tiny coded trials iterate.
PAPER_SCENARIO = ("# ScenarioConfig() defaults: the paper scenario\n", 10)
TINY_SCENARIO = ("M = 8\nK = 2\nL = 3\n", 2)

# Receiver settings shared by every workload.
COMMON = ("--combiner", "mr", "--imax", "8", "--psi", "bound")
I_MAX = 8

CODED_COLUMNS = ("mse_ch", "se_uatf", "se_mi", "bler", "snr_eff_db")
GAUSSIAN_COLUMNS = ("mse_ch", "se_uatf")
NUMERIC_COLUMNS = ("mse_ch", "se_uatf", "se_mi", "bler", "snr_eff_db",
                   "stderr_mse_ch", "stderr_se_uatf", "stderr_se_mi",
                   "stderr_bler", "stderr_snr_eff_db")
# Relative tolerance against the recorded reference: room for float
# reassociation (and the 12 significant digits the CSV keeps), nothing more.
REF_RTOL = 1e-9


@dataclass(frozen=True)
class Call:
    """One `cli.main` call and the CSV rows it must write."""

    label: str            # names the call's output
    argv: tuple           # arguments after the config path, without --seed/--out
    modes: tuple          # values of the CSV `mode` column
    grid: tuple           # grid values, as floats
    iterations: int       # rows per (mode, grid value, UE class)
    trials: int
    coded: bool
    study: bool = False   # writes <out dir>/results.csv instead of --out

    @property
    def pairs(self) -> int:
        """(grid point, trial) pairs the call runs."""
        return len(self.modes) * len(self.grid) * self.trials

    @property
    def workers(self) -> int:
        return int(self.argv[self.argv.index("--workers") + 1])


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    rate: str | None      # code rate built during set-up, None if no codec
    calls: tuple
    round_s: float        # a timed run does round(--seconds / round_s) rounds

    def rounds(self, seconds: float) -> int:
        return min(16, max(1, round(seconds / self.round_s)))

    @property
    def pairs(self) -> int:
        return sum(c.pairs for c in self.calls)


def make_workloads(nproc: int, tiny: bool = False) -> dict[str, Workload]:
    coded = tuple(
        Call(mode, ("run", "--mode", mode, "--trials", "1", "--rate", "1/2",
                    "--workers", "1") + COMMON,
             modes=(mode,), grid=(0.0,), iterations=I_MAX + 1, trials=1,
             coded=True)
        for mode in ("rp", "sp"))
    # rp reuse 3 needs tau_p = 3K <= tau_c, which both scenarios meet.
    study = Call("study", ("sweep", "--pipeline", "gaussian", "--study",
                           "--param", "sigma_est", "--values", "0.2,0.6,1.0",
                           "--trials", "1", "--workers", "1") + COMMON,
                 modes=("rp", "rp3", "sp"), grid=(0.2, 0.6, 1.0), iterations=2,
                 trials=1, coded=False, study=True)
    trials = 4
    # At least two workers so the pool always runs; no more than the pairs.
    workers = max(2, min(nproc, 2 * trials))
    sweep = Call("sweep", ("sweep", "--param", "snr_db", "--values", "0,10",
                           "--mode", "sp", "--combiner", "smmse", "--rate", "3/4",
                           "--trials", str(trials), "--workers", str(workers),
                           "--imax", "8", "--psi", "bound"),
                 modes=("sp",), grid=(0.0, 10.0), iterations=I_MAX + 1,
                 trials=trials, coded=True)
    return {
        "coded-paper": Workload(
            "coded-paper",
            "one coded rp and one sp trial at the paper point: decode, "
            "effective_stats and the receiver loop dominate",
            "1/2", coded, round_s=15.0),
        "gaussian-study": Workload(
            "gaussian-study",
            "Gaussian-symbol sigma_est study: drop, channel draw and estimation "
            "only; the codec and effective_stats never run",
            None, (study,), round_s=15.0),
        "sweep-parallel": Workload(
            "sweep-parallel",
            "rate-3/4 S-MMSE snr_db sweep over a process pool: pool, reduce and "
            "CSV, the higher-degree graph and S-MMSE solves",
            "3/4", (sweep,), round_s=30.0),
    }


def csv_path(call: Call, out_dir: Path) -> Path:
    """Where `call` writes its aggregated rows, for `--out` = `out_arg(...)`."""
    return out_dir / "results.csv" if call.study else out_dir / f"{call.label}.csv"


def out_arg(call: Call, out_dir: Path) -> str:
    return str(out_dir / "study.csv") if call.study else str(out_dir / f"{call.label}.csv")


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _close(column: str, a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=REF_RTOL, abs_tol=0.0 if "mse" in column else 1e-12)


def _matches(row: dict, ref: dict | None) -> bool:
    return (ref is not None
            and all(row[c] == ref[c] for c in ("combiner", "grid_param", "n_trials"))
            and all(_close(c, _float(row[c]), _float(ref[c])) for c in NUMERIC_COLUMNS))


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _key(row: dict) -> tuple:
    return (row["mode"], _float(row["grid_value"]), int(row["iteration"]),
            int(row["ue_index_class"]))


def check_call(call: Call, path: Path, K: int,
               reference: Path | None = None) -> tuple[int, list[str]]:
    """Check one call's CSV; return (failed pairs, problems found).

    A (mode, grid value) group fails all its trials when one of its rows is
    missing, holds a non-finite value where the metric applies, has a BLER
    outside [0, 1] or differs from the reference; otherwise it fails the
    trials its smallest `n_trials` is short of.
    """
    problems: list[str] = []
    try:
        rows = {_key(r): r for r in read_rows(path)}
    except (OSError, KeyError, ValueError) as exc:
        return call.pairs, [f"{call.label}: cannot read {path.name}: {exc}"]
    ref_rows = None
    if reference is not None:
        ref_rows = {_key(r): r for r in read_rows(reference)}
        if set(ref_rows) != set(rows):
            problems.append(f"{call.label}: row keys differ from the reference")
    applies = CODED_COLUMNS if call.coded else GAUSSIAN_COLUMNS
    failed = 0
    for mode in call.modes:
        for g in call.grid:
            bad = False
            min_n = call.trials
            for it in range(call.iterations):
                for k in range(K):
                    key = (mode, g, it, k)
                    row = rows.get(key)
                    if row is None:
                        problems.append(f"{call.label}: missing row {key}")
                        bad = True
                        continue
                    n = _float(row["n_trials"])
                    min_n = min(min_n, int(n) if math.isfinite(n) else 0)
                    for col in applies:
                        if not math.isfinite(_float(row[col])):
                            problems.append(f"{call.label}: {col} not finite in {key}")
                            bad = True
                    if call.coded and not 0.0 <= _float(row["bler"]) <= 1.0:
                        problems.append(f"{call.label}: bler outside [0, 1] in {key}")
                        bad = True
                    if ref_rows is not None and not _matches(row, ref_rows.get(key)):
                        problems.append(f"{call.label}: {key} differs from the reference")
                        bad = True
            if min_n < call.trials:
                problems.append(f"{call.label}: ({mode}, {g}) has n_trials {min_n} "
                                f"< {call.trials}")
            failed += call.trials if bad else call.trials - max(min_n, 0)
    return failed, problems
