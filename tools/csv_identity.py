"""Check that the working tree writes the same CSV bytes as a base revision.

    python3 tools/csv_identity.py BASE_REV

Exports BASE_REV with `git archive` to a temporary directory, runs a fixed
list of `python -m ullsim.cli` calls on that tree and on the working tree
(OPENBLAS/OMP/MKL_NUM_THREADS=1), and compares every CSV each call writes,
byte for byte. Exits 0 when all are identical, 1 on any difference or
failed call, 2 when BASE_REV cannot be exported.

The list covers the three perfbench workloads on the paper scenario at
seeds 1 and 2, a paper-scale coded sp S-MMSE trial on one worker (the
only call whose S-MMSE solves are large enough to split over threads:
its serving cells run over the trial's threads, and each cell's solves
split further from 2L = 8 threads per trial), and the M=8, K=2, L=3
scenario through both modes and combiners, the gaussian pipeline in both
modes, rate 3/4, i_max = 0 in both modes, a 2-worker sweep, integer
(tau_c, M, L and rp tau_p) sweeps, an sp pilot-share (delta) sweep, a
2-worker study, a study at sigma_est = 0 and an S-MMSE study. A
short-block scenario (M=8, K=2, L=7, tau_c=12, tau_p=2: tau_c // K < L)
runs coded rp, coded sp and a study: the only calls where sp cells share
pilots. The paper-scale calls take a few minutes per tree on a 2-core
machine.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SCENARIOS = {"paper": "# ScenarioConfig() defaults: the paper scenario\n",
             "tiny": "M = 8\nK = 2\nL = 3\n",
             "short": "M = 8\nK = 2\nL = 7\ntau_c = 12\ntau_p = 2\n"}
COMMON = ("--combiner", "mr", "--imax", "8", "--psi", "bound")


def _calls() -> list[tuple[str, str, tuple]]:
    """(label, scenario, cli arguments after the config path, without --out)."""
    calls = []
    for seed in ("1", "2"):
        for mode in ("rp", "sp"):
            calls.append((f"coded-paper-{mode}-seed{seed}", "paper",
                          ("run", "--mode", mode, "--trials", "1", "--rate", "1/2",
                           "--workers", "1", "--seed", seed) + COMMON))
        calls.append((f"gaussian-study-seed{seed}", "paper",
                      ("sweep", "--pipeline", "gaussian", "--study", "--param", "sigma_est",
                       "--values", "0.2,0.6,1.0", "--trials", "1", "--workers", "1",
                       "--seed", seed) + COMMON))
        calls.append((f"sweep-parallel-seed{seed}", "paper",
                      ("sweep", "--param", "snr_db", "--values", "0,10", "--mode", "sp",
                       "--combiner", "smmse", "--rate", "3/4", "--trials", "4",
                       "--workers", "2", "--imax", "8", "--psi", "bound", "--seed", seed)))
    # One worker gives the trial every core, over which its cells run;
    # sweep-parallel's workers get one thread each, and the tiny scenario's
    # solves are too small to split.
    calls.append(("coded-paper-sp-smmse-seed1", "paper",
                  ("run", "--mode", "sp", "--combiner", "smmse", "--trials", "1", "--rate",
                   "1/2", "--workers", "1", "--imax", "8", "--psi", "bound", "--seed", "1")))
    for mode in ("rp", "sp"):
        for combiner in ("mr", "smmse"):
            calls.append((f"tiny-{mode}-{combiner}", "tiny",
                          ("run", "--mode", mode, "--combiner", combiner, "--trials", "2")))
    calls += [
        ("tiny-gaussian", "tiny", ("run", "--pipeline", "gaussian", "--trials", "3")),
        ("tiny-gaussian-sp", "tiny",
         ("run", "--pipeline", "gaussian", "--mode", "sp", "--trials", "3")),
        ("tiny-rate34", "tiny", ("run", "--rate", "3/4", "--trials", "2")),
        # the receiver loop's exit after its first pass
        ("tiny-imax0", "tiny", ("run", "--imax", "0", "--trials", "2")),
        # the first pass alone in sp, where the own pilot it removes is non-zero
        ("tiny-sp-imax0", "tiny", ("run", "--mode", "sp", "--imax", "0", "--trials", "2")),
        ("tiny-sweep-workers2", "tiny",
         ("sweep", "--param", "snr_db", "--values", "0,10", "--trials", "2",
          "--workers", "2")),
        ("tiny-sweep-tau_c", "tiny",
         ("sweep", "--param", "tau_c", "--values", "24,30", "--trials", "2")),
        # M reshapes the drop: R is (L, L, K, M, M)
        ("tiny-sweep-M", "tiny",
         ("sweep", "--param", "M", "--values", "8,12", "--trials", "2")),
        # L sets the hex grid and the drop's (L, L, K, 2M - 1) generator
        ("tiny-sweep-L", "tiny",
         ("sweep", "--param", "L", "--values", "3,4,7", "--trials", "2")),
        # tau_p sets the rp pilot book, which Campaign checks per grid point
        ("tiny-sweep-tau_p", "tiny",
         ("sweep", "--param", "tau_p", "--values", "2,4", "--trials", "2")),
        ("tiny-study-workers2", "tiny",
         ("sweep", "--study", "--param", "sigma_est", "--values", "0.2,1.0",
          "--trials", "2", "--workers", "2")),
        # sigma_est = 0 takes the bound's rp pilot-only branch
        ("tiny-study-sigma0", "tiny",
         ("sweep", "--study", "--param", "sigma_est", "--values", "0.0,0.5",
          "--trials", "2")),
        # delta, the sp pilot share, through the reconstructed pilots
        ("tiny-sweep-delta", "tiny",
         ("sweep", "--mode", "sp", "--param", "delta", "--values", "0.2,0.5",
          "--trials", "2")),
        # S-MMSE at both study iterations
        ("tiny-study-smmse", "tiny",
         ("sweep", "--study", "--combiner", "smmse", "--param", "sigma_est",
          "--values", "0.2,1.0", "--trials", "2")),
        # sp reuse 4 over 7 cells: pilot sets of two, so sp's contamination
        # sums run over more than the UE itself
        ("short-rp", "short", ("run", "--mode", "rp", "--trials", "2")),
        ("short-sp", "short", ("run", "--mode", "sp", "--trials", "2")),
        ("short-study", "short",
         ("sweep", "--study", "--param", "sigma_est", "--values", "0.2,1.0",
          "--trials", "2")),
    ]
    return calls


def export(rev: str, dest: Path) -> None:
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run_tree(name: str, tree: Path, out: Path, configs: dict[str, Path]) -> list[str]:
    """Run every call against tree/src, writing under out; return the failures."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, **PINNED,
           "PYTHONPATH": str(tree / "src") + (os.pathsep + path if path else "")}
    failures = []
    for label, scenario, args in _calls():
        call_dir = out / label
        call_dir.mkdir(parents=True)
        proc = subprocess.run([sys.executable, "-m", "ullsim.cli", args[0],
                               str(configs[scenario]), *args[1:],
                               "--out", str(call_dir / "out.csv")],
                              cwd=call_dir, env=env, capture_output=True, text=True)
        print(f"{name}: {label} exit {proc.returncode}", flush=True)
        if proc.returncode != 0:
            failures.append(f"{label} on {name}: exit {proc.returncode}\n{proc.stderr}")
    return failures


def compare(base: Path, head: Path) -> list[str]:
    """Every difference between the CSVs under base and head."""
    diffs = []
    for label, _, _ in _calls():
        names = {p.name for p in (base / label).glob("*.csv")}
        names |= {p.name for p in (head / label).glob("*.csv")}
        for name in sorted(names):
            a, b = base / label / name, head / label / name
            if not (a.exists() and b.exists()):
                diffs.append(f"{label}/{name}: written by one tree only")
            elif a.read_bytes() != b.read_bytes():
                diffs.append(f"{label}/{name}: bytes differ")
            else:
                print(f"identical: {label}/{name}")
    return diffs


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="csv_identity-") as tmp:
        tmp = Path(tmp)
        base_tree = tmp / "base"
        try:
            export(argv[0], base_tree)
        except subprocess.CalledProcessError as exc:
            print(f"cannot export {argv[0]!r}: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 2
        configs = {}
        for name, text in SCENARIOS.items():
            configs[name] = tmp / f"{name}.cfg"
            configs[name].write_text(text)
        failures = run_tree(argv[0], base_tree, tmp / "out-base", configs)
        failures += run_tree("working tree", ROOT, tmp / "out-head", configs)
        diffs = compare(tmp / "out-base", tmp / "out-head")
    for problem in failures + diffs:
        print(f"DIFF {problem}", file=sys.stderr)
    if failures or diffs:
        return 1
    print(f"all CSVs identical to {argv[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
