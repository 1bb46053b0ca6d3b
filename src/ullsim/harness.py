"""Monte Carlo campaign runner: deterministic seeding, parallel trials, CSV.

(Grid point, trial) pairs are the unit of parallelism. Every pair gets its
own RNG stream derived from (master seed, grid index, trial index), each
pair returns partial result tables, and a single-threaded reducer merges
them in sorted order — so results are bit-identical for any worker count.
"""

from __future__ import annotations

import functools
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import _threads
from .airlink import correlation_sqrt, gaussian_symbols, simulate_blocks
from .chest import EstimationError, ProjectionError
from .codec import PRESET_RATES, encode, frame_codeword, make_code, qpsk_map
from .codec.framing import make_frame
from .codec.ldpc import CodeSpec
from .config import ConfigError, ScenarioConfig, require_integers
from .metrics import mse_channel_analytic, se_uatf_moments, se_uatf_samples
from .netgeom import NetworkRealization, make_network
from .pilots import assign_pilots
from .receiver import estimate_and_combine, run_receiver

log = logging.getLogger(__name__)

CSV_COLUMNS = ["mode", "combiner", "grid_param", "grid_value", "iteration",
               "ue_index_class", "mse_ch", "se_uatf", "se_mi", "bler",
               "snr_eff_db", "n_trials", "stderr_mse_ch", "stderr_se_uatf",
               "stderr_se_mi", "stderr_bler", "stderr_snr_eff_db"]

_METRICS = ["mse_ch", "se_uatf", "se_mi", "bler", "snr_eff_db"]

GAUSSIAN_BLOCKS = 20          # fresh blocks per Gaussian-symbol trial for the SE samples


@dataclass
class Campaign:
    config: ScenarioConfig
    pipeline: str = "coded"             # 'coded' or 'gaussian'
    mode: str = "rp"
    combiner: str = "mr"
    grid_param: str = "none"
    grid_values: tuple = (0.0,)
    trials: int = 10
    seed: int = 1
    i_max: int = 8
    code_rate: str = "1/2"
    workers: int = 1

    def __post_init__(self):
        require_integers(self, "trials", "seed", "i_max", "workers")
        if len(self.grid_values) == 0:
            raise ConfigError("grid must have at least one value")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0 (got {self.seed})")
        if self.pipeline not in ("coded", "gaussian"):
            raise ConfigError(f"unknown pipeline {self.pipeline!r}")
        if self.mode not in ("rp", "sp"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.combiner not in ("mr", "smmse"):
            raise ConfigError(f"unknown combiner {self.combiner!r}")
        if self.code_rate not in PRESET_RATES:
            raise ConfigError(f"no code preset for rate {self.code_rate!r} "
                              f"(have {', '.join(PRESET_RATES)})")
        if self.i_max < 0:
            raise ConfigError("i_max must be >= 0")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.grid_param == "sigma_est" and self.pipeline == "coded":
            raise ConfigError("sigma_est sweeps need the gaussian pipeline: the coded "
                              "receiver measures its own symbol quality")
        # Where the data-aided bound runs, rp needs more data samples than UEs.
        bound_runs = self.pipeline == "gaussian" or self.i_max >= 1
        for v in self.grid_values:
            config, _ = apply_grid_point(self.config, self.grid_param, v)  # validates
            if bound_runs and self.mode == "rp" and config.tau_d <= config.K:
                raise ConfigError(f"rp data-aided estimation needs tau_d > K (grid value "
                                  f"{v}: tau_d={config.tau_d}, K={config.K})")


def apply_grid_point(config: ScenarioConfig, param: str, value) -> tuple[ScenarioConfig, dict]:
    """Resolve one sweep value into a concrete config plus extras.

    Supported parameters: none, snr_db, sigma_est, and the integer config
    fields tau_c, tau_p, M, K, L (plus delta). sigma_est is exogenous symbol
    quality for the gaussian pipeline and is passed through as an extra.
    """
    extra: dict = {}
    if param == "none":
        return config, extra
    if param == "snr_db":
        return config.replace(rho_design=config.noise_energy * 10.0 ** (value / 10.0)), extra
    if param == "sigma_est":
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"sigma_est grid value {value} outside [0, 1]")
        extra["sigma_est"] = float(value)
        return config, extra
    if param in ("tau_c", "tau_p", "M", "K", "L"):
        if not float(value).is_integer():
            raise ConfigError(f"{param} grid value {value} is not an integer")
        return config.replace(**{param: int(value)}), extra
    if param == "delta":
        return config.replace(delta=float(value)), extra
    raise ConfigError(f"unknown sweep parameter {param!r}")


def _trial_rng(campaign: Campaign, grid_index: int, trial_index: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=campaign.seed,
                                 spawn_key=(grid_index, trial_index))
    return np.random.default_rng(seq)


def _drop_rng(campaign: Campaign, grid_index: int, trial_index: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=campaign.seed,
                                 spawn_key=(grid_index, trial_index, 0xD0))
    return np.random.default_rng(seq)


@functools.cache
def get_code(rate: str) -> CodeSpec:
    """The preset code of a rate, made once per process."""
    return make_code(rate)


def _ue_rows(iteration: int, decoded_ok: np.ndarray | None = None,
             **per_ue: np.ndarray) -> list[dict]:
    """One row per UE class from (L, K) per-UE figures, averaged over the cells.

    BLER is 1 - mean(decoded_ok) over the cells; a metric not given is NaN.
    """
    means = {m: np.mean(x, axis=0) for m, x in per_ue.items()}
    if decoded_ok is not None:
        means["bler"] = 1.0 - np.mean(decoded_ok, axis=0)
    K = len(next(iter(means.values())))
    return [dict(iteration=iteration, ue_index_class=k,
                 **{m: float(means[m][k]) if m in means else float("nan")
                    for m in _METRICS})
            for k in range(K)]


# ---------------------------------------------------------------------------
# Trials


def run_coded_trial(campaign: Campaign, grid_index: int, trial_index: int) -> list[dict]:
    """One coded end-to-end trial: one codeword per UE through the receiver."""
    config, _ = apply_grid_point(campaign.config, campaign.grid_param,
                                 campaign.grid_values[grid_index])
    rng = _trial_rng(campaign, grid_index, trial_index)
    realization = make_network(config, _drop_rng(campaign, grid_index, trial_index))
    assignment = assign_pilots(config, campaign.mode)
    code = get_code(campaign.code_rate)
    slots = config.data_slots(campaign.mode)
    frame = make_frame(code.n // 2, slots)

    L, K = config.L, config.K
    info = rng.integers(0, 2, size=(L, K, code.k), dtype=np.uint8)
    symbols = qpsk_map(encode(info, code))
    data = np.moveaxis(frame_codeword(symbols, frame), 2, 0)   # (B, L, K, slots)
    blocks = simulate_blocks(campaign.mode, assignment, data, realization, config, rng)
    trace = run_receiver(blocks, realization, assignment, config, code, frame,
                         campaign.mode, combiner_kind=campaign.combiner,
                         i_max=campaign.i_max)

    prelog = slots / config.tau_c
    rows = []
    for it in range(campaign.i_max + 1):
        st = trace.states[min(it, len(trace.states) - 1)]
        # Per-block-hardened estimate: the gain's spread over blocks is noise.
        se_uatf = se_uatf_moments(np.mean(st.g, axis=0),
                                  np.mean(st.n_var, axis=0) + np.var(st.g, axis=0), prelog)
        rows += _ue_rows(it, st.soft.decoded_ok, mse_ch=st.mse_emp, se_uatf=se_uatf,
                         se_mi=st.se_mi, snr_eff_db=st.snr_eff_db)
    return rows


def _shared_drop(campaign: Campaign, grid_index: int,
                 trial_index: int) -> tuple[NetworkRealization, np.ndarray]:
    """The drop of a (grid point, trial) pair and its R^(1/2).

    The drop reads neither tau_p nor the mode, so every variant of a
    Gaussian-symbol study shares it.
    """
    config, _ = apply_grid_point(campaign.config, campaign.grid_param,
                                 campaign.grid_values[grid_index])
    realization = make_network(config, _drop_rng(campaign, grid_index, trial_index))
    return realization, correlation_sqrt(realization.R)


def run_gaussian_trial(campaign: Campaign, grid_index: int, trial_index: int,
                       drop: tuple[NetworkRealization, np.ndarray] | None = None) -> list[dict]:
    """One Gaussian-symbol study trial.

    Emits iteration 0 (pilot-only) and iteration 1 (data-aided at the
    exogenous symbol quality sigma_est) rows; mse_ch is the analytic value
    for this drop, se_uatf a Monte Carlo estimate over GAUSSIAN_BLOCKS fresh
    blocks through the receiver's estimate-and-combine stage. A block whose
    estimated symbol matrix is rank deficient keeps its pilot-only estimate.
    drop is the pair's `_shared_drop` when a study shares it.
    """
    value = campaign.grid_values[grid_index]
    config, extra = apply_grid_point(campaign.config, campaign.grid_param, value)
    sigma_est = extra.get("sigma_est", 1.0)
    rng = _trial_rng(campaign, grid_index, trial_index)
    if drop is None:                    # R^(1/2) is then made and freed in simulate_blocks
        drop = make_network(config, _drop_rng(campaign, grid_index, trial_index)), None
    realization, R_sqrt = drop
    mode = campaign.mode
    assignment = assign_pilots(config, mode)
    L, K = config.L, config.K
    sig = np.full((L, K), sigma_est)

    # Fresh blocks at the surrogate symbol quality for the Monte Carlo SE,
    # drawn before the estimator statistics: that order peaks lower in memory.
    n_data = config.data_slots(mode)
    s_hat, s = gaussian_symbols(rng, sig, (GAUSSIAN_BLOCKS, L, K, n_data))
    blocks = simulate_blocks(mode, assignment, s, realization, config, rng, R_sqrt)

    stage = (blocks, realization, assignment, config, mode, campaign.combiner)
    h_pilot, C0, _, y0, _ = estimate_and_combine(*stage)
    _, C1, _, y1, _ = estimate_and_combine(*stage, s_blocks=s_hat, sigma=sig, h_pilot=h_pilot)
    prelog = n_data / config.tau_c
    # se_uatf_samples stays per UE: batched means keep the bits only over
    # contiguous per-UE copies of y and s, about 20 MB at the paper point.
    rows = []
    for it, C, y in ((0, C0, y0), (1, C1, y1)):
        se = np.array([[se_uatf_samples(y[:, l, k], s[:, l, k], prelog, min_samples=1)
                        for k in range(K)] for l in range(L)])
        rows += _ue_rows(it, mse_ch=mse_channel_analytic(C), se_uatf=se)
    return rows


_TRIAL_ERRORS = (EstimationError, ProjectionError, np.linalg.LinAlgError)


def _run_pair(args) -> tuple[int, int, list[dict]]:
    # args: (campaign, grid index, trial index), plus the study's shared drop
    campaign, grid_index, trial_index, *drop = args
    _threads.set_workers(campaign.workers)   # the workers share the cores
    try:
        if campaign.pipeline == "coded":
            rows = run_coded_trial(campaign, grid_index, trial_index)
        else:
            rows = run_gaussian_trial(campaign, grid_index, trial_index, *drop)
    except _TRIAL_ERRORS as exc:
        log.warning("trial (grid=%d, trial=%d) failed: %s", grid_index, trial_index, exc)
        rows = []
    return grid_index, trial_index, rows


def _run_variants(args) -> tuple[int, int, list[list[dict]]]:
    """Every study variant's trial of one (grid point, trial) pair, on one drop.

    R^(1/2) lives only for the pair, not on the realization, which the
    coded receiver holds through all its iterations. A drop that fails
    fails the pair's trial in every variant.
    """
    variants, grid_index, trial_index = args
    _threads.set_workers(variants[0].workers)
    try:
        drop = _shared_drop(variants[0], grid_index, trial_index)
    except _TRIAL_ERRORS as exc:
        log.warning("drop (grid=%d, trial=%d) failed: %s", grid_index, trial_index, exc)
        return grid_index, trial_index, [[] for _ in variants]
    return grid_index, trial_index, [_run_pair((sub, grid_index, trial_index, drop))[2]
                                     for sub in variants]


# ---------------------------------------------------------------------------
# Aggregation and persistence


def _run_pairs(fn, campaign: Campaign, target) -> dict[tuple[int, int], object]:
    """fn((target, g, t)) -> (g, t, result) over every (grid point, trial) pair.

    Runs serially, or over one process pool of campaign.workers; either way
    the results are keyed by the pair, so the reducer sees the same table.
    """
    work = [(target, g, t) for g in range(len(campaign.grid_values))
            for t in range(campaign.trials)]
    if campaign.workers > 1:
        with ProcessPoolExecutor(max_workers=campaign.workers) as pool:
            return {(g, t): out for g, t, out in pool.map(fn, work, chunksize=1)}
    return {(g, t): out for g, t, out in map(fn, work)}


def _aggregate(campaign: Campaign, results: dict[tuple[int, int], list[dict]],
               label: str | None = None) -> list[dict]:
    """Mean and standard error per (grid point, iteration, UE class).

    label names a study variant: it fills the mode column and prefixes the
    failed-trial log line.
    """
    failed = sum(1 for rows in results.values() if not rows)
    if failed:
        log.warning("%s%d of %d trials failed", f"{label}: " if label else "",
                    failed, len(results))

    # Deterministic reduce: group by (grid, iteration, ue class) in sorted order.
    table: dict[tuple, dict[str, list]] = {}
    for (g, t) in sorted(results):
        for row in results[(g, t)]:
            key = (g, row["iteration"], row["ue_index_class"])
            bucket = table.setdefault(key, {m: [] for m in _METRICS})
            for m in _METRICS:
                bucket[m].append(row[m])

    out_rows = []
    for (g, it, k) in sorted(table):
        bucket = table[(g, it, k)]
        row = dict(mode=label or campaign.mode, combiner=campaign.combiner,
                   grid_param=campaign.grid_param,
                   grid_value=campaign.grid_values[g],
                   iteration=it, ue_index_class=k)
        n = 0
        for m in _METRICS:
            vals = np.asarray(bucket[m], dtype=float)
            good = vals[~np.isnan(vals)]
            n = max(n, good.size)
            row[m] = float(good.mean()) if good.size else float("nan")
            row["stderr_" + m] = (float(good.std(ddof=1) / np.sqrt(good.size))
                                  if good.size > 1 else float("nan"))
        row["n_trials"] = n
        out_rows.append(row)
    return out_rows


def run_campaign(campaign: Campaign, out_path: str | Path | None = None) -> list[dict]:
    """Run all (grid point, trial) pairs and aggregate, optionally to CSV."""
    rows = _aggregate(campaign, _run_pairs(_run_pair, campaign, campaign))
    if out_path is not None:
        write_csv(rows, out_path)
    return rows


def _fmt(value) -> str:
    if isinstance(value, float):
        return "nan" if np.isnan(value) else format(value, ".12g")
    return str(value)


def write_csv(rows: list[dict], path: str | Path) -> None:
    """Fixed-schema UTF-8 CSV, one header line, '.' decimal separator."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(col, float("nan"))) for col in CSV_COLUMNS))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Gaussian-symbol study and figure emitters


def gaussian_symbol_study(campaign: Campaign, out_dir: str | Path | None = None) -> list[dict]:
    """MSE/SE curves vs the sweep parameter for rp (reuse 1 and 3) and sp.

    Runs the gaussian pipeline for each mode variant (pilot reuse 3 uses
    tau_p = 3K, and runs only if that leaves tau_d > K at every grid point)
    with the campaign's combiner, and returns the union of the aggregated
    rows (mode column distinguishes the variants). The variants set tau_p,
    so a tau_p or K sweep is a ConfigError. Each (grid point, trial) pair
    draws one drop for all variants, and one pool runs the pairs. When
    out_dir is given, writes results.csv plus per-figure long-format files.
    """
    if campaign.grid_param in ("tau_p", "K"):
        raise ConfigError(f"a study cannot sweep {campaign.grid_param}: it sets tau_p "
                          "to K (rp, sp) and 3K (rp3) per variant")
    cfg = campaign.config
    variants = [("rp", replace(campaign, pipeline="gaussian", mode="rp",
                               config=cfg.replace(tau_p=cfg.K)))]
    # rp3's data-aided bound needs tau_d = tau_c - 3K > K at every grid point.
    points = [apply_grid_point(cfg, campaign.grid_param, v)[0] for v in campaign.grid_values]
    if all(c.tau_c - 3 * c.K > c.K for c in points):
        variants.append(("rp3", replace(campaign, pipeline="gaussian", mode="rp",
                                        config=cfg.replace(tau_p=3 * cfg.K))))
    variants.append(("sp", replace(campaign, pipeline="gaussian", mode="sp",
                                   config=cfg.replace(tau_p=cfg.K))))
    results = _run_pairs(_run_variants, campaign, [sub for _, sub in variants])
    all_rows = []
    for i, (label, sub) in enumerate(variants):
        all_rows.extend(_aggregate(sub, {pair: rows[i] for pair, rows in results.items()},
                                   label))
    if out_dir is not None:
        out_dir = Path(out_dir)
        write_csv(all_rows, out_dir / "results.csv")
        emit_figure_data(all_rows, out_dir)
    return all_rows


def emit_figure_data(rows: list[dict], out_dir: str | Path) -> None:
    """Long-format per-figure CSVs (series, x, y) for downstream plotting.

    mse_curves.csv : channel MSE vs the sweep value, series = mode/iteration
    se_curves.csv  : spectral efficiency vs the sweep value
    bler_vs_iteration.csv : BLER vs iteration (coded campaigns)
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def dump(name: str, metric: str, x_col: str):
        lines = ["series,x,ue_index_class,value,stderr,n_trials"]
        for row in sorted(rows, key=lambda r: (r["mode"], r["combiner"],
                                               r["iteration"], r[x_col],
                                               r["ue_index_class"])):
            if np.isnan(row.get(metric, float("nan"))):
                continue
            series = f"{row['mode']}-{row['combiner']}-i{row['iteration']}"
            lines.append(",".join([series, _fmt(row[x_col]),
                                   str(row["ue_index_class"]), _fmt(row[metric]),
                                   _fmt(row.get("stderr_" + metric, float("nan"))),
                                   str(row["n_trials"])]))
        (out_dir / name).write_text("\n".join(lines) + "\n", encoding="utf-8")

    dump("mse_curves.csv", "mse_ch", "grid_value")
    dump("se_curves.csv", "se_uatf", "grid_value")
    dump("bler_vs_iteration.csv", "bler", "iteration")
