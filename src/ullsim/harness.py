"""Monte Carlo campaign runner: deterministic seeding, parallel trials, CSV.

Trials are the unit of parallelism. Every (grid point, trial) pair gets its
own RNG stream derived from (master seed, grid index, trial index), each
trial returns a partial result table, and a single-threaded reducer merges
them in sorted order — so results are bit-identical for any worker count.
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .airlink import gaussian_symbols, simulate_blocks
from .chest import (EstimationError, ProjectionError, lmmse_filter,
                    psi_data_aided_bound, psi_pilot)
from .codec import PRESET_RATES, encode, frame_codeword, make_code, qpsk_map
from .codec.framing import make_frame
from .codec.ldpc import CodeSpec
from .config import ConfigError, ScenarioConfig
from .metrics import bler, mse_channel_analytic, se_uatf_moments, se_uatf_samples
from .netgeom import make_network
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
    psi_source: str = "bound"
    code_rate: str = "1/2"
    workers: int = 1
    fixed_drop: bool = False            # debug: one UE drop shared by all trials

    def __post_init__(self):
        if len(self.grid_values) == 0:
            raise ConfigError("grid must have at least one value")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.pipeline not in ("coded", "gaussian"):
            raise ConfigError(f"unknown pipeline {self.pipeline!r}")
        if self.mode not in ("rp", "sp"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.combiner not in ("mr", "smmse"):
            raise ConfigError(f"unknown combiner {self.combiner!r}")
        if self.psi_source not in ("bound", "empirical"):
            raise ConfigError(f"unknown psi_source {self.psi_source!r}")
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
        return config.replace(**{param: int(value)}), extra
    if param == "delta":
        return config.replace(delta=float(value)), extra
    raise ConfigError(f"unknown sweep parameter {param!r}")


def _trial_rng(campaign: Campaign, grid_index: int, trial_index: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=campaign.seed,
                                 spawn_key=(grid_index, trial_index))
    return np.random.default_rng(seq)


def _drop_rng(campaign: Campaign, grid_index: int, trial_index: int) -> np.random.Generator:
    if campaign.fixed_drop:
        trial_index = 0
    seq = np.random.SeedSequence(entropy=campaign.seed,
                                 spawn_key=(grid_index, trial_index, 0xD0))
    return np.random.default_rng(seq)


_CODE_CACHE: dict[str, CodeSpec] = {}


def get_code(rate: str) -> CodeSpec:
    if rate not in _CODE_CACHE:
        _CODE_CACHE[rate] = make_code(rate)
    return _CODE_CACHE[rate]


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
                         i_max=campaign.i_max, psi_source=campaign.psi_source,
                         rng=rng)

    prelog = slots / config.tau_c
    rows = []
    for it in range(campaign.i_max + 1):
        st = trace.states[min(it, len(trace.states) - 1)]
        # Per-block-hardened estimate: the gain's spread over blocks is noise.
        se_uatf = se_uatf_moments(np.mean(st.g, axis=0),
                                  np.mean(st.n_var, axis=0) + np.var(st.g, axis=0), prelog)
        for k in range(K):
            rows.append(dict(iteration=it, ue_index_class=k,
                             mse_ch=float(np.mean(st.mse_emp[:, k])),
                             se_uatf=float(np.mean(se_uatf[:, k])),
                             se_mi=float(np.mean(st.se_mi[:, k])),
                             bler=bler(st.soft.decoded_ok[:, k]),
                             snr_eff_db=float(np.mean(st.snr_eff_db[:, k]))))
    return rows


def run_gaussian_trial(campaign: Campaign, grid_index: int, trial_index: int) -> list[dict]:
    """One Gaussian-symbol study trial.

    Emits iteration 0 (pilot-only) and iteration 1 (data-aided at the
    exogenous symbol quality sigma_est) rows; mse_ch is the analytic value
    for this drop, se_uatf a Monte Carlo estimate over GAUSSIAN_BLOCKS fresh
    blocks through the receiver's estimate-and-combine stage. A block whose
    estimated symbol matrix is rank deficient keeps its pilot-only estimate.
    """
    value = campaign.grid_values[grid_index]
    config, extra = apply_grid_point(campaign.config, campaign.grid_param, value)
    sigma_est = extra.get("sigma_est", 1.0)
    rng = _trial_rng(campaign, grid_index, trial_index)
    realization = make_network(config, _drop_rng(campaign, grid_index, trial_index))
    mode = campaign.mode
    assignment = assign_pilots(config, mode)
    L, K = config.L, config.K
    Rs = realization.R[np.arange(L), np.arange(L)]
    sig = np.full((L, K), sigma_est)

    # Fresh blocks at the surrogate symbol quality for the Monte Carlo SE,
    # drawn before the estimator statistics: that order peaks lower in memory.
    n_data = config.data_slots(mode)
    s_hat, s = gaussian_symbols(rng, sig, (GAUSSIAN_BLOCKS, L, K, n_data))
    blocks = simulate_blocks(mode, assignment, s, realization, config, rng)

    W0, C0 = lmmse_filter(Rs, psi_pilot(realization, assignment, config, mode))
    W1, C1 = lmmse_filter(Rs, psi_data_aided_bound(realization, assignment, config, mode, sig))
    mse = {0: mse_channel_analytic(C0), 1: mse_channel_analytic(C1)}
    stage = (realization, assignment, config, mode, campaign.combiner)
    h_pilot, _, y0, _ = estimate_and_combine(blocks, W0, C0, *stage)
    _, _, y1, _ = estimate_and_combine(blocks, W1, C1, *stage, s_blocks=s_hat, h_pilot=h_pilot)
    prelog = n_data / config.tau_c
    se = {it: np.array([[se_uatf_samples(y[:, l, k], s[:, l, k], prelog, min_samples=1)
                         for k in range(K)] for l in range(L)])
          for it, y in ((0, y0), (1, y1))}

    rows = []
    for it in (0, 1):
        for k in range(K):
            rows.append(dict(iteration=it, ue_index_class=k,
                             mse_ch=float(np.mean(mse[it][:, k])),
                             se_uatf=float(np.mean(se[it][:, k])),
                             se_mi=float("nan"), bler=float("nan"),
                             snr_eff_db=float("nan")))
    return rows


def _run_pair(args) -> tuple[int, int, list[dict]]:
    campaign, grid_index, trial_index = args
    try:
        if campaign.pipeline == "coded":
            rows = run_coded_trial(campaign, grid_index, trial_index)
        else:
            rows = run_gaussian_trial(campaign, grid_index, trial_index)
    except (EstimationError, ProjectionError, np.linalg.LinAlgError) as exc:
        log.warning("trial (grid=%d, trial=%d) failed: %s", grid_index, trial_index, exc)
        rows = []
    return grid_index, trial_index, rows


# ---------------------------------------------------------------------------
# Aggregation and persistence


def run_campaign(campaign: Campaign, out_path: str | Path | None = None) -> list[dict]:
    """Run all (grid point, trial) pairs and aggregate, optionally to CSV."""
    pairs = [(campaign, g, t)
             for g in range(len(campaign.grid_values))
             for t in range(campaign.trials)]
    results = {}
    if campaign.workers > 1:
        with ProcessPoolExecutor(max_workers=campaign.workers) as pool:
            for g, t, rows in pool.map(_run_pair, pairs, chunksize=1):
                results[(g, t)] = rows
    else:
        for args in pairs:
            g, t, rows = _run_pair(args)
            results[(g, t)] = rows

    failed = sum(1 for rows in results.values() if not rows)
    if failed:
        log.warning("%d of %d trials failed", failed, len(pairs))

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
        row = dict(mode=campaign.mode, combiner=campaign.combiner,
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

    if out_path is not None:
        write_csv(out_rows, out_path)
    return out_rows


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
    tau_p = 3K, and runs only if that leaves tau_d > K) with the campaign's
    combiner, and returns the union of the aggregated rows (mode column
    distinguishes the variants). When out_dir is given, writes results.csv
    plus per-figure long-format files.
    """
    variants = []
    cfg = campaign.config
    variants.append(("rp", replace(campaign, pipeline="gaussian", mode="rp",
                                   config=cfg.replace(tau_p=cfg.K))))
    if cfg.tau_c - 3 * cfg.K > cfg.K:                  # its data-aided bound needs tau_d > K
        variants.append(("rp3", replace(campaign, pipeline="gaussian", mode="rp",
                                        config=cfg.replace(tau_p=3 * cfg.K))))
    variants.append(("sp", replace(campaign, pipeline="gaussian", mode="sp",
                                   config=cfg.replace(tau_p=cfg.K))))
    all_rows = []
    for label, sub in variants:
        rows = run_campaign(sub)
        for row in rows:
            row["mode"] = label
        all_rows.extend(rows)
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
