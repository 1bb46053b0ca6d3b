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
from .airlink import (BlockSignals, build_transmit, draw_link_by_link,
                      gaussian_symbols, receive, simulate_blocks)
from .chest import EstimationError
from .codec import PRESET_RATES, encode, frame_codeword, make_code, qpsk_map
from .codec.framing import make_frame
from .codec.ldpc import CodeSpec
from .config import ConfigError, ScenarioConfig, require_integers
from .metrics import mse_channel_analytic, se_uatf_samples
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
        for i, v in enumerate(self.grid_values):
            if v in self.grid_values[:i]:   # its rows would share their grid_value key
                raise ConfigError(f"grid value {v} is repeated")
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
            config = apply_grid_point(self.config, self.grid_param, v)  # validates
            assign_pilots(config, self.mode)        # the pilot plan's own rules
            at = "" if self.grid_param == "none" else f" at {self.grid_param} = {v}"
            if bound_runs and self.mode == "rp" and config.tau_d <= config.K:
                raise ConfigError(f"rp data-aided estimation needs tau_d > K "
                                  f"(got tau_d={config.tau_d}, K={config.K}{at})")
            if self.mode == "sp" and config.delta == 0:
                raise ConfigError(f"sp needs pilot energy, delta > 0 "
                                  f"(got delta={config.delta}{at})")
            if self.mode == "sp" and self.pipeline == "coded" and config.delta == 1:
                raise ConfigError(f"coded sp needs data energy, delta < 1 "
                                  f"(got delta={config.delta}{at})")


def apply_grid_point(config: ScenarioConfig, param: str, value) -> ScenarioConfig:
    """Resolve one sweep value into a concrete config.

    Supported parameters: none, snr_db, sigma_est, and the integer config
    fields tau_c, tau_p, M, K, L (plus delta). sigma_est is exogenous symbol
    quality for the gaussian pipeline, which reads it from the grid value;
    here it is only checked to lie in [0, 1], and the config is unchanged.
    """
    if param == "none":
        return config
    if param == "snr_db":
        try:
            gain = 10.0 ** (value / 10.0)
        except OverflowError:
            raise ConfigError(f"snr_db grid value {value} overflows the design SNR") from None
        return config.replace(rho_design=config.noise_energy * gain)
    if param == "sigma_est":
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"sigma_est grid value {value} outside [0, 1]")
        return config
    if param in ("tau_c", "tau_p", "M", "K", "L"):
        if not float(value).is_integer():
            raise ConfigError(f"{param} grid value {value} is not an integer")
        return config.replace(**{param: int(value)})
    if param == "delta":
        return config.replace(delta=float(value))
    raise ConfigError(f"unknown sweep parameter {param!r}")


def _rng(campaign: Campaign, grid_index: int, trial_index: int, *tag) -> np.random.Generator:
    """A (grid point, trial) pair's stream; the drop's is tagged 0xD0."""
    seq = np.random.SeedSequence(entropy=campaign.seed,
                                 spawn_key=(grid_index, trial_index, *tag))
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
    config = apply_grid_point(campaign.config, campaign.grid_param,
                              campaign.grid_values[grid_index])
    rng = _rng(campaign, grid_index, trial_index)
    realization = make_network(config, _rng(campaign, grid_index, trial_index, 0xD0))
    assignment = assign_pilots(config, campaign.mode)
    code = get_code(campaign.code_rate)
    frame = make_frame(code.n // 2, config.data_slots(campaign.mode))

    L, K = config.L, config.K
    info = rng.integers(0, 2, size=(L, K, code.k), dtype=np.uint8)
    symbols = qpsk_map(encode(info, code))
    data = np.moveaxis(frame_codeword(symbols, frame), 2, 0)   # (B, L, K, slots)
    blocks = simulate_blocks(campaign.mode, assignment, data, realization, config, rng)
    del info, symbols, data                   # the receiver reads none of them
    # Of H, the receiver scores only the serving channels: the (B, L, L, K, M)
    # stack goes before its first pass.
    h_true = blocks.H[:, np.arange(L), np.arange(L)]
    blocks.H = None
    trace = run_receiver(blocks, realization, assignment, config, code, frame,
                         campaign.mode, combiner_kind=campaign.combiner,
                         i_max=campaign.i_max, h_true=h_true)

    rows = []
    for it in range(campaign.i_max + 1):     # a receiver that stopped repeats its last state
        st = trace.states[min(it, len(trace.states) - 1)]
        rows += _ue_rows(it, st.soft.decoded_ok, mse_ch=st.mse_emp, se_uatf=st.se_uatf,
                         se_mi=st.se_mi, snr_eff_db=st.snr_eff_db)
    return rows


@dataclass
class _StudyDraws:
    """A Gaussian-symbol trial's draws from its own stream, in stream order.

    The symbols come first, then the channels H, then (at receive) the
    noise. H is None once the trial has received.
    """

    config: ScenarioConfig
    rng: np.random.Generator
    sigma_sq: np.ndarray          # (L, K) the exogenous symbol quality
    s_hat: np.ndarray             # (B, L, K, n_data) the receiver's symbol estimates
    s: np.ndarray                 # (B, L, K, n_data) the transmitted symbols
    H: np.ndarray | None = None   # (B, L, L, K, M)


def _draw_pair(variants: list[Campaign], grid_index: int,
               trial_index: int) -> tuple[NetworkRealization, list[_StudyDraws]]:
    """The drop of a (grid point, trial) pair and every variant's draws on it.

    The drop reads neither tau_p nor the mode, so every variant of a
    Gaussian-symbol study shares it. Each variant draws its symbols, then
    its w, from its own stream; one link-by-link pass then applies each
    link's R^(1/2) to every variant's w, so the pair makes each factor once
    and holds no R^(1/2) stack.
    """
    draws = []
    for campaign in variants:
        value = campaign.grid_values[grid_index]
        config = apply_grid_point(campaign.config, campaign.grid_param, value)
        rng = _rng(campaign, grid_index, trial_index)
        sig = np.full((config.L, config.K),
                      float(value) if campaign.grid_param == "sigma_est" else 1.0)
        shape = (GAUSSIAN_BLOCKS, config.L, config.K, config.data_slots(campaign.mode))
        draws.append(_StudyDraws(config, rng, sig, *gaussian_symbols(rng, sig, shape)))
    realization = make_network(draws[0].config,
                               _rng(variants[0], grid_index, trial_index, 0xD0))
    channels = draw_link_by_link(realization.R, [d.rng for d in draws], GAUSSIAN_BLOCKS)
    for d, H in zip(draws, channels):
        d.H = H
    return realization, draws


def run_gaussian_trial(campaign: Campaign, grid_index: int, trial_index: int,
                       shared: tuple[NetworkRealization, _StudyDraws] | None = None
                       ) -> list[dict]:
    """One Gaussian-symbol study trial.

    Emits iteration 0 (pilot-only) and iteration 1 (data-aided at the
    exogenous symbol quality sigma_est) rows; mse_ch is the analytic value
    for this drop, se_uatf a Monte Carlo estimate over GAUSSIAN_BLOCKS fresh
    blocks through the receiver's estimate-and-combine stage. A block whose
    estimated symbol matrix is rank deficient keeps its pilot-only estimate.
    shared is a study pair's drop and this variant's draws (_draw_pair);
    without it the trial draws its own, as a pair of one variant. Either
    way it receives, drops H and estimates: it holds one Y, no H beyond
    its receive, and one pass's combined outputs, reduced to rows before
    the next pass.
    """
    if shared is None:
        realization, (draws,) = _draw_pair([campaign], grid_index, trial_index)
    else:
        realization, draws = shared
    config, sig, s_hat, s = draws.config, draws.sigma_sq, draws.s_hat, draws.s
    mode = campaign.mode
    assignment = assign_pilots(config, mode)
    L, K = config.L, config.K
    n_data = config.data_slots(mode)
    X = build_transmit(mode, assignment, s, realization, config)
    blocks = BlockSignals(H=None, Y=receive(draws.H, X, config.noise_energy, draws.rng))
    draws.H = X = None                  # the study reads only Y

    # Each cell's error covariances (K*M^2 numbers) are reduced to their MSE
    # where they are made, so each of a pass's threads holds one cell's at a time.
    stage = (blocks, realization, assignment, config, mode, campaign.combiner,
             lambda l, v, h_l, C_l: mse_channel_analytic(C_l))
    prelog = n_data / config.tau_c
    rows = []
    for it, extra in enumerate(({}, {"s_blocks": s_hat, "sigma": sig})):
        _, y, mse, _ = estimate_and_combine(*stage, **extra)
        # se_uatf_samples stays per UE: batched means keep the bits only over
        # contiguous per-UE copies of y and s, about 20 MB at the paper point.
        se = np.array([[se_uatf_samples(y[:, l, k], s[:, l, k], prelog, min_samples=1)
                        for k in range(K)] for l in range(L)])
        rows += _ue_rows(it, mse_ch=np.stack(mse), se_uatf=se)
        del y                           # a pass's y goes before the next pass
    return rows


_TRIAL_ERRORS = (EstimationError, np.linalg.LinAlgError)


def _run_pair(args) -> tuple[int, int, list[dict]]:
    # args: (campaign, grid index, trial index), plus a study variant's shared draws
    campaign, grid_index, trial_index, *shared = args
    _threads.set_workers(campaign.workers)   # the workers share the cores
    try:
        if campaign.pipeline == "coded":
            rows = run_coded_trial(campaign, grid_index, trial_index)
        else:
            rows = run_gaussian_trial(campaign, grid_index, trial_index, *shared)
    except _TRIAL_ERRORS as exc:
        log.warning("trial (grid=%d, trial=%d) failed: %s", grid_index, trial_index, exc)
        rows = []
    return grid_index, trial_index, rows


def _run_variants(args) -> tuple[int, int, list[list[dict]]]:
    """Every study variant's trial of one (grid point, trial) pair, on one drop.

    _draw_pair draws every variant's symbols, the drop and, in one
    link-by-link pass, every variant's channels; each variant's trial then
    receives and drops its H. So the pair makes each link's R^(1/2) once, as
    one variant alone would, and never holds the L*L*K*M^2 stack. A drop
    or link pass that fails fails the pair's trial in every variant.
    """
    variants, grid_index, trial_index = args
    _threads.set_workers(variants[0].workers)
    try:
        realization, draws = _draw_pair(variants, grid_index, trial_index)
    except _TRIAL_ERRORS as exc:
        log.warning("draws (grid=%d, trial=%d) failed: %s", grid_index, trial_index, exc)
        return grid_index, trial_index, [[] for _ in variants]
    # Popped, so that a variant's symbols go when its trial ends.
    return grid_index, trial_index, [
        _run_pair((sub, grid_index, trial_index, (realization, draws.pop(0))))[2]
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
    tau_p = 3K, and runs only if its own Campaign accepts every grid point,
    i.e. rp's data-aided bound gets tau_d > K at each) with the campaign's
    combiner, and returns the union of the aggregated rows (mode column
    distinguishes the variants). The variants set tau_p,
    so a tau_p or K sweep is a ConfigError. Each (grid point, trial) pair
    draws one drop for all variants, and one pool runs the pairs. When
    out_dir is given, writes results.csv plus per-figure long-format files.
    """
    variants = _study_variants(campaign)
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


def _study_variants(campaign: Campaign) -> list[tuple[str, Campaign]]:
    """The study's (label, Campaign) variants: rp, rp3 when it is valid, and sp."""
    if campaign.grid_param in ("tau_p", "K"):
        raise ConfigError(f"a study cannot sweep {campaign.grid_param}: it sets tau_p "
                          "to K (rp, sp) and 3K (rp3) per variant")
    # The variants' configs start from grid point 0, so rp3 is judged at the
    # grid points; every trial applies its own grid point again.
    cfg = apply_grid_point(campaign.config, campaign.grid_param, campaign.grid_values[0])
    variants = [("rp", replace(campaign, pipeline="gaussian", mode="rp",
                               config=cfg.replace(tau_p=cfg.K)))]
    try:
        variants.append(("rp3", replace(campaign, pipeline="gaussian", mode="rp",
                                        config=cfg.replace(tau_p=3 * cfg.K))))
    except ConfigError:
        pass
    variants.append(("sp", replace(campaign, pipeline="gaussian", mode="sp",
                                   config=cfg.replace(tau_p=cfg.K))))
    return variants


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
