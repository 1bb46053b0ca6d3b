"""Iterative data-aided channel estimation and decoding over one codeword span.

Iteration 0 estimates channels from pilots only, combines, demaps, and
decodes every UE's codeword. Each later iteration rebuilds the channel
estimates from the full-block projection onto the estimated symbol
matrices (soft symbols of the previous iteration, exact symbols for UEs
that already decoded), cancels reconstructed in-cell interference, and
decodes again. UEs whose parity checks pass are frozen: their symbols are
the exact remodulated codeword and their quality is pinned to 1.

Estimation and combining are one stage, estimate_and_combine, which the
Gaussian-symbol study also runs, on surrogate instead of decoded symbols.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .airlink import BlockSignals, build_transmit
from .chest import (ChannelEstimateSet, EstimationError, ProjectionError,
                    data_aided_observation, lmmse_filter, psi_data_aided_bound,
                    psi_data_aided_empirical, psi_pilot, pilot_observation,
                    simulate_data_aided_observations)
from .codec import (CodewordFrame, SoftDataState, decode, frame_codeword,
                    hard_decisions, qpsk_demap_llr, remodulate, soft_symbols)
from .codec.ldpc import CodeSpec
from .combine import build_combiner, combine_initial, combine_iterative, effective_stats
from .config import ConfigError, ScenarioConfig
from .metrics import bler, effective_snr_db, mse_channel_empirical, se_mutual_info
from .netgeom import NetworkRealization
from .pilots import PilotAssignment


@dataclass
class IterationState:
    """Everything one iteration produced (arrays indexed [block, cell, ue])."""

    index: int
    estimates: ChannelEstimateSet
    soft: SoftDataState
    g: np.ndarray             # (B, L, K) effective gains
    n_var: np.ndarray         # (B, L, K) effective noise variances
    mse_emp: np.ndarray       # (L, K) empirical channel MSE vs the true draws
    se_mi: np.ndarray         # (L, K) decoder-aware SE
    snr_eff_db: np.ndarray    # (L, K)
    bler: float
    fallback_blocks: int = 0


@dataclass
class IterationTrace:
    states: list
    termination: str

    @property
    def final(self) -> IterationState:
        return self.states[-1]


def sigma_update(sigma_sq: np.ndarray, decoded_ok: np.ndarray) -> np.ndarray:
    """Symbol-quality input to the next estimation round (decoded UEs -> 1)."""
    return np.where(np.asarray(decoded_ok, dtype=bool), 1.0,
                    np.clip(np.asarray(sigma_sq, dtype=float), 0.0, 1.0))


def estimate_and_combine(blocks: BlockSignals, W: np.ndarray, C: np.ndarray,
                         realization: NetworkRealization, assignment: PilotAssignment,
                         config: ScenarioConfig, mode: str, combiner_kind: str,
                         s_blocks: np.ndarray | None = None, h_pilot: np.ndarray | None = None
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """LMMSE channel estimates and combined data observations, every cell and block.

    W, C: (L, K, M, M) LMMSE filters and error covariances of the serving
    channels. Without s_blocks the filters act on the de-spread pilots and
    the combiner removes no co-UE signal. With s_blocks (B, L, K, slots),
    estimated data symbols, they act on the projection of each block onto
    its estimated transmit matrix, and the combiner cancels the
    reconstructed in-cell signals. The projection runs on all blocks at
    once; only if that fails are the blocks redone one at a time, and a
    block whose symbol matrix is still rank deficient keeps its h_pilot
    estimate (or raises ProjectionError without one).

    Returns (h_hat, V, y, fallbacks): h_hat and V (B, L, K, M), y
    (B, L, K, slots), and the number of blocks that kept h_pilot.
    """
    Y = blocks.Y
    q, p = realization.energies(mode)
    seqs = assignment.seqs
    failed = []
    if s_blocks is None:
        z = np.stack([pilot_observation(Y[:, l], seqs[l], q[l], mode, tau_p=config.tau_p)
                      for l in range(config.L)], axis=1)
    else:
        Xh = np.swapaxes(build_transmit(mode, assignment, s_blocks, realization, config),
                         -1, -2)                           # (B, L, tau_c, K)
        try:
            z = data_aided_observation(Y, Xh)
        except ProjectionError:
            z = np.zeros(Xh.shape[:2] + (config.K, config.M), dtype=complex)
            for b, l in np.ndindex(*Xh.shape[:2]):
                try:
                    z[b, l] = data_aided_observation(Y[b, l], Xh[b, l])
                except ProjectionError:
                    if h_pilot is None:
                        raise
                    failed.append((b, l))
    h_hat = np.einsum("lkmn,blkn->blkm", W, z)
    for b, l in failed:
        h_hat[b, l] = h_pilot[b, l]                        # pilot-only fallback

    V = np.empty_like(h_hat)
    y = []
    for l in range(config.L):
        V[:, l] = build_combiner(h_hat[:, l], C[l], realization.rho[l],
                                 config.noise_energy, combiner_kind)
        if s_blocks is None:
            y.append(combine_initial(Y[:, l], V[:, l], mode, config,
                                     h_hat=h_hat[:, l], seqs=seqs[l], q=q[l]))
        else:
            y.append(combine_iterative(Y[:, l], V[:, l], h_hat[:, l], s_blocks[:, l],
                                       mode, config, p=p[l], seqs=seqs[l], q=q[l]))
    return h_hat, V, np.stack(y, axis=1), len(failed)


def run_receiver(blocks: BlockSignals, realization: NetworkRealization,
                 assignment: PilotAssignment, config: ScenarioConfig,
                 code: CodeSpec, frame: CodewordFrame, mode: str,
                 combiner_kind: str = "mr", i_max: int = 8,
                 psi_source: str = "bound",
                 rng: np.random.Generator | None = None) -> IterationTrace:
    """Run the full iterative receiver on one batch of coherence blocks.

    blocks must span exactly one codeword per UE (frame.n_blocks blocks).
    psi_source selects how the data-aided observation covariance is
    obtained: 'bound' (closed form, default) or 'empirical' (Monte Carlo
    resampling at the current symbol qualities, needs rng).
    """
    if psi_source not in ("bound", "empirical"):
        raise ConfigError(f"unknown psi_source {psi_source!r}")
    if psi_source == "empirical" and rng is None:
        raise ConfigError("psi_source='empirical' needs an rng")
    if i_max >= 1 and mode == "rp" and config.tau_d <= config.K:
        raise ConfigError("data-aided iterations in rp mode need tau_d > K")
    L, K, M = config.L, config.K, config.M
    B = blocks.n_blocks
    if B != frame.n_blocks:
        raise ValueError(f"got {B} blocks for a {frame.n_blocks}-block frame")

    Rs = realization.R[np.arange(L), np.arange(L)]         # (L, K, M, M) serving
    prelog = config.data_slots(mode) / config.tau_c

    states: list[IterationState] = []
    soft_prev: SoftDataState | None = None

    def demod_decode(it: int, stage, C, source, sigma_in) -> IterationState:
        nonlocal soft_prev
        h_hat, V, y_hat, fallbacks = stage
        g = np.empty((B, L, K), dtype=complex)
        n_var = np.empty((B, L, K))
        for l in range(L):
            g[:, l], n_var[:, l] = effective_stats(
                V[:, l], h_hat[:, l], C[l], realization, l, mode, config,
                sigma_in[l], cancelled=(it > 0))
        if np.any(n_var <= 0):
            # An indefinite error covariance (sample psi) or a zero combiner.
            raise EstimationError(f"iteration {it}: effective noise variance is not positive")

        # Per-slot LLRs with per-block gains, reassembled into codeword order.
        llr_blocks = qpsk_demap_llr(y_hat, g[..., None], n_var[..., None])
        llr_cw = (llr_blocks.transpose(1, 2, 0, 3)
                  .reshape(L, K, -1)[:, :, :code.n])       # drop pad-slot bits

        if soft_prev is None:
            prev_ok = np.zeros((L, K), dtype=bool)
            llr_post = llr_cw.copy()
        else:
            prev_ok = soft_prev.decoded_ok
            llr_post = np.where(prev_ok[..., None], soft_prev.llr_post, llr_cw)
        hard = hard_decisions(llr_post)
        ok = prev_ok.copy()
        todo = np.nonzero(~prev_ok.ravel())[0]
        if todo.size:
            flat_llr = llr_cw.reshape(L * K, code.n)[todo]
            post, bits, good = decode(flat_llr, code)
            llr_post.reshape(L * K, code.n)[todo] = post
            hard.reshape(L * K, code.n)[todo] = bits
            ok.reshape(L * K)[todo] = good

        s_hat, sig = soft_symbols(llr_post)
        # Decoded UEs transmit-side symbols are known exactly from here on.
        s_exact = remodulate(hard)
        s_hat = np.where(ok[..., None], s_exact, s_hat)
        sig = np.where(ok, 1.0, sig)
        soft = SoftDataState(llr_post=llr_post, s_hat=s_hat, sigma_sq=sig,
                             decoded_ok=ok, hard_bits=hard)
        soft_prev = soft

        h_true = blocks.H[:, np.arange(L), np.arange(L)]   # (B, L, K, M)
        p0 = 1.0 / (1.0 + np.exp(-llr_post))
        se_mi = np.array([[se_mutual_info(p0[l, k], prelog, 2, code.rate)
                           for k in range(K)] for l in range(L)])
        return IterationState(index=it,
                              estimates=ChannelEstimateSet(h_hat=h_hat, C=C, source=source),
                              soft=soft, g=g, n_var=n_var,
                              mse_emp=mse_channel_empirical(h_true, h_hat),
                              se_mi=se_mi, snr_eff_db=effective_snr_db(g, n_var),
                              bler=bler(ok), fallback_blocks=fallbacks)

    # Iteration 0: pilot-only estimation.
    W0, C0 = lmmse_filter(Rs, psi_pilot(realization, assignment, config, mode))
    stage = estimate_and_combine(blocks, W0, C0, realization, assignment, config, mode,
                                 combiner_kind)
    states.append(demod_decode(0, stage, C0, "pilot", np.zeros((L, K))))
    h0 = states[0].estimates.h_hat

    it = 0
    while it < i_max and states[-1].bler > 0.0:
        it += 1
        sigma_est = sigma_update(soft_prev.sigma_sq, soft_prev.decoded_ok)
        if psi_source == "bound":
            psi = psi_data_aided_bound(realization, assignment, config, mode, sigma_est)
        else:
            draws = simulate_data_aided_observations(
                realization, assignment, config, mode, sigma_est, rng,
                n_draws=max(100, 10 * M))
            psi = psi_data_aided_empirical(draws)
        W, C = lmmse_filter(Rs, psi)

        s_blocks = np.moveaxis(frame_codeword(soft_prev.s_hat, frame), 2, 0)  # (B, L, K, slots)
        stage = estimate_and_combine(blocks, W, C, realization, assignment, config, mode,
                                     combiner_kind, s_blocks=s_blocks, h_pilot=h0)
        states.append(demod_decode(it, stage, C, psi_source, sigma_est))
    termination = "all_decoded" if states[-1].bler == 0.0 else "i_max"
    return IterationTrace(states=states, termination=termination)
