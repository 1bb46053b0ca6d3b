"""Iterative data-aided channel estimation and decoding over one codeword span.

Iteration 0 estimates channels from pilots only, combines, demaps, and
decodes every UE's codeword. Each later iteration rebuilds the channel
estimates from the full-block projection onto the estimated symbol
matrices (soft symbols of the previous iteration, exact symbols for UEs
that already decoded), cancels reconstructed in-cell interference, and
decodes again. UEs whose parity checks pass are frozen: their symbols are
the exact remodulated codeword and their quality is pinned to 1.
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
    mode: str
    combiner_kind: str
    i_max: int
    psi_source: str
    states: list
    termination: str

    @property
    def final(self) -> IterationState:
        return self.states[-1]


def sigma_update(sigma_sq: np.ndarray, decoded_ok: np.ndarray) -> np.ndarray:
    """Symbol-quality input to the next estimation round (decoded UEs -> 1)."""
    return np.where(np.asarray(decoded_ok, dtype=bool), 1.0,
                    np.clip(np.asarray(sigma_sq, dtype=float), 0.0, 1.0))


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

    q, p = realization.energies(mode)
    Rs = realization.R[np.arange(L), np.arange(L)]         # (L, K, M, M) serving
    seqs = assignment.seqs                                 # (L, K, len)
    prelog = config.data_slots(mode) / config.tau_c

    # Iteration 0: pilot-only estimation.
    psi0 = psi_pilot(realization, assignment, config, mode)
    W0, C0 = lmmse_filter(Rs, psi0)
    z0 = np.stack([pilot_observation(blocks.Y[:, l], seqs[l], q[l], mode,
                                     tau_p=config.tau_p) for l in range(L)], axis=1)
    h0 = np.einsum("lkmn,blkn->blkm", W0, z0)

    states: list[IterationState] = []
    soft_prev: SoftDataState | None = None

    def demod_decode(it: int, h_hat, C, source, sigma_in, fallbacks) -> IterationState:
        nonlocal soft_prev
        V = np.empty_like(h_hat)
        y_all = []
        g = np.empty((B, L, K), dtype=complex)
        n_var = np.empty((B, L, K))
        for l in range(L):
            V[:, l] = build_combiner(h_hat[:, l], C[l], realization.rho[l],
                                     config.noise_energy, combiner_kind)
            if it == 0:
                y_l = combine_initial(blocks.Y[:, l], V[:, l], mode, config,
                                      h_hat=h_hat[:, l], seqs=seqs[l], q=q[l])
            else:
                s_framed = frame_codeword(soft_prev.s_hat[l], frame)   # (K, B, slots)
                y_l = combine_iterative(blocks.Y[:, l], V[:, l], h_hat[:, l],
                                        np.swapaxes(s_framed, 0, 1), mode, config,
                                        p=p[l], seqs=seqs[l], q=q[l])
            g[:, l], n_var[:, l] = effective_stats(
                V[:, l], h_hat[:, l], C[l], realization, l, mode, config,
                sigma_in[l], cancelled=(it > 0))
            y_all.append(y_l)
        y_hat = np.stack(y_all, axis=1)                    # (B, L, K, slots)
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

    sigma0 = np.zeros((L, K))
    states.append(demod_decode(0, h0, C0, "pilot", sigma0, 0))

    termination = "i_max"
    if states[-1].bler == 0.0:
        termination = "all_decoded"
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

        s_framed = frame_codeword(soft_prev.s_hat, frame)  # (L, K, B, slots)
        Xh = np.swapaxes(build_transmit(mode, assignment, np.moveaxis(s_framed, 2, 0),
                                        realization, config), -1, -2)  # (B, L, tau_c, K)
        fallbacks = 0
        h_hat = np.empty((B, L, K, M), dtype=complex)
        for l in range(L):
            for b in range(B):
                try:
                    z = data_aided_observation(blocks.Y[b, l], Xh[b, l])
                    h_hat[b, l] = np.einsum("kmn,kn->km", W[l], z)
                except ProjectionError:
                    h_hat[b, l] = h0[b, l]                 # pilot-only fallback
                    fallbacks += 1
        states.append(demod_decode(it, h_hat, C, psi_source, sigma_est, fallbacks))
        if states[-1].bler == 0.0:
            termination = "all_decoded"
            break
    return IterationTrace(mode=mode, combiner_kind=combiner_kind, i_max=i_max,
                          psi_source=psi_source, states=states,
                          termination=termination)
