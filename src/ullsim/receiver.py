"""Iterative data-aided channel estimation and decoding over one codeword span.

Iteration 0 estimates channels from pilots only, combines, demaps, and
decodes every UE's codeword. Each later iteration rebuilds the channel
estimates from the full-block projection onto the estimated symbol
matrices (soft symbols of the previous iteration, exact symbols for UEs
that already decoded), cancels reconstructed in-cell interference, and
decodes again. UEs whose parity checks pass are frozen: their symbols are
the exact remodulated codeword and their quality is pinned to 1. The
receiver is one loop; each iteration leaves only its per-UE results.

Estimation and combining are one stage, estimate_and_combine, which the
Gaussian-symbol study also runs, on surrogate instead of decoded symbols.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import _threads
from .airlink import BlockSignals, build_transmit
from .chest import (EstimationError, data_aided_observation, lmmse_filter,
                    psi_data_aided_bound, psi_pilot, pilot_observation)
from .codec import (CodewordFrame, decode, frame_codeword, hard_decisions,
                    qpsk_demap_llr, qpsk_map, soft_symbols)
from .codec.ldpc import CodeSpec
from .combine import (build_combiner, combine_iterative, effective_stats,
                      intercell_interference)
from .config import ConfigError, ScenarioConfig
from .metrics import (effective_snr_db, mse_channel_empirical, se_mutual_info,
                      se_uatf_moments)
from .netgeom import NetworkRealization
from .pilots import PilotAssignment


@dataclass
class SoftDataState:
    """What decoding left of one iteration's codewords, arrays over (L, K).

    The posterior LLRs and soft symbols are the receiver's loop state: the
    next pass reads them and no state keeps them.
    """

    sigma_sq: np.ndarray          # (L, K) symbol quality, mean |s_hat|^2; 1 once decoded
    decoded_ok: np.ndarray        # (L, K) parity-check success flags
    hard_bits: np.ndarray         # (L, K, n) hard decisions


@dataclass
class IterationState:
    """One iteration's per-UE results, arrays over (L, K).

    Its iteration is its position in IterationTrace.states.
    """

    soft: SoftDataState
    mse_emp: np.ndarray       # empirical channel MSE vs the true draws
    se_uatf: np.ndarray       # hardening SE from the per-block effective gains
    se_mi: np.ndarray         # decoder-aware SE
    snr_eff_db: np.ndarray
    fallback_blocks: int = 0


@dataclass
class IterationTrace:
    """Every iteration's state, and why the receiver stopped.

    A state holds per-UE figures and hard bits only: no channel estimates,
    error covariances (L*K*M^2 numbers, the bulk of an iteration's memory),
    LLRs or soft symbols, so the trace grows with i_max by each state's
    L*K*n bytes of hard bits and its per-UE figures.
    """

    states: list
    termination: str

    @property
    def final(self) -> IterationState:
        return self.states[-1]


def estimate_and_combine(blocks: BlockSignals, realization: NetworkRealization,
                         assignment: PilotAssignment, config: ScenarioConfig, mode: str,
                         combiner_kind: str, reduce: Callable, s_blocks: np.ndarray | None = None,
                         sigma: np.ndarray | None = None
                         ) -> tuple[np.ndarray, np.ndarray, list, int]:
    """LMMSE channel estimates and combined data observations, every cell and block.

    Without s_blocks the LMMSE filters of the serving channels come from
    the pilot-only statistics (psi_pilot) and act on the de-spread pilots,
    and combining subtracts nothing but gives each UE back minus its own
    pilot in the pilots-only X. With s_blocks (B, L, K, slots), estimated
    data symbols of quality sigma (L, K), they come from the closed-form
    data-aided statistics (psi_data_aided_bound) and act on the projection
    of each block onto its estimated transmit matrix X, and combining
    cancels the in-cell signals of the same X and gives each UE back its
    own data. Either way, one combining formula leaves each UE's y with its
    own pilot removed.
    The projection marks each block whose symbol matrix is rank deficient,
    and that block keeps the stage's pilot-only estimate, whose filter is
    computed only for a cell where some block needs it.

    Each serving cell l runs through estimate, combine and reduce as one
    item of _threads.each: no BS reads another's cell, so the cells split
    over the trial's threads, contiguous cells per thread, and a cell's
    kernels split over the threads left to it. reduce(l, v, h_hat_l, C_l)
    gets the cell's combining vectors and estimates, (B, K, M), and error
    covariances C_l, (K, M, M), and its result is all the stage keeps of
    them. So each thread holds one cell's filter, C and v at a time (K*M^2
    numbers each), min(threads, L) cells' in all, and reduce must be safe
    to call from any thread; the observations and psi of every cell are
    formed at once, psi as Toeplitz generators (L*K*(2M-1) numbers).

    Returns (h_hat, y, reduced, fallbacks): h_hat (B, L, K, M), y (B, L, K,
    slots), the list of the L cells' reduce results, and the number of
    blocks that kept their pilot-only estimate.
    """
    Y = blocks.Y
    q, p = realization.energies(mode)
    n_data = config.data_slots(mode)
    data = slice(config.tau_c - n_data, None)

    def estimate(l, z, psi_l):
        """Cell l's estimates from observations z (B, K, M) of covariance psi_l, and their C."""
        W, C_l = lmmse_filter(realization.R[l, l], psi_l)
        return _threads.einsum("kmn,...kn->...km", W, z), C_l

    if s_blocks is None:
        z = pilot_observation(Y, assignment.seqs, q, mode, tau_p=config.tau_p)
        ok = np.ones(Y.shape[:2], dtype=bool)
        # The pilots alone, (L, K, tau_c): each UE's own row is what it loses.
        X = build_transmit(mode, assignment, np.zeros((config.L, config.K, n_data)),
                           realization, config)
    else:
        # One estimated transmit matrix serves the projection and the cancellation.
        X = build_transmit(mode, assignment, s_blocks, realization, config)
        z, ok = data_aided_observation(Y, np.swapaxes(X, -1, -2))
    failed = ~ok                                           # (B, L)
    psi = (psi_pilot(realization, assignment, config, mode) if s_blocks is None
           else psi_data_aided_bound(realization, assignment, config, mode, sigma))
    fallback_psi = psi_pilot(realization, assignment, config, mode) if failed.any() else None

    # Combining per cell: stacked, with the same bits, its (B, L, M,
    # tau_c) residual raised the traced peak of a coded rp trial from 45.4 to
    # 63.0 MB, of a coded sp one from 43.1 to 59.8 MB and of a study pair from
    # 88.5 to 126.9 MB (paper point, seed 1): over the benchmark's 10 % bound.
    h_hat = np.empty_like(z)

    def cell(l):
        """Cell l through estimate, combine and reduce: its y and reduce result."""
        h_hat[:, l], C_l = estimate(l, z[:, l], psi[l])
        if failed[:, l].any():                             # the pilot-only fallback
            z_l = pilot_observation(Y[:, l], assignment.seqs[l], q[l], mode,
                                    tau_p=config.tau_p)
            h_hat[failed[:, l], l] = estimate(l, z_l, fallback_psi[l])[0][failed[:, l]]
        v = build_combiner(h_hat[:, l], C_l, realization.rho[l], config.noise_energy,
                           combiner_kind)
        if s_blocks is None:      # y + g (-pilot) has the bits of y - g pilot
            x_hat, own = None, -X[l, :, data]
        else:                     # own, sqrt(p) s_hat, lives for the call only
            x_hat, own = X[:, l, :, data], np.sqrt(p[l])[:, None] * s_blocks[:, l]
        y_l = combine_iterative(Y[:, l, :, data], v, h_hat[:, l], x_hat, own)
        del x_hat, own
        return y_l, reduce(l, v, h_hat[:, l], C_l)

    y, reduced = zip(*_threads.each(cell, config.L))
    return h_hat, np.stack(y, axis=1), list(reduced), int(failed.sum())


def run_receiver(blocks: BlockSignals, realization: NetworkRealization,
                 assignment: PilotAssignment, config: ScenarioConfig,
                 code: CodeSpec, frame: CodewordFrame, mode: str,
                 combiner_kind: str = "mr", i_max: int = 8,
                 h_true: np.ndarray | None = None) -> IterationTrace:
    """Run the full iterative receiver on one batch of coherence blocks.

    blocks must span exactly one codeword per UE (frame.n_blocks blocks).
    The receiver reads blocks.Y, and scores its estimates against the
    serving channels h_true, (B, L, K, M), by default those of blocks.H: a
    caller that passes them may release blocks.H first.
    Each pass decodes the UEs still to do. The first knows no symbols
    (sigma is None, as s_blocks is) and estimates on the pilot-only
    statistics, every later one on the data-aided bound at the previous
    pass's symbol qualities.
    """
    if i_max >= 1 and mode == "rp" and config.tau_d <= config.K:
        raise ConfigError("data-aided iterations in rp mode need tau_d > K")
    L, K = config.L, config.K
    B = blocks.n_blocks
    if B != frame.n_blocks:
        raise ValueError(f"got {B} blocks for a {frame.n_blocks}-block frame")

    if h_true is None:
        h_true = blocks.H[:, np.arange(L), np.arange(L)]   # (B, L, K, M)
    inter = intercell_interference(realization, mode)      # every pass's, (L, 2M-1)
    prelog = config.data_slots(mode) / config.tau_c
    states: list[IterationState] = []
    ok = np.zeros((L, K), dtype=bool)
    sigma = None                          # no symbol is known before the first decode
    llr_post = np.empty((L, K, code.n))   # a frozen UE keeps its decoding pass's LLRs
    s_blocks = None
    for it in range(i_max + 1):
        h_hat, y_hat, stats, fallbacks = estimate_and_combine(
            blocks, realization, assignment, config, mode, combiner_kind,
            lambda l, v, h_l, C_l: effective_stats(v, h_l, C_l, realization, mode,
                                                   config, sigma, l, inter[l]),
            s_blocks=s_blocks, sigma=sigma)
        g, n_var = (np.stack(cells, axis=1) for cells in zip(*stats))    # (B, L, K)
        if not (np.all(np.isfinite(n_var) & (n_var > 0)) and np.all(np.isfinite(g) & (g != 0))):
            # An indefinite error covariance, a zero combiner, no data energy
            # or a NaN. A zero gain or a NaN demaps to the all-zero codeword, which checks.
            raise EstimationError(f"iteration {it}: effective noise variance is not "
                                  "positive and finite, or the gain is zero or not finite")

        # Per-slot LLRs with per-block gains, reassembled into codeword order.
        llr_blocks = qpsk_demap_llr(y_hat, g[..., None], n_var[..., None])
        llr_cw = (llr_blocks.transpose(1, 2, 0, 3)
                  .reshape(L, K, -1)[:, :, :code.n])       # drop pad-slot bits
        del y_hat, llr_blocks, s_blocks                    # the decoder needs none of them

        todo = np.flatnonzero(~ok)                         # the UEs still to decode
        ok = ok.copy()                                     # each state keeps its own flags
        llr_post.reshape(L * K, -1)[todo], _, ok.reshape(-1)[todo] = decode(
            llr_cw.reshape(L * K, -1)[todo], code)
        del llr_cw
        hard = hard_decisions(llr_post)             # decode's bits are post < 0
        s_hat, sig = soft_symbols(llr_post)
        # Decoded UEs' transmit-side symbols are known exactly from here on.
        s_hat = np.where(ok[..., None], qpsk_map(hard), s_hat)
        sigma = np.where(ok, 1.0, sig)

        states.append(IterationState(
            soft=SoftDataState(sigma_sq=sigma, decoded_ok=ok, hard_bits=hard),
            mse_emp=mse_channel_empirical(h_true, h_hat),
            # Per-block-hardened estimate: the gain's spread over blocks is noise.
            se_uatf=se_uatf_moments(np.mean(g, axis=0),
                                    np.mean(n_var, axis=0) + np.var(g, axis=0), prelog),
            se_mi=se_mutual_info(1.0 / (1.0 + np.exp(-llr_post)), prelog, 2, code.rate),
            snr_eff_db=effective_snr_db(g, n_var), fallback_blocks=fallbacks))
        del h_hat
        if ok.all() or it == i_max:
            break
        s_blocks = np.moveaxis(frame_codeword(s_hat, frame), 2, 0)
        del s_hat
    return IterationTrace(states=states, termination="all_decoded" if ok.all() else "i_max")
