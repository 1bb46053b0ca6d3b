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

from . import _threads
from .airlink import BlockSignals, build_transmit
from .chest import (ChannelEstimateSet, EstimationError, ProjectionError,
                    data_aided_observation, lmmse_filter, psi_data_aided_bound,
                    psi_pilot, pilot_observation)
from .codec import (CodewordFrame, SoftDataState, decode, frame_codeword,
                    hard_decisions, qpsk_demap_llr, qpsk_map, soft_symbols)
from .codec.ldpc import CodeSpec
from .combine import build_combiner, combine_initial, combine_iterative, effective_stats
from .config import ConfigError, ScenarioConfig
from .metrics import bler, effective_snr_db, mse_channel_empirical, se_mutual_info
from .netgeom import NetworkRealization
from .pilots import PilotAssignment


@dataclass
class IterationState:
    """What one iteration produced (arrays indexed [block, cell, ue]).

    soft is complete in the newest state only. Once the next iteration has
    read it, its llr_post and s_hat become None; sigma_sq, decoded_ok and
    hard_bits stay, so a state costs L*K*n bytes of bits, not its soft state.
    """

    index: int
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
    """Every iteration's state, and the final iteration's channel estimates.

    Earlier iterations' estimates and error covariances are not kept: they
    are L*K*M^2 numbers per iteration, the bulk of the receiver's memory.
    Nor are their LLRs and soft symbols: final.soft is the one complete
    soft state (see IterationState), so the trace does not grow with i_max
    beyond each state's hard bits and per-UE figures.
    """

    states: list
    termination: str
    estimates: ChannelEstimateSet

    @property
    def final(self) -> IterationState:
        return self.states[-1]


def estimate_and_combine(blocks: BlockSignals, realization: NetworkRealization,
                         assignment: PilotAssignment, config: ScenarioConfig, mode: str,
                         combiner_kind: str, s_blocks: np.ndarray | None = None,
                         sigma: np.ndarray | None = None, h_pilot: np.ndarray | None = None
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """LMMSE channel estimates and combined data observations, every cell and block.

    Without s_blocks the LMMSE filters of the serving channels come from
    the pilot-only statistics (psi_pilot) and act on the de-spread pilots,
    and the combiner removes no co-UE signal. With s_blocks (B, L, K, slots),
    estimated data symbols of quality sigma (L, K), they come from the
    closed-form data-aided statistics (psi_data_aided_bound) and act on the
    projection of each block onto its estimated transmit matrix, and the
    combiner cancels the reconstructed in-cell signals. The projection runs
    on all blocks at once; only if that fails are the blocks redone one at a
    time, and a block whose symbol matrix is still rank deficient keeps its
    h_pilot estimate (or raises ProjectionError without one).

    Returns (h_hat, C, V, y, fallbacks): h_hat and V (B, L, K, M), the error
    covariances C (L, K, M, M), y (B, L, K, slots), and the number of blocks
    that kept h_pilot. psi and the filters are freed once used, so the
    caller holds one set of channel statistics, C.
    """
    L = config.L
    if s_blocks is None:
        psi = psi_pilot(realization, assignment, config, mode)
    else:
        psi = psi_data_aided_bound(realization, assignment, config, mode, sigma)
    # The serving correlations R[l, l] as a view: (K, M, M, L) -> (L, K, M, M).
    R_serving = np.moveaxis(np.diagonal(realization.R, axis1=0, axis2=1), -1, 0)
    W, C = lmmse_filter(R_serving, psi)
    del psi
    Y = blocks.Y
    q, p = realization.energies(mode)
    seqs = assignment.seqs
    failed = []
    if s_blocks is None:
        z = np.stack([pilot_observation(Y[:, l], seqs[l], q[l], mode, tau_p=config.tau_p)
                      for l in range(L)], axis=1)
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
    h_hat = _threads.einsum("lkmn,...lkn->...lkm", W, z)
    del W
    for b, l in failed:
        h_hat[b, l] = h_pilot[b, l]                        # pilot-only fallback

    V = np.empty_like(h_hat)
    y = []
    for l in range(L):
        V[:, l] = build_combiner(h_hat[:, l], C[l], realization.rho[l],
                                 config.noise_energy, combiner_kind)
        if s_blocks is None:
            y.append(combine_initial(Y[:, l], V[:, l], mode, config,
                                     h_hat=h_hat[:, l], seqs=seqs[l], q=q[l]))
        else:
            y.append(combine_iterative(Y[:, l], V[:, l], h_hat[:, l], s_blocks[:, l],
                                       mode, config, p=p[l], seqs=seqs[l], q=q[l]))
    return h_hat, C, V, np.stack(y, axis=1), len(failed)


def run_receiver(blocks: BlockSignals, realization: NetworkRealization,
                 assignment: PilotAssignment, config: ScenarioConfig,
                 code: CodeSpec, frame: CodewordFrame, mode: str,
                 combiner_kind: str = "mr", i_max: int = 8) -> IterationTrace:
    """Run the full iterative receiver on one batch of coherence blocks.

    blocks must span exactly one codeword per UE (frame.n_blocks blocks).
    Iteration 0 runs LMMSE on the pilot-only observation covariance, every
    later iteration on the closed-form data-aided one (psi_data_aided_bound)
    at the previous iteration's symbol qualities.
    """
    if i_max >= 1 and mode == "rp" and config.tau_d <= config.K:
        raise ConfigError("data-aided iterations in rp mode need tau_d > K")
    L, K = config.L, config.K
    B = blocks.n_blocks
    if B != frame.n_blocks:
        raise ValueError(f"got {B} blocks for a {frame.n_blocks}-block frame")

    h_true = blocks.H[:, np.arange(L), np.arange(L)]       # (B, L, K, M)
    prelog = config.data_slots(mode) / config.tau_c
    states: list[IterationState] = []
    h0 = None                         # pilot-only estimates, the projection fallback

    def iterate() -> ChannelEstimateSet:
        """One estimate -> combine -> demap -> decode pass.

        Appends the pass's state and returns its estimates. The caller drops
        the previous pass's estimates first, so one iteration's channel
        statistics are live.
        """
        it = len(states)
        if it == 0:
            # Iteration 0: pilot-only estimation.
            soft_prev, s_blocks = None, None
            sigma_in = np.zeros((L, K))
        else:
            soft_prev = states[-1].soft
            sigma_in = soft_prev.sigma_sq
            s_blocks = np.moveaxis(frame_codeword(soft_prev.s_hat, frame), 2, 0)
            soft_prev.s_hat = None        # only the newest state keeps its full soft state
        h_hat, C, V, y_hat, fallbacks = estimate_and_combine(
            blocks, realization, assignment, config, mode, combiner_kind,
            s_blocks=s_blocks, sigma=sigma_in, h_pilot=h0)

        g = np.empty((B, L, K), dtype=complex)
        n_var = np.empty((B, L, K))
        for l in range(L):
            g[:, l], n_var[:, l] = effective_stats(
                V[:, l], h_hat[:, l], C[l], realization, l, mode, config,
                sigma_in[l], cancelled=(it > 0))
        if not (np.all(n_var > 0) and np.all(np.isfinite(n_var)) and np.all(np.isfinite(g))):
            # An indefinite error covariance, a zero combiner or a NaN. A NaN
            # would demap to all-zero bits: the all-zero codeword, which checks.
            raise EstimationError(f"iteration {it}: effective noise variance is not "
                                  "positive and finite, or the gain is not finite")

        # Per-slot LLRs with per-block gains, reassembled into codeword order.
        llr_blocks = qpsk_demap_llr(y_hat, g[..., None], n_var[..., None])
        llr_cw = (llr_blocks.transpose(1, 2, 0, 3)
                  .reshape(L, K, -1)[:, :, :code.n])       # drop pad-slot bits
        del s_blocks, V, y_hat, llr_blocks                 # the decoder needs none of them

        if soft_prev is None:
            prev_ok = np.zeros((L, K), dtype=bool)
            llr_post = llr_cw.copy()
        else:
            prev_ok = soft_prev.decoded_ok
            llr_post = np.where(prev_ok[..., None], soft_prev.llr_post, llr_cw)
            soft_prev.llr_post = None
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
        s_exact = qpsk_map(hard)
        s_hat = np.where(ok[..., None], s_exact, s_hat)
        sig = np.where(ok, 1.0, sig)
        soft = SoftDataState(llr_post=llr_post, s_hat=s_hat, sigma_sq=sig,
                             decoded_ok=ok, hard_bits=hard)

        p0 = 1.0 / (1.0 + np.exp(-llr_post))
        se_mi = np.array([[se_mutual_info(p0[l, k], prelog, 2, code.rate)
                           for k in range(K)] for l in range(L)])
        states.append(IterationState(index=it, soft=soft, g=g, n_var=n_var,
                                     mse_emp=mse_channel_empirical(h_true, h_hat),
                                     se_mi=se_mi, snr_eff_db=effective_snr_db(g, n_var),
                                     bler=bler(ok), fallback_blocks=fallbacks))
        return ChannelEstimateSet(h_hat=h_hat, C=C)

    estimates = iterate()
    h0 = estimates.h_hat
    while len(states) <= i_max and states[-1].bler > 0.0:
        del estimates                 # the next pass needs none of them
        estimates = iterate()
    termination = "all_decoded" if states[-1].bler == 0.0 else "i_max"
    return IterationTrace(states=states, termination=termination, estimates=estimates)
