"""Receive combining and per-UE effective channel statistics.

Each BS combines its received block with v_k per UE, optionally after
subtracting reconstructed co-UE contributions (iterative interference
cancellation); the combining functions take one serving cell.
effective_stats takes every cell at once. The demapper then treats
y_hat = g * s + effective noise, with (g, n_var) from effective_stats.
"""

from __future__ import annotations

import numpy as np

from . import _threads
from .config import ScenarioConfig
from .netgeom import NetworkRealization


def build_combiner(h_hat: np.ndarray, C: np.ndarray, rho: np.ndarray,
                   noise_energy: float, kind: str) -> np.ndarray:
    """Combining vectors for one cell from its channel estimates.

    h_hat: (..., K, M) estimates; C: (K, M, M) error covariances;
    rho: (K,) total per-symbol transmit energies of the in-cell UEs.
    Returns v: (..., K, M).

    mr:    v_k = h_hat_k
    smmse: v_k = rho_k * (sum_j rho_j (h_hat_j h_hat_j^H + C_j) + sigma^2 I)^-1 h_hat_k
           using only serving-cell statistics (no cross-BS CSI exchange).
    """
    if kind == "mr":
        return h_hat.copy()
    if kind != "smmse":
        raise ValueError(f"unknown combiner {kind!r}")
    K, M = h_hat.shape[-2], h_hat.shape[-1]
    rho = np.asarray(rho, dtype=float)
    A = np.einsum("...km,...kn->...mn", rho[:, None] * h_hat, h_hat.conj())
    A = A + np.einsum("k,kmn->mn", rho, C) + noise_energy * np.eye(M)
    # Solve A V^H = h_hat^H for all K right-hand sides at once.
    V = np.linalg.solve(A, np.swapaxes(h_hat.conj(), -1, -2))
    return np.swapaxes(V.conj(), -1, -2) * rho[..., :, None]


def combine_initial(Y: np.ndarray, v: np.ndarray, mode: str,
                    config: ScenarioConfig, h_hat: np.ndarray | None = None,
                    seqs: np.ndarray | None = None,
                    q: np.ndarray | None = None) -> np.ndarray:
    """First-pass combined data observations (no co-UE cancellation).

    Y: (..., M, tau_c); v, h_hat: (..., K, M); seqs: (K, tau_c) pilots and
    q: (K,) pilot energies (sp only). Returns y_hat: (..., K, n_data).

    rp: y_hat_k = v_k^H Y[:, tau_p:]
    sp: y_hat_k = v_k^H Y - (v_k^H h_hat_k) sqrt(q_k) phi_k^T, i.e. the
        BS removes its own reconstructed pilot component (it knows both the
        pilot and the channel estimate) before demapping.
    """
    if mode == "rp":
        return _threads.einsum("...km,...mt->...kt", v.conj(), Y[..., :, config.tau_p:])
    if mode != "sp":
        raise ValueError(f"unknown mode {mode!r}")
    y_hat = _threads.einsum("...km,...mt->...kt", v.conj(), Y)
    if h_hat is not None:
        gain = np.einsum("...km,...km->...k", v.conj(), h_hat)
        y_hat = y_hat - gain[..., None] * (np.sqrt(q)[:, None] * seqs)
    return y_hat


def combine_iterative(Y: np.ndarray, v: np.ndarray, h_hat: np.ndarray,
                      s_hat: np.ndarray, mode: str, config: ScenarioConfig,
                      p: np.ndarray, seqs: np.ndarray | None = None,
                      q: np.ndarray | None = None) -> np.ndarray:
    """Combined data observations after subtracting reconstructed co-UEs.

    s_hat: (..., K, n_data) soft symbol estimates of the in-cell UEs;
    h_hat are current-iteration channel estimates. For each UE k the BS
    subtracts every other in-cell UE's reconstructed signal (data and, for
    sp, pilot) as well as its own reconstructed pilot (sp), then combines.

    rp: y_hat_k = v_k^H (Y_data - sum_{j != k} h_hat_j sqrt(p_j) s_hat_j^T)
    sp: y_hat_k = v_k^H (Y - sum_j h_hat_j x_hat_j^T) + (v_k^H h_hat_k) sqrt(p_k) s_hat_k^T
        with x_hat_j = sqrt(q_j) phi_j + sqrt(p_j) s_hat_j.
    """
    p = np.asarray(p, dtype=float)
    if mode == "rp":
        Yd = Y[..., :, config.tau_p:]
        recon = np.sqrt(p)[..., :, None] * s_hat                   # (..., K, tau_d)
    elif mode == "sp":
        Yd = Y
        recon = np.sqrt(q)[:, None] * seqs + np.sqrt(p)[..., :, None] * s_hat
    else:
        raise ValueError(f"unknown mode {mode!r}")
    # Subtract every reconstructed in-cell signal, then add back UE k's own
    # reconstructed data (scalar gain v_k^H h_hat_k); for sp its pilot stays
    # removed.
    total = _threads.einsum("...km,...kt->...mt", h_hat, recon)
    y_hat = _threads.einsum("...km,...mt->...kt", v.conj(), Yd - total)
    gain = np.einsum("...km,...km->...k", v.conj(), h_hat)
    return y_hat + gain[..., None] * (np.sqrt(p)[..., :, None] * s_hat)


def effective_stats(v: np.ndarray, h_hat: np.ndarray, C: np.ndarray,
                    realization: NetworkRealization, mode: str,
                    config: ScenarioConfig, sigma_est: np.ndarray,
                    cancelled: bool) -> tuple[np.ndarray, np.ndarray]:
    """Effective gain and noise variance per UE for the demapper.

    v, h_hat: (..., L, K, M) at every serving BS, e.g. (B, L, K, M) over
    the blocks; C: (L, K, M, M); sigma_est: (L, K) soft-symbol qualities
    (0 before any decoding); cancelled: True once reconstructed co-UE
    contributions are subtracted (iterations >= 1).
    Returns (g, n_var), each (..., L, K).

    The variance conditions on the estimates: channel errors enter through
    C, co-UE symbol errors through 1 - sigma_est^2, intercell interference
    through R and full energies, and thermal noise through ||v||^2. For sp
    the own pilot is always reconstructed and removed (only its estimation
    error q_k v^H C_k v remains); co-UE pilots are removed only once
    cancellation is active.
    """
    q, p = realization.energies(mode)
    full = p if mode == "rp" else p + q             # a UE's full energy, (L, K)
    sig = np.asarray(sigma_est, dtype=float)

    g = np.sqrt(p) * np.einsum("...km,...km->...k", v.conj(), h_hat)

    # v_k^H C_j v_k and |v_k^H h_hat_j|^2 for every in-cell pair (k, j).
    vCv = _threads.einsum("...km,...jmn,...kn->...kj", v.conj(), C, v).real
    vh2 = np.abs(np.einsum("...km,...jm->...kj", v.conj(), h_hat)) ** 2

    # Own-UE residual: channel-estimation error on data (and own pilot for sp).
    n_var = np.einsum("...kk,...k->...k", vCv, full)

    # In-cell co-UE residuals: after subtraction only the residual data,
    # before it everything.
    est_part = p * (1.0 - sig) if cancelled else full
    off = ~np.eye(config.K, dtype=bool)
    cross = vh2 * est_part[..., None, :] + vCv * full[..., None, :]
    n_var = n_var + np.einsum("...kj,kj->...k", cross, off.astype(float))

    # Intercell interference (never cancelled: symbols unknown at this BS).
    inter = realization.intercell(full)
    n_var = n_var + _threads.einsum("...km,...mn,...kn->...k", v.conj(), inter, v).real

    n_var = n_var + config.noise_energy * np.einsum("...km,...km->...k", v.conj(), v).real
    return g, n_var
