"""Receive combining and per-UE effective channel statistics.

Each BS combines the data slots of its received block with v_k per UE
in one formula for every receiver pass, combine_iterative: it subtracts
the reconstructed in-cell signals it knows (none before the first decode,
every in-cell UE's after it, the iterative interference cancellation) and
leaves UE k with exactly its own pilot removed. The signals come from
airlink.build_transmit, so combining does not know the pilot format; it
takes one serving cell. So does effective_stats, and sigma_est=None tells
it that no symbols are known yet. The demapper then treats
y_hat = g * s + effective noise, with (g, n_var) from effective_stats.
"""

from __future__ import annotations

import numpy as np

from . import _threads
from .chest import EstimationError
from .config import ScenarioConfig
from .netgeom import NetworkRealization, toeplitz


def build_combiner(h_hat: np.ndarray, C: np.ndarray, rho: np.ndarray,
                   noise_energy: float, kind: str) -> np.ndarray:
    """Combining vectors for one cell from its channel estimates.

    h_hat: (..., K, M) estimates; C: (K, M, M) error covariances;
    rho: (K,) total per-symbol transmit energies of the in-cell UEs.
    Returns v: (..., K, M), C-contiguous: the einsums that read v sum in
    an order that follows its layout.

    mr:    v_k = h_hat_k
    smmse: v_k = rho_k * (sum_j rho_j (h_hat_j h_hat_j^H + C_j) + sigma^2 I)^-1 h_hat_k
           using only serving-cell statistics (no cross-BS CSI exchange).
    Raises EstimationError where the smmse matrix is singular.
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
    V, ok = _threads.solve(A, np.swapaxes(h_hat.conj(), -1, -2))
    if not ok.all():
        raise EstimationError("S-MMSE combining matrix is singular")
    return np.multiply(np.swapaxes(V.conj(), -1, -2), rho[..., :, None], order="C")


def combine_iterative(Y: np.ndarray, v: np.ndarray, h_hat: np.ndarray,
                      x_hat: np.ndarray | None, own: np.ndarray) -> np.ndarray:
    """Combined data observations, with reconstructed in-cell signals removed.

    Y: (..., M, n_data) the cell's data slots; v, h_hat: (..., K, M);
    x_hat: (..., K, n_data) the in-cell rows of the estimated transmit
    matrix (build_transmit of the soft symbols) in those slots, or None
    when no symbols are known and nothing is subtracted; own: (..., K,
    n_data) what each UE k gets back of its own reconstruction. The
    receiver passes own = sqrt(p) s_hat after a decode, and minus the pilot
    (zero for rp, sqrt(q) phi for sp) before one, so that either way
    exactly UE k's own pilot is removed and its data kept:

    y_hat_k = v_k^H (Y - sum_j h_hat_j x_hat_j^T) + (v_k^H h_hat_k) own_k

    The residual is formed one block (one index of "...") at a time, the
    blocks split over the trial's threads: each thread holds one (M,
    n_data) residual, not the stack, and each block's einsums give the
    bits of the stacked ones.
    """
    vc = v.conj()
    gain = np.einsum("...km,...km->...k", vc, h_hat)
    if x_hat is None:
        y_hat = _threads.einsum("...km,...mt->...kt", vc, Y)
    else:
        ops = (Y, vc, h_hat, x_hat)
        lead = np.broadcast_shapes(*(a.shape[:-2] for a in ops))
        Y, vc, h_hat, x_hat = (np.broadcast_to(a, lead + a.shape[-2:]) for a in ops)
        (K, M), n_data = h_hat.shape[-2:], x_hat.shape[-1]
        y_hat = np.empty(lead + (K, n_data), dtype=np.result_type(*ops))
        blocks = list(np.ndindex(lead))

        def combine_blocks(s):
            for b in blocks[s]:
                E = np.einsum("km,kt->mt", h_hat[b], x_hat[b])
                np.subtract(Y[b], E, out=E)
                np.einsum("km,mt->kt", vc[b], E, out=y_hat[b])

        _threads.split(combine_blocks, len(blocks), work=2 * len(blocks) * K * M * n_data)
    return y_hat + gain[..., None] * own


def intercell_interference(realization: NetworkRealization, mode: str) -> np.ndarray:
    """(L, 2M-1) Toeplitz generators of the intercell interference at every BS.

    Every UE of another cell interferes at its full energy: a BS knows no
    other cell's symbols, so it subtracts none of them. The sum depends on
    the drop and the mode only.
    """
    q, p = realization.energies(mode)
    return realization.intercell(p if mode == "rp" else p + q)


def effective_stats(v: np.ndarray, h_hat: np.ndarray, C: np.ndarray,
                    realization: NetworkRealization, mode: str,
                    config: ScenarioConfig, sigma_est: np.ndarray | None, cell: int,
                    inter: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Effective gain and noise variance per UE of one cell, for the demapper.

    v, h_hat: (..., K, M) at serving BS `cell`, e.g. (B, K, M) over the
    blocks; C: (K, M, M) the cell's error covariances; sigma_est: (L, K)
    soft-symbol qualities of the reconstructed co-UE signals that combining
    subtracted, or None before any decode, when no symbols are known and
    nothing was subtracted; inter: the cell's row of intercell_interference,
    which a caller of every cell forms once, or None to form it here.
    Returns (g, n_var), each (..., K).

    The variance conditions on the estimates: channel errors enter through
    C, co-UE symbol errors through 1 - sigma_est^2, intercell interference
    through R and full energies, and thermal noise through ||v||^2. For sp
    the own pilot is always reconstructed and removed (only its estimation
    error q_k v^H C_k v remains); co-UE pilots are removed only with the
    co-UE symbols, once sigma_est is known.
    """
    q, p = realization.energies(mode)
    full = p if mode == "rp" else p + q             # a UE's full energy, (L, K)
    if inter is None:
        inter = intercell_interference(realization, mode)[cell]
    inter = np.ascontiguousarray(toeplitz(inter))
    est_part = (full if sigma_est is None
                else p * (1.0 - np.asarray(sigma_est, dtype=float)))[cell]
    p, full = p[cell], full[cell]

    g = np.sqrt(p) * np.einsum("...km,...km->...k", v.conj(), h_hat)

    # v_k^H C_j v_k and |v_k^H h_hat_j|^2 for every in-cell pair (k, j).
    vCv = _threads.einsum("...km,...jmn,...kn->...kj", v.conj(), C, v).real
    vh2 = np.abs(np.einsum("...km,...jm->...kj", v.conj(), h_hat)) ** 2

    # Own-UE residual: channel-estimation error on data (and own pilot for sp).
    n_var = np.einsum("...kk,...k->...k", vCv, full)

    # In-cell co-UE residuals: after subtraction only the residual data,
    # before it everything.
    off = ~np.eye(config.K, dtype=bool)
    cross = vh2 * est_part[..., None, :] + vCv * full[..., None, :]
    n_var = n_var + np.einsum("...kj,kj->...k", cross, off.astype(float))

    n_var = n_var + _threads.einsum("...km,...mn,...kn->...k", v.conj(), inter, v).real

    n_var = n_var + config.noise_energy * np.einsum("...km,...km->...k", v.conj(), v).real
    return g, n_var
