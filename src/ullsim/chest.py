"""Channel estimation: de-spread observations, LMMSE, error-covariance bounds.

Every estimator here works from a per-UE observation vector z (one per
coherence block) whose second-order statistics Psi are known in closed
form (pilot-only and the data-aided lower bound). Each Psi is a
real-weighted sum of a drop's Hermitian Toeplitz R plus a multiple of I,
so it is summed on the 2M-1 generator numbers, for every UE at once, and
returned as their read-only `toeplitz` view. The LMMSE estimate is then
h_hat = R Psi^{-1} z with error covariance C = R - R Psi^{-1} R.
The sample covariance of simulated observations is not a receiver option:
it is the independent reference the tests check the bound against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _threads
from .airlink import (build_transmit, correlation_sqrt, draw_channels,
                      gaussian_symbols, receive)
from .config import ScenarioConfig
from .netgeom import NetworkRealization, toeplitz
from .pilots import PilotAssignment


class EstimationError(RuntimeError):
    """Numerical failure inside an estimator (singular statistics)."""


# ---------------------------------------------------------------------------
# Observations


def pilot_observation(Y: np.ndarray, seqs: np.ndarray, q: np.ndarray,
                      mode: str, tau_p: int | None = None) -> np.ndarray:
    """De-spread received blocks against pilot sequences.

    Y: (..., M, tau_c) received signals; seqs: (..., K, len) pilots of the
    UEs to estimate; q: (..., K) their pilot energies. The "..." of seqs and
    q broadcast against that of Y, e.g. (B, L) blocks at every BS with
    (L,) cells' pilots. Returns z: (..., K, M).

    rp: z_k = Y[:, :tau_p] conj(phi_k) / (tau_p sqrt(q_k))
    sp: z_k = Y conj(phi_k) / (tau_c sqrt(q_k))
    """
    q = np.asarray(q, dtype=float)
    if np.any(q <= 0):
        raise EstimationError("pilot energy q must be positive to de-spread")
    if mode == "rp":
        if tau_p is None:
            tau_p = seqs.shape[-1]
        Yp = Y[..., :tau_p]
        norm = tau_p * np.sqrt(q)
    elif mode == "sp":
        Yp = Y
        norm = Y.shape[-1] * np.sqrt(q)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    z = np.einsum("...mt,...kt->...km", Yp, np.conj(seqs))
    return z / norm[..., :, None]


def data_aided_observation(Y: np.ndarray, Xhat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project received blocks onto the estimated symbol matrix.

    Y: (..., M, tau_c); Xhat: (..., tau_c, K) estimated transmit matrix of
    the serving cell (pilot part exact, data part from soft symbols).
    Returns (z, ok): z (..., K, M) with z_k = Y conj(u_k),
    u = Xhat (Xhat^H Xhat)^-1, so that Xhat^H u_k = e_k (interference from
    the other in-cell columns is projected out exactly to the extent the
    estimates are exact); ok (...) is False, and z zero, where the Gram
    matrix is singular (a rank-deficient Xhat).
    """
    XhH = np.swapaxes(Xhat.conj(), -1, -2)
    A, ok = _threads.solve(XhH @ Xhat, XhH)           # G^{-1} Xhat^H, G = Xhat^H Xhat
    # conj(u_k) reads A's transpose: U = Xhat G^{-1} = A^H, so conj(U) = A^T.
    return _threads.einsum("...mt,...tk->...km", Y, np.swapaxes(A, -1, -2)), ok


# ---------------------------------------------------------------------------
# Observation covariances (closed form)


def _psi_pilot(realization: NetworkRealization, assignment: PilotAssignment,
               config: ScenarioConfig, mode: str) -> np.ndarray:
    """psi_pilot's (L, K, 2M-1) Toeplitz generators."""
    r = realization.r
    q, p = realization.energies(mode)
    idx = assignment.indices
    psi = np.zeros(q.shape + r.shape[-1:], dtype=complex)
    data = np.zeros_like(psi) if mode == "sp" else None
    # Every UE at once, term by term in the per-UE sums' order: a UE off the
    # pilot adds R * 0.0, a signed zero, which moves no bit of a +0.0-started sum.
    for ll, kk in np.ndindex(q.shape):
        r_j = r[:, None, ll, kk]                           # at every BS, (L, 1, 2M-1)
        psi += r_j * np.where(idx == idx[ll, kk], q[ll, kk] / q, 0.0)[..., None]
        if data is not None:
            data += r_j * (p[ll, kk] / q)[..., None]
    eye = np.eye(1, 2 * config.M - 1, config.M - 1)[0]     # I's generator
    if mode == "rp":
        psi += (config.noise_energy / (q * config.tau_p))[..., None] * eye
    else:
        psi += (data + (config.noise_energy / q)[..., None] * eye) / config.tau_c
    return psi


def psi_pilot(realization: NetworkRealization, assignment: PilotAssignment,
              config: ScenarioConfig, mode: str) -> np.ndarray:
    """Covariance of the de-spread pilot observation, (L, K, M, M), read-only.

    rp: sum over the UEs sharing the pilot of R * q'/q plus white noise of
        level sigma^2/(q tau_p).
    sp: same contamination term plus (1/tau_c) times the full data
        interference sum R * p'/q and noise sigma^2/q.
    """
    return toeplitz(_psi_pilot(realization, assignment, config, mode))


def psi_data_aided_bound(realization: NetworkRealization, assignment: PilotAssignment,
                         config: ScenarioConfig, mode: str,
                         sigma_est: np.ndarray) -> np.ndarray:
    """Closed-form lower bound on the data-aided observation covariance.

    sigma_est: (L, K) mean-square soft-symbol amplitudes sigma_{lk}^2 in
    [0, 1] (0 = no data knowledge, 1 = exact symbols). Returns (L, K, M, M),
    read-only.

    The bound treats the projected observation under Gaussian symbols:
    the better the symbol estimates the smaller every interference term.
    For rp a vanishing own-sigma makes the projection denominators diverge,
    so that UE's covariance is exactly the pilot-only one, from psi_pilot.
    """
    r = realization.r
    q, p = realization.energies(mode)
    sig = np.asarray(sigma_est, dtype=float)
    if np.any((sig < 0) | (sig > 1)):
        raise ValueError("sigma_est entries must lie in [0, 1]")
    L, K, M = config.L, config.K, config.M
    tau_c, tau_p, tau_d = config.tau_c, config.tau_p, config.tau_d
    if mode == "rp" and tau_d <= K and np.any(sig != 0.0):
        raise ValueError("data-aided bound needs tau_d > K in rp mode")
    idx = assignment.indices

    own = r[np.arange(L), np.arange(L)]                    # R[l, l, k], (L, K, 2M-1)
    intra = own * p[..., None] * (1.0 - sig)[..., None]
    data_num = np.zeros_like(own)
    for kk in range(K):                                    # the in-cell co-UEs
        data_num += intra[:, None, kk] * (np.arange(K) != kk)[:, None]
    data_num += realization.intercell(p)[:, None]
    contam = np.zeros_like(own)
    for ll, kk in np.ndindex(L, K):                        # the other UEs on the pilot
        shares = idx == idx[ll, kk]
        shares[ll, kk] = False
        contam += r[:, None, ll, kk] * np.where(shares, q[ll, kk], 0.0)[..., None]

    # float_power is libm's pow, as the per-UE scalar `**` this was first
    # written with; an array's `** 2` squares, a last bit apart at times.
    ps = p * sig
    with np.errstate(divide="ignore", invalid="ignore"):   # rp at sigma = 0
        if mode == "rp":
            d_data = (np.float_power(q, 2) * tau_p ** 2 / (ps * (tau_d - K))
                      + 2.0 * q * tau_p + ps * tau_d)
            d_pilot = (q + 2.0 * tau_d * p * sig / tau_p
                       + np.float_power(ps, 2) * tau_d * (tau_d + 1.0) / (q * tau_p ** 2))
            d_noise = q * tau_p + ps * tau_d
        else:
            mix = q + ps
            d_data = tau_c * mix
            d_pilot = np.float_power(mix, 2) / q + ps * (2.0 * q + ps) / (q * tau_c)
            d_noise = tau_c * mix
        psi = (own * (1.0 + p * (1.0 - sig) / d_data)[..., None]
               + data_num / d_data[..., None]
               + contam / d_pilot[..., None]
               + (config.noise_energy / d_noise)[..., None] * np.eye(1, 2 * M - 1, M - 1)[0])
    if mode == "rp" and np.any(sig == 0.0):
        psi = np.where((sig == 0.0)[..., None],
                       _psi_pilot(realization, assignment, config, mode), psi)
    return toeplitz(psi)


# ---------------------------------------------------------------------------
# Empirical covariance (the reference for the closed-form bound)


def _floor_psd(A: np.ndarray) -> np.ndarray:
    w, U = np.linalg.eigh(A)
    if w[..., 0].min() >= 0:
        return A
    w = np.clip(w, 0.0, None)
    return (U * w[..., None, :]) @ np.swapaxes(U.conj(), -1, -2)


def psi_data_aided_empirical(draws: np.ndarray) -> np.ndarray:
    """Sample covariance of observation draws, floored to PSD.

    draws: (n, ..., M) with n >= max(100, 10*M) (raises otherwise).
    Returns (..., M, M).
    """
    draws = np.asarray(draws)
    n, M = draws.shape[0], draws.shape[-1]
    if n < max(100, 10 * M):
        raise EstimationError(f"need at least {max(100, 10 * M)} draws for M={M}, got {n}")
    psi = np.einsum("n...m,n...p->...mp", draws, draws.conj()) / n
    psi = 0.5 * (psi + np.swapaxes(psi.conj(), -1, -2))
    return _floor_psd(psi)


# ---------------------------------------------------------------------------
# LMMSE


def _solve_psd(Psi: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve Psi X = B for stacks of Hermitian Psi; one failure regularizes them all."""
    X, ok = _threads.solve(Psi, B)
    if ok.all():
        return X
    M = Psi.shape[-1]
    tr = np.einsum("...ii->...", Psi).real
    X, ok = _threads.solve(Psi + (1e-12 * tr / M)[..., None, None] * np.eye(M), B)
    if not ok.all():
        raise EstimationError("observation covariance is singular")
    return X


def lmmse_filter(R: np.ndarray, Psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LMMSE filter W = R Psi^{-1} and error covariance C = R - W R.

    R, Psi: (..., M, M) Hermitian. h_hat = W z achieves MSE tr(C)/M per
    antenna when Psi really is the covariance of z and E{z h^H} = R.
    """
    X = _solve_psd(Psi, R)                            # Psi^{-1} R
    # W = X^H = R Psi^{-1} (both Hermitian), C = R - W R, C = 0.5 (C + C^H):
    # the same bits in place, one matrix at a time, with (M, M) temporaries.
    W = np.swapaxes(np.conjugate(X, out=X), -1, -2)
    C = np.empty(W.shape, dtype=np.result_type(W, R))

    def covariance_one(idx):
        # A drop's R is a strided view; BLAS gets a dense copy of the matrix.
        c = np.matmul(W[idx], np.ascontiguousarray(R[idx]), out=C[idx])
        np.subtract(R[idx], c, out=c)
        c += np.conjugate(c).T
        c *= 0.5

    _threads.per_matrix(covariance_one, C)
    return W, C


# ---------------------------------------------------------------------------
# Feasibility of data-aided improvement (rp mode)


@dataclass(frozen=True)
class FeasibilityResult:
    min_sigma_sq: float       # smallest useful symbol quality at this tau_d
    min_tau_d: float          # smallest useful data length at this sigma_sq
    feasible: bool


def data_aided_feasibility(config: ScenarioConfig, sigma_sq: float,
                           q: float | None = None, p: float | None = None) -> FeasibilityResult:
    """Thresholds for data-aided estimation to beat pilot-only in rp mode.

    The projection only reduces the error covariance when the symbol quality
    and the data length clear
        sigma^2 >= q tau_p / (p sqrt(tau_d (tau_d - K)))
        tau_d   >= q tau_p / (p sigma^2) + K.
    With channel-inversion power control q = p and the energies cancel.
    """
    q = 1.0 if q is None else q
    p = 1.0 if p is None else p
    tau_p, tau_d, K = config.tau_p, config.tau_d, config.K
    if tau_d <= K:
        min_sigma = np.inf
    else:
        min_sigma = q * tau_p / (p * np.sqrt(tau_d * (tau_d - K)))
    min_tau_d = np.inf if sigma_sq <= 0 else q * tau_p / (p * sigma_sq) + K
    feasible = bool(sigma_sq >= min_sigma and tau_d >= min_tau_d)
    return FeasibilityResult(min_sigma_sq=float(min_sigma),
                             min_tau_d=float(min_tau_d), feasible=feasible)


# ---------------------------------------------------------------------------
# Monte Carlo generator for data-aided observations (the bound's reference)

_DRAW_CHUNK = 128             # blocks drawn per batch; fixes the order of the draws


def simulate_data_aided_observations(realization: NetworkRealization,
                                     assignment: PilotAssignment,
                                     config: ScenarioConfig, mode: str,
                                     sigma_est: np.ndarray,
                                     rng: np.random.Generator, n_draws: int,
                                     R_sqrt: np.ndarray | None = None,
                                     return_channels: bool = False):
    """Draw data-aided observations under the Gaussian-symbol surrogate.

    Every draw is an independent coherence block: true symbols are
    s = s_hat + e with s_hat ~ CN(0, sigma^2) and e ~ CN(0, 1 - sigma^2)
    per UE, the serving cell projects its received block onto the symbol
    matrix built from its own s_hat, and the resulting z vectors are
    returned with shape (n_draws, L, K, M).  With ``return_channels`` the
    serving-cell channels behind each draw come back as a second array of
    the same shape, so realized estimation errors can be measured directly.
    """
    sig = np.asarray(sigma_est, dtype=float)
    if sig.shape != (config.L, config.K):
        raise ValueError("sigma_est must have shape (L, K)")
    if R_sqrt is None:
        R_sqrt = correlation_sqrt(realization.R)
    n_data = config.data_slots(mode)
    serving = np.arange(config.L)

    out = np.empty((n_draws, config.L, config.K, config.M), dtype=complex)
    chans = (np.empty_like(out) if return_channels else None)
    done = 0
    while done < n_draws:
        c = min(_DRAW_CHUNK, n_draws - done)
        H = draw_channels(R_sqrt, rng, n_blocks=c)         # (c, L, L, K, M)
        s_hat, s = gaussian_symbols(rng, sig, (c, config.L, config.K, n_data))
        X = build_transmit(mode, assignment, s, realization, config)
        Y = receive(H, X, config.noise_energy, rng)        # (c, L, M, tau_c)
        Xh = np.swapaxes(build_transmit(mode, assignment, s_hat, realization, config), -1, -2)
        out[done:done + c], ok = data_aided_observation(Y, Xh)
        if not ok.all():
            raise EstimationError("estimated symbol matrix is rank deficient")
        if chans is not None:
            chans[done:done + c] = H[:, serving, serving]
        done += c
    if chans is not None:
        return out, chans
    return out
