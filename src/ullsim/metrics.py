"""Performance metrics: spectral efficiencies, channel MSE, effective SNR."""

from __future__ import annotations

import numpy as np

SINR_CAP = 1e9                # noiseless observations saturate here


def se_uatf_moments(gain, denom_var, prelog: float):
    """Hardening-style achievable SE from known moments.

    gain = E{y_hat s*}, denom_var = Var{y_hat - gain*s}, scalars or arrays
    of one shape (the result has that shape). The observation is treated as
    a deterministic channel `gain` plus uncorrelated noise, which
    lower-bounds the true mutual information. The SINR saturates at
    SINR_CAP, also for a nonzero gain over zero variance.
    """
    g2 = np.abs(gain) ** 2
    denom = np.asarray(denom_var, dtype=float)
    if np.any((denom <= 0) & (g2 == 0)):
        raise ValueError("degenerate observation: zero gain and zero variance")
    with np.errstate(divide="ignore", invalid="ignore"):
        sinr = np.where(denom <= 0, SINR_CAP, g2 / denom)
    se = prelog * np.log2(1.0 + np.minimum(sinr, SINR_CAP))
    return float(se) if se.ndim == 0 else se


def se_uatf_samples(y_hat: np.ndarray, s: np.ndarray, prelog: float,
                    min_samples: int = 1000) -> float:
    """Empirical hardening SE from paired observation/symbol samples.

    y_hat, s: flat sample arrays over symbols (and trials). The effective
    gain is estimated as mean(y_hat s*) for unit-energy symbols; everything
    not explained by it counts as noise.
    """
    y_hat = np.asarray(y_hat).ravel()
    s = np.asarray(s).ravel()
    if y_hat.size != s.size:
        raise ValueError("y_hat and s must have the same number of samples")
    if y_hat.size < min_samples:
        raise ValueError(f"need at least {min_samples} samples, got {y_hat.size}")
    es2 = np.mean(np.abs(s) ** 2)
    gain = np.mean(y_hat * np.conj(s)) / es2
    resid = y_hat - gain * s
    denom = np.mean(np.abs(resid) ** 2) - np.abs(np.mean(resid)) ** 2
    return se_uatf_moments(gain, denom, prelog)


def se_mutual_info(bit_posteriors: np.ndarray, prelog: float, n_bits_per_symbol: int,
                   code_rate: float):
    """Decoder-aware SE from per-bit posterior probabilities.

    bit_posteriors: (..., n) probabilities of one hypothesis per coded bit
    (either convention; the entropy is symmetric), one codeword per row.
    Each bit contributes 1 - H2(posterior) recovered information; scaling
    by the modulation order and code rate converts to information symbols
    per data sample. Returns a float for 1-D input, else (...).
    """
    p = np.clip(np.asarray(bit_posteriors, dtype=float), 0.0, 1.0)
    ent = binary_entropy(p)
    se = prelog * n_bits_per_symbol * code_rate * np.mean(1.0 - ent, axis=-1)
    return float(se) if se.ndim == 0 else se


def binary_entropy(p: np.ndarray) -> np.ndarray:
    """H2(p) in bits, with 0*log(0) = 0."""
    p = np.asarray(p, dtype=float)
    out = np.zeros_like(p)
    inside = (p > 0) & (p < 1)
    q = p[inside]
    out[inside] = -q * np.log2(q) - (1 - q) * np.log2(1 - q)
    return out


def mse_channel_analytic(C: np.ndarray) -> np.ndarray:
    """Per-antenna MSE tr(C)/M from error covariances C: (..., M, M)."""
    M = C.shape[-1]
    return np.einsum("...ii->...", C).real / M


def mse_channel_empirical(h: np.ndarray, h_hat: np.ndarray):
    """Mean ||h - h_hat||^2 / M over the block (first) and antenna (last) axes.

    h, h_hat: (M,) or (B, ..., M). Returns a float, or an array of the
    axes in between (e.g. (L, K) for (B, L, K, M) inputs).
    """
    err = np.asarray(h) - np.asarray(h_hat)
    mse = np.mean(np.abs(err) ** 2, axis=(0, err.ndim - 1) if err.ndim > 1 else None)
    return float(mse) if mse.ndim == 0 else mse


def effective_snr_db(g: np.ndarray, n_var: np.ndarray):
    """10 log10 of mean effective-signal power over mean effective noise.

    g, n_var: (B, ...) per-block gains and noise variances, averaged over
    the block (first) axis. Returns a float for 1-D inputs, else (...).
    """
    num = np.mean(np.abs(np.asarray(g)) ** 2, axis=0)
    den = np.mean(np.asarray(n_var), axis=0)
    if np.any(den <= 0):
        raise ValueError("nonpositive noise variance")
    snr = 10.0 * np.log10(num / den)
    return float(snr) if snr.ndim == 0 else snr
