"""Gray-mapped QPSK: mapping, LLR demapping, and soft symbol estimates.

Bit convention: consecutive bit pairs (b_I, b_Q) map to
s = ((1 - 2 b_I) + 1j (1 - 2 b_Q)) / sqrt(2), so bit 0 gives the positive
half-axis and the two bits are independent Gray labels of I and Q.
LLRs are positive for bit 0: LLR = log P(b=0|y) - log P(b=1|y).
"""

from __future__ import annotations

import numpy as np

LLR_CAP = 40.0                # |LLR| clamp; e^40 is far beyond any useful confidence

_SQRT2 = np.sqrt(2.0)

# Symbol table indexed by j = 2*b_I + b_Q.
_BITS = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
QPSK_SYMBOLS = ((1.0 - 2.0 * _BITS[:, 0]) + 1j * (1.0 - 2.0 * _BITS[:, 1])) / _SQRT2


def qpsk_map(bits: np.ndarray) -> np.ndarray:
    """bits (..., 2*n) -> unit-energy symbols (..., n)."""
    bits = np.asarray(bits)
    if bits.shape[-1] % 2:
        raise ValueError("bit count must be even for QPSK")
    b_i = bits[..., 0::2].astype(float)
    b_q = bits[..., 1::2].astype(float)
    return ((1.0 - 2.0 * b_i) + 1j * (1.0 - 2.0 * b_q)) / _SQRT2


def qpsk_demap_llr(y_hat: np.ndarray, g: np.ndarray, n_var) -> np.ndarray:
    """Per-bit LLRs of combined observations y_hat = g*s + noise.

    y_hat: (..., n) observations; g: effective complex gain (broadcastable);
    n_var: effective noise variance (broadcastable, > 0). Returns
    (..., 2*n) LLRs interleaved (I, Q, I, Q, ...), clamped to +-LLR_CAP.

    For Gray QPSK the four-hypothesis likelihood ratio collapses to
    LLR_I = 4 Re{conj(g) y} / (sqrt(2) n_var) and the Im{} twin.
    """
    n_var = np.asarray(n_var, dtype=float)
    if not np.all(n_var > 0):                 # NaN fails too
        raise ValueError("n_var must be positive")
    z = np.conj(g) * y_hat * (4.0 / (_SQRT2 * n_var))
    llr = np.empty(y_hat.shape[:-1] + (2 * y_hat.shape[-1],))
    llr[..., 0::2] = z.real
    llr[..., 1::2] = z.imag
    return np.clip(llr, -LLR_CAP, LLR_CAP)


def demap_llr_exact(y_hat: np.ndarray, g: np.ndarray, n_var) -> np.ndarray:
    """Brute-force four-hypothesis LLRs (reference implementation).

    Same contract as qpsk_demap_llr but computed directly from the Gaussian
    likelihoods exp(-|y - g s_j|^2 / n_var) with uniform priors, no clamping
    shortcuts (the final clamp is still applied for comparability).
    """
    n_var = np.asarray(n_var, dtype=float)
    if not np.all(n_var > 0):                 # NaN fails too
        raise ValueError("n_var must be positive")
    y = np.asarray(y_hat)[..., None]
    gs = (np.asarray(g)[..., None] if np.ndim(g) else g) * QPSK_SYMBOLS
    metric = -np.abs(y - gs) ** 2 / np.asarray(n_var)[..., None]
    def llr_of(bit_axis):
        m0 = metric[..., _BITS[:, bit_axis] == 0]
        m1 = metric[..., _BITS[:, bit_axis] == 1]
        a0 = m0.max(axis=-1)
        a1 = m1.max(axis=-1)
        l0 = a0 + np.log(np.exp(m0 - a0[..., None]).sum(axis=-1))
        l1 = a1 + np.log(np.exp(m1 - a1[..., None]).sum(axis=-1))
        return l0 - l1
    llr = np.empty(y_hat.shape[:-1] + (2 * y_hat.shape[-1],))
    llr[..., 0::2] = llr_of(0)
    llr[..., 1::2] = llr_of(1)
    return np.clip(llr, -LLR_CAP, LLR_CAP)


def soft_symbols(llr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior-mean symbols and their mean-square amplitude.

    llr: (..., 2*n) posterior LLRs (interleaved I, Q). Returns
    (s_hat (..., n), sigma_sq (...,)) where s_hat is the expected symbol
    under the per-bit posteriors and sigma_sq = mean |s_hat|^2 in [0, 1].
    """
    llr = np.clip(np.asarray(llr, dtype=float), -LLR_CAP, LLR_CAP)
    p0 = 1.0 / (1.0 + np.exp(-llr))              # P(bit = 0)
    pb = np.stack([p0, 1.0 - p0], axis=-1)       # (..., 2n, 2)
    n = llr.shape[-1] // 2
    p_i = pb[..., 0::2, :]                       # (..., n, 2)
    p_q = pb[..., 1::2, :]
    # Expected symbol: sum over the 4 constellation points of s_j * P(b_I) * P(b_Q).
    s_hat = np.zeros(llr.shape[:-1] + (n,), dtype=complex)
    for j, (bi, bq) in enumerate(_BITS):
        s_hat = s_hat + QPSK_SYMBOLS[j] * p_i[..., int(bi)] * p_q[..., int(bq)]
    sigma_sq = np.mean(np.abs(s_hat) ** 2, axis=-1)
    return s_hat, np.clip(sigma_sq, 0.0, 1.0)


def hard_decisions(llr: np.ndarray) -> np.ndarray:
    """Hard bits from LLRs (negative LLR -> bit 1)."""
    return (np.asarray(llr) < 0).astype(np.uint8)
