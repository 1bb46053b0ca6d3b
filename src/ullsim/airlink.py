"""Over-the-air model: channel draws, transmit blocks, received signal.

Channels are block-fading: every coherence block gets an independent draw
h ~ CN(0, R) per BS-UE pair. Transmitted blocks are either a pilot head
followed by data (regular pilots) or a pilot sequence superimposed on data
at reduced power (superimposed pilots).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig
from .netgeom import NetworkRealization
from .pilots import PilotAssignment


def crandn(rng: np.random.Generator, shape) -> np.ndarray:
    """i.i.d. CN(0, 1) samples: (randn + 1j*randn)/sqrt(2)."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def gaussian_symbols(rng: np.random.Generator, sigma_sq: np.ndarray,
                     shape) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian-symbol surrogate of soft symbols with quality sigma^2.

    sigma_sq: (L, K), broadcast over shape (..., L, K, n_data). Returns
    (s_hat, s) with s_hat ~ CN(0, sigma^2) the receiver's estimate and
    s = s_hat + e, e ~ CN(0, 1 - sigma^2), the transmitted unit-energy symbols.
    """
    sig = np.asarray(sigma_sq, dtype=float)[..., None]
    s_hat = np.sqrt(sig) * crandn(rng, shape)
    s = s_hat + np.sqrt(np.clip(1.0 - sig, 0.0, None)) * crandn(rng, shape)
    return s_hat, s


def correlation_sqrt(R: np.ndarray) -> np.ndarray:
    """Hermitian square roots of a stack of PSD matrices.

    R: (..., M, M). Eigendecomposition with negative eigenvalues clipped to
    zero, so slightly indefinite inputs (rounding) are handled gracefully.
    """
    w, U = np.linalg.eigh(R)
    w = np.clip(w, 0.0, None)
    return (U * np.sqrt(w)[..., None, :]) @ np.swapaxes(U.conj(), -1, -2)


def draw_channels(R_sqrt: np.ndarray, rng: np.random.Generator,
                  n_blocks: int | None = None) -> np.ndarray:
    """Channel realizations h = R^(1/2) w, w ~ CN(0, I).

    R_sqrt: (L, L, K, M, M) factors from correlation_sqrt.
    Returns (L, L, K, M), or (n_blocks, L, L, K, M) when n_blocks is given.
    """
    shape = R_sqrt.shape[:-1]                       # (L, L, K, M)
    if n_blocks is not None:
        shape = (n_blocks,) + shape
    w = crandn(rng, shape)
    return np.einsum("...mn,...n->...m", R_sqrt, w)


@dataclass
class BlockSignals:
    """Signals of one batch of coherence blocks (leading axis = block)."""

    mode: str
    H: np.ndarray             # (B, L, L, K, M) channels (BS, cell, UE)
    X: np.ndarray             # (B, L, K, tau_c) transmitted sequences
    Y: np.ndarray             # (B, L, M, tau_c) received signals

    @property
    def n_blocks(self) -> int:
        return self.H.shape[0]


def build_transmit(mode: str, assignment: PilotAssignment, data: np.ndarray,
                   realization: NetworkRealization, config: ScenarioConfig) -> np.ndarray:
    """Per-UE transmitted sequences for a batch of blocks.

    data: (..., L, K, config.data_slots(mode)) unit-energy symbols (the rp
    data tail, or the whole sp block). Returns (..., L, K, tau_c) with
    rp: x = [sqrt(q)*phi, sqrt(p)*s], sp: x = sqrt(q)*phi + sqrt(p)*s.
    The receiver builds its estimated transmit matrix here too, from soft
    symbols.
    """
    q, p = realization.energies(mode)
    data = np.asarray(data)
    n_data = config.data_slots(mode)
    if data.shape[-1] != n_data:
        raise ValueError(f"{mode} data must have {n_data} symbols per block")
    pilots = np.sqrt(q)[..., None] * assignment.seqs       # (L, K, len)
    if mode == "rp":
        head = np.broadcast_to(pilots, data.shape[:-1] + pilots.shape[-1:])
        return np.concatenate([head, np.sqrt(p)[..., None] * data], axis=-1)
    return pilots + np.sqrt(p)[..., None] * data


def receive(H: np.ndarray, X: np.ndarray, noise_energy: float,
            rng: np.random.Generator) -> np.ndarray:
    """Received blocks Y_l = sum_{cells, UEs} h x^T + N at every BS.

    H: (..., L, L, K, M), X: (..., L, K, tau_c) -> Y: (..., L, M, tau_c).
    """
    Y = np.einsum("...abkm,...bkt->...amt", H, X)
    return Y + np.sqrt(noise_energy) * crandn(rng, Y.shape)


def simulate_blocks(mode: str, assignment: PilotAssignment, data: np.ndarray,
                    realization: NetworkRealization, config: ScenarioConfig,
                    rng: np.random.Generator,
                    R_sqrt: np.ndarray | None = None) -> BlockSignals:
    """Draw channels, build transmit blocks, and produce received signals.

    data: (n_blocks, L, K, n_data). The same data layout is used by the
    Gaussian-symbol studies (CN(0,1) symbols) and the coded pipeline
    (framed QPSK symbols).
    """
    if R_sqrt is None:
        R_sqrt = correlation_sqrt(realization.R)
    H = draw_channels(R_sqrt, rng, n_blocks=data.shape[0])
    X = build_transmit(mode, assignment, data, realization, config)
    Y = receive(H, X, config.noise_energy, rng)
    return BlockSignals(mode=mode, H=H, X=X, Y=Y)
