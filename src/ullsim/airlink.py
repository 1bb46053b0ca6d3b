"""Over-the-air model: channel draws, transmit blocks, received signal.

Channels are block-fading: every coherence block gets an independent draw
h ~ CN(0, R) per BS-UE pair. Transmitted blocks are either a pilot head
followed by data (regular pilots) or a pilot sequence superimposed on data
at reduced power (superimposed pilots).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _threads
from .config import ScenarioConfig
from .netgeom import NetworkRealization
from .pilots import PilotAssignment


_NOISE_SLAB = 1 << 16         # normals drawn per batch: a draw's scratch is 512 KiB
_RSQRT2 = 1.0 / np.sqrt(2.0)  # complex division by sqrt(2) multiplies by this


def _add_crandn(rng: np.random.Generator, out: np.ndarray, scale: float = 1.0) -> None:
    """out += scale * CN(0, 1) samples, drawn in slabs into one small scratch.

    out: C-contiguous complex. Every real part is drawn, in C order, before
    every imaginary part, so the draws and bits are those of the whole
    out + scale * (randn(shape) + 1j*randn(shape))/sqrt(2) at once: the
    Generator draws its normals one at a time, and complex division by a
    real number multiplies each part by fl(1/sqrt(2)).
    """
    if not out.flags.c_contiguous:       # reshape would copy, and drop the sum
        raise ValueError("out must be C-contiguous")
    flat = out.reshape(-1)
    buf = np.empty(min(_NOISE_SLAB, flat.size))
    for part in (flat.real, flat.imag):
        for start in range(0, flat.size, _NOISE_SLAB):
            z = buf[:min(_NOISE_SLAB, flat.size - start)]
            rng.standard_normal(out=z)
            z *= _RSQRT2
            z *= scale
            part[start:start + z.size] += z


def crandn(rng: np.random.Generator, shape) -> np.ndarray:
    """i.i.d. CN(0, 1) samples: (randn + 1j*randn)/sqrt(2), real parts drawn first."""
    out = np.zeros(shape, dtype=complex)
    _add_crandn(rng, out)
    return out


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


def _psd_sqrt(R: np.ndarray) -> np.ndarray:
    """Hermitian square root of one PSD matrix R, (M, M).

    Eigendecomposition with negative eigenvalues clipped to zero, so
    slightly indefinite inputs (rounding) are handled gracefully. The
    per-matrix calls of the stacked expression, same bits.
    """
    w, U = np.linalg.eigh(R)
    U_h = np.conjugate(U).T       # the ufunc copies: U.conj() would alias a real U
    U *= np.sqrt(np.clip(w, 0.0, None))
    return U @ U_h


def correlation_sqrt(R: np.ndarray) -> np.ndarray:
    """Hermitian square roots of a stack of PSD matrices, (..., M, M).

    One matrix at a time, the stack split over the trial's threads: the
    temporaries are (M, M), not stacks.
    """
    out = np.empty(R.shape, dtype=np.result_type(R.dtype, float))

    def sqrt_one(idx):
        out[idx] = _psd_sqrt(R[idx])

    _threads.per_matrix(sqrt_one, R)
    return out


def draw_channels(R_sqrt: np.ndarray, rng: np.random.Generator,
                  n_blocks: int) -> np.ndarray:
    """Channel realizations h = R^(1/2) w, w ~ CN(0, I), one per block.

    R_sqrt: (L, L, K, M, M) factors from correlation_sqrt.
    Returns (n_blocks, L, L, K, M), in one einsum: the stacked reference
    of a trial's draw_link_by_link.
    """
    w = crandn(rng, (n_blocks,) + R_sqrt.shape[:-1])
    return np.einsum("...mn,...n->...m", R_sqrt, w)


def draw_link_by_link(R: np.ndarray, rngs: list[np.random.Generator],
                      n_blocks: int) -> list[np.ndarray]:
    """draw_channels(correlation_sqrt(R), rng, n_blocks) for each rng in rngs.

    Each stream draws its w whole, the stream of draw_channels. Then each
    link's R^(1/2) is made once, applied in place to that link of every
    stream's w and dropped, the links split over the trial's threads: a
    thread holds a few (M, M) arrays, not the L*L*K*M^2 stack. Each link's
    einsum gives the bits of the stacked one. A coded trial passes one
    stream; a Gaussian-symbol study pair passes one per variant, so its
    variants share each factor without a stack.
    """
    Hs = [crandn(rng, (n_blocks,) + R.shape[:-1]) for rng in rngs]

    def draw_one(idx):
        R_sqrt = _psd_sqrt(R[idx])
        link = (slice(None),) + idx
        for H in Hs:
            H[link] = np.einsum("mn,...n->...m", R_sqrt, H[link])

    _threads.per_matrix(draw_one, R, *Hs)
    return Hs


@dataclass
class BlockSignals:
    """Signals of one batch of coherence blocks (leading axis = block)."""

    H: np.ndarray | None      # (B, L, L, K, M) channels (BS, cell, UE); None once released
    Y: np.ndarray             # (B, L, M, tau_c) received signals

    @property
    def n_blocks(self) -> int:
        return self.Y.shape[0]


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

    H: ([B,] L, L, K, M), X: ([B,] L, K, tau_c) -> Y: ([B,] L, M, tau_c).
    H's block axis B, if it has one, is split over the trial's threads,
    each chunk the stacked einsum on its blocks of H and X. The noise is
    N = sqrt(noise_energy) * crandn(rng, Y.shape), the same draws and bits,
    added into Y one slab at a time: receive holds Y and one slab.
    """
    subscripts = "...abkm,...bkt->...amt"
    if H.ndim == 4:
        Y = np.einsum(subscripts, H, X)
    else:
        Y = np.empty((len(H), H.shape[1], H.shape[-1], X.shape[-1]), dtype=np.result_type(H, X))
        _threads.split(lambda s: np.einsum(subscripts, H[s], X[s], out=Y[s]), len(H),
                       work=H.size * X.shape[-1])
    _add_crandn(rng, Y, np.sqrt(noise_energy))
    return Y


def simulate_blocks(mode: str, assignment: PilotAssignment, data: np.ndarray,
                    realization: NetworkRealization, config: ScenarioConfig,
                    rng: np.random.Generator,
                    R_sqrt: np.ndarray | None = None) -> BlockSignals:
    """Draw channels, build transmit blocks, and produce received signals.

    data: (n_blocks, L, K, n_data). The same data layout is used by the
    Gaussian-symbol studies (CN(0,1) symbols) and the coded pipeline
    (framed QPSK symbols). Without R_sqrt the channels are drawn link by
    link, each R^(1/2) made and dropped in turn (draw_link_by_link on this
    one stream), with the draws and bits of draw_channels on the whole
    stack; a caller's R_sqrt, (L, L, K, M, M), stays with the caller.
    """
    if R_sqrt is None:
        H, = draw_link_by_link(realization.R, [rng], n_blocks=data.shape[0])
    else:
        H = draw_channels(R_sqrt, rng, n_blocks=data.shape[0])
    X = build_transmit(mode, assignment, data, realization, config)
    Y = receive(H, X, config.noise_energy, rng)
    return BlockSignals(H=H, Y=Y)
