"""Mapping codeword symbols onto coherence-block data slots.

A codeword of n_sym symbols spans ceil(n_sym / slots_per_block) blocks;
the unused tail slots of the last block are padded with zero symbols
(nothing is transmitted there) and excluded from demapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np


@dataclass(frozen=True)
class CodewordFrame:
    n_sym: int                # symbols per codeword
    slots_per_block: int      # tau_d (rp) or tau_c (sp)
    n_blocks: int
    n_pad: int


def make_frame(n_sym: int, slots_per_block: int) -> CodewordFrame:
    if n_sym < 1 or slots_per_block < 1:
        raise ValueError("n_sym and slots_per_block must be positive")
    n_blocks = ceil(n_sym / slots_per_block)
    return CodewordFrame(n_sym=n_sym, slots_per_block=slots_per_block,
                         n_blocks=n_blocks,
                         n_pad=n_blocks * slots_per_block - n_sym)


def frame_codeword(symbols: np.ndarray, frame: CodewordFrame) -> np.ndarray:
    """symbols (..., n_sym) -> (..., n_blocks, slots_per_block), zero-padded."""
    symbols = np.asarray(symbols)
    if symbols.shape[-1] != frame.n_sym:
        raise ValueError(f"expected {frame.n_sym} symbols, got {symbols.shape[-1]}")
    pad = [(0, 0)] * (symbols.ndim - 1) + [(0, frame.n_pad)]
    padded = np.pad(symbols, pad)
    return padded.reshape(symbols.shape[:-1] + (frame.n_blocks, frame.slots_per_block))

