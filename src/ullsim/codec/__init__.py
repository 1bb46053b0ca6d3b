"""Channel coding and modulation: QC-LDPC codes, QPSK mapping, framing."""

from dataclasses import dataclass

import numpy as np

from .ldpc import PRESET_RATES, CodeSpec, decode, encode, make_code, syndrome_ok
from .modem import (demap_llr_exact, hard_decisions, qpsk_demap_llr, qpsk_map,
                    soft_symbols, LLR_CAP, QPSK_SYMBOLS)
from .framing import CodewordFrame, frame_codeword


@dataclass
class SoftDataState:
    """Per-iteration decoder state for a batch of codewords.

    The receiver sets llr_post and s_hat to None in every state but its
    newest, once the next iteration has read them.
    """

    llr_post: np.ndarray | None   # (..., n) posterior LLRs out of the decoder
    s_hat: np.ndarray | None      # (..., n_sym) soft symbol estimates
    sigma_sq: np.ndarray          # (...,) mean squared soft-symbol amplitude
    decoded_ok: np.ndarray        # (...,) parity-check success flags
    hard_bits: np.ndarray         # (..., n) hard decisions


__all__ = [
    "CodeSpec", "CodewordFrame", "SoftDataState", "LLR_CAP", "PRESET_RATES",
    "QPSK_SYMBOLS", "decode", "demap_llr_exact", "encode",
    "frame_codeword", "hard_decisions", "make_code", "qpsk_demap_llr",
    "qpsk_map", "soft_symbols", "syndrome_ok",
]
