"""Channel coding and modulation: QC-LDPC codes, QPSK mapping, framing."""

from .ldpc import PRESET_RATES, CodeSpec, decode, encode, make_code, syndrome_ok
from .modem import (demap_llr_exact, hard_decisions, qpsk_demap_llr, qpsk_map,
                    soft_symbols, LLR_CAP, QPSK_SYMBOLS)
from .framing import CodewordFrame, frame_codeword

__all__ = [
    "CodeSpec", "CodewordFrame", "LLR_CAP", "PRESET_RATES",
    "QPSK_SYMBOLS", "decode", "demap_llr_exact", "encode",
    "frame_codeword", "hard_decisions", "make_code", "qpsk_demap_llr",
    "qpsk_map", "soft_symbols", "syndrome_ok",
]
