"""Coding chain tests: LDPC encode/decode, QPSK demapping, framing."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ullsim import _threads
from ullsim.codec import (LLR_CAP, decode, demap_llr_exact, encode,
                          frame_codeword, ldpc,
                          hard_decisions, make_code, qpsk_demap_llr, qpsk_map,
                          soft_symbols, syndrome_ok)
from ullsim.codec.framing import make_frame


@pytest.fixture(scope="module")
def code_half():
    return make_code("1/2")


@pytest.fixture(scope="module")
def code_three_quarter():
    return make_code("3/4")


# ---------------------------------------------------------------------------
# Encoder


def test_preset_dimensions(code_half, code_three_quarter):
    assert (code_half.n, code_half.k) == (3840, 1920)
    assert (code_three_quarter.n, code_three_quarter.k) == (3888, 2916)
    assert np.isclose(code_half.rate, 0.5)
    assert np.isclose(code_three_quarter.rate, 0.75)


def test_zero_info_gives_zero_codeword(code_half):
    cw = encode(np.zeros(code_half.k, dtype=np.uint8), code_half)
    assert cw.shape == (code_half.n,)
    assert not cw.any()


def test_encoder_output_is_in_the_code(code_half, code_three_quarter):
    rng = np.random.default_rng(0)
    for spec in (code_half, code_three_quarter):
        info = rng.integers(0, 2, size=(8, spec.k), dtype=np.uint8)
        cw = encode(info, spec)
        assert cw.dtype == np.uint8
        assert np.all(syndrome_ok(cw, spec))
        # systematic: info bits appear untouched
        assert np.array_equal(cw[:, :spec.k], info)


def test_encoder_is_linear(code_half):
    rng = np.random.default_rng(1)
    a = rng.integers(0, 2, size=code_half.k, dtype=np.uint8)
    b = rng.integers(0, 2, size=code_half.k, dtype=np.uint8)
    assert np.array_equal(encode(a ^ b, code_half),
                          encode(a, code_half) ^ encode(b, code_half))


def test_encoder_rejects_wrong_length(code_half):
    with pytest.raises(ValueError):
        encode(np.zeros(code_half.k + 1, dtype=np.uint8), code_half)


def test_syndrome_flags_bit_flips(code_half):
    rng = np.random.default_rng(2)
    cw = encode(rng.integers(0, 2, size=code_half.k, dtype=np.uint8), code_half)
    bad = cw.copy()
    bad[100] ^= 1
    assert syndrome_ok(cw, code_half)
    assert not syndrome_ok(bad, code_half)


# ---------------------------------------------------------------------------
# Modem


def test_qpsk_gray_map_table():
    bits = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
    s = qpsk_map(bits)
    r = 1 / np.sqrt(2)
    assert np.allclose(s[:, 0], [r + 1j * r, r - 1j * r, -r + 1j * r, -r - 1j * r])
    assert np.allclose(np.abs(s), 1.0)


def test_qpsk_map_round_trip():
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, size=500, dtype=np.uint8)
    s = qpsk_map(bits)
    rec = hard_decisions(qpsk_demap_llr(s, 1.0 + 0j, 1e-3))
    assert np.array_equal(rec, bits)


def test_llr_noiseless_limit_hits_cap():
    s = qpsk_map(np.array([0, 0, 1, 1]))
    llr = qpsk_demap_llr(s, 1.0 + 0j, 1e-12)
    assert np.array_equal(llr, [LLR_CAP, LLR_CAP, -LLR_CAP, -LLR_CAP])


def test_llr_zero_observation_is_agnostic():
    llr = qpsk_demap_llr(np.zeros(4, dtype=complex), 0.7 + 0.1j, 0.5)
    assert np.array_equal(llr, np.zeros(8))


def test_llr_fast_matches_exact():
    rng = np.random.default_rng(4)
    y = rng.normal(size=256) + 1j * rng.normal(size=256)
    g = 0.8 - 0.3j
    for n_var in (0.1, 1.0, 7.5):
        fast = qpsk_demap_llr(y, g, n_var)
        exact = demap_llr_exact(y, g, n_var)
        assert np.allclose(fast, exact, atol=1e-10)


def test_llr_rejects_nonpositive_variance():
    with pytest.raises(ValueError):
        qpsk_demap_llr(np.zeros(2, dtype=complex), 1.0, 0.0)


@pytest.mark.parametrize("demap", [qpsk_demap_llr, demap_llr_exact])
def test_llr_rejects_nan_variance(demap):
    with pytest.raises(ValueError):
        demap(np.zeros(2, dtype=complex), 1.0, np.array([0.5, np.nan]))


def test_soft_symbols_limits():
    # certain bits: exact symbols, sigma_sq = 1
    bits = np.array([0, 1, 1, 0, 0, 0, 1, 1])
    llr = (1.0 - 2.0 * bits) * 1e3
    s_hat, sig = soft_symbols(llr)
    assert np.allclose(s_hat, qpsk_map(bits), atol=1e-12)
    assert np.isclose(sig, 1.0)
    # know-nothing bits: zero symbols, sigma_sq = 0
    s_hat, sig = soft_symbols(np.zeros(8))
    assert np.allclose(s_hat, 0.0)
    assert sig == 0.0


def test_soft_symbols_partial_confidence():
    # LLR = ln 3 on every bit: P(0) = 3/4, E{1 - 2b} = 1/2 per axis
    llr = np.full(2, np.log(3.0))
    s_hat, sig = soft_symbols(llr)
    assert np.allclose(s_hat, (0.5 + 0.5j) / np.sqrt(2), atol=1e-12)
    assert np.isclose(sig, 0.25, atol=1e-12)


def test_hard_decisions_sign_convention():
    assert np.array_equal(hard_decisions(np.array([3.0, -0.1, 0.0, -40.0])),
                          [0, 1, 0, 1])


# ---------------------------------------------------------------------------
# Decoder


def test_decode_noiseless(code_half):
    rng = np.random.default_rng(5)
    info = rng.integers(0, 2, size=(4, code_half.k), dtype=np.uint8)
    cw = encode(info, code_half)
    llr = (1.0 - 2.0 * cw) * 20.0
    llr_post, hard, ok = decode(llr, code_half)
    assert np.all(ok)
    assert np.array_equal(hard, cw)
    assert np.array_equal(llr_post, llr)          # valid input returned as is


def test_decode_corrects_awgn_errors(code_half):
    rng = np.random.default_rng(6)
    info = rng.integers(0, 2, size=code_half.k, dtype=np.uint8)
    cw = encode(info, code_half)
    s = qpsk_map(cw)
    sigma2 = 10 ** (-0.4)                          # Es/N0 = 4 dB: past the cliff
    y = s + np.sqrt(sigma2) * (rng.normal(size=s.size) +
                               1j * rng.normal(size=s.size)) / np.sqrt(2)
    llr = qpsk_demap_llr(y, 1.0 + 0j, sigma2)
    assert not syndrome_ok(hard_decisions(llr), code_half)  # raw slicing fails
    _, hard, ok = decode(llr, code_half)
    assert ok
    assert np.array_equal(hard, cw)


def test_decode_all_zero_llr_does_not_converge(code_half):
    _, _, ok = decode(np.zeros(code_half.n), code_half, max_iters=5)
    # all-zero LLRs slice to the all-zero word, which is a valid codeword:
    # the decoder must report success without moving anything
    assert ok
    llr_post, hard, ok2 = decode(np.full(code_half.n, -1e-9), code_half, max_iters=2)
    # near-zero negative LLRs slice to all-ones, which is not in the code
    assert not ok2


def test_decode_rejects_wrong_length(code_half):
    # Two codewords flattened into one vector must not decode as one.
    n = code_half.n
    for llr in (np.ones(2 * n), np.ones((3, n + 1)), np.ones((2, n - 1))):
        with pytest.raises(ValueError, match="LLRs per codeword"):
            decode(llr, code_half)


def test_decode_shapes_and_batching(code_half):
    rng = np.random.default_rng(7)
    info = rng.integers(0, 2, size=(2, 3, code_half.k), dtype=np.uint8)
    llr = (1.0 - 2.0 * encode(info, code_half)) * 9.0
    llr_post, hard, ok = decode(llr, code_half)
    assert llr_post.shape == llr.shape
    assert hard.shape == llr.shape
    assert ok.shape == (2, 3)
    assert np.all(ok)


def _awgn_llr(spec, snr_db, seed):
    """Seeded BPSK AWGN LLRs of random codewords, one Es/N0 (dB) per codeword."""
    rng = np.random.default_rng(seed)
    snr_db = np.asarray(snr_db, dtype=float)
    cw = encode(rng.integers(0, 2, size=snr_db.shape + (spec.k,), dtype=np.uint8), spec)
    sigma2 = 10.0 ** (-snr_db / 10.0)[..., None]
    y = (1.0 - 2.0 * cw) + np.sqrt(sigma2) * rng.normal(size=cw.shape)
    return 2.0 * y / sigma2


def _snr_grid(lo, hi):
    """38 codewords across the waterfall; every 9th is clean enough to be valid on input."""
    snr = np.linspace(lo, hi, 38)
    snr[::9] = 14.0
    return snr


# (rate, Es/N0 per codeword, seed, max_iters, digest) of each pinned batch.
_PINNED = {
    "half": ("1/2", _snr_grid(1.0, 4.0), 11, None,
             "cac0cdf40b5744aa5ffeea987e665bbd7ce20c04d07ab03d767e912e1900c271"),
    "three-quarter": ("3/4", _snr_grid(3.0, 6.0), 12, None,
                      "7fdc8f9ae9239aee80a9fb8bcd82517eb79f6364719a7902e8a4091eaf7039cb"),
    "three-quarter-3-iters": ("3/4", _snr_grid(3.0, 6.0), 13, 3,
                              "166533e214f2bb48c4c0fca9757dc815df4c6a7d7b2ed1c7e9bdc97908a66f40"),
    "half-shape-2x3": ("1/2", [[1.5, 2.5, 14.0], [3.5, 2.0, 0.5]], 14, None,
                       "f0fb82f333a59c787776b40355e81e00b6fd323124a1fdbf8c278dc70d8a5d26"),
}


def _check_pinned(spec, snr_db, seed, max_iters, digest):
    llr_post, hard, ok = decode(_awgn_llr(spec, snr_db, seed), spec, max_iters=max_iters)
    assert llr_post.shape == hard.shape == np.shape(snr_db) + (spec.n,)
    assert 0 < ok.sum() < ok.size
    assert np.array_equal(hard, llr_post < 0)      # the receiver relies on it
    got = hashlib.sha256(llr_post.tobytes() + hard.tobytes() + ok.tobytes()).hexdigest()
    assert got == digest


@pytest.mark.parametrize("rate, snr_db, seed, max_iters, digest", _PINNED.values(),
                         ids=_PINNED.keys())
def test_decode_output_is_pinned(code_half, code_three_quarter, rate, snr_db, seed,
                                 max_iters, digest):
    """decode reproduces, bit for bit, the output recorded at commit d9b67ae.

    The digests are SHA-256 over llr_post, hard bits and ok flags (in that
    order, as raw bytes) of the padded-edge-table flooding decoder of commit
    d9b67aee00ddddfb5107b21ecee430adc2c17152. The batches mix codewords that
    are valid on input, converge after different numbers of iterations, or
    never converge.
    """
    spec = code_half if rate == "1/2" else code_three_quarter
    _check_pinned(spec, snr_db, seed, max_iters, digest)


@pytest.mark.parametrize("threads, tile", [(1, None), (2, None), (3, None), (3, 3)],
                         ids=["1-thread", "2-threads", "3-threads", "3-threads-tiles-of-3"])
@pytest.mark.parametrize("case", _PINNED)
def test_split_decode_output_is_pinned(monkeypatch, code_half, code_three_quarter,
                                       threads, tile, case):
    """The pinned digests hold whatever the thread count and tile size."""
    monkeypatch.setattr(_threads, "_MIN_WORK", 1)       # split even one codeword's work
    monkeypatch.setattr(_threads, "_count", threads)
    if tile:
        monkeypatch.setattr(ldpc, "_TILE", tile)
    rate, *rest = _PINNED[case]
    _check_pinned(code_half if rate == "1/2" else code_three_quarter, *rest)


def test_a_chunk_that_converges_early_leaves_the_other_unchanged(monkeypatch, code_half):
    # Two threads, one chunk each: the first four codewords fail the check on
    # input, then all converge, so their chunk returns early; the last four
    # never converge and iterate to the end.
    llr = _awgn_llr(code_half, [4.0] * 4 + [0.0] * 4, 21)
    monkeypatch.setattr(_threads, "_MIN_WORK", 1)
    monkeypatch.setattr(_threads, "_count", 1)
    serial = decode(llr, code_half)
    monkeypatch.setattr(_threads, "_count", 2)
    ran, split = [], _threads.split
    monkeypatch.setattr(_threads, "split", lambda fn, n, work: split(
        lambda s: (ran.append((s.start, s.stop)), fn(s)), n, work))
    threaded = decode(llr, code_half)
    assert sorted(ran) == [(0, 4), (4, 8)]
    assert not syndrome_ok(hard_decisions(llr[:4]), code_half).any()
    assert serial[2].tolist() == [True] * 4 + [False] * 4
    for a, b in zip(serial, threaded):
        assert a.tobytes() == b.tobytes()


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_decoder_never_worsens_valid_codewords(code_three_quarter, seed):
    rng = np.random.default_rng(seed)
    info = rng.integers(0, 2, size=code_three_quarter.k, dtype=np.uint8)
    cw = encode(info, code_three_quarter)
    llr = (1.0 - 2.0 * cw) * rng.uniform(0.5, 30.0, size=cw.size)
    _, hard, ok = decode(llr, code_three_quarter)
    assert ok
    assert np.array_equal(hard, cw)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_soft_symbol_quality_stays_normalized(seed):
    rng = np.random.default_rng(seed)
    llr = rng.normal(scale=rng.uniform(0.1, 60.0), size=64)
    s_hat, sig = soft_symbols(llr)
    assert 0.0 <= sig <= 1.0
    assert np.all(np.abs(s_hat) <= 1.0 + 1e-12)


# ---------------------------------------------------------------------------
# Framing


def test_frame_geometry_full_blocks():
    frame = make_frame(1920, 200)                  # sp: tau_c slots per block
    assert (frame.n_blocks, frame.n_pad) == (10, 80)
    frame = make_frame(2000, 200)
    assert (frame.n_blocks, frame.n_pad) == (10, 0)


def test_frame_geometry_with_padding():
    frame = make_frame(1920, 190)                  # rp: tau_d slots per block
    assert (frame.n_blocks, frame.n_pad) == (11, 170)
    occupied = frame_codeword(np.ones(1920), frame) != 0
    assert occupied.shape == (11, 190)
    assert occupied.sum() == 1920
    assert not occupied[-1, 20:].any()             # tail of last block is padding


def test_frame_round_trip():
    rng = np.random.default_rng(8)
    frame = make_frame(1920, 190)
    sym = rng.normal(size=(3, 1920)) + 1j * rng.normal(size=(3, 1920))
    blocks = frame_codeword(sym, frame)
    assert blocks.shape == (3, 11, 190)
    assert np.all(blocks[:, -1, 20:] == 0)
    # symbol order is row-major over (block, slot): the reshape inverts it
    assert np.array_equal(blocks.reshape(3, -1)[:, :1920], sym)


def test_frame_rejects_wrong_sizes():
    frame = make_frame(100, 30)
    with pytest.raises(ValueError):
        frame_codeword(np.zeros(99), frame)
    with pytest.raises(ValueError):
        frame_codeword(np.zeros((3, 101)), frame)
