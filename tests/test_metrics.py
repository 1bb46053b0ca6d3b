"""Metric definitions: achievable rates, channel MSE, BLER, effective SNR."""

import numpy as np
import pytest

from ullsim.airlink import crandn
from ullsim.metrics import (SINR_CAP, binary_entropy, bler, effective_snr_db,
                            mse_channel_analytic, mse_channel_empirical,
                            se_mutual_info, se_uatf_moments, se_uatf_samples)


# ---------------------------------------------------------------------------
# Hardening-style rate


def test_uatf_moments_basic_value():
    # SINR = |g|^2 / var: 3 -> log2(4) = 2 bits, scaled by the prelog
    assert np.isclose(se_uatf_moments(np.sqrt(3.0), 1.0, 0.5), 1.0)
    assert np.isclose(se_uatf_moments(1j * np.sqrt(3.0), 1.0, 1.0), 2.0)
    # arrays of moments give one rate per entry
    gain = np.array([[np.sqrt(3.0), 1j * np.sqrt(7.0)], [np.sqrt(15.0), 0.0]])
    var = np.array([[1.0, 1.0], [1.0, 2.0]])
    assert np.allclose(se_uatf_moments(gain, var, 0.5), [[1.0, 1.5], [2.0, 0.0]])


def test_uatf_moments_caps_noiseless():
    capped = se_uatf_moments(1.0, 0.0, 1.0)
    assert np.isclose(capped, np.log2(1.0 + SINR_CAP))
    huge = se_uatf_moments(1e9, 1e-12, 1.0)
    assert huge <= np.log2(1.0 + SINR_CAP)
    with pytest.raises(ValueError):
        se_uatf_moments(0.0, 0.0, 1.0)
    capped = se_uatf_moments(np.array([1.0, 1e9, 2.0]), np.array([0.0, 1e-12, 3.0]), 1.0)
    assert np.allclose(capped, [np.log2(1.0 + SINR_CAP)] * 2 + [np.log2(1.0 + 4.0 / 3.0)])
    with pytest.raises(ValueError):
        se_uatf_moments(np.array([1.0, 0.0]), np.array([1.0, 0.0]), 1.0)


def test_uatf_samples_recover_known_channel():
    rng = np.random.default_rng(0)
    n = 100_000
    s = crandn(rng, (n,))
    g, n_var = 1.3 - 0.4j, 0.7
    y = g * s + np.sqrt(n_var) * crandn(rng, (n,))
    se = se_uatf_samples(y, s, prelog=1.0)
    expect = np.log2(1.0 + abs(g) ** 2 / n_var)
    assert abs(se - expect) <= 0.02 * expect


def test_uatf_samples_independent_observation_is_useless():
    rng = np.random.default_rng(1)
    n = 100_000
    s = crandn(rng, (n,))
    y = crandn(rng, (n,))                          # no dependence on s at all
    se = se_uatf_samples(y, s, prelog=1.0)
    assert se <= 0.02


def test_uatf_samples_guards():
    s = np.ones(10, dtype=complex)
    with pytest.raises(ValueError):
        se_uatf_samples(s, s, prelog=1.0)          # too few samples
    with pytest.raises(ValueError):
        se_uatf_samples(np.ones(2000), np.ones(1999), prelog=1.0)


# ---------------------------------------------------------------------------
# Mutual-information rate


def test_mi_perfect_posteriors():
    # confident correct bits recover the full coded rate: prelog * 2 * R
    se = se_mutual_info(np.ones(1000), prelog=1.0, n_bits_per_symbol=2,
                        code_rate=0.75)
    assert np.isclose(se, 1.5)
    se = se_mutual_info(np.zeros(1000), prelog=0.95, n_bits_per_symbol=2,
                        code_rate=0.5)
    assert np.isclose(se, 0.95)


def test_mi_uniform_posteriors_are_worthless():
    assert se_mutual_info(np.full(100, 0.5), 1.0, 2, 0.5) == 0.0


def test_mi_partial_posteriors():
    # H2(0.75) = 0.8112781244591328 bits
    se = se_mutual_info(np.full(64, 0.75), prelog=1.0, n_bits_per_symbol=2,
                        code_rate=0.5)
    assert np.isclose(se, 1.0 * (1.0 - 0.8112781244591328), atol=1e-12)


def test_mi_of_stacked_codewords_equals_one_call_per_codeword():
    # The receiver passes every (cell, UE) codeword at once; each reads as alone.
    rng = np.random.default_rng(3)
    post = 1.0 / (1.0 + np.exp(-rng.normal(0.0, 4.0, size=(4, 10, 3840))))
    se = se_mutual_info(post, 0.95, 2, 0.5)
    assert se.shape == (4, 10)
    single = [[se_mutual_info(post[l, k], 0.95, 2, 0.5) for k in range(10)] for l in range(4)]
    assert isinstance(single[0][0], float)
    assert np.array_equal(se, single)


def test_binary_entropy_endpoints():
    assert binary_entropy(np.array([0.0, 1.0, 0.5])).tolist() == [0.0, 0.0, 1.0]


# ---------------------------------------------------------------------------
# Channel MSE


def test_mse_analytic_is_trace_over_m():
    C = np.diag([1.0, 2.0, 3.0]).astype(complex)
    assert np.isclose(mse_channel_analytic(C), 2.0)
    stacked = np.stack([C, 2 * C])
    assert np.allclose(mse_channel_analytic(stacked), [2.0, 4.0])


def test_mse_empirical_limits():
    rng = np.random.default_rng(2)
    beta = 1.8
    h = np.sqrt(beta) * crandn(rng, (50_000, 4))
    assert mse_channel_empirical(h, h) == 0.0
    # a zero estimate has MSE equal to the per-antenna channel energy
    assert abs(mse_channel_empirical(h, np.zeros_like(h)) - beta) <= 0.02 * beta
    # (B, L, K, M) inputs reduce over blocks and antennas to one MSE per UE
    h = crandn(rng, (200, 2, 3, 4))
    err = np.sqrt(np.arange(1.0, 7.0).reshape(2, 3))[None, :, :, None]
    mse = mse_channel_empirical(h, h + err)
    assert mse.shape == (2, 3)
    assert np.allclose(mse, np.arange(1.0, 7.0).reshape(2, 3))
    assert mse_channel_empirical(h[0, 0, 0], h[0, 0, 0] + 1.0) == 1.0


# ---------------------------------------------------------------------------
# BLER and effective SNR


def test_bler_counts_failures():
    assert bler(np.array([True, True, False, False])) == 0.5
    assert bler(np.ones(10, dtype=bool)) == 0.0
    assert bler(np.zeros(3, dtype=bool)) == 1.0
    with pytest.raises(ValueError):
        bler(np.array([]))


def test_effective_snr_exact_ratio():
    g = np.array([2.0, 2.0])
    n_var = np.array([0.4, 0.4])
    assert np.isclose(effective_snr_db(g, n_var), 10.0 * np.log10(10.0))
    with pytest.raises(ValueError):
        effective_snr_db(g, np.array([0.0, 0.0]))
    # (B, L, K) inputs average over blocks to one SNR per UE
    g = np.array([[[2.0, 1.0j]], [[2.0, -1.0j]]])      # (2, 1, 2)
    n_var = np.array([[[0.4, 1.0]], [[0.4, 0.1]]])
    snr = effective_snr_db(g, n_var)
    assert snr.shape == (1, 2)
    assert np.allclose(snr, [[10.0, 10.0 * np.log10(1.0 / 0.55)]])
    with pytest.raises(ValueError):
        effective_snr_db(g, n_var * np.array([1.0, 0.0]))
