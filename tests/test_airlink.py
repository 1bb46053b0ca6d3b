"""Channel drawing, transmit construction, and received-signal tests."""

import tracemalloc

import numpy as np
import pytest

from ullsim import ScenarioConfig, airlink
from ullsim.airlink import (build_transmit, correlation_sqrt, crandn,
                            draw_channels, receive, simulate_blocks)
from ullsim.netgeom import make_network
from ullsim.pilots import assign_pilots


def cfg(**kw):
    base = dict(M=4, K=2, L=1, tau_c=20, tau_p=2)
    base.update(kw)
    return ScenarioConfig(**base)


def test_null_correlation_gives_null_channel():
    R = np.zeros((1, 1, 1, 4, 4), dtype=complex)
    h = draw_channels(correlation_sqrt(R), np.random.default_rng(0), n_blocks=1)
    assert np.all(h == 0)


def test_channel_sample_covariance_matches_r():
    beta = 2.5
    M, n = 4, 100_000
    R = beta * np.eye(M)[None, None, None]
    h = draw_channels(correlation_sqrt(R), np.random.default_rng(1), n_blocks=n)
    h = h[:, 0, 0, 0]                                   # (n, M)
    cov = h.T @ h.conj() / n                            # E{h h^H}
    assert np.linalg.norm(cov - beta * np.eye(M)) <= 0.05 * np.linalg.norm(beta * np.eye(M))
    # zero-mean to Monte Carlo accuracy
    assert np.all(np.abs(h.mean(axis=0)) < 3 * np.sqrt(beta / n))


def test_channel_sample_covariance_correlated():
    # non-diagonal R must be reproduced too
    rng = np.random.default_rng(2)
    A = crandn(rng, (3, 3))
    R = (A @ A.conj().T)[None, None, None]
    h = draw_channels(correlation_sqrt(R), rng, n_blocks=200_000)[:, 0, 0, 0]
    cov = h.T @ h.conj() / h.shape[0]
    assert np.linalg.norm(cov - R[0, 0, 0]) <= 0.05 * np.linalg.norm(R[0, 0, 0])


# The in-place rewrites of crandn, receive and correlation_sqrt must keep
# every bit of the out-of-place expressions they replaced.


def test_crandn_equals_the_out_of_place_expression():
    shape = (3, 4, 5)
    ref = np.random.default_rng(20)
    a, b = ref.standard_normal(shape), ref.standard_normal(shape)
    assert np.array_equal(crandn(np.random.default_rng(20), shape),
                          (a + 1j * b) / np.sqrt(2))


def test_receive_equals_the_out_of_place_expression():
    rng = np.random.default_rng(21)
    H = crandn(rng, (2, 3, 3, 2, 4))
    X = crandn(rng, (2, 3, 2, 6))
    e = 1.7e-3
    Y = np.einsum("...abkm,...bkt->...amt", H, X)
    want = Y + np.sqrt(e) * crandn(np.random.default_rng(22), Y.shape)
    assert np.array_equal(receive(H, X, e, np.random.default_rng(22)), want)


def test_noise_slabs_keep_the_whole_draw():
    # Y's 66,000 samples are one full noise slab and a ragged one; the slabs
    # give the bits of the whole draw, and leave the generator where it would.
    rng = np.random.default_rng(24)
    H = crandn(rng, (2, 3, 3, 2, 100))
    X = crandn(rng, (2, 3, 2, 110))
    e = 1.7e-3
    Y = np.einsum("...abkm,...bkt->...amt", H, X)
    assert Y.size > airlink._NOISE_SLAB and Y.size % airlink._NOISE_SLAB
    ref = np.random.default_rng(25)
    a, b = ref.standard_normal(Y.shape), ref.standard_normal(Y.shape)
    rng = np.random.default_rng(25)
    assert np.array_equal(crandn(rng, Y.shape), (a + 1j * b) / np.sqrt(2))
    assert rng.bit_generator.state == ref.bit_generator.state
    want = Y + np.sqrt(e) * crandn(ref, Y.shape)
    assert np.array_equal(receive(H, X, e, rng), want)
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("dtype, lead", [
    pytest.param(complex, (2, 3), id="complex"),
    pytest.param(float, (2, 3), id="float"),
    pytest.param(complex, (3, 3, 2), id="complex-LLK"),
    pytest.param(float, (3, 3, 2), id="float-LLK"),
])
def test_correlation_sqrt_equals_the_out_of_place_expression(dtype, lead):
    # A real R gives a real U, for which U.conj() is U itself: the case
    # where scaling U in place could also scale its conjugate transpose.
    # (3, 3, 2) is a drop's (L, L, K) stack, taken one matrix at a time.
    A = crandn(np.random.default_rng(23), lead + (5, 3))
    A = A if dtype is complex else A.real
    R = A @ np.swapaxes(A.conj(), -1, -2)               # rank 3 of 5
    R[(0,) * len(lead)] -= 0.1 * np.eye(5)              # indefinite: the clip acts
    w, U = np.linalg.eigh(R)
    want = (U * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ np.swapaxes(U.conj(), -1, -2)
    assert np.array_equal(correlation_sqrt(R), want)


def test_transmit_pure_pilot_and_pure_data():
    config = cfg(delta=1.0)
    net = make_network(config, np.random.default_rng(3))
    asg = assign_pilots(config, "sp")
    s = crandn(np.random.default_rng(4), (config.L, config.K, config.tau_c))
    x = build_transmit("sp", asg, s, net, config)
    seqs = asg.book.seqs[asg.indices]
    assert np.allclose(x, np.sqrt(net.rho)[..., None] * seqs)   # delta = 1: pure pilot

    config0 = cfg(delta=0.0)
    net0 = make_network(config0, np.random.default_rng(3))
    x0 = build_transmit("sp", assign_pilots(config0, "sp"), s, net0, config0)
    assert np.allclose(x0, np.sqrt(net0.rho)[..., None] * s)    # delta = 0: pure data


def test_transmit_rp_energy_accounting():
    config = cfg(tau_c=4, tau_p=2)
    net = make_network(config, np.random.default_rng(5))
    rng = np.random.default_rng(6)
    s = crandn(rng, (config.L, config.K, 2))
    s /= np.abs(s)                                      # unit-energy symbols
    x = build_transmit("rp", asg := assign_pilots(config, "rp"), s, net, config)
    q, p = net.energies("rp")
    energy = np.sum(np.abs(x) ** 2, axis=-1)
    assert np.allclose(energy, 2 * q + 2 * p)


def test_receive_noiseless_impulse():
    # sigma = 0, single UE, x = scaled e_1: first column of Y is sqrt(q) h
    config = cfg(K=1)
    rng = np.random.default_rng(7)
    H = crandn(rng, (1, 1, 1, config.M))
    q = 0.3
    X = np.zeros((1, 1, config.tau_c), dtype=complex)
    X[0, 0, 0] = np.sqrt(q)
    Y = receive(H, X, 0.0, rng)
    assert np.allclose(Y[0, :, 0], np.sqrt(q) * H[0, 0, 0])
    assert np.allclose(Y[0, :, 1:], 0.0)


def test_receive_noise_only_statistics():
    config = cfg()
    rng = np.random.default_rng(8)
    H = np.zeros((1, 1, config.K, config.M), dtype=complex)
    X = np.zeros((1, config.K, config.tau_c), dtype=complex)
    sigma2 = 1.7e-3
    n_rep = 100_000 // (config.M * config.tau_c) + 1
    Y = np.stack([receive(H, X, sigma2, rng) for _ in range(n_rep)])
    var = np.mean(np.abs(Y) ** 2)
    assert abs(var - sigma2) <= 0.03 * sigma2


def test_reconstruction_identity_with_stored_noise():
    config = cfg(L=4, K=3, tau_p=3)
    net = make_network(config, np.random.default_rng(9))
    rng = np.random.default_rng(10)
    asg = assign_pilots(config, "rp")
    s = crandn(rng, (2, config.L, config.K, config.tau_d))
    R_sqrt = correlation_sqrt(net.R)
    H = draw_channels(R_sqrt, rng, n_blocks=2)
    X = build_transmit("rp", asg, s, net, config)
    Y = receive(H, X, config.noise_energy, rng)
    # Replay the same seed's draws in order: symbols, channels, then the noise.
    replay = np.random.default_rng(10)
    crandn(replay, s.shape)
    draw_channels(R_sqrt, replay, n_blocks=2)
    N = np.sqrt(config.noise_energy) * crandn(replay, Y.shape)
    resignal = np.einsum("...abkm,...bkt->...amt", H, X)
    assert np.allclose(Y - N, resignal, atol=1e-25)


def test_simulate_blocks_shapes_both_modes():
    config = cfg(L=3, K=2, tau_p=2)
    net = make_network(config, np.random.default_rng(11))
    rng = np.random.default_rng(12)
    for mode, n_data in (("rp", config.tau_d), ("sp", config.tau_c)):
        asg = assign_pilots(config, mode)
        data = crandn(rng, (5, config.L, config.K, n_data))
        blocks = simulate_blocks(mode, asg, data, net, config, rng)
        assert blocks.H.shape == (5, 3, 3, 2, config.M)
        assert blocks.Y.shape == (5, 3, config.M, config.tau_c)
        assert blocks.n_blocks == 5


def test_simulate_blocks_frees_its_own_r_sqrt_before_receive():
    # receive holds Y and one noise slab's scratch. Here Y is 1 MB, the slab
    # 0.5 MB, R^(1/2) 0.5 MB, and H and X, live with Y, 0.125 MB each. Freed
    # after the channel draw, R^(1/2) is never live with Y; held through
    # receive, it would lift the peak by its size.
    config = cfg(M=64, K=8, L=1, tau_c=64, tau_p=8)
    net = make_network(config, np.random.default_rng(14))
    asg = assign_pilots(config, "sp")
    rng = np.random.default_rng(15)
    data = crandn(rng, (16, config.L, config.K, config.tau_c))
    r_sqrt_bytes = net.R.nbytes
    y_bytes = 16 * config.L * config.M * config.tau_c * 16
    slab_bytes = airlink._NOISE_SLAB * 8
    assert y_bytes == 2 * slab_bytes == 2 * r_sqrt_bytes
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        blocks = simulate_blocks("sp", asg, data, net, config, rng)
        peak = tracemalloc.get_traced_memory()[1] - live
        X = build_transmit("sp", asg, data, net, config)
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        Y = receive(blocks.H, X, config.noise_energy, rng)
        receive_peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert blocks.Y.nbytes == Y.nbytes == y_bytes
    assert peak < r_sqrt_bytes + y_bytes + slab_bytes
    assert receive_peak < y_bytes + slab_bytes + 16 * 1024      # and a few array headers


@pytest.mark.parametrize("threads", [1, 3])
def test_link_by_link_draw_equals_the_stacked_draw(monkeypatch, split_small, threads):
    # draw_link_by_link makes each link's R^(1/2) once and applies it to every
    # stream's w: each stream gets the bits of its own stacked draw, and its
    # generator is left where the stacked draw leaves it, so the noise drawn
    # next is the same too. One stream is simulate_blocks' draw; three are a
    # study pair's, each stream advanced first by its own symbol draws.
    monkeypatch.setattr(airlink._threads, "_count", threads)
    config = cfg(M=16, K=3, L=3, tau_p=3)
    R = make_network(config, np.random.default_rng(30)).R
    for seeds in ((31,), (31, 32, 33)):
        refs = [np.random.default_rng(seed) for seed in seeds]
        rngs = [np.random.default_rng(seed) for seed in seeds]
        for i, (ref, rng) in enumerate(zip(refs, rngs)):
            crandn(ref, (2, 5 + i))
            crandn(rng, (2, 5 + i))
        got = airlink.draw_link_by_link(R, rngs, n_blocks=5)
        assert len(got) == len(seeds)
        for H, ref, rng in zip(got, refs, rngs):
            want = draw_channels(correlation_sqrt(R), ref, n_blocks=5)
            assert np.array_equal(H.view(np.uint64), want.view(np.uint64))
            assert rng.bit_generator.state == ref.bit_generator.state


def test_simulate_blocks_holds_no_r_sqrt_stack():
    # With L*L*K = 18 links at M = 64 the R^(1/2) stack is 1.2 MB. H, X and Y
    # of two blocks and a noise slab's scratch come to 0.2 MB, and a thread's
    # link holds a few (M, M) arrays, 64 KB each.
    config = cfg(M=64, K=2, L=3, tau_c=16, tau_p=2)
    net = make_network(config, np.random.default_rng(32))
    asg = assign_pilots(config, "sp")
    rng = np.random.default_rng(33)
    data = crandn(rng, (2, config.L, config.K, config.tau_c))
    stack_bytes = config.L * config.L * config.K * config.M ** 2 * 16
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        simulate_blocks("sp", asg, data, net, config, rng)
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert peak < stack_bytes


def test_transmit_rejects_wrong_data_length():
    config = cfg()
    net = make_network(config, np.random.default_rng(13))
    asg = assign_pilots(config, "rp")
    bad = np.zeros((config.L, config.K, config.tau_c))   # rp wants tau_d
    with pytest.raises(ValueError):
        build_transmit("rp", asg, bad, net, config)
