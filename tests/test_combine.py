"""Combiner construction, interference cancellation, effective statistics."""

import numpy as np
import pytest
from conftest import manual_network

from ullsim import ScenarioConfig
from ullsim.airlink import crandn, simulate_blocks
from ullsim.chest import lmmse_filter, pilot_observation, psi_pilot
from ullsim.combine import (build_combiner, combine_initial, combine_iterative,
                            effective_stats)
from ullsim.pilots import assign_pilots


def cfg(**kw):
    base = dict(M=4, K=2, L=1, tau_c=12, tau_p=2, noise_energy=1.0,
                rho_design=1.0, rho_max=1e6)
    base.update(kw)
    return ScenarioConfig(**base)


# ---------------------------------------------------------------------------
# build_combiner


def test_mr_is_the_estimate():
    rng = np.random.default_rng(0)
    h_hat = crandn(rng, (3, 2, 4))
    v = build_combiner(h_hat, np.zeros((2, 4, 4)), np.ones(2), 1.0, "mr")
    assert np.array_equal(v, h_hat)
    v[0, 0, 0] = 99.0                              # returned copy, not a view
    assert h_hat[0, 0, 0] != 99.0


def test_smmse_scalar_wiener():
    # M = 1, K = 1: v = rho h / (rho |h|^2 + sigma^2)
    h = np.array([[0.8 - 0.6j]])
    rho, sigma2 = 2.0, 0.5
    v = build_combiner(h, np.zeros((1, 1, 1)), np.array([rho]), sigma2, "smmse")
    expect = rho * h / (rho * abs(h[0, 0]) ** 2 + sigma2)
    assert np.allclose(v, expect, atol=1e-14)


def test_smmse_tends_to_mr_at_low_snr():
    rng = np.random.default_rng(1)
    h_hat = crandn(rng, (3, 4))
    C = np.zeros((3, 4, 4))
    rho = np.ones(3)
    v = build_combiner(h_hat, C, rho, 1e6 * np.sum(np.abs(h_hat) ** 2), "smmse")
    for k in range(3):
        a, b = v[k], h_hat[k]
        cos = abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))
        assert np.arccos(min(cos, 1.0)) < 1e-3


def test_smmse_accounts_for_estimation_error():
    # with C = c I the error acts like extra white noise rho*c per UE
    h = np.array([[1.0 + 0j, 0.0], [0.0, 1.0 + 0j]])
    c = 0.7
    C = np.stack([c * np.eye(2), c * np.eye(2)])
    v = build_combiner(h, C, np.ones(2), 0.3, "smmse")
    expect = h / (1.0 + 2 * c + 0.3)
    assert np.allclose(v, expect, atol=1e-12)


def test_unknown_combiner_rejected():
    with pytest.raises(ValueError):
        build_combiner(np.zeros((1, 2)), np.zeros((1, 2, 2)), np.ones(1), 1.0, "zf")


# ---------------------------------------------------------------------------
# combine_initial


def test_initial_shapes_by_mode():
    config = cfg()
    rng = np.random.default_rng(2)
    Y = crandn(rng, (5, config.M, config.tau_c))
    v = crandn(rng, (5, config.K, config.M))
    out_rp = combine_initial(Y, v, "rp", config)
    assert out_rp.shape == (5, config.K, config.tau_d)
    book = assign_pilots(config, "sp")
    seqs = book.book.seqs[book.indices][0]
    out_sp = combine_initial(Y, v, "sp", config, h_hat=v, seqs=seqs,
                             q=np.ones(config.K))
    assert out_sp.shape == (5, config.K, config.tau_c)


def test_initial_selector_row():
    # v = e_m just reads antenna m of the data samples
    config = cfg(K=1)
    rng = np.random.default_rng(3)
    Y = crandn(rng, (config.M, config.tau_c))
    v = np.zeros((1, config.M), dtype=complex)
    v[0, 2] = 1.0
    out = combine_initial(Y, v, "rp", config)
    assert np.array_equal(out[0], Y[2, config.tau_p:])


def test_initial_noiseless_equalization_rp():
    # perfect CSI, single UE, no noise: v^H y / (v^H h) = sqrt(p) s
    config = cfg(K=1, tau_p=1)
    rng = np.random.default_rng(4)
    h = crandn(rng, (config.M,))
    s = crandn(rng, (config.tau_d,))
    p = 1.7
    Y = np.zeros((config.M, config.tau_c), dtype=complex)
    Y[:, config.tau_p:] = np.sqrt(p) * h[:, None] * s[None, :]
    out = combine_initial(Y, h[None, :], "rp", config)
    gain = np.vdot(h, h)
    assert np.allclose(out[0] / gain, np.sqrt(p) * s, atol=1e-12)


def test_initial_sp_removes_own_pilot():
    # UE transmits pilot only; after reconstruction the output is zero
    config = cfg(K=1, tau_c=8, tau_p=1)
    rng = np.random.default_rng(5)
    h = crandn(rng, (config.M,))
    asg = assign_pilots(config, "sp")
    seqs = asg.book.seqs[asg.indices][0]                       # (K, tau_c)
    q = np.array([1.3])
    Y = np.sqrt(q[0]) * h[:, None] * seqs[0][None, :]
    out = combine_initial(Y, h[None, :], "sp", config, h_hat=h[None, :],
                          seqs=seqs, q=q)
    assert np.allclose(out, 0.0, atol=1e-12)
    # without the estimate the pilot leaks through at full strength
    raw = combine_initial(Y, h[None, :], "sp", config)
    assert np.linalg.norm(raw) > 1.0


# ---------------------------------------------------------------------------
# combine_iterative


def test_iterative_zero_soft_symbols_matches_initial():
    config = cfg()
    rng = np.random.default_rng(6)
    Y = crandn(rng, (3, config.M, config.tau_c))
    v = crandn(rng, (3, config.K, config.M))
    h_hat = crandn(rng, (3, config.K, config.M))
    p = np.array([1.0, 2.0])
    out = combine_iterative(Y, v, h_hat, np.zeros((3, config.K, config.tau_d)),
                            "rp", config, p)
    assert np.allclose(out, combine_initial(Y, v, "rp", config), atol=1e-13)
    # sp with zero soft symbols leaves exactly the own-pilot-removed initial pass
    asg = assign_pilots(config, "sp")
    seqs = asg.book.seqs[asg.indices][0]
    q = np.array([0.5, 0.8])
    out_sp = combine_iterative(Y, v, h_hat, np.zeros((3, config.K, config.tau_c)),
                               "sp", config, p, seqs=seqs, q=q)
    ref = combine_initial(Y, v, "sp", config, h_hat=h_hat, seqs=seqs, q=q)
    # zero soft symbols still subtract *co-UE* pilots, unlike the initial pass
    gain = np.einsum("bkm,bjm->bkj", v.conj(), h_hat)
    for k in range(config.K):
        other = 1 - k
        leak = gain[:, k, other, None] * np.sqrt(q[other]) * seqs[other]
        assert np.allclose(out_sp[:, k], ref[:, k] - leak, atol=1e-12)


def test_iterative_perfect_cancellation_single_cell():
    # perfect CSI + perfect symbols: each UE sees only itself plus nothing
    config = cfg(K=3, tau_p=3, tau_c=15, noise_energy=0.4)
    net = manual_network(config, np.ones((1, 1, 3)))
    asg = assign_pilots(config, "rp")
    rng = np.random.default_rng(7)
    s = crandn(rng, (1, 1, 3, config.tau_d))
    blocks = simulate_blocks("rp", asg, s, net, config, rng)
    # rebuild the noiseless received block to isolate cancellation quality
    q, p = net.energies("rp")
    H = blocks.H[0, 0, 0]                                      # (K, M)
    Yd = np.einsum("km,kt->mt", H, np.sqrt(p[0])[:, None] * s[0, 0])
    Y = np.zeros((config.M, config.tau_c), dtype=complex)
    Y[:, config.tau_p:] = Yd
    v = H.copy()
    out = combine_iterative(Y, v, H, s[0, 0], "rp", config, p[0])
    for k in range(3):
        gain = np.vdot(H[k], H[k])
        assert np.allclose(out[k] / gain, np.sqrt(p[0, k]) * s[0, 0, k], atol=1e-10)


def test_iterative_single_ue_equals_initial():
    config = cfg(K=1, tau_p=1)
    rng = np.random.default_rng(8)
    Y = crandn(rng, (4, config.M, config.tau_c))
    v = crandn(rng, (4, 1, config.M))
    h_hat = crandn(rng, (4, 1, config.M))
    s_hat = crandn(rng, (4, 1, config.tau_d))
    out = combine_iterative(Y, v, h_hat, s_hat, "rp", config, np.ones(1))
    # the own reconstruction is subtracted then added back: identical output
    assert np.allclose(out, combine_initial(Y, v, "rp", config), atol=1e-12)


# ---------------------------------------------------------------------------
# effective_stats


def test_effective_stats_clean_receiver():
    # perfect CSI, single UE, unit-norm combiner: g = sqrt(p) ||h||^2 / ||h||,
    # n_var = sigma^2 when there is no interference at all.
    config = cfg(M=3, K=1, tau_p=1, noise_energy=0.6)
    net = manual_network(config, np.ones((1, 1, 1)), R=np.zeros((1, 1, 1, 3, 3)))
    rng = np.random.default_rng(9)
    h = crandn(rng, (1, 3))
    v = h / np.linalg.norm(h)
    g, n_var = effective_stats(v, h, np.zeros((1, 3, 3)), net, 0, "rp",
                               config, np.zeros(1), cancelled=False)
    q, p = net.energies("rp")
    assert np.isclose(g[0], np.sqrt(p[0, 0]) * np.linalg.norm(h))
    assert np.isclose(n_var[0], config.noise_energy)


def test_effective_stats_mr_gain():
    config = cfg(M=4, K=1, tau_p=1)
    net = manual_network(config, np.ones((1, 1, 1)), R=np.zeros((1, 1, 1, 4, 4)))
    rng = np.random.default_rng(10)
    h = crandn(rng, (1, 4))
    g, _ = effective_stats(h, h, np.zeros((1, 4, 4)), net, 0, "rp",
                           config, np.zeros(1), cancelled=False)
    _, p = net.energies("rp")
    assert np.isclose(g[0], np.sqrt(p[0, 0]) * np.linalg.norm(h[0]) ** 2)


def test_effective_stats_cancellation_reduces_variance():
    config = cfg(M=4, K=2, tau_p=2, noise_energy=0.2)
    net = manual_network(config, np.array([[[1.0, 1.0]]]))
    rng = np.random.default_rng(11)
    h = crandn(rng, (2, 4))
    C = np.zeros((2, 4, 4))
    before = effective_stats(h, h, C, net, 0, "rp", config,
                             np.zeros(2), cancelled=False)[1]
    after = effective_stats(h, h, C, net, 0, "rp", config,
                            np.full(2, 0.9), cancelled=True)[1]
    perfect = effective_stats(h, h, C, net, 0, "rp", config,
                              np.ones(2), cancelled=True)[1]
    assert np.all(after < before)
    assert np.all(perfect <= after)
    # perfect cancellation with perfect CSI leaves thermal noise only
    norms = np.sum(np.abs(h) ** 2, axis=-1)
    assert np.allclose(perfect, config.noise_energy * norms, atol=1e-12)


def test_effective_stats_match_simulation():
    """Analytic (g, n_var) vs empirical residual on combined observations."""
    config = cfg(M=3, K=2, L=3, tau_c=12, tau_p=2, noise_energy=0.5)
    rng = np.random.default_rng(12)
    from ullsim.netgeom import make_network
    net = make_network(config, rng)
    mode = "rp"
    asg = assign_pilots(config, mode)
    psi = psi_pilot(net, asg, config, mode)
    Rs = net.R[np.arange(3), np.arange(3)]
    W, C = lmmse_filter(Rs, psi)
    q, p = net.energies(mode)
    seqs = asg.book.seqs[asg.indices]
    n_blocks = 4000
    s = crandn(rng, (n_blocks, 3, 2, config.tau_d))
    blocks = simulate_blocks(mode, asg, s, net, config, rng)
    l = 0
    z = pilot_observation(blocks.Y[:, l], seqs[l], q[l], mode, tau_p=config.tau_p)
    h_hat = np.einsum("kmn,bkn->bkm", W[l], z)
    v = h_hat                                                   # mr
    y_hat = combine_initial(blocks.Y[:, l], v, mode, config)
    g, n_var = effective_stats(v, h_hat, C[l], net, l, mode, config,
                               np.zeros(2), cancelled=False)
    resid = y_hat - g[..., None] * s[:, l]
    emp = np.mean(np.abs(resid) ** 2, axis=(0, 2))
    ana = np.mean(n_var, axis=0)
    assert np.all(np.abs(emp - ana) <= 0.05 * ana), (emp, ana)

