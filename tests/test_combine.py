"""Combiner construction, interference cancellation, effective statistics."""

import tracemalloc

import numpy as np
import pytest
from conftest import manual_network

from ullsim import ScenarioConfig
from ullsim.airlink import build_transmit, crandn, simulate_blocks
from ullsim import _threads, receiver
from ullsim.airlink import gaussian_symbols
from ullsim.chest import lmmse_filter, pilot_observation, psi_pilot
from ullsim.combine import (build_combiner, combine_iterative, effective_stats,
                            intercell_interference)
from ullsim.netgeom import make_network, toeplitz
from ullsim.pilots import assign_pilots
from ullsim.receiver import estimate_and_combine


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
# combine_iterative before any decode: x_hat=None, own = minus the own pilot


def test_initial_shapes_by_mode():
    config = cfg()
    rng = np.random.default_rng(2)
    Y = crandn(rng, (5, config.M, config.tau_c))
    v = crandn(rng, (5, config.K, config.M))
    out_rp = combine_iterative(Y[..., config.tau_p:], v, v, None,
                               np.zeros((config.K, config.tau_d)))
    assert out_rp.shape == (5, config.K, config.tau_d)
    book = assign_pilots(config, "sp")
    seqs = book.book.seqs[book.indices][0]                     # q = 1
    out_sp = combine_iterative(Y, v, v, None, -seqs)
    assert out_sp.shape == (5, config.K, config.tau_c)


def test_initial_rp_zero_pilots_move_no_bit():
    # rp's pilots are zero in the data slots; giving them back changes no bit
    config = cfg()
    net = manual_network(config, np.array([[[1.0, 0.5]]]))
    asg = assign_pilots(config, "rp")
    rng = np.random.default_rng(14)
    Y = crandn(rng, (5, config.M, config.tau_c))
    v = crandn(rng, (5, config.K, config.M))
    h_hat = crandn(rng, (5, config.K, config.M))
    X = build_transmit("rp", asg, np.zeros((1, config.K, config.tau_d)), net, config)
    pilots = X[0, :, config.tau_p:]
    assert not pilots.any()
    out = combine_iterative(Y[..., config.tau_p:], v, h_hat, None, -pilots)
    assert np.array_equal(out, np.einsum("...km,...mt->...kt", v.conj(),
                                         Y[..., config.tau_p:]))


@pytest.mark.parametrize("mode", ["rp", "sp"])
def test_first_pass_has_the_bits_of_removing_the_own_pilot(mode):
    # The first pass gives back minus the own pilot: y + g (-pilot) must equal,
    # bit for bit, the own-pilot removal y - g pilot, on the strided data-slot
    # views of a (B, L, M, tau_c) Y that the receiver combines.
    config = cfg(L=3)
    B, L, K, M = 3, config.L, config.K, config.M
    rng = np.random.default_rng(15)
    net = manual_network(config, rng.uniform(0.2, 1.0, (L, L, K)))
    asg = assign_pilots(config, mode)
    Y = crandn(rng, (B, L, M, config.tau_c))
    n_data = config.data_slots(mode)
    data = slice(config.tau_c - n_data, None)
    X = build_transmit(mode, asg, np.zeros((L, K, n_data)), net, config)
    assert X[:, :, data].any() == (mode == "sp")     # sqrt(q) phi in sp, zero in rp
    for l in range(L):
        v = crandn(rng, (B, K, M))
        h_hat = crandn(rng, (B, K, M))
        Yd, pilots = Y[:, l, :, data], X[l, :, data]
        gain = np.einsum("...km,...km->...k", v.conj(), h_hat)
        want = np.einsum("...km,...mt->...kt", v.conj(), Yd) - gain[..., None] * pilots
        assert np.array_equal(combine_iterative(Yd, v, h_hat, None, -pilots), want)


def test_initial_selector_row():
    # v = e_m just reads antenna m of the data samples
    config = cfg(K=1)
    rng = np.random.default_rng(3)
    Y = crandn(rng, (config.M, config.tau_c))
    v = np.zeros((1, config.M), dtype=complex)
    v[0, 2] = 1.0
    out = combine_iterative(Y[:, config.tau_p:], v, v, None, np.zeros((1, config.tau_d)))
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
    out = combine_iterative(Y[:, config.tau_p:], h[None, :], h[None, :], None,
                            np.zeros((1, config.tau_d)))
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
    pilots = np.sqrt(q)[:, None] * seqs
    out = combine_iterative(Y, h[None, :], h[None, :], None, -pilots)
    assert np.allclose(out, 0.0, atol=1e-12)
    # with zero pilots the sp pilot leaks through at full strength
    raw = combine_iterative(Y, h[None, :], h[None, :], None, np.zeros_like(pilots))
    assert np.linalg.norm(raw) > 1.0


# ---------------------------------------------------------------------------
# combine_iterative after a decode


def test_iterative_zero_soft_symbols_matches_initial():
    config = cfg()
    rng = np.random.default_rng(6)
    Y = crandn(rng, (3, config.M, config.tau_c))
    v = crandn(rng, (3, config.K, config.M))
    h_hat = crandn(rng, (3, config.K, config.M))
    Yd = Y[..., config.tau_p:]
    zero = np.zeros((3, config.K, config.tau_d))               # sqrt(p) * 0 in rp
    out = combine_iterative(Yd, v, h_hat, zero, zero)
    assert np.allclose(out, combine_iterative(Yd, v, h_hat, None, -zero[0]), atol=1e-13)
    # sp with zero soft symbols leaves exactly the own-pilot-removed initial pass
    asg = assign_pilots(config, "sp")
    seqs = asg.book.seqs[asg.indices][0]
    q = np.array([0.5, 0.8])
    pilots = np.sqrt(q)[:, None] * seqs
    out_sp = combine_iterative(Y, v, h_hat, np.broadcast_to(pilots, (3,) + pilots.shape),
                               np.zeros((3, config.K, config.tau_c)))
    ref = combine_iterative(Y, v, h_hat, None, -pilots)
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
    own = np.sqrt(p[0])[:, None] * s[0, 0]
    Yd = np.einsum("km,kt->mt", H, own)
    x_hat = build_transmit("rp", asg, s, net, config)[0, 0, :, config.tau_p:]
    v = H.copy()
    out = combine_iterative(Yd, v, H, x_hat, own)
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
    Yd = Y[..., config.tau_p:]
    out = combine_iterative(Yd, v, h_hat, s_hat, s_hat)       # p = 1
    # the own reconstruction is subtracted then added back: identical output
    assert np.allclose(out, combine_iterative(Yd, v, h_hat, None,
                                              np.zeros((1, config.tau_d))), atol=1e-12)


def _stacked_combine_iterative(Y, v, h_hat, x_hat, own):
    """combine_iterative with the residual of every block formed at once, (..., M, n_data).

    The kernel the per-block residual replaced, kept as its oracle.
    """
    if x_hat is not None:
        E = np.einsum("...km,...kt->...mt", h_hat, x_hat)
        Y = np.subtract(Y, E, out=E)
    y_hat = np.einsum("...km,...mt->...kt", v.conj(), Y)
    gain = np.einsum("...km,...km->...k", v.conj(), h_hat)
    return y_hat + gain[..., None] * own


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("combiner_kind", ["mr", "smmse"])
@pytest.mark.parametrize("mode", ["rp", "sp"])
def test_per_block_residual_keeps_the_stacked_bits(monkeypatch, split_small, mode,
                                                   combiner_kind, threads):
    # Every combine_iterative call of both receiver passes, on the stage's own
    # operands (strided views of Y, h_hat and X), has the stacked kernel's bits.
    monkeypatch.setattr(_threads, "_count", threads)
    config = cfg(M=32, K=4, L=3, tau_c=40, tau_p=4, noise_energy=0.01, rho_design=0.1)
    net = make_network(config, np.random.default_rng(16))
    asg = assign_pilots(config, mode)
    rng = np.random.default_rng(17)
    sig = np.full((config.L, config.K), 0.6)
    s_hat, s = gaussian_symbols(rng, sig, (5, config.L, config.K, config.data_slots(mode)))
    blocks = simulate_blocks(mode, asg, s, net, config, rng)
    checked = []

    def spy(*args):
        got = combine_iterative(*args)
        want = _stacked_combine_iterative(*args)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        checked.append(args[3] is not None)
        return got

    monkeypatch.setattr(receiver, "combine_iterative", spy)
    for extra in ({}, {"s_blocks": s_hat, "sigma": sig}):
        estimate_and_combine(blocks, net, asg, config, mode, combiner_kind,
                             lambda l, v, h_l, C_l: None, **extra)
    assert checked == [False] * config.L + [True] * config.L


@pytest.mark.parametrize("threads", [1, 2])
def test_combine_iterative_holds_no_residual_stack(monkeypatch, threads):
    # At the paper point a cell's (B, M, n_data) residual is 3.3 MB over
    # B = 11 blocks; the call forms one block's, 0.3 MB, at a time, and
    # starts no thread, whatever the trial's count.
    monkeypatch.setattr(_threads, "_count", threads)
    B, K, M, n_data = 11, 10, 100, 190
    rng = np.random.default_rng(18)
    Y, v, h_hat = crandn(rng, (B, M, n_data)), crandn(rng, (B, K, M)), crandn(rng, (B, K, M))
    x_hat, own = crandn(rng, (B, K, n_data)), crandn(rng, (B, K, n_data))
    residual_bytes = B * M * n_data * 16
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        combine_iterative(Y, v, h_hat, x_hat, own)
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert peak < residual_bytes


# ---------------------------------------------------------------------------
# effective_stats


def test_effective_stats_clean_receiver():
    # perfect CSI, single UE, unit-norm combiner: g = sqrt(p) ||h||^2 / ||h||,
    # n_var = sigma^2 when there is no interference at all.
    config = cfg(M=3, K=1, tau_p=1, noise_energy=0.6)
    net = manual_network(config, np.ones((1, 1, 1)), r=np.zeros((1, 1, 1, 5)))
    rng = np.random.default_rng(9)
    h = crandn(rng, (1, 3))
    v = h / np.linalg.norm(h)
    g, n_var = effective_stats(v, h, np.zeros((1, 3, 3)), net, "rp", config, None, 0,
                               intercell_interference(net, "rp")[0])
    q, p = net.energies("rp")
    assert np.isclose(g[0], np.sqrt(p[0, 0]) * np.linalg.norm(h))
    assert np.isclose(n_var[0], config.noise_energy)


def test_effective_stats_mr_gain():
    config = cfg(M=4, K=1, tau_p=1)
    net = manual_network(config, np.ones((1, 1, 1)), r=np.zeros((1, 1, 1, 7)))
    rng = np.random.default_rng(10)
    h = crandn(rng, (1, 4))
    g, _ = effective_stats(h, h, np.zeros((1, 4, 4)), net, "rp", config, None, 0,
                          intercell_interference(net, "rp")[0])
    _, p = net.energies("rp")
    assert np.isclose(g[0], np.sqrt(p[0, 0]) * np.linalg.norm(h[0]) ** 2)


def test_effective_stats_cancellation_reduces_variance():
    config = cfg(M=4, K=2, tau_p=2, noise_energy=0.2)
    net = manual_network(config, np.array([[[1.0, 1.0]]]))
    rng = np.random.default_rng(11)
    h = crandn(rng, (2, 4))
    C = np.zeros((2, 4, 4))
    inter = intercell_interference(net, "rp")[0]
    before = effective_stats(h, h, C, net, "rp", config, None, 0, inter)[1]
    after = effective_stats(h, h, C, net, "rp", config, np.full((1, 2), 0.9), 0, inter)[1]
    perfect = effective_stats(h, h, C, net, "rp", config, np.ones((1, 2)), 0, inter)[1]
    assert np.all(after < before)
    assert np.all(perfect <= after)
    # perfect cancellation with perfect CSI leaves thermal noise only
    norms = np.sum(np.abs(h) ** 2, axis=-1)
    assert np.allclose(perfect, config.noise_energy * norms, atol=1e-12)


def test_effective_stats_match_simulation():
    """Analytic (g, n_var) vs empirical residual on combined observations."""
    config = cfg(M=3, K=2, L=3, tau_c=12, tau_p=2, noise_energy=0.5)
    rng = np.random.default_rng(12)
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
    z = pilot_observation(blocks.Y, seqs, q, mode, tau_p=config.tau_p)
    h_hat = np.einsum("lkmn,blkn->blkm", W, z)
    v = h_hat                                                   # mr
    y_hat = combine_iterative(blocks.Y[:, l, :, config.tau_p:], v[:, l], h_hat[:, l],
                              None, np.zeros((config.K, config.tau_d)))
    g, n_var = effective_stats(v[:, l], h_hat[:, l], C[l], net, mode, config, None, l,
                               intercell_interference(net, mode)[l])
    resid = y_hat - g[..., None] * s[:, l]
    emp = np.mean(np.abs(resid) ** 2, axis=(0, 2))
    ana = np.mean(n_var, axis=0)
    assert np.all(np.abs(emp - ana) <= 0.05 * ana), (emp, ana)


@pytest.mark.parametrize("mode", ["rp", "sp"])
@pytest.mark.parametrize("known", [False, True])
def test_stacked_effective_stats_equal_their_defining_sums(mode, known):
    # Every (block, UE) of one call per cell, stacked over the blocks, against
    # its sum, term by term, with gains, correlations and errors of one
    # order, so every term counts.
    config = cfg(M=3, K=2, L=3, tau_c=12, tau_p=2, noise_energy=0.5)
    B, L, K, M = 4, config.L, config.K, config.M
    rng = np.random.default_rng(13)

    def psd(shape, scale):
        A = crandn(rng, shape + (M, M))
        return scale * A @ np.swapaxes(A.conj(), -1, -2) / M

    def toeplitz_psd(shape, n=4):
        # The generators of sum_i w_i a(t_i) a(t_i)^H, a(t)_m = exp(j m t):
        # Hermitian Toeplitz and PSD, as a drop holds its R.
        w, t = rng.uniform(size=(2,) + shape + (n, 1))
        lag = np.arange(1 - M, M)
        return np.sum(w * np.exp(-2j * np.pi * lag * t), axis=-2) / n

    net = manual_network(config, rng.uniform(0.2, 1.0, (L, L, K)), r=toeplitz_psd((L, L, K)))
    v = crandn(rng, (B, L, K, M))
    h_hat = crandn(rng, (B, L, K, M))
    C = psd((L, K), 0.1)
    sig = rng.uniform(size=(L, K))
    g, n_var = (np.stack(a, axis=1) for a in zip(*(
        effective_stats(v[:, l], h_hat[:, l], C[l], net, mode, config,
                        sig if known else None, l, intercell_interference(net, mode)[l])
        for l in range(L))))

    q, p = net.energies(mode)
    full = p if mode == "rp" else p + q
    assert g.shape == n_var.shape == (B, L, K)
    for b, l, k in np.ndindex(B, L, K):
        vk = v[b, l, k]

        def quad(X):
            return np.vdot(vk, X @ vk).real

        want = full[l, k] * quad(C[l, k]) + config.noise_energy * np.vdot(vk, vk).real
        for j in range(K):
            if j != k:
                data = p[l, j] * (1.0 - sig[l, j]) if known else full[l, j]
                want += data * abs(np.vdot(vk, h_hat[b, l, j])) ** 2 + full[l, j] * quad(C[l, j])
        for ll, kk in np.ndindex(L, K):
            if ll != l:
                want += full[ll, kk] * quad(net.R[l, ll, kk])
        assert np.isclose(g[b, l, k], np.sqrt(p[l, k]) * np.vdot(vk, h_hat[b, l, k]),
                          rtol=1e-12, atol=0)
        assert np.isclose(n_var[b, l, k], want, rtol=1e-12, atol=0)


def _stacked_effective_stats(v, h_hat, C, realization, mode, config, sigma_est):
    """effective_stats as one call for every cell: v, h_hat (..., L, K, M), C (L, K, M, M).

    The kernel the per-cell effective_stats replaced, kept as its oracle.
    """
    q, p = realization.energies(mode)
    full = p if mode == "rp" else p + q
    g = np.sqrt(p) * np.einsum("...km,...km->...k", v.conj(), h_hat)
    vCv = np.einsum("...km,...jmn,...kn->...kj", v.conj(), C, v).real
    vh2 = np.abs(np.einsum("...km,...jm->...kj", v.conj(), h_hat)) ** 2
    n_var = np.einsum("...kk,...k->...k", vCv, full)
    est_part = full if sigma_est is None else p * (1.0 - np.asarray(sigma_est, dtype=float))
    off = ~np.eye(config.K, dtype=bool)
    cross = vh2 * est_part[..., None, :] + vCv * full[..., None, :]
    n_var = n_var + np.einsum("...kj,kj->...k", cross, off.astype(float))
    inter = np.ascontiguousarray(toeplitz(realization.intercell(full)))
    n_var = n_var + np.einsum("...km,...mn,...kn->...k", v.conj(), inter, v).real
    n_var = n_var + config.noise_energy * np.einsum("...km,...km->...k", v.conj(), v).real
    return g, n_var


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("combiner_kind", ["mr", "smmse"])
@pytest.mark.parametrize("mode", ["rp", "sp"])
def test_per_cell_effective_stats_keep_the_stacked_bits(monkeypatch, split_small, mode,
                                                        combiner_kind, threads):
    # The receiver reduces each cell's C to its (g, n_var) where the stage
    # makes it; stacked over the cells they are the one all-cell call's bits,
    # in the pilot-only pass (sigma None) and a data-aided one (sigma 0.6).
    monkeypatch.setattr(_threads, "_count", threads)
    config = cfg(M=32, K=4, L=3, tau_c=40, tau_p=4, noise_energy=0.01, rho_design=0.1)
    net = make_network(config, np.random.default_rng(14))
    asg = assign_pilots(config, mode)
    rng = np.random.default_rng(15)
    sig = np.full((config.L, config.K), 0.6)
    s_hat, s = gaussian_symbols(rng, sig, (4, config.L, config.K, config.data_slots(mode)))
    blocks = simulate_blocks(mode, asg, s, net, config, rng)
    inter = intercell_interference(net, mode)
    for sigma, extra in ((None, {}), (sig, {"s_blocks": s_hat, "sigma": sig})):
        def reduce(l, v, h_l, C_l):
            return (effective_stats(v, h_l, C_l, net, mode, config, sigma, l, inter[l]),
                    v, C_l)

        h_hat, _, cells, _ = estimate_and_combine(blocks, net, asg, config, mode,
                                                  combiner_kind, reduce, **extra)
        stats, V, C = zip(*cells)
        # The stage's stack used to be C-contiguous (B, L, K, M), whatever the
        # layout of each cell's v; np.stack keeps that of its inputs.
        V = np.ascontiguousarray(np.stack(V, axis=1))
        want = _stacked_effective_stats(V, h_hat, np.stack(C), net, mode, config, sigma)
        for got, ref in zip(zip(*stats), want):
            assert np.array_equal(np.stack(got, axis=1).view(np.uint64), ref.view(np.uint64))
