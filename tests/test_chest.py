"""Channel estimation tests: de-spreading, covariances, LMMSE, projections."""

import tracemalloc

import numpy as np
import pytest
from conftest import manual_network

from ullsim import ScenarioConfig, _threads
from ullsim.airlink import crandn, simulate_blocks
from ullsim.chest import (EstimationError, data_aided_feasibility,
                          data_aided_observation, lmmse_filter, pilot_observation,
                          psi_data_aided_bound, psi_data_aided_empirical,
                          psi_pilot, simulate_data_aided_observations)
from ullsim.netgeom import make_network, toeplitz
from ullsim.pilots import assign_pilots, make_pilot_book


def cfg(**kw):
    base = dict(M=4, K=2, L=1, tau_c=20, tau_p=2, noise_energy=1.0,
                rho_design=1.0, rho_max=1e6)
    base.update(kw)
    return ScenarioConfig(**base)


# ---------------------------------------------------------------------------
# De-spreading


def test_despread_single_ue_noise_free_rp():
    config = cfg(K=1, tau_p=1)
    book = make_pilot_book(1)
    h = crandn(np.random.default_rng(0), (config.M,))
    q = np.array([0.7])
    Y = np.zeros((config.M, config.tau_c), dtype=complex)
    Y[:, :1] = np.sqrt(q[0]) * h[:, None] * book.seqs[0]
    z = pilot_observation(Y, book.seqs[:1], q, "rp", tau_p=1)
    assert np.allclose(z[0], h, atol=1e-12)


def test_despread_orthogonal_ues_no_cross_term():
    config = cfg(K=2, tau_p=2)
    book = make_pilot_book(2)
    rng = np.random.default_rng(1)
    h = crandn(rng, (2, config.M))
    q = np.array([0.5, 1.5])
    pilots = np.sqrt(q)[:, None] * book.seqs[:2]          # (K, tau_p)
    Y = np.zeros((config.M, config.tau_c), dtype=complex)
    Y[:, :2] = h.T @ pilots
    z = pilot_observation(Y, book.seqs[:2], q, "rp", tau_p=2)
    assert np.allclose(z[0], h[0], atol=1e-12)
    assert np.allclose(z[1], h[1], atol=1e-12)


def test_despread_sp_zero_data():
    config = cfg(K=1, tau_c=8, tau_p=1)
    book = make_pilot_book(8)
    h = crandn(np.random.default_rng(2), (config.M,))
    q = np.array([0.3])
    Y = np.sqrt(q[0]) * h[:, None] * book.seqs[0][None, :]
    z = pilot_observation(Y, book.seqs[:1], q, "sp")
    assert np.allclose(z[0], h, atol=1e-12)


def test_despread_rejects_zero_energy():
    book = make_pilot_book(2)
    Y = np.zeros((4, 8), dtype=complex)
    with pytest.raises(EstimationError):
        pilot_observation(Y, book.seqs[:1], np.array([0.0]), "rp", tau_p=2)


# ---------------------------------------------------------------------------
# Pilot-only Psi


def test_psi_single_cell_single_ue_rp():
    beta, q, sigma2, tau_p = 0.8, 1.3, 0.4, 4
    config = cfg(M=3, K=1, tau_p=tau_p, noise_energy=sigma2, rho_design=None)
    net = manual_network(config, beta * np.ones((1, 1, 1)), rho=q * np.ones((1, 1)))
    asg = assign_pilots(config, "rp")
    psi = psi_pilot(net, asg, config, "rp")
    expect = (beta + sigma2 / (q * tau_p)) * np.eye(3)
    assert np.allclose(psi[0, 0], expect, atol=1e-14)


def test_psi_sp_delta_one_drops_data_term():
    config = cfg(L=3, K=2, tau_c=24, tau_p=2, delta=1.0)
    net = make_network(config, np.random.default_rng(3))
    asg = assign_pilots(config, "sp")
    psi = psi_pilot(net, asg, config, "sp")
    # with delta = 1 all data energies vanish: psi is contamination + noise only
    q, p = net.energies("sp")
    assert np.all(p == 0)
    for l in range(3):
        for k in range(2):
            expect = sum(net.R[l, ll, kk] * (q[ll, kk] / q[l, k])
                         for ll, kk in np.argwhere(asg.indices == asg.indices[l, k]))
            expect = expect + (config.noise_energy / (q[l, k] * config.tau_c)) * np.eye(config.M)
            assert np.allclose(psi[l, k], expect, atol=1e-14)


def test_psi_monte_carlo_both_modes():
    """Sample covariance of de-spread observations vs analytic Psi."""
    config = cfg(M=2, K=2, L=3, tau_c=12, tau_p=2, noise_energy=0.5)
    net = make_network(config, np.random.default_rng(4))
    rng = np.random.default_rng(5)
    n_total, chunk = 100_000, 4000
    for mode in ("rp", "sp"):
        asg = assign_pilots(config, mode)
        psi = psi_pilot(net, asg, config, mode)
        seqs = asg.book.seqs[asg.indices]
        q, _ = net.energies(mode)
        acc = np.zeros((config.L, config.K, config.M, config.M), dtype=complex)
        n_data = config.tau_d if mode == "rp" else config.tau_c
        for _ in range(n_total // chunk):
            s = crandn(rng, (chunk, config.L, config.K, n_data))
            blocks = simulate_blocks(mode, asg, s, net, config, rng)
            for l in range(config.L):
                z = pilot_observation(blocks.Y[:, l], seqs[l], q[l], mode,
                                      tau_p=config.tau_p)
                acc[l] += np.einsum("nkm,nkp->kmp", z, z.conj())
        emp = acc / n_total
        err = np.linalg.norm(emp - psi, axis=(-2, -1))
        ref = np.linalg.norm(psi, axis=(-2, -1))
        assert np.all(err <= 0.03 * ref), f"{mode}: {err / ref}"


# ---------------------------------------------------------------------------
# LMMSE


def test_lmmse_scalar_algebra():
    # R = I, Psi = (1 + sigma2/(q tau_p)) I -> per-antenna MSE = s/(1+s)
    for s in (0.25, 1.0, 4.0):
        R = np.eye(3)
        psi = (1.0 + s) * np.eye(3)
        W, C = lmmse_filter(R, psi)
        assert np.allclose(W, np.eye(3) / (1.0 + s))
        assert np.allclose(np.trace(C).real / 3, s / (1.0 + s))
    # with q tau_p = sigma2 the MSE is exactly one half
    W, C = lmmse_filter(np.eye(2), 2.0 * np.eye(2))
    assert np.isclose(np.trace(C).real / 2, 0.5)


def test_lmmse_perfect_when_noise_vanishes():
    R = np.array([[2.0, 0.5], [0.5, 1.0]], dtype=complex)
    W, C = lmmse_filter(R, R.copy())              # Psi -> R as noise -> 0
    assert np.allclose(C, 0.0, atol=1e-12)
    assert np.allclose(W @ R, R, atol=1e-12)


def test_lmmse_null_ue():
    z = crandn(np.random.default_rng(6), (5,))
    W, C = lmmse_filter(np.zeros((5, 5)), np.eye(5))
    assert np.all(W @ z == 0)
    assert np.all(C == 0)


def test_lmmse_estimate_reduces_error_monte_carlo():
    """End-to-end: estimator MSE must match tr(C)/M for a contaminated cell."""
    config = cfg(M=3, K=1, L=4, tau_c=16, tau_p=1, noise_energy=0.2)
    net = make_network(config, np.random.default_rng(7))
    asg = assign_pilots(config, "rp")
    psi = psi_pilot(net, asg, config, "rp")
    Rs = net.R[np.arange(4), np.arange(4)]
    W, C = lmmse_filter(Rs, psi)
    rng = np.random.default_rng(8)
    n = 20_000
    seqs = asg.book.seqs[asg.indices]
    q, _ = net.energies("rp")
    s = crandn(rng, (n, 4, 1, config.tau_d))
    blocks = simulate_blocks("rp", asg, s, net, config, rng)
    for l in range(4):
        z = pilot_observation(blocks.Y[:, l], seqs[l], q[l], "rp", tau_p=1)
        h_hat = np.einsum("kmn,bkn->bkm", W[l], z)
        h = blocks.H[:, l, l]
        mse_emp = np.mean(np.abs(h - h_hat) ** 2)
        mse_ana = np.trace(C[l, 0]).real / config.M
        assert abs(mse_emp - mse_ana) <= 0.05 * mse_ana


@pytest.mark.parametrize("dtype, threads", [
    pytest.param(complex, 1, id="complex"), pytest.param(float, 1, id="float"),
    pytest.param(complex, 3, id="complex-3-threads"),
    pytest.param(float, 3, id="float-3-threads")])
def test_lmmse_filter_equals_the_out_of_place_expression(monkeypatch, dtype, threads):
    # W, R - W R and its symmetrization run in place, one matrix at a time,
    # on the calling thread whatever the trial's count; the bits must be
    # those of the out-of-place stacked expressions. A real C is its own conj(): the case where C += C^H reads
    # what it writes.
    monkeypatch.setattr(_threads, "_MIN_WORK", 1)
    monkeypatch.setattr(_threads, "_count", threads)
    rng = np.random.default_rng(30)
    A, B = crandn(rng, (2, 3, 5, 5)), crandn(rng, (2, 3, 5, 5))
    A, B = (A, B) if dtype is complex else (A.real, B.real)
    R = A @ np.swapaxes(A.conj(), -1, -2)
    Psi = R + B @ np.swapaxes(B.conj(), -1, -2) + 0.1 * np.eye(5)
    W, C = lmmse_filter(R, Psi)
    W_want = np.swapaxes(np.linalg.solve(Psi, R).conj(), -1, -2)
    C_want = R - W_want @ R
    C_want = 0.5 * (C_want + np.swapaxes(C_want.conj(), -1, -2))
    assert np.array_equal(W, W_want)
    assert np.array_equal(C, C_want)


def test_lmmse_filter_on_a_strided_view_of_r():
    # The receiver hands lmmse_filter the serving correlations R[l, l] as a
    # view of R's cell diagonal, not a fancy-index copy: same bits.
    config = cfg(M=6, K=2, L=3, tau_c=16, tau_p=2)
    net = make_network(config, np.random.default_rng(31))
    psi = psi_pilot(net, assign_pilots(config, "sp"), config, "sp")
    view = np.moveaxis(np.diagonal(net.R, axis1=0, axis2=1), -1, 0)
    copy = net.R[np.arange(3), np.arange(3)]
    assert np.shares_memory(view, net.R) and not view.flags.c_contiguous
    W, C = lmmse_filter(view, psi)
    W_want, C_want = lmmse_filter(copy, psi)
    assert np.array_equal(W, W_want)
    assert np.array_equal(C, C_want)


# ---------------------------------------------------------------------------
# Data-aided projection


def test_projection_recovers_channels_exactly():
    # noiseless, perfect symbol knowledge: z_k = h_k for every UE
    rng = np.random.default_rng(9)
    M, K, tau = 4, 3, 16
    H = crandn(rng, (K, M))
    X = crandn(rng, (tau, K))
    Y = np.einsum("km,tk->mt", H, X)
    z, ok = data_aided_observation(Y, X)
    assert ok.all()
    assert np.allclose(z, H, atol=1e-10)


def test_projection_orthogonal_columns_is_matched_filter():
    rng = np.random.default_rng(10)
    tau = 8
    book = make_pilot_book(tau)
    X = (book.seqs[:2] * np.array([[2.0], [0.5]])).T          # orthogonal columns
    Y = crandn(rng, (4, tau))
    z, ok = data_aided_observation(Y, X)
    assert ok.all()
    for k in range(2):
        expect = Y @ np.conj(X[:, k]) / np.linalg.norm(X[:, k]) ** 2
        assert np.allclose(z[k], expect, atol=1e-12)


def test_projection_single_column():
    rng = np.random.default_rng(11)
    x = crandn(rng, (10, 1))
    Y = crandn(rng, (4, 10))
    z, ok = data_aided_observation(Y, x)
    assert ok.all()
    assert np.allclose(z[0], Y @ np.conj(x[:, 0]) / np.linalg.norm(x) ** 2)


def test_projection_identity_property():
    # Xhat^H u_k = e_k by construction
    rng = np.random.default_rng(12)
    X = crandn(rng, (20, 4))
    G = X.conj().T @ X
    U = X @ np.linalg.inv(G)
    assert np.allclose(X.conj().T @ U, np.eye(4), atol=1e-10)


def test_projection_rank_deficient_is_marked_not_ok():
    X = np.zeros((10, 2), dtype=complex)
    X[:, 0] = 1.0
    X[:, 1] = 1.0                                  # duplicated column
    Y = crandn(np.random.default_rng(13), (4, 10))
    z, ok = data_aided_observation(Y, X)
    assert not ok
    assert np.array_equal(z, np.zeros((2, 4)))


# ---------------------------------------------------------------------------
# Data-aided bound


def test_bound_rp_sigma_zero_equals_pilot_only():
    config = cfg(M=4, K=2, L=4, tau_c=20, tau_p=2)
    net = make_network(config, np.random.default_rng(14))
    asg = assign_pilots(config, "rp")
    bound = psi_data_aided_bound(net, asg, config, "rp", np.zeros((4, 2)))
    pilot = psi_pilot(net, asg, config, "rp")
    assert np.array_equal(bound, pilot)            # same code path, bit-exact


# ---------------------------------------------------------------------------
# The generator sums against the per-UE dense loops they replaced


def _sharers(asg, l, k):
    """Every (cell, UE) on UE (l, k)'s pilot, in (cell, UE) order."""
    return [(int(a), int(b)) for a, b in np.argwhere(asg.indices == asg.indices[l, k])]


def dense_intercell(net, energy):
    L, K = energy.shape
    M = net.R.shape[-1]
    inter = np.zeros((L, M, M), dtype=complex)
    for l in range(L):
        for ll, kk in np.ndindex(L, K):
            if ll != l:
                inter[l] += net.R[l, ll, kk] * energy[ll, kk]
    return inter


def dense_psi_pilot(net, asg, config, mode):
    R = net.R
    q, p = net.energies(mode)
    L, K, M = config.L, config.K, config.M
    eye = np.eye(M)
    psi = np.zeros((L, K, M, M), dtype=complex)
    for l, k in np.ndindex(L, K):
        qk = q[l, k]
        for ll, kk in _sharers(asg, l, k):
            psi[l, k] += R[l, ll, kk] * (q[ll, kk] / qk)
        if mode == "rp":
            psi[l, k] += (config.noise_energy / (qk * config.tau_p)) * eye
        else:
            data = np.zeros((M, M), dtype=complex)
            for ll, kk in np.ndindex(L, K):
                data += R[l, ll, kk] * (p[ll, kk] / qk)
            psi[l, k] += (data + (config.noise_energy / qk) * eye) / config.tau_c
    return psi


def dense_psi_bound(net, asg, config, mode, sig):
    R = net.R
    q, p = net.energies(mode)
    L, K, M = config.L, config.K, config.M
    tau_c, tau_p, tau_d = config.tau_c, config.tau_p, config.tau_d
    noise = config.noise_energy
    eye = np.eye(M)
    psi = np.empty((L, K, M, M), dtype=complex)
    inter = dense_intercell(net, p)
    pilot_only = dense_psi_pilot(net, asg, config, mode)
    for l in range(L):
        intra = [R[l, l, kk] * p[l, kk] * (1.0 - sig[l, kk]) for kk in range(K)]
        for k in range(K):
            qk, pk, s2 = q[l, k], p[l, k], sig[l, k]
            if mode == "rp" and s2 == 0.0:
                psi[l, k] = pilot_only[l, k]
                continue
            contam = np.zeros((M, M), dtype=complex)
            for ll, kk in _sharers(asg, l, k):
                if (ll, kk) != (l, k):
                    contam += R[l, ll, kk] * q[ll, kk]
            data_num = sum(intra[kk] for kk in range(K) if kk != k) + inter[l]
            if mode == "rp":
                d_data = (qk ** 2 * tau_p ** 2 / (pk * s2 * (tau_d - K))
                          + 2.0 * qk * tau_p + pk * s2 * tau_d)
                d_pilot = (qk + 2.0 * tau_d * pk * s2 / tau_p
                           + (pk * s2) ** 2 * tau_d * (tau_d + 1.0) / (qk * tau_p ** 2))
                d_noise = qk * tau_p + pk * s2 * tau_d
            else:
                mix = qk + pk * s2
                d_data = tau_c * mix
                d_pilot = mix ** 2 / qk + pk * s2 * (2.0 * qk + pk * s2) / (qk * tau_c)
                d_noise = tau_c * mix
            psi[l, k] = (R[l, l, k] * (1.0 + pk * (1.0 - s2) / d_data)
                         + data_num / d_data
                         + contam / d_pilot
                         + (noise / d_noise) * eye)
    return psi


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("mode, scenario, set_sizes", [
    ("rp", dict(tau_p=2), [4] * 4),                        # reuse 1
    ("rp", dict(tau_p=6), [2, 1, 1, 2]),                   # reuse 3, ragged
    ("sp", dict(tau_p=2), [1] * 4),                        # every pilot its own
    ("sp", dict(L=7, tau_c=12, tau_p=2), [2, 2, 2, 1, 2, 2, 2]),   # reuse 4 over 7 cells
])
@pytest.mark.parametrize("seed", [1, 3])
def test_generator_sums_have_the_dense_loops_bits(mode, scenario, set_sizes, seed):
    # Every bit, -0.0 included, of psi_pilot, psi_data_aided_bound and
    # intercell against the per-UE dense sums, at the sigma^2 that take each
    # branch: 0 (rp's pilot-only UEs), 1, uniform, and a mix with zeros.
    config = cfg(**{**dict(M=8, K=2, L=4, tau_c=20), **scenario})
    L, K = config.L, config.K
    net = make_network(config, np.random.default_rng(seed))
    asg = assign_pilots(config, mode)
    assert [int((asg.indices == asg.indices[l, 0]).sum()) for l in range(L)] == set_sizes
    rng = np.random.default_rng(seed + 100)
    mixed = rng.uniform(size=(L, K))
    mixed[rng.uniform(size=(L, K)) < 0.5] = 0.0
    sigmas = [np.zeros((L, K)), np.ones((L, K)), np.full((L, K), 0.6),
              rng.uniform(size=(L, K)), mixed]

    energy = rng.uniform(0.5, 2.0, (L, K))
    assert np.array_equal(bits(toeplitz(net.intercell(energy))),
                          bits(dense_intercell(net, energy)))
    psi = psi_pilot(net, asg, config, mode)
    assert not psi.flags.writeable
    assert np.array_equal(bits(psi), bits(dense_psi_pilot(net, asg, config, mode)))
    for sig in sigmas:
        bound = psi_data_aided_bound(net, asg, config, mode, sig)
        assert not bound.flags.writeable
        assert np.array_equal(bits(bound), bits(dense_psi_bound(net, asg, config, mode, sig)))


@pytest.mark.parametrize("mode", ["rp", "sp"])
def test_bound_squares_energies_as_the_per_ue_scalars_did(mode):
    # numpy's scalar x ** 2 is libm's pow and an array's x ** 2 is x * x,
    # which differ in the last bit for a few x; at some of them the bound's
    # bits differ too. Three cells share every pilot in either mode, and
    # UE (0, 0) squares its own energy at sigma^2 = 1 and delta = 0.5.
    x = np.linspace(0.5, 2.0, 100_001)
    odd = x[np.array([np.float64(v) ** 2 for v in x]) != x * x]
    config = cfg(M=4, K=2, L=3, tau_c=5, tau_p=2, delta=0.5)
    rng = np.random.default_rng(0)
    beta = rng.uniform(0.2, 1.0, (3, 3, 2))
    sig = np.array([[1.0, 0.3], [0.5, 0.7], [1.0, 0.2]])
    asg = assign_pilots(config, mode)
    assert (asg.indices == asg.indices[0]).all()
    for v in odd:
        net = manual_network(config, beta, rho=np.array([[v, 1.1], [0.9, 1.3], [v, 0.7]]))
        assert np.array_equal(bits(psi_data_aided_bound(net, asg, config, mode, sig)),
                              bits(dense_psi_bound(net, asg, config, mode, sig))), v


@pytest.mark.parametrize("mode", ["rp", "sp"])
def test_paper_point_statistics_hold_only_generators(mode):
    # At the paper point a dense (L, K, M, M) psi stack takes 6.4 MB. The
    # generator sums peaked at 0.51 (rp) and 0.64 MB (sp) in psi_pilot and at
    # 1.15 and 0.96 MB in the bound, drop seed 1.
    config = ScenarioConfig()
    net = make_network(config, np.random.default_rng(1))
    asg = assign_pilots(config, mode)
    sig = np.random.default_rng(2).uniform(size=(config.L, config.K))
    sig[0] = 0.0
    for fn, args in ((psi_pilot, ()), (psi_data_aided_bound, (sig,))):
        fn(net, asg, config, mode, *args)              # numpy's one-time allocations
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            fn(net, asg, config, mode, *args)
            peak = tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()
        assert peak < 2e6, (fn.__name__, peak)


def test_bound_sp_sigma_one_no_intracell_data():
    # single cell, two UEs: at sigma = 1 the co-UE data term must be absent
    beta = np.array([[[1.0, 0.5]]])
    config = cfg(M=3, K=2, L=1, tau_c=16, tau_p=2, delta=0.4, noise_energy=0.1)
    net = manual_network(config, beta)
    asg = assign_pilots(config, "sp")
    bound = psi_data_aided_bound(net, asg, config, "sp", np.ones((1, 2)))
    q, p = net.energies("sp")
    for k in range(2):
        mix = q[0, k] + p[0, k]
        expect = net.R[0, 0, k] + (config.noise_energy / (config.tau_c * mix)) * np.eye(3)
        assert np.allclose(bound[0, k], expect, atol=1e-14)


def test_bound_decreases_with_symbol_quality():
    config = cfg(M=4, K=2, L=4, tau_c=40, tau_p=2)
    net = make_network(config, np.random.default_rng(15))
    for mode in ("rp", "sp"):
        asg = assign_pilots(config, mode)
        Rs = net.R[np.arange(4), np.arange(4)]
        prev = None
        for s in (0.2, 0.5, 0.8, 1.0):
            psi = psi_data_aided_bound(net, asg, config, mode, np.full((4, 2), s))
            _, C = lmmse_filter(Rs, psi)
            mse = np.einsum("lkii->lk", C).real / config.M
            if prev is not None:
                assert np.all(mse < prev + 1e-16), mode
            prev = mse


def test_bound_dominates_empirical_small_case():
    """Semidefinite ordering on a small scenario at moderate draw count."""
    config = cfg(M=4, K=2, L=1, tau_c=24, tau_p=2, noise_energy=0.3)
    net = make_network(config, np.random.default_rng(16))
    rng = np.random.default_rng(17)
    sig = np.full((1, 2), 0.6)
    for mode in ("rp", "sp"):
        asg = assign_pilots(config, mode)
        draws = simulate_data_aided_observations(net, asg, config, mode, sig,
                                                 rng, n_draws=4000)
        emp = psi_data_aided_empirical(draws)
        bound = psi_data_aided_bound(net, asg, config, mode, sig)
        for k in range(2):
            w = np.linalg.eigvalsh(emp[0, k] - bound[0, k])
            assert w[0] >= -0.05 * np.trace(emp[0, k]).real / config.M, mode


# ---------------------------------------------------------------------------
# Empirical covariance


def test_empirical_psi_fixed_vector():
    v = crandn(np.random.default_rng(18), (6,))
    draws = np.tile(v, (200, 1))
    psi = psi_data_aided_empirical(draws)
    assert np.allclose(psi, np.outer(v, v.conj()), atol=1e-12)


def test_empirical_psi_iid_identity():
    draws = crandn(np.random.default_rng(19), (100_000, 4))
    psi = psi_data_aided_empirical(draws)
    assert np.linalg.norm(psi - np.eye(4)) <= 0.03 * np.linalg.norm(np.eye(4))


def test_empirical_psi_quadratic_scaling():
    rng = np.random.default_rng(20)
    draws = crandn(rng, (500, 3))
    a = psi_data_aided_empirical(draws)
    b = psi_data_aided_empirical(2.5 * draws)
    assert np.allclose(b, 2.5 ** 2 * a, atol=1e-12)


def test_empirical_psi_needs_enough_draws():
    draws = crandn(np.random.default_rng(21), (50, 4))
    with pytest.raises(EstimationError):
        psi_data_aided_empirical(draws)


# ---------------------------------------------------------------------------
# Feasibility


def test_feasibility_worked_example():
    # q = p, tau_p = K = 10, tau_d = 190, sigma^2 = 0.6
    config = ScenarioConfig(M=2, K=10, L=1, tau_c=200, tau_p=10)
    res = data_aided_feasibility(config, 0.6)
    assert np.isclose(res.min_tau_d, 10.0 / 0.6 + 10.0)      # 26.67
    assert res.feasible
    assert np.isclose(res.min_sigma_sq, 10.0 / np.sqrt(190.0 * 180.0))


def test_feasibility_degenerate_cases():
    config = ScenarioConfig(M=2, K=10, L=1, tau_c=200, tau_p=10)
    assert not data_aided_feasibility(config, 0.0).feasible
    assert data_aided_feasibility(config, 0.0).min_tau_d == np.inf
    tight = ScenarioConfig(M=2, K=10, L=1, tau_c=20, tau_p=10)
    res = data_aided_feasibility(tight, 0.9)       # tau_d = K = 10
    assert res.min_sigma_sq == np.inf
    assert not res.feasible
