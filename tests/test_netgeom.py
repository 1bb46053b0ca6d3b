"""Geometry, pathloss, spatial correlation, and power control tests."""

import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

import ullsim
from ullsim import ScenarioConfig
from ullsim.airlink import correlation_sqrt
from ullsim.config import hex_cluster_basis
from ullsim.netgeom import (HexGrid, apply_power_control, build_geometry,
                            local_scattering_correlation, make_network, toeplitz)


def small_config(**kw):
    base = dict(M=4, K=2, L=4, tau_c=20, tau_p=2)
    base.update(kw)
    return ScenarioConfig(**base)


# ---------------------------------------------------------------------------
# Pathloss


def test_pathloss_at_100m_matches_closed_form():
    # beta_dB = -148.1 - 37.6*log10(0.1) = -110.5 dB with shadowing off
    cfg = small_config(shadow_std_db=0.0, inter_bs_km=10.0, L=1, K=64, tau_p=64, tau_c=128)
    rng = np.random.default_rng(0)
    grid, ue_pos, beta, _ = build_geometry(cfg, rng)
    d = grid.distance(grid.bs_pos[0], ue_pos[0])
    beta_db = 10 * np.log10(beta[0, 0])
    expected = -148.1 - 37.6 * np.log10(d)
    assert np.allclose(beta_db, expected, atol=1e-9)
    # spot value: a UE at exactly 0.1 km would sit at -110.5 dB
    assert abs((-148.1 - 37.6 * np.log10(0.1)) - (-110.5)) < 1e-12


def test_pathloss_reference_distance():
    # at d = 1 km the gain equals -omega = -148.1 dB by definition
    assert abs((-148.1 - 37.6 * np.log10(1.0)) - (-148.1)) < 1e-15


def test_geometry_deterministic_under_seed():
    cfg = small_config()
    a = build_geometry(cfg, np.random.default_rng(123))
    b = build_geometry(cfg, np.random.default_rng(123))
    assert np.array_equal(a[1], b[1])
    assert np.array_equal(a[2], b[2])


def test_ue_assignment_and_min_distance():
    cfg = small_config(K=16, tau_p=16)
    grid, ue_pos, beta, _ = build_geometry(cfg, np.random.default_rng(5))
    for l in range(cfg.L):
        d = grid.distance(grid.bs_pos[None, :, :], ue_pos[l][:, None, :])
        assert np.all(np.argmin(d, axis=1) == l)          # served by nearest BS
        assert np.all(d[:, l] >= cfg.min_dist_km - 1e-12)


# ---------------------------------------------------------------------------
# Wrap-around torus


def test_torus_distance_symmetry_and_shift_invariance():
    grid = HexGrid(4, 0.15)
    rng = np.random.default_rng(2)
    pts = grid.uniform_points(rng, 50)
    d_ab = grid.distance(pts[:25], pts[25:])
    d_ba = grid.distance(pts[25:], pts[:25])
    assert np.allclose(d_ab, d_ba)
    # shifting both points by a wrap period leaves distances unchanged
    period = grid._periods[3]
    assert np.allclose(grid.distance(pts[:25] + period, pts[25:]), d_ab)


def test_torus_has_l_distinct_bs():
    for L in (1, 3, 4, 7):
        grid = HexGrid(L, 0.15)
        assert grid.bs_pos.shape == (L, 2)
        if L > 1:
            d = grid.distance(grid.bs_pos[None], grid.bs_pos[:, None])
            off = d[~np.eye(L, dtype=bool)]
            assert off.min() > 1e-9


def test_hex_grid_sites_are_the_first_of_each_coset():
    # The oracle is the full candidate scan: every a*u1 + b*u2 with
    # |a|, |b| <= L + 2, sorted by (np.linalg.norm, (a, b)), each kept unless
    # an earlier keeper lies in its coset. The sort key does not depend on L,
    # so one sort of the largest window, filtered to L's window, is L's sort.
    spacing = 0.15
    sizes = [L for L in range(1, 401) if hex_cluster_basis(L) is not None]
    u1 = spacing * np.array([1.0, 0.0])
    u2 = spacing * np.array([0.5, np.sqrt(3.0) / 2.0])
    span = sizes[-1] + 2
    a, b = (x.ravel() for x in np.meshgrid(np.arange(-span, span + 1),
                                           np.arange(-span, span + 1), indexing="ij"))
    # Row n is a[n]*u1 + b[n]*u2 with the point-by-point products and sums.
    norm = np.array([np.linalg.norm(p) for p in a[:, None] * u1 + b[:, None] * u2])
    order = np.lexsort((b, a, norm))
    cand = list(zip(a[order].tolist(), b[order].tolist()))
    for L in sizes:
        i, j = hex_cluster_basis(L)
        reps = []
        for x, y in cand:
            if max(abs(x), abs(y)) > L + 2:
                continue
            if not any(((i + j) * (x - ra) + j * (y - rb)) % L == 0
                       and (-j * (x - ra) + i * (y - rb)) % L == 0 for ra, rb in reps):
                reps.append((x, y))
            if len(reps) == L:
                break
        want = np.array([x * u1 + y * u2 for x, y in reps])
        assert np.array_equal(HexGrid(L, spacing).bs_pos, want), L


def test_non_cluster_size_rejected():
    with pytest.raises(ullsim.ConfigError):
        HexGrid(5, 0.15)


# ---------------------------------------------------------------------------
# Local scattering correlation


def _gauss(d, s):
    return np.exp(-d ** 2 / (2 * s ** 2)) / np.sqrt(2 * np.pi * s ** 2)


def _quad_entry(k, tbar, s, spacing, linearized):
    """Numerical integration oracle for the scattering expectation at lag k."""
    if linearized:
        phase = lambda d: 2 * np.pi * spacing * k * (np.sin(tbar) + d * np.cos(tbar))
    else:
        phase = lambda d: 2 * np.pi * spacing * k * np.sin(tbar + d)
    re = quad(lambda d: np.cos(phase(d)) * _gauss(d, s), -20 * s, 20 * s, limit=400)[0]
    im = quad(lambda d: np.sin(phase(d)) * _gauss(d, s), -20 * s, 20 * s, limit=400)[0]
    return re + 1j * im


def test_scattering_matches_quadrature_oracle():
    cfg = small_config(M=4, angular_std_deg=10.0, antenna_spacing=0.5)
    tbar, s = np.deg2rad(30.0), np.deg2rad(10.0)
    R = local_scattering_correlation(1.0, tbar, cfg)
    for k in range(4):
        exact = _quad_entry(k, tbar, s, 0.5, linearized=False)
        lin = _quad_entry(k, tbar, s, 0.5, linearized=True)
        # the small-spread closed form IS the linearized-phase expectation
        assert abs(R[0, k] - lin) < 1e-10
        # against the unlinearized model it degrades with lag: ~1.9% and
        # ~1.3% at lags 1-2 but ~7.4% at lag 3 for this geometry
        tol = 0.02 if k <= 2 else 0.10
        assert abs(R[0, k] - exact) <= tol * abs(exact)


def test_scattering_hermitian_psd_trace():
    cfg = small_config(M=8)
    rng = np.random.default_rng(3)
    for _ in range(20):
        beta = float(10 ** rng.uniform(-12, -8))
        ang = float(rng.uniform(-np.pi, np.pi))
        R = local_scattering_correlation(beta, ang, cfg)
        assert np.allclose(R, R.conj().T)
        assert np.linalg.eigvalsh(R)[0] >= -1e-12 * beta
        assert np.isclose(np.trace(R).real, cfg.M * beta)


def test_scattering_isotropic_limit_is_diagonal():
    cfg = small_config(M=4, angular_std_deg=1e4)
    R = local_scattering_correlation(1.0, 0.3, cfg)
    off = R[~np.eye(4, dtype=bool)]
    assert np.all(np.abs(off) < 1e-6)
    assert np.allclose(np.diag(R).real, 1.0)


def test_scattering_single_antenna():
    cfg = small_config(M=1)
    R = local_scattering_correlation(0.7, 1.0, cfg)
    assert R.shape == (1, 1)
    assert np.isclose(R[0, 0], 0.7)


@pytest.mark.parametrize("M", [1, 8])
def test_one_call_builds_the_drop_link_by_link(M):
    cfg = small_config(M=M, L=3)
    _, _, beta, angle = build_geometry(cfg, np.random.default_rng(4))
    R = local_scattering_correlation(beta, angle, cfg)
    assert R.shape == beta.shape + (M, M) and not R.flags.writeable
    for idx in np.ndindex(beta.shape):
        assert np.array_equal(R[idx], local_scattering_correlation(beta[idx], angle[idx], cfg))
    assert np.array_equal(make_network(cfg, np.random.default_rng(4)).R, R)


def test_paper_drop_holds_only_the_generators():
    # Dense, the paper point's 160 matrices of 100 x 100 take 25.6 MB; their
    # (L, L, K, 2M - 1) generator takes 0.5 MB. A first drop pays numpy's
    # one-time allocations outside the trace.
    cfg = ScenarioConfig()
    make_network(cfg, np.random.default_rng(0))
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        net = make_network(cfg, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert net.R.shape == (cfg.L, cfg.L, cfg.K, cfg.M, cfg.M)
    assert peak < 2e6


def test_end_fire_correlation_is_the_closed_form_and_its_root_clips():
    # At M = 256 end-fire, rounding leaves eigenvalues just below zero: R stays
    # the closed form, and the square root clips them.
    M = 256
    cfg = small_config(M=M)
    R = local_scattering_correlation(1.0, np.pi / 2, cfg)
    lag = np.arange(M)[None, :] - np.arange(M)[:, None]
    row = R[0, np.abs(lag)]
    assert np.array_equal(R, np.where(lag >= 0, row, row.conj()))     # exactly Toeplitz
    assert np.array_equal(R, R.conj().T)
    s = np.deg2rad(cfg.angular_std_deg)
    k = np.arange(M)
    closed = np.exp(1j * np.pi * k) * np.exp(-0.5 * (s * np.pi * k * np.cos(np.pi / 2)) ** 2)
    assert np.allclose(R[0], closed, rtol=0, atol=1e-12)
    S = correlation_sqrt(R)
    assert np.isfinite(S).all()
    assert np.abs(S @ S - R).max() <= 1e-12 * np.trace(R).real


# ---------------------------------------------------------------------------
# Power control


def test_power_control_branches():
    cfg = small_config()
    rho, cap = cfg.rho_design, cfg.rho_max
    beta = np.array([[rho / (2 * cap), rho / (0.5 * cap)]])  # cap hit, cap slack
    out = apply_power_control(beta, cfg)
    assert np.isclose(out[0, 0], cap)                        # clipped
    assert np.isclose(out[0, 1], 0.5 * cap)                  # inversion branch
    assert np.all(out <= cap + 1e-30)


def test_make_network_shapes_and_energy_split():
    cfg = small_config(delta=0.3)
    net = make_network(cfg, np.random.default_rng(9))
    L, K, M = cfg.L, cfg.K, cfg.M
    assert net.R.shape == (L, L, K, M, M)
    q_rp, p_rp = net.energies("rp")
    q_sp, p_sp = net.energies("sp")
    assert np.allclose(q_rp, net.rho) and np.allclose(p_rp, net.rho)
    assert np.allclose(q_sp, 0.3 * net.rho)
    assert np.allclose(p_sp, 0.7 * net.rho)
    assert np.allclose(q_sp + p_sp, net.rho)                 # total budget kept


def test_intercell_sums_every_other_cell_at_every_bs():
    cfg = small_config(L=3)
    rng = np.random.default_rng(10)
    net = make_network(cfg, rng)
    energy = rng.uniform(0.5, 2.0, size=(cfg.L, cfg.K))
    inter = net.intercell(energy)
    assert inter.shape == (cfg.L, 2 * cfg.M - 1)           # Toeplitz generators
    for l in range(cfg.L):
        want = sum(net.R[l, ll, kk] * energy[ll, kk]
                   for ll in range(cfg.L) for kk in range(cfg.K) if ll != l)
        assert np.array_equal(toeplitz(inter[l]), want)    # the same order, the same bits
