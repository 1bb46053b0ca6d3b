"""Iterative receiver behavior: termination, freezing, determinism."""

import numpy as np
import pytest
from conftest import manual_network

from ullsim import ScenarioConfig, receiver
from ullsim.airlink import gaussian_symbols, simulate_blocks
from ullsim.chest import (EstimationError, ProjectionError, lmmse_filter, pilot_observation,
                          psi_data_aided_bound, psi_pilot)
from ullsim.codec import encode, make_code, qpsk_map
from ullsim.codec.framing import make_frame
from ullsim.config import ConfigError
from ullsim.netgeom import make_network
from ullsim.pilots import assign_pilots
from ullsim.receiver import estimate_and_combine, run_receiver, sigma_update


@pytest.fixture(scope="module")
def code():
    return make_code("1/2")


def make_trial(config, net, mode, code, rng):
    """Encode one codeword per UE, map it onto blocks, run the channel."""
    asg = assign_pilots(config, mode)
    n_data = config.tau_d if mode == "rp" else config.tau_c
    frame = make_frame(code.n // 2, n_data)
    info = rng.integers(0, 2, size=(config.L, config.K, code.k), dtype=np.uint8)
    cw = encode(info, code)
    sym = qpsk_map(cw)
    data = np.transpose(np.reshape(
        np.pad(sym, [(0, 0), (0, 0), (0, frame.n_pad)]),
        (config.L, config.K, frame.n_blocks, n_data)), (2, 0, 1, 3))
    blocks = simulate_blocks(mode, asg, data, net, config, rng)
    return asg, frame, cw, blocks


# ---------------------------------------------------------------------------
# sigma_update


def test_sigma_update_rules():
    sig = np.array([[0.3, 1.7], [-0.2, 0.9]])
    ok = np.array([[True, False], [False, True]])
    out = sigma_update(sig, ok)
    assert np.array_equal(out, [[1.0, 1.0], [0.0, 1.0]])
    assert np.array_equal(sigma_update(np.zeros(3), np.zeros(3, dtype=bool)),
                          np.zeros(3))


# ---------------------------------------------------------------------------
# Argument guards


def test_receiver_rejects_bad_psi_source():
    config = ScenarioConfig(M=2, K=1, L=1, tau_c=8, tau_p=1)
    with pytest.raises(ConfigError):
        run_receiver(None, None, None, config, None, None, "rp",
                     psi_source="exact")
    with pytest.raises(ConfigError):
        run_receiver(None, None, None, config, None, None, "rp",
                     psi_source="empirical", rng=None)


def test_receiver_rejects_rp_without_data_room():
    # tau_d = 2 <= K = 10: the projection cannot have full column rank
    config = ScenarioConfig(M=2, K=10, L=1, tau_c=12, tau_p=10)
    with pytest.raises(ConfigError):
        run_receiver(None, None, None, config, None, None, "rp", i_max=1)


def test_receiver_rejects_block_count_mismatch(code):
    config = ScenarioConfig(M=2, K=1, L=1, tau_c=200, tau_p=1,
                            noise_energy=0.1, rho_design=1.0, rho_max=10.0)
    net = manual_network(config, np.ones((1, 1, 1)))
    rng = np.random.default_rng(0)
    asg, frame, _, blocks = make_trial(config, net, "rp", code, rng)
    short = make_frame(code.n // 2, config.tau_d * 2)      # half the blocks
    with pytest.raises(ValueError):
        run_receiver(blocks, net, asg, config, code, short, "rp")


# ---------------------------------------------------------------------------
# Termination and pilot-only equivalence


def test_clean_channel_decodes_immediately(code):
    config = ScenarioConfig(M=12, K=2, L=1, tau_c=200, tau_p=2,
                            noise_energy=0.01, rho_design=1.0, rho_max=10.0)
    net = manual_network(config, np.ones((1, 1, 2)))
    rng = np.random.default_rng(1)
    asg, frame, cw, blocks = make_trial(config, net, "rp", code, rng)
    trace = run_receiver(blocks, net, asg, config, code, frame, "rp", i_max=8)
    assert trace.termination == "all_decoded"
    assert len(trace.states) == 1                          # no extra iterations
    assert trace.final.bler == 0.0
    assert np.array_equal(trace.final.soft.hard_bits, cw)


def test_nonpositive_effective_noise_is_an_estimation_error(code, monkeypatch):
    # LLRs scaled by a negative variance would have their signs flipped
    config = ScenarioConfig(M=12, K=2, L=1, tau_c=200, tau_p=2,
                            noise_energy=0.01, rho_design=1.0, rho_max=10.0)
    net = manual_network(config, np.ones((1, 1, 2)))
    asg, frame, _, blocks = make_trial(config, net, "rp", code, np.random.default_rng(1))
    stats = receiver.effective_stats

    def indefinite(*args, **kwargs):
        g, n_var = stats(*args, **kwargs)
        return g, -n_var

    monkeypatch.setattr(receiver, "effective_stats", indefinite)
    with pytest.raises(EstimationError):
        run_receiver(blocks, net, asg, config, code, frame, "rp", i_max=8)


def test_imax_zero_is_the_pilot_only_pipeline(code):
    config = ScenarioConfig(M=8, K=2, L=1, tau_c=200, tau_p=2,
                            noise_energy=1.0, rho_design=1.0, rho_max=10.0,
                            delta=0.3)
    net = manual_network(config, np.array([[[4.0, 0.5]]]))
    rng = np.random.default_rng(2)
    asg, frame, _, blocks = make_trial(config, net, "sp", code, rng)
    trace = run_receiver(blocks, net, asg, config, code, frame, "sp", i_max=0)
    assert len(trace.states) == 1
    state = trace.final
    assert state.index == 0
    assert state.estimates.source == "pilot"
    # the estimates must be exactly LMMSE on the de-spread pilot observation
    psi0 = psi_pilot(net, asg, config, "sp")
    W0, C0 = lmmse_filter(net.R[np.arange(1), np.arange(1)], psi0)
    q, _ = net.energies("sp")
    seqs = asg.book.seqs[asg.indices]
    z0 = pilot_observation(blocks.Y[:, 0], seqs[0], q[0], "sp")
    h0 = np.einsum("kmn,bkn->bkm", W0[0], z0)
    assert np.allclose(state.estimates.h_hat[:, 0], h0, atol=1e-13)
    assert np.allclose(state.estimates.C, C0, atol=1e-14)


# ---------------------------------------------------------------------------
# Estimate-and-combine stage


def test_rank_deficient_block_keeps_its_pilot_estimate():
    config = ScenarioConfig(M=8, K=2, L=3, tau_c=40, tau_p=2)
    net = make_network(config, np.random.default_rng(5))
    asg = assign_pilots(config, "sp")
    rng = np.random.default_rng(6)
    sig = np.full((3, 2), 0.6)
    s_hat, s = gaussian_symbols(rng, sig, (4, 3, 2, config.data_slots("sp")))
    blocks = simulate_blocks("sp", asg, s, net, config, rng)
    Rs = net.R[np.arange(3), np.arange(3)]
    W0, C0 = lmmse_filter(Rs, psi_pilot(net, asg, config, "sp"))
    W1, C1 = lmmse_filter(Rs, psi_data_aided_bound(net, asg, config, "sp", sig))
    h_pilot, _, _, _ = estimate_and_combine(blocks, W0, C0, net, asg, config, "sp", "mr")
    stage = (blocks, W1, C1, net, asg, config, "sp", "mr")
    clean, _, _, clean_fallbacks = estimate_and_combine(*stage, s_blocks=s_hat,
                                                        h_pilot=h_pilot)
    broken = s_hat.copy()
    broken[2, 1] = np.nan                  # no Gram matrix to invert in block 2, cell 1
    h_hat, _, _, fallbacks = estimate_and_combine(*stage, s_blocks=broken, h_pilot=h_pilot)

    assert clean_fallbacks == 0
    assert fallbacks == 1
    assert np.array_equal(h_hat[2, 1], h_pilot[2, 1])
    others = np.ones((4, 3), dtype=bool)
    others[2, 1] = False
    assert np.array_equal(h_hat[others], clean[others])
    with pytest.raises(ProjectionError):   # nothing to fall back on
        estimate_and_combine(*stage, s_blocks=broken)


# ---------------------------------------------------------------------------
# Freezing and monotonicity


@pytest.fixture(scope="module")
def helper_trace(code):
    """Scenario where one UE decodes at i = 0 and the other never does."""
    config = ScenarioConfig(M=8, K=2, L=1, tau_c=200, tau_p=2,
                            noise_energy=1.0, rho_design=1.0, rho_max=10.0,
                            delta=0.3)
    net = manual_network(config, np.array([[[16.0, 0.12]]]),
                         rho=np.ones((1, 2)))
    rng = np.random.default_rng(3)
    asg, frame, cw, blocks = make_trial(config, net, "sp", code, rng)
    trace = run_receiver(blocks, net, asg, config, code, frame, "sp", i_max=3)
    return trace, cw


def test_unequal_ues_split_at_iteration_zero(helper_trace):
    trace, cw = helper_trace
    ok0 = trace.states[0].soft.decoded_ok
    assert bool(ok0[0, 0]) and not bool(ok0[0, 1])
    assert np.array_equal(trace.states[0].soft.hard_bits[0, 0], cw[0, 0])


def test_decoded_ue_stays_frozen(helper_trace):
    trace, cw = helper_trace
    for state in trace.states:
        assert bool(state.soft.decoded_ok[0, 0])
        assert np.array_equal(state.soft.hard_bits[0, 0], cw[0, 0])
        assert state.soft.sigma_sq[0, 0] == 1.0
        # frozen soft symbols are the exact remodulated codeword
        expect = qpsk_map(cw[0, 0])
        assert np.allclose(state.soft.s_hat[0, 0], expect, atol=1e-14)


def test_bler_never_increases_across_iterations(helper_trace):
    trace, _ = helper_trace
    blers = [s.bler for s in trace.states]
    assert all(b1 <= b0 + 1e-15 for b0, b1 in zip(blers, blers[1:]))
    oks = [s.soft.decoded_ok.copy() for s in trace.states]
    for prev, curr in zip(oks, oks[1:]):
        assert np.all(curr | ~prev)                        # success set only grows


def test_helper_effect_improves_weak_ue_estimate(helper_trace):
    # the strong UE's exact symbols sharpen the weak UE's channel estimate
    trace, _ = helper_trace
    assert len(trace.states) >= 2
    assert trace.states[1].mse_emp[0, 1] < trace.states[0].mse_emp[0, 1]


# ---------------------------------------------------------------------------
# Determinism


def test_receiver_is_deterministic(code):
    config = ScenarioConfig(M=8, K=2, L=1, tau_c=200, tau_p=2,
                            noise_energy=1.0, rho_design=1.0, rho_max=10.0)
    net = manual_network(config, np.array([[[2.0, 1.0]]]))

    def run():
        rng = np.random.default_rng(4)
        asg, frame, _, blocks = make_trial(config, net, "rp", code, rng)
        return run_receiver(blocks, net, asg, config, code, frame, "rp", i_max=2)

    a, b = run(), run()
    assert len(a.states) == len(b.states)
    assert a.termination == b.termination
    for sa, sb in zip(a.states, b.states):
        assert sa.bler == sb.bler
        assert np.array_equal(sa.soft.llr_post, sb.soft.llr_post)
        assert np.array_equal(sa.mse_emp, sb.mse_emp)
        assert np.array_equal(sa.g, sb.g)
