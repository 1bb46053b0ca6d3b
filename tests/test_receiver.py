"""Iterative receiver behavior: termination, freezing, determinism."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from conftest import manual_network

from ullsim import ScenarioConfig, _threads, receiver
from ullsim.airlink import build_transmit, gaussian_symbols, simulate_blocks
from ullsim.chest import (EstimationError, data_aided_observation, lmmse_filter,
                          pilot_observation, psi_data_aided_bound, psi_pilot)
from ullsim.codec import encode, frame_codeword, make_code, qpsk_map
from ullsim.codec.framing import make_frame
from ullsim.combine import build_combiner
from ullsim.config import ConfigError
from ullsim.netgeom import make_network
from ullsim.pilots import assign_pilots
from ullsim.metrics import mse_channel_empirical, se_uatf_moments
from ullsim.receiver import estimate_and_combine, run_receiver


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


def spy_stage(monkeypatch):
    """Record run_receiver's estimate_and_combine calls: s_blocks, sigma, h_hat and
    C, the error covariances each cell's reduce got, stacked over the cells."""
    calls = []
    stage = receiver.estimate_and_combine

    def spy(*args, **kwargs):
        *head, reduce = args
        C = {}                    # by cell: cells on different threads end in any order

        def recording(l, v, h_l, C_l):
            C[l] = C_l
            return reduce(l, v, h_l, C_l)

        out = stage(*head, recording, **kwargs)
        calls.append(dict(s_blocks=kwargs["s_blocks"], sigma=kwargs["sigma"],
                          h_hat=out[0], C=np.stack([C[l] for l in sorted(C)])))
        return out

    monkeypatch.setattr(receiver, "estimate_and_combine", spy)
    return calls


# ---------------------------------------------------------------------------
# Argument guards


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
    assert trace.final.soft.decoded_ok.all()
    assert np.array_equal(trace.final.soft.hard_bits, cw)


def _run_with_noise_variance(code, monkeypatch, noise):
    """run_receiver with effective_stats' noise variances passed through noise."""
    config = ScenarioConfig(M=12, K=2, L=1, tau_c=200, tau_p=2,
                            noise_energy=0.01, rho_design=1.0, rho_max=10.0)
    net = manual_network(config, np.ones((1, 1, 2)))
    asg, frame, _, blocks = make_trial(config, net, "rp", code, np.random.default_rng(1))
    stats = receiver.effective_stats

    def patched(*args, **kwargs):
        g, n_var = stats(*args, **kwargs)
        return g, noise(n_var)

    monkeypatch.setattr(receiver, "effective_stats", patched)
    run_receiver(blocks, net, asg, config, code, frame, "rp", i_max=8)


def test_nonpositive_effective_noise_is_an_estimation_error(code, monkeypatch):
    # LLRs scaled by a negative variance would have their signs flipped
    with pytest.raises(EstimationError):
        _run_with_noise_variance(code, monkeypatch, lambda n_var: -n_var)


def test_nan_effective_noise_is_an_estimation_error(code, monkeypatch):
    # NaN LLRs slice to the all-zero codeword, which passes the parity check:
    # unchecked, every UE would count as decoded.
    with pytest.raises(EstimationError):
        _run_with_noise_variance(code, monkeypatch, lambda n_var: n_var * np.nan)


def test_sp_without_data_energy_is_an_estimation_error(code):
    # delta = 1 leaves p = 0, so every gain and LLR is 0: unchecked, the
    # all-zero codeword would pass the parity check for every UE.
    config = ScenarioConfig(M=12, K=2, L=1, tau_c=200, tau_p=2, noise_energy=0.01,
                            rho_design=1.0, rho_max=10.0, delta=1.0)
    net = manual_network(config, np.ones((1, 1, 2)))
    asg, frame, _, blocks = make_trial(config, net, "sp", code, np.random.default_rng(1))
    with pytest.raises(EstimationError):
        run_receiver(blocks, net, asg, config, code, frame, "sp", i_max=8)


def test_imax_zero_is_the_pilot_only_pipeline(code, monkeypatch):
    config = ScenarioConfig(M=8, K=2, L=1, tau_c=200, tau_p=2,
                            noise_energy=1.0, rho_design=1.0, rho_max=10.0,
                            delta=0.3)
    net = manual_network(config, np.array([[[4.0, 0.5]]]))
    rng = np.random.default_rng(2)
    asg, frame, _, blocks = make_trial(config, net, "sp", code, rng)
    calls = spy_stage(monkeypatch)
    trace = run_receiver(blocks, net, asg, config, code, frame, "sp", i_max=0)
    assert len(trace.states) == len(calls) == 1
    state = trace.final
    assert state is trace.states[0]
    # the estimates must be exactly LMMSE on the de-spread pilot observation
    psi0 = psi_pilot(net, asg, config, "sp")
    W0, C0 = lmmse_filter(net.R[np.arange(1), np.arange(1)], psi0)
    q, _ = net.energies("sp")
    seqs = asg.book.seqs[asg.indices]
    z0 = pilot_observation(blocks.Y[:, 0], seqs[0], q[0], "sp")
    h0 = np.einsum("kmn,bkn->bkm", W0[0], z0)
    assert np.allclose(calls[0]["h_hat"][:, 0], h0, atol=1e-13)
    assert np.allclose(calls[0]["C"], C0, atol=1e-14)


# ---------------------------------------------------------------------------
# Estimate-and-combine stage


def _stage_inputs(net, config, mode="sp"):
    """Pilots, surrogate blocks and estimated symbols for the stage on net."""
    asg = assign_pilots(config, mode)
    rng = np.random.default_rng(6)
    sig = np.full((config.L, config.K), 0.6)
    s_hat, s = gaussian_symbols(rng, sig, (4, config.L, config.K, config.data_slots(mode)))
    blocks = simulate_blocks(mode, asg, s, net, config, rng)
    return asg, blocks, s_hat, sig


def _keep(l, v, h_l, C_l):
    """A reduce that keeps what the stage hands it: each cell's v and C."""
    return v, C_l


def _stage(*args, **kwargs):
    """estimate_and_combine with every cell's v and C kept: (h_hat, C, V, y, fallbacks)."""
    h_hat, y, cells, fallbacks = estimate_and_combine(*args, _keep, **kwargs)
    V, C = zip(*cells)
    return h_hat, np.stack(C), np.stack(V, axis=1), y, fallbacks


def _stacked_stage(blocks, net, asg, config, mode, combiner_kind, s_blocks=None, sigma=None):
    """_stage's outputs from every cell's psi, one LMMSE call and one stacked
    estimate, combined by the formula written out."""
    L, K = config.L, config.K
    q, p = net.energies(mode)
    n_data = config.data_slots(mode)
    data = slice(config.tau_c - n_data, None)
    Y = blocks.Y
    if s_blocks is None:
        psi = psi_pilot(net, asg, config, mode)
        z = pilot_observation(Y, asg.seqs, q, mode, tau_p=config.tau_p)
        X = build_transmit(mode, asg, np.zeros((L, K, n_data)), net, config)
    else:
        psi = psi_data_aided_bound(net, asg, config, mode, sigma)
        X = build_transmit(mode, asg, s_blocks, net, config)
        z, ok = data_aided_observation(Y, np.swapaxes(X, -1, -2))
        assert ok.all()
    W, C = lmmse_filter(net.R[np.arange(L), np.arange(L)], psi)
    h_hat = np.einsum("lkmn,...lkn->...lkm", W, z)
    V = np.stack([build_combiner(h_hat[:, l], C[l], net.rho[l], config.noise_energy,
                                 combiner_kind) for l in range(L)], axis=1)
    gain = np.einsum("...km,...km->...k", V.conj(), h_hat)[..., None]
    y = []
    for l in range(L):
        if s_blocks is None:
            y_l = (np.einsum("...km,...mt->...kt", V[:, l].conj(), Y[:, l, :, data])
                   + gain[:, l] * -X[l, :, data])
        else:
            resid = Y[:, l, :, data] - np.einsum("...km,...kt->...mt", h_hat[:, l],
                                                 X[:, l, :, data])
            y_l = (np.einsum("...km,...mt->...kt", V[:, l].conj(), resid)
                   + gain[:, l] * (np.sqrt(p[l])[:, None] * s_blocks[:, l]))
        y.append(y_l)
    return h_hat, C, V, np.stack(y, axis=1)


@pytest.mark.parametrize("combiner_kind", ["mr", "smmse"])
@pytest.mark.parametrize("mode", ["rp", "sp"])
def test_stage_per_cell_estimates_equal_the_stacked_ones(mode, combiner_kind):
    # The stage holds one serving cell's psi and W at a time; every output
    # keeps the bits of the all-cell psi, one LMMSE call and one stacked
    # einsum, in the pilot-only and in a data-aided pass.
    config = ScenarioConfig(M=8, K=2, L=3, tau_c=40, tau_p=2)
    net = make_network(config, np.random.default_rng(5))
    asg, blocks, s_hat, sig = _stage_inputs(net, config, mode)
    stage = (blocks, net, asg, config, mode, combiner_kind)
    for extra in ({}, {"s_blocks": s_hat, "sigma": sig}):
        *got, fallbacks = _stage(*stage, **extra)
        assert fallbacks == 0
        for name, a, b in zip("h_hat C V y".split(), got, _stacked_stage(*stage, **extra)):
            assert np.array_equal(a, b), (name, extra.keys())


@pytest.mark.parametrize("drop", ["manual", "make_network"])
def test_stage_picks_pilot_or_data_aided_statistics(drop):
    config = ScenarioConfig(M=8, K=2, L=3, tau_c=40, tau_p=2)
    if drop == "manual":
        beta = np.full((3, 3, 2), 0.2)
        beta[np.arange(3), np.arange(3)] = 1.0
        net = manual_network(config, beta)
    else:
        net = make_network(config, np.random.default_rng(5))
    asg, blocks, s_hat, sig = _stage_inputs(net, config)
    Rs = net.R[np.arange(3), np.arange(3)]
    W0, C0 = lmmse_filter(Rs, psi_pilot(net, asg, config, "sp"))
    _, C1 = lmmse_filter(Rs, psi_data_aided_bound(net, asg, config, "sp", sig))
    assert not np.allclose(C0, C1, rtol=1e-3, atol=0)   # the two statistics differ

    h_hat, C, _, _, _ = _stage(blocks, net, asg, config, "sp", "mr")
    q, _ = net.energies("sp")
    z0 = np.stack([pilot_observation(blocks.Y[:, l], asg.seqs[l], q[l], "sp")
                   for l in range(3)], axis=1)
    assert np.array_equal(C, C0)
    assert np.array_equal(h_hat, np.einsum("lkmn,blkn->blkm", W0, z0))

    _, C, _, _, _ = _stage(blocks, net, asg, config, "sp", "mr", s_blocks=s_hat, sigma=sig)
    assert np.array_equal(C, C1)


def test_rank_deficient_block_keeps_its_pilot_estimate():
    config = ScenarioConfig(M=8, K=2, L=3, tau_c=40, tau_p=2)
    net = make_network(config, np.random.default_rng(5))
    asg, blocks, s_hat, sig = _stage_inputs(net, config)
    stage = (blocks, net, asg, config, "sp", "mr")
    h_pilot, _, _, _, _ = _stage(*stage)                   # the stage's own pilot pass
    clean, _, _, _, clean_fallbacks = _stage(*stage, s_blocks=s_hat, sigma=sig)
    broken = s_hat.copy()
    broken[2, 1] = np.nan                  # no Gram matrix to invert in block 2, cell 1
    h_hat, _, _, _, fallbacks = _stage(*stage, s_blocks=broken, sigma=sig)

    assert clean_fallbacks == 0
    assert fallbacks == 1
    assert np.array_equal(h_hat[2, 1], h_pilot[2, 1])
    others = np.ones((4, 3), dtype=bool)
    others[2, 1] = False
    assert np.array_equal(h_hat[others], clean[others])


# ---------------------------------------------------------------------------
# Freezing and monotonicity


@pytest.fixture(scope="module")
def helper_trial(code):
    """Scenario where one UE decodes at i = 0 and the other never does.

    Returns run_receiver's sp arguments up to the code, and the codewords.
    """
    config = ScenarioConfig(M=8, K=2, L=1, tau_c=200, tau_p=2,
                            noise_energy=1.0, rho_design=1.0, rho_max=10.0,
                            delta=0.3)
    net = manual_network(config, np.array([[[16.0, 0.12]]]),
                         rho=np.ones((1, 2)))
    rng = np.random.default_rng(3)
    asg, frame, cw, blocks = make_trial(config, net, "sp", code, rng)
    return (blocks, net, asg, config), frame, cw


@pytest.fixture(scope="module")
def helper_traces(helper_trial, code):
    """Receivers at i_max = 0..3 on the helper scenario's blocks.

    A state holds its iteration's per-UE results and hard bits; the LLRs and
    soft symbols a pass hands to the next are not kept.
    """
    args, frame, cw = helper_trial
    traces = [run_receiver(*args, code, frame, "sp", i_max=i_max) for i_max in range(4)]
    return traces, cw


@pytest.fixture(scope="module")
def helper_trace(helper_traces):
    traces, cw = helper_traces
    return traces[-1], cw


def test_unequal_ues_split_at_iteration_zero(helper_trace):
    trace, cw = helper_trace
    ok0 = trace.states[0].soft.decoded_ok
    assert bool(ok0[0, 0]) and not bool(ok0[0, 1])
    assert np.array_equal(trace.states[0].soft.hard_bits[0, 0], cw[0, 0])


def test_decoded_ue_stays_frozen(helper_trial, helper_traces, code, monkeypatch):
    traces, cw = helper_traces
    for trace in traces:
        soft = trace.final.soft
        assert bool(soft.decoded_ok[0, 0])
        assert np.array_equal(soft.hard_bits[0, 0], cw[0, 0])
        assert soft.sigma_sq[0, 0] == 1.0
    # Where the frozen UE's symbols are used, in every data-aided pass's
    # estimate and cancellation, they are its exact remodulated codeword.
    args, frame, _ = helper_trial
    calls = spy_stage(monkeypatch)
    run_receiver(*args, code, frame, "sp", i_max=3)
    aided = [c["s_blocks"] for c in calls if c["s_blocks"] is not None]
    assert len(aided) == len(calls) - 1 == 3
    expect = frame_codeword(qpsk_map(cw[0, 0]), frame)     # (blocks, slots)
    for s_blocks in aided:
        assert np.array_equal(s_blocks[:, 0, 0], expect)


def test_a_stopped_run_reproduces_the_longer_runs_states(helper_traces):
    traces, _ = helper_traces
    longest = traces[-1]
    assert len(longest.states) == len(traces)
    for t, trace in enumerate(traces):
        # A run stopped at i_max = t reproduces state t of a longer run.
        assert len(trace.states) == t + 1
        final, kept = trace.final, longest.states[t]
        for f in dataclasses.fields(final.soft):
            assert np.array_equal(getattr(final.soft, f.name), getattr(kept.soft, f.name))
        for f in dataclasses.fields(final):
            if f.name != "soft":
                assert np.array_equal(getattr(final, f.name), getattr(kept, f.name)), f.name


def test_se_uatf_is_the_hardening_bound_of_each_iterations_stats(helper_trial, code,
                                                                   monkeypatch):
    stats = []
    effective_stats = receiver.effective_stats

    def spy(*args, **kwargs):
        stats.append(effective_stats(*args, **kwargs))
        return stats[-1]

    monkeypatch.setattr(receiver, "effective_stats", spy)
    args, frame, _ = helper_trial
    trace = run_receiver(*args, code, frame, "sp", i_max=3)
    config = args[3]
    assert len(stats) == len(trace.states) * config.L == 4
    prelog = config.data_slots("sp") / config.tau_c
    # One call per cell and pass, each (B, K): a pass's stacked over its cells.
    passes = [[np.stack(a, axis=1) for a in zip(*stats[i:i + config.L])]
              for i in range(0, len(stats), config.L)]
    for (g, n_var), state in zip(passes, trace.states):
        # the gain's spread over the blocks counts as noise
        want = se_uatf_moments(np.mean(g, axis=0), np.mean(n_var, axis=0) + np.var(g, axis=0),
                               prelog)
        assert np.array_equal(state.se_uatf, want)


def test_bler_never_increases_across_iterations(helper_trace):
    trace, _ = helper_trace
    blers = [1.0 - s.soft.decoded_ok.mean() for s in trace.states]
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
    # Without power control the weak UE never decodes, so every iteration runs.
    net = manual_network(config, np.array([[[2.0, 0.3]]]), rho=np.ones((1, 2)))

    def run(i_max):
        rng = np.random.default_rng(4)
        asg, frame, _, blocks = make_trial(config, net, "rp", code, rng)
        return run_receiver(blocks, net, asg, config, code, frame, "rp", i_max=i_max)

    for i_max in range(3):
        a, b = run(i_max), run(i_max)
        assert len(a.states) == len(b.states) == i_max + 1
        assert a.termination == b.termination
        for sa, sb in zip(a.states, b.states):
            assert np.array_equal(sa.soft.decoded_ok, sb.soft.decoded_ok)
            assert np.array_equal(sa.soft.hard_bits, sb.soft.hard_bits)
            assert np.array_equal(sa.mse_emp, sb.mse_emp)
            assert np.array_equal(sa.se_uatf, sb.se_uatf)
            assert np.array_equal(sa.se_mi, sb.se_mi)


# ---------------------------------------------------------------------------
# Memory


def test_lmmse_runs_one_serving_cell_at_a_time(code, monkeypatch):
    # psi and W are K*M^2 numbers each, one cell's: never a stack over the L cells.
    config = ScenarioConfig(M=8, K=2, L=3, tau_c=200, tau_p=2,
                            noise_energy=1.0, rho_design=10 ** -2.5, rho_max=10.0)
    net = make_network(config, np.random.default_rng(8))
    asg, frame, _, blocks = make_trial(config, net, "rp", code, np.random.default_rng(9))
    shapes = []
    lmmse = receiver.lmmse_filter

    def spy(R, Psi):
        shapes.append((R.shape, Psi.shape))
        return lmmse(R, Psi)

    monkeypatch.setattr(receiver, "lmmse_filter", spy)
    trace = run_receiver(blocks, net, asg, config, code, frame, "rp", i_max=2)
    assert len(trace.states) == 3 and not any(s.fallback_blocks for s in trace.states)
    assert shapes == [((2, 8, 8), (2, 8, 8))] * (3 * config.L)


def test_receiver_memory_does_not_grow_with_imax(code, monkeypatch):
    # Error covariances (L*K*M^2 complex) dominate an iteration's state at
    # M=128; at -25 dB per antenna no UE ever decodes, so every iteration runs.
    # One thread: on more, the peak varies with how the cells' temporaries
    # overlap (3.4 to 4.3 MB on 2 threads), more than the states can add.
    monkeypatch.setattr(_threads, "_count", 1)
    config = ScenarioConfig(M=128, K=2, L=3, tau_c=200, tau_p=2,
                            noise_energy=1.0, rho_design=10 ** -2.5, rho_max=10.0)
    beta = np.full((3, 3, 2), 0.3)
    beta[np.arange(3), np.arange(3)] = 1.0
    net = manual_network(config, beta)
    asg, frame, _, blocks = make_trial(config, net, "sp", code, np.random.default_rng(7))
    run_receiver(blocks, net, asg, config, code, frame, "sp", i_max=1)   # warm caches

    def traced(i_max):
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            trace = run_receiver(blocks, net, asg, config, code, frame, "sp", i_max=i_max)
            return trace, tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()

    short, short_peak = traced(2)
    trace, peak = traced(6)
    assert len(short.states) == 3 and len(trace.states) == 7
    # Four more iterations may add their states, each its hard bits (L*K*n
    # bytes) plus per-UE figures, never their error covariances (a C is 1.6
    # MB here) or their LLRs and soft symbols (17 bytes a bit: keeping all
    # four would add 1.6 MB).
    hard_bytes = config.L * config.K * code.n
    assert peak - short_peak < 4 * 2 * hard_bytes

    # The final iteration estimates on the bound at the previous iteration's
    # symbol qualities. A spied rerun holds every call's C, so it runs untraced.
    calls = spy_stage(monkeypatch)
    spied = run_receiver(blocks, net, asg, config, code, frame, "sp", i_max=6)
    assert len(calls) == len(spied.states) == 7
    assert np.array_equal(spied.final.mse_emp, trace.final.mse_emp)
    final = calls[-1]
    h_true = blocks.H[:, np.arange(3), np.arange(3)]
    assert np.array_equal(mse_channel_empirical(h_true, final["h_hat"]), trace.final.mse_emp)
    prev = spied.states[-2].soft
    assert np.array_equal(final["sigma"], prev.sigma_sq)
    psi = psi_data_aided_bound(net, asg, config, "sp", prev.sigma_sq)
    _, C = lmmse_filter(net.R[np.arange(3), np.arange(3)], psi)
    assert np.array_equal(final["C"], C)
