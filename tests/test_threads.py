"""A trial's work split over threads: same bits for any count, one fork per pass."""

import functools
import logging
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from ullsim import ScenarioConfig, _threads, harness, receiver
from ullsim.airlink import crandn, gaussian_symbols, receive, simulate_blocks
from ullsim.chest import EstimationError, lmmse_filter, solve
from ullsim.combine import build_combiner
from ullsim.harness import (Campaign, _run_pair, _run_variants, _study_variants,
                            run_coded_trial, run_gaussian_trial)
from ullsim.netgeom import make_network
from ullsim.pilots import assign_pilots
from ullsim.receiver import estimate_and_combine


def _exact(rows):
    # NaN != NaN: name it, so == compares every other value exactly.
    return [{k: "nan" if isinstance(v, float) and math.isnan(v) else v
             for k, v in row.items()} for row in rows]


def _trial_rows(monkeypatch):
    # A study pair sets the thread count from its workers: keep the test's.
    monkeypatch.setattr(_threads, "set_workers", lambda workers: None)
    config = ScenarioConfig(M=8, K=2, L=3)
    rows = [run_coded_trial(Campaign(config=config, mode=mode, combiner=combiner,
                                     trials=1, seed=1, i_max=2), 0, 0)
            for mode in ("rp", "sp") for combiner in ("mr", "smmse")]
    study = Campaign(config=config, pipeline="gaussian", grid_param="sigma_est",
                     grid_values=(0.6,), trials=1, seed=1)
    rows += [run_gaussian_trial(study, 0, 0)]
    # The pair's one link-by-link pass draws every variant's channels.
    pair = _run_variants(([sub for _, sub in _study_variants(study)], 0, 0))[2]
    assert len(pair) == 3 and all(pair)
    rows += pair
    return [_exact(r) for r in rows]


@pytest.mark.parametrize("threads", [1, 2, 3, 7])
def test_trial_rows_do_not_depend_on_the_thread_count(monkeypatch, split_small, threads):
    # Over L = 3 cells: two threads split them unevenly, three give each its
    # own, and seven are more than there are cells.
    monkeypatch.setattr(_threads, "_count", 1)
    serial = _trial_rows(monkeypatch)
    monkeypatch.setattr(_threads, "_count", threads)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)                         # the threads interleave often
    try:
        assert _trial_rows(monkeypatch) == serial
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("count, n", [(1, 3), (2, 3), (3, 3), (7, 3), (8, 4), (2, 1)])
def test_each_runs_the_items_in_order_over_the_threads(monkeypatch, count, n):
    monkeypatch.setattr(_threads, "_count", count)
    parts = _threads.chunks(n, count)
    # Each thread's first item waits for every other thread's: they run at once.
    meet = threading.Barrier(len(parts), timeout=10)
    firsts = {s.start for s in parts}

    def item(i):
        if i in firsts:
            meet.wait()
        return i, threading.get_ident()

    got = _threads.each(item, n)
    assert [i for i, _ in got] == list(range(n))
    threads = [[ident for _, ident in got[s]] for s in parts]
    assert threads[0][0] == threading.get_ident()           # the first on the caller
    assert len({t[0] for t in threads}) == len(parts)
    assert all(len(set(t)) == 1 for t in threads)           # a thread's items in turn


def test_each_raises_the_first_failing_items_error(monkeypatch):
    monkeypatch.setattr(_threads, "_count", 3)          # items 1 and 2 on helpers

    def fail_from_1(i):
        if i >= 1:
            raise ValueError(i)
        return i

    with pytest.raises(ValueError, match="^1$"):
        _threads.each(fail_from_1, 3)


@pytest.mark.parametrize("t", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7])
def test_chunks_cover_the_range_once(n, t):
    parts = _threads.chunks(n, t)
    assert len(parts) == max(1, min(n, t))
    assert [i for s in parts for i in range(n)[s]] == list(range(n))
    sizes = [len(range(n)[s]) for s in parts]
    assert max(sizes) - min(sizes) <= 1


@pytest.mark.parametrize("workers, cores, want", [
    (1, 2, 2), (2, 2, 1), (1, 1, 1), (3, 8, 2), (4, 8, 2), (8, 2, 1), (5, 4, 1)])
def test_threads_for_shares_the_cores_among_the_workers(workers, cores, want):
    assert _threads.threads_for(workers, cores) == want


def _chunks_run(n, work):
    seen = []
    _threads.split(seen.append, n, work)
    return len(seen)


def test_a_thread_gets_at_least_min_work(monkeypatch):
    monkeypatch.setattr(_threads, "_count", 4)
    work = _threads._MIN_WORK
    assert _chunks_run(8, 2 * work - 1) == 1            # stays on the calling thread
    assert _chunks_run(8, 2 * work) == 2
    assert _chunks_run(8, 3 * work) == 3


@pytest.mark.parametrize("workers", [1, 2, 64])
def test_a_pair_sets_the_thread_count_from_its_workers(monkeypatch, workers):
    monkeypatch.setattr(_threads, "_count", 5)          # restored after the test
    campaign = Campaign(config=ScenarioConfig(M=8, K=2, L=3), pipeline="gaussian",
                        trials=1, workers=workers)
    _run_pair((campaign, 0, 0))
    assert _threads._count == _threads.threads_for(workers)


def test_a_cells_estimation_error_on_a_helper_thread_fails_the_trial(monkeypatch, caplog):
    monkeypatch.setattr(_threads, "set_workers", lambda workers: None)
    monkeypatch.setattr(_threads, "_count", 3)          # one cell per thread
    nets = []
    make_network = harness.make_network
    monkeypatch.setattr(harness, "make_network",
                        lambda *args: nets.append(make_network(*args)) or nets[-1])
    on_main = []

    def singular_in_cell_2(h_hat, C, rho, noise_energy, kind):
        if np.array_equal(rho, nets[-1].rho[2]):      # a zero S-MMSE matrix
            on_main.append(threading.current_thread() is threading.main_thread())
            h_hat, C, noise_energy = np.zeros_like(h_hat), np.zeros_like(C), 0.0
        return build_combiner(h_hat, C, rho, noise_energy, kind)

    monkeypatch.setattr(receiver, "build_combiner", singular_in_cell_2)
    campaign = Campaign(config=ScenarioConfig(M=8, K=2, L=3), combiner="smmse",
                        trials=1, seed=1, i_max=2)
    with pytest.raises(EstimationError, match="S-MMSE combining matrix is singular"):
        run_coded_trial(campaign, 0, 0)
    assert on_main == [False]                           # cell 2's, in the first pass
    assert not any(np.array_equal(nets[0].rho[2], nets[0].rho[l]) for l in (0, 1))
    with caplog.at_level(logging.WARNING, logger="ullsim.harness"):
        assert _run_pair((campaign, 0, 0)) == (0, 0, [])
    assert "trial (grid=0, trial=0) failed: S-MMSE combining matrix is singular" in caplog.text


@pytest.mark.parametrize("threads", [1, 2, 4, 8])
def test_the_stage_holds_a_filter_per_thread_at_most(monkeypatch, threads):
    # A cell's W and C are 2.1 MB here (K = 16, M = 64); each of the
    # min(threads, L) threads holds one cell's at a time. Measured peaks were
    # 1.3, 2.3, 4.4 and 4.5 filters, the stage's own arrays about 0.3.
    monkeypatch.setattr(_threads, "_count", threads)
    config = ScenarioConfig(M=64, K=16, L=4, tau_c=40, tau_p=16, noise_energy=0.01,
                            rho_design=0.1)
    net = make_network(config, np.random.default_rng(14))
    asg = assign_pilots(config, "rp")
    rng = np.random.default_rng(15)
    sig = np.full((config.L, config.K), 0.6)
    s_hat, s = gaussian_symbols(rng, sig, (2, config.L, config.K, config.tau_d))
    blocks = simulate_blocks("rp", asg, s, net, config, rng)
    filter_bytes = 2 * config.K * config.M ** 2 * 16
    for extra in ({}, {"s_blocks": s_hat, "sigma": sig}):
        stage = functools.partial(estimate_and_combine, blocks, net, asg, config, "rp", "mr",
                                  lambda l, v, h_l, C_l: None, **extra)
        stage()                                         # numpy's one-time allocations
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            stage()
            peak = tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()
        assert peak < (min(threads, config.L) + 1) * filter_bytes, (extra.keys(), peak)


def test_split_runs_each_chunk_and_raises_a_helper_threads_error(monkeypatch):
    monkeypatch.setattr(_threads, "_count", 3)
    seen = []
    _threads.split(lambda s: seen.append((s.start, s.stop)), 7, work=7 << 20)
    assert sorted(seen) == [(0, 2), (2, 4), (4, 7)]

    def fail_last(s):
        if s.stop == 7:
            raise np.linalg.LinAlgError("singular")

    with pytest.raises(np.linalg.LinAlgError):
        _threads.split(fail_last, 7, work=7 << 20)


def _count_chunks(monkeypatch):
    # The number of chunks each split call runs, appended as the calls return.
    counts = []
    split = _threads.split

    def counting_split(fn, n, work):
        ran = []
        split(lambda s: (ran.append(s), fn(s)), n, work)
        counts.append(len(ran))

    monkeypatch.setattr(_threads, "split", counting_split)
    return counts


def test_no_helper_thread_outlives_a_trial(monkeypatch, split_small):
    monkeypatch.setattr(_threads, "_count", 3)
    chunks_per_split = _count_chunks(monkeypatch)
    before = threading.active_count()
    _trial_rows(monkeypatch)
    assert max(chunks_per_split) > 1                   # helper threads did run
    assert threading.active_count() == before


def test_no_fork_starts_inside_a_cell(monkeypatch, split_small):
    # A receiver pass forks once, over its serving cells: with 8 threads for
    # L = 3 cells and every kernel split however small, the code inside a
    # cell still starts no fork of its own.
    monkeypatch.setattr(_threads, "_count", 8)
    in_cell = threading.local()
    forks = []                                          # (inside a cell?, slices)
    fork, each = _threads._fork, _threads.each

    def spy_fork(fn, slices):
        forks.append((getattr(in_cell, "on", False), len(slices)))
        return fork(fn, slices)

    def spy_each(fn, n):
        def item(i):
            in_cell.on = True
            try:
                return fn(i)
            finally:
                in_cell.on = False

        return each(item, n)

    monkeypatch.setattr(_threads, "_fork", spy_fork)
    monkeypatch.setattr(_threads, "each", spy_each)
    _trial_rows(monkeypatch)
    assert [n for inside, n in forks if inside] == []
    assert max(n for _, n in forks) > 1                 # forks outside the cells did split


@pytest.mark.parametrize("threads", [1, 3])
def test_receive_splits_only_its_block_axis(monkeypatch, split_small, threads):
    # Stacked H and X split over their blocks, and each chunk makes the
    # stacked einsum: the bits are one np.einsum's plus the same noise. An
    # unstacked H (one block, L = 3) makes the plain call: a split on len(Y)
    # would cut H's BS axis against X's cell axis.
    monkeypatch.setattr(_threads, "_count", threads)
    chunks_per_split = _count_chunks(monkeypatch)
    rng = np.random.default_rng(50)
    B, L, K, M, tau = 5, 3, 2, 4, 6
    cases = [((B, L, L, K, M), (B, L, K, tau), [threads]), ((L, L, K, M), (L, K, tau), [])]
    for h_shape, x_shape, chunks in cases:
        H, X = crandn(rng, h_shape), crandn(rng, x_shape)
        chunks_per_split.clear()
        got = receive(H, X, 0.3, np.random.default_rng(51))
        assert chunks_per_split == chunks
        want = np.einsum("...abkm,...bkt->...amt", H, X)
        want = want + np.sqrt(0.3) * crandn(np.random.default_rng(51), want.shape)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), h_shape


@pytest.mark.parametrize("bad", [0, 5])              # the first or the last matrix
def test_a_singular_psi_in_one_chunk_regularizes_the_whole_stack(monkeypatch, split_small,
                                                                bad):
    rng = np.random.default_rng(40)
    A = rng.standard_normal((6, 4, 4)) + 1j * rng.standard_normal((6, 4, 4))
    R = A @ np.swapaxes(A.conj(), -1, -2)
    Psi = R + np.eye(4)
    Psi[bad] = np.diag([1.0, 1.0, 1.0, 0.0])           # exact zero pivot: LinAlgError
    R, Psi = R.reshape(2, 3, 4, 4), Psi.reshape(2, 3, 4, 4)
    monkeypatch.setattr(_threads, "_count", 1)
    W1, C1 = lmmse_filter(R, Psi)
    monkeypatch.setattr(_threads, "_count", 2)
    W2, C2 = lmmse_filter(R, Psi)
    assert np.array_equal(W1, W2) and np.array_equal(C1, C2)
    # Every matrix, not only the singular one, went through the regularized solve.
    tr = np.einsum("...ii->...", Psi).real
    reg = Psi + (1e-12 * tr / 4)[..., None, None] * np.eye(4)
    W_reg = np.swapaxes(np.linalg.solve(reg, R).conj(), -1, -2)
    assert np.array_equal(W2, W_reg)


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("bad", [0, 5])              # the first or the last matrix
def test_solve_marks_only_its_singular_member(monkeypatch, split_small, count, bad):
    # The stacked solve runs in place whatever the thread count: it starts
    # no split, and only the singular member is marked and zeroed.
    rng = np.random.default_rng(41)
    A, B = crandn(rng, (6, 4, 4)), crandn(rng, (6, 4, 3))
    A[bad] = np.diag([1.0, 1.0, 1.0, 0.0])             # exact zero pivot
    A, B = A.reshape(2, 3, 4, 4), B.reshape(2, 3, 4, 3)
    monkeypatch.setattr(_threads, "_count", count)
    chunks_per_split = _count_chunks(monkeypatch)
    X, ok = solve(A, B)
    assert chunks_per_split == []
    want = np.ones(6, dtype=bool)
    want[bad] = False
    assert np.array_equal(ok, want.reshape(2, 3))
    assert np.array_equal(X[~ok], np.zeros((1, 4, 3)))
    assert np.array_equal(X[ok], np.linalg.solve(A[ok], B[ok]))
