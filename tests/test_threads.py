"""A trial's stacked kernels split over threads: same bits for any count."""

import math
import threading

import numpy as np
import pytest

from ullsim import ScenarioConfig, _threads
from ullsim.airlink import crandn
from ullsim.chest import lmmse_filter
from ullsim.harness import Campaign, _run_pair, run_coded_trial, run_gaussian_trial


def _exact(rows):
    # NaN != NaN: name it, so == compares every other value exactly.
    return [{k: "nan" if isinstance(v, float) and math.isnan(v) else v
             for k, v in row.items()} for row in rows]


def _trial_rows():
    config = ScenarioConfig(M=8, K=2, L=3)
    rows = [run_coded_trial(Campaign(config=config, mode=mode, combiner=combiner,
                                     trials=1, seed=1, i_max=2), 0, 0)
            for mode in ("rp", "sp") for combiner in ("mr", "smmse")]
    study = Campaign(config=config, pipeline="gaussian", grid_param="sigma_est",
                     grid_values=(0.6,), trials=1, seed=1)
    rows += [run_gaussian_trial(study, 0, 0)]
    return [_exact(r) for r in rows]


@pytest.fixture
def split_small(monkeypatch):
    # Split every kernel, however small: these scenarios' kernels are tiny.
    monkeypatch.setattr(_threads, "_MIN_WORK", 1)


def test_trial_rows_do_not_depend_on_the_thread_count(monkeypatch, split_small):
    monkeypatch.setattr(_threads, "_count", 1)
    serial = _trial_rows()
    monkeypatch.setattr(_threads, "_count", 3)
    assert _trial_rows() == serial


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
    _trial_rows()
    assert max(chunks_per_split) > 1                   # helper threads did run
    assert threading.active_count() == before


# (subscripts, operand shapes, chunks run over 3 threads), one per call-site
# form; the shapes are tiny. A stack of one, or none, makes the plain call.
_EINSUM_FORMS = {
    "both-stacked": ("...abkm,...bkt->...amt", [(5, 3, 3, 2, 4), (5, 3, 2, 6)], [3]),
    "shorter-ellipsis": ("...mn,...n->...m", [(3, 3, 2, 4, 4), (5, 3, 3, 2, 4)], [3]),
    "no-ellipsis": ("...km,jmn,...kn->...kj", [(5, 3, 2, 4), (2, 4, 4), (5, 3, 2, 4)], [3]),
    "broadcast-1": ("...km,...mt->...kt", [(1, 3, 2, 4), (5, 3, 4, 6)], [3]),
    "leading-1": ("...km,...mt->...kt", [(1, 3, 2, 4), (1, 3, 4, 6)], []),
    "unstacked": ("...km,...mt->...kt", [(2, 4), (4, 6)], []),
    "W-z": ("lkmn,...lkn->...lkm", [(3, 2, 4, 4), (5, 3, 2, 4)], [3]),
    "vCv": ("...km,...jmn,...kn->...kj", [(5, 3, 2, 4), (3, 2, 4, 4), (5, 3, 2, 4)], [3]),
    "v-inter-v": ("...km,...mn,...kn->...k", [(5, 3, 2, 4), (3, 4, 4), (5, 3, 2, 4)], [3]),
}


@pytest.mark.parametrize("form", _EINSUM_FORMS)
def test_split_einsum_equals_numpy_for_each_call_site_form(monkeypatch, split_small, form):
    subscripts, shapes, chunks = _EINSUM_FORMS[form]
    rng = np.random.default_rng(50)
    ops = [crandn(rng, shape) for shape in shapes]
    monkeypatch.setattr(_threads, "_count", 3)
    chunks_per_split = _count_chunks(monkeypatch)
    got = _threads.einsum(subscripts, *ops)
    assert chunks_per_split == chunks
    assert np.array_equal(got, np.einsum(subscripts, *ops))
    if form == "W-z":                                  # the same product, explicit labels
        assert np.array_equal(got, np.einsum("lkmn,blkn->blkm", *ops))


@pytest.mark.parametrize("bad", [0, 5])              # in the first or the last chunk
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
