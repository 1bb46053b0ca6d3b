"""Pilot book construction, assignment, reuse, and pilot-sharing tests."""

import numpy as np
import pytest

from ullsim import ConfigError, ScenarioConfig
from ullsim.config import hex_cluster_basis
from ullsim.pilots import (assign_pilots, make_pilot_book, sp_reuse_factor)


def cfg(**kw):
    base = dict(M=2, K=10, L=4, tau_c=200, tau_p=10)
    base.update(kw)
    return ScenarioConfig(**base)


# ---------------------------------------------------------------------------
# Pilot book


def test_dft2_book():
    book = make_pilot_book(2)
    assert np.allclose(book.seqs[0], [1, 1])
    assert np.allclose(book.seqs[1], [1, -1])
    assert abs(np.vdot(book.seqs[0], book.seqs[1])) < 1e-12


def test_dft4_orthogonality_and_norm():
    book = make_pilot_book(4)
    assert abs(np.vdot(book.seqs[1], book.seqs[3])) < 1e-12
    gram = book.seqs.conj() @ book.seqs.T
    assert np.allclose(gram, 4 * np.eye(4), atol=1e-12)


def test_book_unit_modulus_any_length():
    for tau in (3, 7, 16, 190):
        book = make_pilot_book(tau)
        assert np.allclose(np.abs(book.seqs), 1.0)
        gram = book.seqs.conj() @ book.seqs.T
        assert np.allclose(gram, tau * np.eye(tau), atol=1e-9)


def test_book_size_guard():
    with pytest.raises(ConfigError):
        make_pilot_book(4, n_seq=5)


# ---------------------------------------------------------------------------
# Reuse factors and assignment


def test_sp_reuse_factor_is_largest_cluster_value():
    # tau_c // K = 20; admissible cluster sizes up to 20 are
    # 1, 3, 4, 7, 9, 12, 13, 16, 19 -> the largest is 19
    assert [n for n in range(-1, 21) if hex_cluster_basis(n)] == [1, 3, 4, 7, 9, 12, 13, 16, 19]
    assert sp_reuse_factor(cfg()) == 19


def test_sp_reuse_factor_small_budgets():
    assert sp_reuse_factor(cfg(tau_c=59, tau_p=10)) == 4     # floor 5 -> 4
    assert sp_reuse_factor(cfg(tau_c=30, tau_p=10)) == 3
    assert sp_reuse_factor(cfg(tau_c=11, tau_p=10)) == 1


def test_rp_full_reuse_sharing_sets():
    # reuse 1: every cell uses the same book block -> 4-member sharing sets
    asg = assign_pilots(cfg(L=4, tau_p=10), "rp")
    assert np.unique(asg.indices).size == 10       # one class of K pilots
    assert (asg.indices == asg.indices[0]).all()
    for l in range(4):
        for k in range(10):
            members = np.argwhere(asg.indices == asg.indices[l, k])
            assert len(members) == 4
            assert set(members[:, 0]) == {0, 1, 2, 3}
            assert (members[:, 1] == k).all()


def test_rp_unique_pilots_no_contamination():
    # L = 3, reuse 3: all sharing sets are singletons
    asg = assign_pilots(cfg(L=3, K=4, tau_p=12), "rp")
    assert np.unique(asg.indices).size == 3 * 4    # three classes of K pilots
    for l in range(3):
        for k in range(4):
            assert np.argwhere(asg.indices == asg.indices[l, k]).tolist() == [[l, k]]


def test_rp_requires_multiple_of_k():
    with pytest.raises(ConfigError):
        assign_pilots(cfg(K=4, tau_p=10), "rp")


def test_sharing_sets_match_brute_force():
    # reuse 3 over 7 cells: two UEs share a pilot iff they have the same
    # in-cell index and their cells the same color l mod 3
    asg = assign_pilots(cfg(L=7, K=3, tau_p=9, tau_c=60), "rp")
    L, K = 7, 3
    for l in range(L):
        for k in range(K):
            shares = asg.indices == asg.indices[l, k]
            brute = [[a, b] for a in range(L) for b in range(K) if b == k and a % 3 == l % 3]
            assert np.argwhere(shares).tolist() == brute


def test_sp_assignment_orthogonal_across_all_cells():
    # f = 19 >= L = 4: every UE in the network has a unique sequence
    asg = assign_pilots(cfg(), "sp")
    assert asg.book.seqs.shape == (4 * 10, 200)     # 4 classes of K, length tau_c
    flat = asg.indices.ravel()
    assert len(set(flat.tolist())) == flat.size


def test_in_cell_pilots_always_orthogonal():
    for mode in ("rp", "sp"):
        asg = assign_pilots(cfg(L=4, K=5, tau_p=5), mode)
        for l in range(4):
            seqs = asg.seqs[l]
            gram = seqs.conj() @ seqs.T
            assert np.allclose(gram, asg.seqs.shape[-1] * np.eye(5), atol=1e-9)


def test_assignment_deterministic():
    a = assign_pilots(cfg(), "sp")
    b = assign_pilots(cfg(), "sp")
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.book.seqs, b.book.seqs)
