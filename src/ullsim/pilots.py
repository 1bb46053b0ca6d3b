"""Pilot sequence books and their assignment across cells.

Pilot books are rows of the DFT matrix, which are unit-modulus and mutually
orthogonal. Cells are grouped into reuse classes; UEs inside a cell always
get orthogonal pilots, and two UEs in different cells interfere during
estimation iff they share a pilot: iff their pilot indices are equal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConfigError, ScenarioConfig, hex_cluster_basis


@dataclass(frozen=True)
class PilotBook:
    """n_seq orthogonal unit-modulus sequences of a given length."""

    seqs: np.ndarray          # (n_seq, length) complex


def make_pilot_book(length: int, n_seq: int | None = None) -> PilotBook:
    """DFT pilot book: seq a, sample j = exp(-2*pi*i*a*j/length).

    Rows satisfy seq_a^H seq_b = length * delta_ab.
    """
    if length < 1:
        raise ConfigError(f"pilot length must be positive (got {length})")
    n_seq = length if n_seq is None else n_seq
    if n_seq > length:
        raise ConfigError(f"cannot draw {n_seq} orthogonal sequences of length {length}")
    a = np.arange(n_seq)[:, None]
    j = np.arange(length)[None, :]
    # Reduce the phase index mod length before multiplying to keep angles small.
    phase = -2.0 * np.pi * ((a * j) % length) / length
    return PilotBook(seqs=np.exp(1j * phase))


@dataclass
class PilotAssignment:
    """Pilot index per UE.

    indices[l, k] points into book.seqs; UEs (l, k) and (ll, kk) share a
    pilot iff indices[l, k] == indices[ll, kk].
    """

    book: PilotBook
    indices: np.ndarray       # (L, K) int

    @property
    def seqs(self) -> np.ndarray:
        """(L, K, length) pilot sequence of every UE."""
        return self.book.seqs[self.indices]


def sp_reuse_factor(config: ScenarioConfig) -> int:
    """Largest hex-cluster value not exceeding tau_c // K.

    Superimposed pilots span the whole block, so up to tau_c // K cells can
    get mutually orthogonal pilot sets; the reuse pattern must still tile
    the hexagonal grid, hence the restriction to cluster sizes
    i^2 + i*j + j^2 (1, 3, 4, 7, 9, 12, 13, 16, 19, 21, ...).
    """
    f = config.tau_c // config.K
    while f >= 1 and hex_cluster_basis(f) is None:
        f -= 1
    if f < 1:
        raise ConfigError(f"tau_c={config.tau_c} too short for K={config.K} orthogonal pilots")
    return f


def assign_pilots(config: ScenarioConfig, mode: str) -> PilotAssignment:
    """Deterministic pilot plan for either pilot scheme.

    rp: book length tau_p, reuse f = tau_p // K (tau_p must be a multiple
        of K); cells colored l mod min(f, L).
    sp: book length tau_c, reuse f = largest hex-cluster value <= tau_c // K;
        with min(f, L) >= L every cell gets its own orthogonal block and no
        two UEs share a pilot.
    """
    L, K = config.L, config.K
    if mode == "rp":
        if config.tau_p % K != 0:
            raise ConfigError(f"rp needs tau_p to be a multiple of K (got {config.tau_p}, K={K})")
        f = config.tau_p // K
        length = config.tau_p
    elif mode == "sp":
        f = sp_reuse_factor(config)
        length = config.tau_c
    else:
        raise ConfigError(f"unknown pilot mode {mode!r}")

    n_colors = min(f, L)
    book = make_pilot_book(length, n_seq=n_colors * K)
    color = np.arange(L) % n_colors
    indices = color[:, None] * K + np.arange(K)[None, :]
    return PilotAssignment(book=book, indices=indices)
