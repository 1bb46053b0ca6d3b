"""Quasi-cyclic LDPC codes with a normalized min-sum decoder.

Two built-in presets cover the coded campaigns: rate 1/2 with n = 3840 and
rate 3/4 with n = 3888. Both use a base graph whose parity part is lower
bidiagonal (shift-0 identity pairs), which guarantees full row rank and a
forward-substitution encoder, and whose systematic columns carry weight-3
pseudorandom circulant shifts screened against length-4 cycles.

A base-graph entry (r, c, s) is a Z x Z circulant: check r*Z + i involves
bit c*Z + (i + s) mod Z. The encoder, the parity check and the decoder
gather through index tables of the code's edges, built from the entries on
first use. The parity-check matrix is never expanded.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .. import _threads

MINSUM_ALPHA = 0.8125         # normalization factor, a power-of-two friendly 13/16
MAX_BP_ITERS = 25

_PRESETS = {
    "1/2": dict(m_b=12, n_b=24, Z=160, seed=20240501),
    "3/4": dict(m_b=6, n_b=24, Z=162, seed=20240502),
}
PRESET_RATES = tuple(_PRESETS)
# One edge's flooding iteration (about 10 ns) costs as much as 2 to 3 of
# einsum's multiply-adds, the unit of _threads' work; a codeword has about
# 10^4 edges.
_EDGE_WORK = 3
# Codewords decoded together: few enough that much of their messages (about
# 0.2 MB a codeword) stays in a core's cache, enough that the 40 to 60 numpy
# calls of an iteration, and the hand-offs of the GIL between threads at
# each call, stay small next to the work. Measured on a 2-core Xeon VM.
_TILE = 10


@dataclass
class CodeSpec:
    """A binary linear code with everything the pipeline needs."""

    name: str
    n: int                    # codeword length
    k: int                    # information bits, the first k of a codeword
    # QC structure: base-graph entries (row, col, shift) sorted by row, then
    # column; lift size, base rows and systematic base columns.
    qc_entries: list
    qc_Z: int
    qc_mb: int
    qc_kb: int

    @property
    def rate(self) -> float:
        return self.k / self.n

    @cached_property
    def _edges(self) -> _Edges:
        """The parity check's and the decoder's index tables, built on first use."""
        return _edge_tables(self)


# ---------------------------------------------------------------------------
# Base-graph construction (presets)


def _screen_shifts(rng: np.random.Generator, rows: list[int], Z: int,
                   placed: list[tuple[list[int], list[int]]]) -> list[int]:
    """Draw circulant shifts for one column, avoiding length-4 cycles.

    A 4-cycle between two columns sharing rows r1, r2 appears iff
    s[r1] - s[r2] agrees mod Z between the columns; resample (bounded) until
    the new column clears every previously placed column.
    """
    for _ in range(500):
        shifts = [int(rng.integers(Z)) for _ in rows]
        diff = {(r1, r2): (s1 - s2) % Z
                for r1, s1 in zip(rows, shifts)
                for r2, s2 in zip(rows, shifts) if r1 < r2}
        ok = True
        for prows, pshifts in placed:
            pdiff = {(r1, r2): (s1 - s2) % Z
                     for r1, s1 in zip(prows, pshifts)
                     for r2, s2 in zip(prows, pshifts) if r1 < r2}
            if any(pair in pdiff and pdiff[pair] == d for pair, d in diff.items()):
                ok = False
                break
        if ok:
            return shifts
    return shifts  # best effort; a rare surviving 4-cycle only costs performance


def _make_base(m_b: int, n_b: int, Z: int, seed: int) -> list[tuple[int, int, int]]:
    """(row, col, shift) entries of the base graph."""
    k_b = n_b - m_b
    rng = np.random.default_rng(seed)
    entries: list[tuple[int, int, int]] = []
    placed: list[tuple[list[int], list[int]]] = []

    # Parity part: lower bidiagonal identities.
    for r in range(m_b):
        col = k_b + r
        rows = [r] if r == m_b - 1 else [r, r + 1]
        for rr in rows:
            entries.append((rr, col, 0))
        placed.append((rows, [0] * len(rows)))

    # Systematic part: weight-3 columns with spread row positions.
    step = max(1, m_b // 3)
    for j in range(k_b):
        rows = sorted({(j + t * step) % m_b for t in range(3)})
        while len(rows) < 3:  # tiny m_b could collide; fill greedily
            rows.append((rows[-1] + 1) % m_b)
            rows = sorted(set(rows))
        shifts = _screen_shifts(rng, rows, Z, placed)
        for rr, ss in zip(rows, shifts):
            entries.append((rr, j, ss))
        placed.append((rows, shifts))
    return entries


def make_code(rate: str) -> CodeSpec:
    """Built-in QC-LDPC preset: '1/2' (n=3840) or '3/4' (n=3888)."""
    if rate not in _PRESETS:
        raise ValueError(f"no preset for rate {rate!r} (have {sorted(_PRESETS)})")
    p = _PRESETS[rate]
    m_b, n_b, Z = p["m_b"], p["n_b"], p["Z"]
    return CodeSpec(name=f"qc-ldpc-{rate.replace('/', '')}-n{n_b * Z}",
                    n=n_b * Z, k=(n_b - m_b) * Z,
                    qc_entries=sorted(_make_base(m_b, n_b, Z, p["seed"])),
                    qc_Z=Z, qc_mb=m_b, qc_kb=n_b - m_b)


# ---------------------------------------------------------------------------
# Encoding


def encode(info: np.ndarray, spec: CodeSpec) -> np.ndarray:
    """Systematic encoding. info: (..., k) bits -> codewords (..., n).

    The checks' parities over [info, 0] are the partial syndromes; the
    parity bits follow by forward substitution through the lower
    bidiagonal parity part of the base graph, an XOR scan over base rows.
    """
    info = np.asarray(info, dtype=np.uint8)
    if info.shape[-1] != spec.k:
        raise ValueError(f"expected {spec.k} info bits, got {info.shape[-1]}")
    flat = info.reshape(-1, spec.k)
    B = flat.shape[0]
    bits = np.zeros((B, spec.n), dtype=bool)
    bits[:, :spec.k] = flat
    syn = _check_parities(bits[:, spec._edges.to_check], spec._edges)
    parity = np.logical_xor.accumulate(syn.reshape(B, spec.qc_mb, spec.qc_Z), axis=1)
    cw = np.concatenate([flat, parity.reshape(B, -1)], axis=1)
    return cw.reshape(info.shape[:-1] + (spec.n,))


# ---------------------------------------------------------------------------
# Edge tables and the parity check


@dataclass
class _Edges:
    """Index tables over a code's edges, built from its base-graph entries.

    An entry (r, c, s) has Z edges: edge i joins check r*Z + i and bit
    c*Z + (i + s) mod Z. The edges form `degree` slabs of m_b*Z, one edge
    per check each: slab j holds the j-th entry (by column) of every base
    row, row by row. A row with fewer entries has padding edges there.
    """

    degree: int               # the largest base-row degree: slabs
    to_check: np.ndarray      # (E,) the bit of each edge: gathers bits into edge order
    pads: list                # a slice of padding edges per missing entry
    # Per column-degree layer d: (the bits of the columns with more than d
    # entries, a contiguous slice; the edge of each of those bits' d-th entry).
    layers: list


def _edge_tables(spec: CodeSpec) -> _Edges:
    entries, Z, m_b = spec.qc_entries, spec.qc_Z, spec.qc_mb
    i = np.arange(Z)
    by_row = [[e for e, (r, _, _) in enumerate(entries) if r == row] for row in range(m_b)]
    degree = max(map(len, by_row))
    to_check = np.zeros(degree * m_b * Z, dtype=np.intp)
    block, pads = {}, []              # block: an entry's Z edges, in units of Z
    for r, row in enumerate(by_row):
        for j in range(degree):
            p = j * m_b + r
            if j < len(row):
                _, c, s = entries[row[j]]
                block[row[j]] = p
                to_check[p * Z:(p + 1) * Z] = c * Z + (i + s) % Z
            else:
                pads.append(slice(p * Z, (p + 1) * Z))
    by_col = [[(block[e], s) for e, (_, c, s) in enumerate(entries) if c == col]
              for col in range(spec.n // Z)]
    layers = []
    for d in range(max(map(len, by_col))):
        cols = [c for c, col in enumerate(by_col) if len(col) > d]
        if cols != list(range(cols[0], cols[0] + len(cols))):
            raise ValueError(f"{spec.name}: columns of degree > {d} are not contiguous")
        edge = np.concatenate([p * Z + (i - s) % Z for p, s in (by_col[c][d] for c in cols)])
        layers.append((slice(cols[0] * Z, (cols[-1] + 1) * Z), edge))
    return _Edges(degree=degree, to_check=to_check, pads=pads, layers=layers)


def _check_parities(bits: np.ndarray, edges: _Edges) -> np.ndarray:
    """Each check's parity, (B, m_b*Z): the XOR of its bits over the slabs.

    bits: (B, E) bools in edge order; its padding edges are cleared.
    """
    for p in edges.pads:
        bits[:, p] = False
    return np.logical_xor.reduce(bits.reshape(len(bits), edges.degree, -1), axis=1)


def _unsatisfied(neg: np.ndarray, edges: _Edges) -> np.ndarray:
    """Per codeword, whether some check fails. neg: as for _check_parities."""
    return _check_parities(neg, edges).any(axis=1)


def syndrome_ok(bits: np.ndarray, spec: CodeSpec) -> np.ndarray:
    """True per codeword iff every parity check holds. bits: (..., n)."""
    bits = np.asarray(bits)
    flat = bits.reshape(-1, spec.n).astype(bool)
    return ~_unsatisfied(flat[:, spec._edges.to_check], spec._edges).reshape(bits.shape[:-1])


# ---------------------------------------------------------------------------
# Decoding


def _check_update(v2c: np.ndarray, c2v: np.ndarray, degree: int, lo: np.ndarray,
                  hi: np.ndarray, tmp: np.ndarray, hit: np.ndarray) -> None:
    """Normalized min-sum check-to-variable messages, written into c2v.

    Each edge gets MINSUM_ALPHA times the smallest |v2c| of the other edges of its
    check, signed by their sign parity. Only the first minimum's edge sees
    the second minimum; on a tie both minima are equal. v2c holds no -0.0,
    so a set sign bit means a negative message, and its padding edges hold
    +inf, which is never a minimum and has no sign. v2c: (B, E),
    overwritten; lo, hi, tmp: (B, checks) and hit: (B, E) scratch.
    """
    B = len(v2c)
    x = np.abs(v2c, out=c2v).reshape(B, degree, -1)     # one check per column
    s = v2c.view(np.uint64).reshape(B, degree, -1)
    eq = hit.reshape(B, degree, -1)
    m1, m2, t = lo[:, None], hi[:, None], tmp[:, None]
    np.copyto(m1, x[:, :1])
    m2.fill(np.inf)
    for j in range(1, degree):
        xj = x[:, j:j + 1]
        np.minimum(m2, np.maximum(m1, xj, out=t), out=m2)
        np.minimum(m1, xj, out=m1)
    # Each edge's sign bit XOR its check's sign parity: the others' parity.
    s ^= np.bitwise_xor.reduce(s, axis=1, keepdims=True, out=t.view(np.uint64))
    # alpha*m2 on the edge whose |v2c| is m1, alpha*m1 elsewhere
    # (m2 >= m1 >= 0, and m2 * 0.0 = +0.0); then that sign.
    np.equal(x, m1, out=eq)
    np.multiply(np.multiply(m2, MINSUM_ALPHA, out=m2), eq, out=x)
    np.maximum(x, np.multiply(m1, MINSUM_ALPHA, out=m1), out=x)
    np.copysign(x, v2c.reshape(x.shape), out=x)


def _flood(edges: _Edges, iters: int, idx: np.ndarray, bufs: list,
           llr_post: np.ndarray, hard: np.ndarray, ok: np.ndarray) -> None:
    """Decode codewords idx for up to iters iterations and write their results.

    bufs: channel LLRs, bit totals, c2v, v2c and scratch, one row per
    codeword. Converged codewords are written out and their rows compacted
    away, so the live rows stay a contiguous prefix of each buffer.
    """
    chan, tot, c2v, v2c, hit, lo, hi, tmp = bufs
    (_, first), *later = edges.layers
    # Every index is in range; mode="wrap" lets take write straight into
    # out, where the default mode would fill a copy of out first.
    np.take(chan, edges.to_check, axis=1, out=v2c, mode="wrap")
    for _ in range(iters):
        # Variable-to-check: the bit total in edge order, less the edge's
        # last check-to-variable message.
        np.subtract(v2c, c2v, out=v2c)
        for p in edges.pads:
            v2c[:, p] = np.inf
        _check_update(v2c, c2v, edges.degree, lo, hi, tmp, hit)

        # Bit totals: a bit's messages in ascending base-row order, one
        # column-degree layer at a time, then the channel LLR.
        np.take(c2v, first, axis=1, out=tot, mode="wrap")
        for bits, edge in later:
            # v2c is free until the next gather: its head holds the layer.
            msg = v2c.reshape(-1)[:len(v2c) * edge.size].reshape(len(v2c), -1)
            np.add(tot[:, bits], np.take(c2v, edge, axis=1, out=msg, mode="wrap"),
                   out=tot[:, bits])
        np.add(tot, chan, out=tot)

        np.take(tot, edges.to_check, axis=1, out=v2c, mode="wrap")
        done = ~_unsatisfied(np.less(v2c, 0.0, out=hit), edges)
        if done.any():
            for j in np.flatnonzero(done):
                llr_post[idx[j]] = tot[j]
                hard[idx[j]] = tot[j] < 0
                ok[idx[j]] = True
            keep = np.flatnonzero(~done)
            for dst, src in enumerate(keep):
                if dst != src:
                    for a in (chan, tot, c2v, v2c):
                        a[dst] = a[src]
            idx = idx[keep]
            if not idx.size:
                return
            chan, tot, c2v, v2c, hit, lo, hi, tmp = (a[:idx.size] for a in bufs)
    llr_post[idx] = tot
    hard[idx] = tot < 0


def decode(llr: np.ndarray, spec: CodeSpec, max_iters: int | None = None
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalized min-sum belief propagation (flooding schedule).

    llr: (..., n) channel LLRs, positive = bit 0. Returns
    (llr_post, hard_bits, decoded_ok) with matching leading shape; hard_bits
    is always llr_post < 0. Posterior LLRs include the channel term plus all
    check-to-variable messages. Codewords whose input hard decisions
    already satisfy every parity check are returned unchanged; converged
    codewords stop iterating early.

    Messages live in one row per codeword, in edge order (see _Edges), and
    each step gathers through an index table. A bit's total sums its
    check-to-variable messages in ascending base-row order, then adds the
    channel LLR. Codewords are independent, so they run in contiguous
    chunks over the trial's threads, each in tiles of up to _TILE codewords.
    """
    max_iters = MAX_BP_ITERS if max_iters is None else max_iters
    llr = np.asarray(llr, dtype=float)
    if llr.shape[-1] != spec.n:
        raise ValueError(f"expected {spec.n} LLRs per codeword, got {llr.shape[-1]}")
    lead = llr.shape[:-1]
    ch = llr.reshape(-1, spec.n)

    llr_post = ch.copy()
    hard = (ch < 0).astype(np.uint8)
    ok = syndrome_ok(hard, spec)

    active = np.flatnonzero(~ok)
    if active.size and max_iters > 0:
        edges = spec._edges
        B, E, checks = active.size, edges.to_check.size, spec.qc_mb * spec.qc_Z
        # + 0.0 turns a -0.0 LLR into +0.0. Then no bit total, and so no
        # variable-to-check message, is -0.0: _check_update reads sign bits.
        chan = ch[active]
        chan += 0.0
        # Every buffer is allocated here, on the calling thread (see _threads).
        bufs = [chan, np.empty((B, spec.n)), np.zeros((B, E)), np.empty((B, E)),
                np.empty((B, E), dtype=bool), np.empty((B, checks)),
                np.empty((B, checks)), np.empty((B, checks))]

        def run(part: slice) -> None:
            size = part.stop - part.start
            for s in _threads.chunks(size, -(-size // _TILE)):
                tile = slice(part.start + s.start, part.start + s.stop)
                _flood(edges, max_iters, active[tile], [a[tile] for a in bufs],
                       llr_post, hard, ok)

        _threads.split(run, B, work=B * E * max_iters * _EDGE_WORK)

    return (llr_post.reshape(lead + (spec.n,)),
            hard.reshape(lead + (spec.n,)),
            ok.reshape(lead))
