"""Quasi-cyclic LDPC codes with a normalized min-sum decoder.

Two built-in presets cover the coded campaigns: rate 1/2 with n = 3840 and
rate 3/4 with n = 3888. Both use a base graph whose parity part is lower
bidiagonal (shift-0 identity pairs), which guarantees full row rank and a
forward-substitution encoder, and whose systematic columns carry weight-3
pseudorandom circulant shifts screened against length-4 cycles.

A base-graph entry (r, c, s) is a Z x Z circulant: check r*Z + i involves
bit c*Z + (i + s) mod Z. Encoding, the parity check and decoding all work
on these Z-blocks; the parity-check matrix is never expanded.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

MINSUM_ALPHA = 0.8125         # normalization factor, a power-of-two friendly 13/16
MAX_BP_ITERS = 25

_PRESETS = {
    "1/2": dict(m_b=12, n_b=24, Z=160, seed=20240501),
    "3/4": dict(m_b=6, n_b=24, Z=162, seed=20240502),
}
PRESET_RATES = tuple(_PRESETS)
_SIGN_BIT = np.uint64(1 << 63)


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
# Encoding and the parity check


def encode(info: np.ndarray, spec: CodeSpec) -> np.ndarray:
    """Systematic encoding. info: (..., k) bits -> codewords (..., n).

    The parity bits follow by forward substitution through the lower
    bidiagonal parity part of the base graph.
    """
    info = np.asarray(info, dtype=np.uint8)
    if info.shape[-1] != spec.k:
        raise ValueError(f"expected {spec.k} info bits, got {info.shape[-1]}")
    Z, m_b, k_b = spec.qc_Z, spec.qc_mb, spec.qc_kb
    flat = info.reshape(-1, spec.k)
    B = flat.shape[0]
    blocks = flat.reshape(B, k_b, Z)
    syn = np.zeros((B, m_b, Z), dtype=np.uint8)
    for (r, c, s) in spec.qc_entries:
        if c < k_b:
            syn[:, r] ^= np.roll(blocks[:, c], -s, axis=-1)
    parity = np.zeros((B, m_b, Z), dtype=np.uint8)
    parity[:, 0] = syn[:, 0]
    for r in range(1, m_b):
        parity[:, r] = syn[:, r] ^ parity[:, r - 1]
    cw = np.concatenate([flat, parity.reshape(B, m_b * Z)], axis=1)
    return cw.reshape(info.shape[:-1] + (spec.n,))


def _doubled_blocks(x: np.ndarray, Z: int) -> np.ndarray:
    """(B, n) -> (n/Z, 2Z, B), each Z-block twice, so rotating one is a slice.

    Block c rotated by s, bit i -> x[c*Z + (i + s) mod Z], is [c, s:s + Z].
    """
    blocks = x.T.reshape(-1, Z, x.shape[0])
    return np.concatenate([blocks, blocks], axis=1)


def _checks_ok(bits2: np.ndarray, entries, m_b: int) -> np.ndarray:
    """Per codeword, whether every parity check holds. bits2: doubled bool blocks."""
    Z = bits2.shape[1] // 2
    synd = np.zeros((m_b, Z, bits2.shape[2]), dtype=bool)
    for r, c, s in entries:
        synd[r] ^= bits2[c, s:s + Z]
    return ~synd.any(axis=(0, 1))


def syndrome_ok(bits: np.ndarray, spec: CodeSpec) -> np.ndarray:
    """True per codeword iff every parity check holds. bits: (..., n)."""
    bits = np.asarray(bits)
    bits2 = _doubled_blocks(bits.reshape(-1, spec.n).astype(bool), spec.qc_Z)
    return _checks_ok(bits2, spec.qc_entries, spec.qc_mb).reshape(bits.shape[:-1])


# ---------------------------------------------------------------------------
# Decoding


def _row_groups(entries) -> list[tuple[int, int, int]]:
    """(first entry, rows, degree) per run of consecutive equal-degree base rows."""
    groups = []
    first = 0
    for d, run in itertools.groupby(np.bincount([r for r, _, _ in entries]).tolist()):
        rows = len(list(run))
        groups.append((first, rows, d))
        first += rows * d
    return groups


def _check_update(v2c: np.ndarray, c2v: np.ndarray, groups) -> None:
    """Normalized min-sum check-to-variable messages, written into c2v.

    Each edge gets MINSUM_ALPHA times the smallest |v2c| of the other edges of its
    check, signed by their sign parity. Only the first minimum's edge sees
    the second minimum; on a tie both minima are equal. v2c holds no -0.0,
    so a set sign bit means a negative message. v2c is overwritten.
    """
    sign = c2v.view(np.uint64)
    np.bitwise_and(v2c.view(np.uint64), _SIGN_BIT, out=sign)
    mag = np.abs(v2c, out=v2c)
    for e0, rows, d in groups:
        shape = (rows, d) + v2c.shape[1:]
        edges = slice(e0, e0 + rows * d)
        x, s = mag[edges].reshape(shape), sign[edges].reshape(shape)
        m1 = x[:, 0].copy()
        m2 = np.full_like(m1, np.inf)
        for j in range(1, d):
            np.minimum(m2, np.maximum(m1, x[:, j]), out=m2)
            np.minimum(m1, x[:, j], out=m1)
        s ^= np.bitwise_xor.reduce(s, axis=1, keepdims=True)
        # alpha*m2 on the edge whose |v2c| is m1, alpha*m1 elsewhere
        # (m2 >= m1 >= 0, and m2 * 0.0 = +0.0); then the sign bit.
        np.multiply(MINSUM_ALPHA * m2[:, None], x == m1[:, None], out=x)
        np.maximum(x, MINSUM_ALPHA * m1[:, None], out=x)
        s |= x.view(np.uint64)


def decode(llr: np.ndarray, spec: CodeSpec, max_iters: int | None = None
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalized min-sum belief propagation (flooding schedule).

    llr: (..., n) channel LLRs, positive = bit 0. Returns
    (llr_post, hard_bits, decoded_ok) with matching leading shape. Posterior
    LLRs include the channel term plus all check-to-variable messages.
    Codewords whose input hard decisions already satisfy every parity check
    are returned unchanged; converged codewords stop iterating early.

    Messages live in one (Z, batch) block per base-graph entry, indexed by
    the check within the entry's block row. A bit's total sums its
    check-to-variable messages in ascending base-row order, then adds the
    channel LLR.
    """
    max_iters = MAX_BP_ITERS if max_iters is None else max_iters
    llr = np.asarray(llr, dtype=float)
    lead = llr.shape[:-1]
    ch = llr.reshape(-1, spec.n)
    entries = spec.qc_entries
    Z, n = spec.qc_Z, spec.n

    llr_post = ch.copy()
    hard = (ch < 0).astype(np.uint8)
    ok = syndrome_ok(hard, spec)

    active = np.nonzero(~ok)[0]
    if active.size and max_iters > 0:
        groups = _row_groups(entries)
        by_col = [[(e, s) for e, (_, c, s) in enumerate(entries) if c == col]
                  for col in range(n // Z)]
        # + 0.0 turns a -0.0 LLR into +0.0. Then no bit total, and so no
        # variable-to-check message, is -0.0: _check_update reads sign bits.
        tot2 = _doubled_blocks(ch[active] + 0.0, Z)   # bit totals, each block twice
        tot = tot2[:, :Z]
        ch_blk = tot.copy()
        c2v = np.zeros((len(entries), Z, active.size))
        v2c = np.empty_like(c2v)
        for _ in range(max_iters):
            # Variable-to-check: the bit total, rotated into check order,
            # less the entry's last check-to-variable message.
            for e, (_, c, s) in enumerate(entries):
                np.subtract(tot2[c, s:s + Z], c2v[e], out=v2c[e])
            _check_update(v2c, c2v, groups)

            # Bit totals: each message rotated back into bit order, in
            # ascending base-row order, then the channel LLR.
            for c, col in enumerate(by_col):
                acc = tot[c]
                for j, (e, s) in enumerate(col):
                    head, tail = c2v[e, :Z - s], c2v[e, Z - s:]
                    if j == 0:
                        acc[s:], acc[:s] = head, tail
                    else:
                        acc[s:] += head
                        acc[:s] += tail
                acc += ch_blk[c]
            tot2[:, Z:] = tot

            bits2 = tot2 < 0
            ok_a = _checks_ok(bits2, entries, spec.qc_mb)
            if ok_a.any():
                idx = active[ok_a]
                llr_post[idx] = tot[..., ok_a].reshape(n, -1).T
                hard[idx] = bits2[:, :Z, ok_a].reshape(n, -1).T
                ok[idx] = True
                keep = ~ok_a
                active = active[keep]
                if active.size == 0:
                    break
                # Drop v2c and every view of the old arrays, then copy one
                # array at a time, so each old array is freed as its copy lands.
                del tot, acc, head, tail, v2c
                tot2 = np.compress(keep, tot2, axis=-1)
                ch_blk = np.compress(keep, ch_blk, axis=-1)
                c2v = np.compress(keep, c2v, axis=-1)
                tot = tot2[:, :Z]
                v2c = np.empty_like(c2v)
        if active.size:
            llr_post[active] = tot.reshape(n, -1).T
            hard[active] = (tot < 0).reshape(n, -1).T

    return (llr_post.reshape(lead + (n,)),
            hard.reshape(lead + (n,)),
            ok.reshape(lead))
