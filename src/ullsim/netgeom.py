"""Network geometry: hexagonal wrap-around layout, pathloss, spatial correlation.

The L cells live on a torus built from the triangular BS lattice: picking
(i, j) with i^2 + i*j + j^2 = L, the BS lattice is quotiented by the
sublattice spanned by w1 = i*u1 + j*u2 and its 60-degree rotation, which
leaves exactly L inequivalent BS positions and removes all boundary effects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import ConfigError, ScenarioConfig, hex_cluster_basis


@dataclass
class HexGrid:
    """Wrap-around hexagonal BS layout with torus distance helpers."""

    L: int
    spacing_km: float
    bs_pos: np.ndarray = field(init=False)      # (L, 2) positions in km
    _periods: np.ndarray = field(init=False)    # (P, 2) wrap translations

    def __post_init__(self):
        basis = hex_cluster_basis(self.L)
        if basis is None:
            raise ConfigError(f"L={self.L} is not a hex cluster size")
        i, j = basis
        u1 = self.spacing_km * np.array([1.0, 0.0])
        u2 = self.spacing_km * np.array([0.5, np.sqrt(3.0) / 2.0])
        w1 = i * u1 + j * u2
        w2 = -j * u1 + (i + j) * u2          # w1 rotated by 60 degrees
        self._w = np.stack([w1, w2])

        # Coset representatives of the BS lattice modulo the wrap lattice: the
        # first point of each coset in (norm, (a, b)) order. (a, b) and (a', b')
        # share a coset iff their keys below agree, the wrap coordinates of
        # a*u1 + b*u2 times L, mod L. Every coset has a point within the wrap
        # lattice's Voronoi circumradius, sqrt(L/3) spacings, where
        # |a|, |b| <= 2*sqrt(L)/3: the window holds every candidate up to the
        # last representative.
        span = math.isqrt(self.L) + 2
        cand = [(a, b) for a in range(-span, span + 1) for b in range(-span, span + 1)]
        cand.sort(key=lambda ab: (np.linalg.norm(ab[0] * u1 + ab[1] * u2), ab))
        reps: dict[tuple[int, int], tuple[int, int]] = {}
        for a, b in cand:
            reps.setdefault((((i + j) * a + j * b) % self.L, (-j * a + i * b) % self.L), (a, b))
        self.bs_pos = np.array([a * u1 + b * u2 for a, b in reps.values()])

        shifts = [(m, n) for m in range(-2, 3) for n in range(-2, 3)]
        self._periods = np.array([m * w1 + n * w2 for m, n in shifts])
        self._winv = np.linalg.inv(self._w)

    def displacement(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Shortest wrap-around displacement vector(s) from src to dst.

        src, dst: (..., 2) broadcastable position arrays. Returns (..., 2).
        """
        diff = np.asarray(dst) - np.asarray(src)                  # (..., 2)
        # Reduce into the fundamental cell first so arbitrarily far-out
        # inputs still land within the finite translate search below.
        diff = diff - np.round(diff @ self._winv) @ self._w
        cand = diff[..., None, :] + self._periods                 # (..., P, 2)
        norms = np.linalg.norm(cand, axis=-1)
        best = np.argmin(norms, axis=-1)
        return np.take_along_axis(cand, best[..., None, None], axis=-2)[..., 0, :]

    def distance(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        return np.linalg.norm(self.displacement(src, dst), axis=-1)

    def uniform_points(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n points uniformly distributed on the torus, shape (n, 2)."""
        ab = rng.uniform(size=(n, 2))
        return ab @ self._w

    def nearest_bs(self, points: np.ndarray) -> np.ndarray:
        """Index of the closest BS (torus metric) for each point, shape (n,)."""
        d = self.distance(self.bs_pos[None, :, :], points[:, None, :])
        return np.argmin(d, axis=1)


def toeplitz(v: np.ndarray) -> np.ndarray:
    """(..., M, M) Toeplitz matrices [T]_{m,n} = v[M-1-m+n], a read-only view of v.

    A Hermitian T with first row `row` has v = [conj(row[M-1:0:-1]), row].
    A BLAS or einsum reader copies the matrices it reads
    (`np.ascontiguousarray`) so that it sees the strides of a dense matrix.
    """
    return sliding_window_view(v, (v.shape[-1] + 1) // 2, axis=-1)[..., ::-1, :]


@dataclass
class NetworkRealization:
    """One large-scale realization: spatial correlations and transmit energies.

    Index convention: [l, ll, k] couples BS l with UE k of cell ll. Each
    correlation matrix is Hermitian Toeplitz and held as its 2M-1
    generator numbers, so a drop holds L*L*K*(2M-1) of them, not
    L*L*K*M^2; R reads them as matrices.
    """

    r: np.ndarray             # (L, L, K, 2M-1) generators of the spatial correlations
    rho: np.ndarray           # (L, K) per-UE transmit energy after power control
    delta: float              # SP pilot share of rho

    @property
    def R(self) -> np.ndarray:
        """(L, L, K, M, M) spatial correlation matrices, a read-only `toeplitz` view of r."""
        return toeplitz(self.r)

    def energies(self, mode: str) -> tuple[np.ndarray, np.ndarray]:
        """(pilot energy q, data energy p), each (L, K), for 'rp' or 'sp'.

        rp sends pilots and data at full energy; sp splits it, q = delta * rho
        and p = (1 - delta) * rho.
        """
        if mode == "rp":
            return self.rho, self.rho
        if mode == "sp":
            return self.delta * self.rho, (1.0 - self.delta) * self.rho
        raise ValueError(f"unknown mode {mode!r}")

    def intercell(self, energy: np.ndarray) -> np.ndarray:
        """Intercell interference at every BS, (L, 2M-1) Toeplitz generators.

        [l] = sum_{ll != l, kk} R[l, ll, kk] energy[ll, kk], summed in
        (ll, kk) order at every BS at once: BS ll's own UEs add R * 0.0, a
        signed zero, which moves no bit of a sum that starts at +0.0.
        """
        L = energy.shape[0]
        inter = np.zeros((L, self.r.shape[-1]), dtype=complex)
        for ll, kk in np.ndindex(energy.shape):
            inter += self.r[:, ll, kk] * np.where(np.arange(L) != ll, energy[ll, kk], 0.0)[:, None]
        return inter


def build_geometry(config: ScenarioConfig, rng) -> tuple[HexGrid, np.ndarray, np.ndarray, np.ndarray]:
    """Drop K UEs per cell and compute large-scale gains.

    Returns (grid, ue_pos (L,K,2), beta (L,L,K), angle (L,L,K)). Each UE is
    uniform over the Voronoi cell of its serving BS (rejection sampling on
    the torus) subject to the minimum-distance floor; shadow fading is
    i.i.d. log-normal per BS-UE pair.
    """
    rng = np.random.default_rng(rng)
    grid = HexGrid(config.L, config.inter_bs_km)
    L, K = config.L, config.K

    ue_pos = np.empty((L, K, 2))
    for l in range(L):
        got = 0
        while got < K:
            pts = grid.uniform_points(rng, max(4 * K, 32))
            near = grid.nearest_bs(pts)
            dist = grid.distance(grid.bs_pos[near], pts)
            ok = (near == l) & (dist >= config.min_dist_km)
            take = min(K - got, int(ok.sum()))
            ue_pos[l, got:got + take] = pts[ok][:take]
            got += take

    # Displacements from every BS to every UE (torus-shortest path).
    disp = grid.displacement(grid.bs_pos[:, None, None, :], ue_pos[None, :, :, :])
    dist = np.linalg.norm(disp, axis=-1)
    angle = np.arctan2(disp[..., 1], disp[..., 0])

    shadow_db = rng.normal(0.0, config.shadow_std_db, size=dist.shape)
    beta_db = (-config.pathloss_ref_db
               - 10.0 * config.pathloss_exponent * np.log10(np.maximum(dist, config.min_dist_km))
               + shadow_db)
    beta = 10.0 ** (beta_db / 10.0)
    return grid, ue_pos, beta, angle


def local_scattering_correlation(beta, nominal_angle, config: ScenarioConfig) -> np.ndarray:
    """Spatial correlation matrices of a ULA under Gaussian local scattering.

    beta and nominal_angle: broadcastable arrays (or scalars) of shape (...).
    Small-angular-spread closed form:
        [R]_{m,n} = beta * exp(2*pi*i*d*(n-m)*sin(t))
                         * exp(-(s^2/2) * (2*pi*d*(n-m)*cos(t))^2)
    with antenna spacing d in wavelengths, nominal angle t, and angular
    standard deviation s in radians. The result is Hermitian Toeplitz and
    positive semidefinite in exact arithmetic; rounding can leave eigenvalues
    of order -1e-12 * beta, which `airlink.correlation_sqrt` clips.

    Returns (..., M, M), the read-only `toeplitz` view of the (..., 2M-1)
    generators.
    """
    M = config.M
    d = config.antenna_spacing
    s = np.deg2rad(config.angular_std_deg)
    beta, t = (a[..., None] for a in np.broadcast_arrays(beta, nominal_angle))
    k = np.arange(M)
    row = beta * (np.exp(2j * np.pi * d * k * np.sin(t))
                  * np.exp(-0.5 * (s * 2.0 * np.pi * d * k * np.cos(t)) ** 2))
    return toeplitz(np.concatenate([np.conjugate(row[..., :0:-1]), row], axis=-1))


def apply_power_control(beta_serving: np.ndarray, config: ScenarioConfig) -> np.ndarray:
    """Statistical channel-inversion power control with a cap.

    beta_serving: (L, K) serving-link gains beta_{llk}.
    Returns rho (L, K) with rho = min(rho_design / beta, rho_max).
    """
    beta_serving = np.asarray(beta_serving, dtype=float)
    if np.any(beta_serving <= 0):
        raise ConfigError("serving-link gains must be positive")
    return np.minimum(config.rho_design / beta_serving, config.rho_max)


def make_network(config: ScenarioConfig, rng) -> NetworkRealization:
    """Full large-scale realization of a fresh drop.

    One `local_scattering_correlation` call builds all L*L*K correlation
    matrices, whose (L, L, K, 2M-1) generators the realization keeps; power
    control sets rho from the serving gains.
    """
    rng = np.random.default_rng(rng)
    _, _, beta, angle = build_geometry(config, rng)
    L = config.L
    serving = beta[np.arange(L), np.arange(L), :]          # (L, K)
    R = local_scattering_correlation(beta, angle, config)
    # The generators back: [R]_{M-1,n} = v[n], [R]_{0,n} = v[M-1+n].
    return NetworkRealization(r=np.concatenate([R[..., -1, :], R[..., 0, 1:]], axis=-1),
                              rho=apply_power_control(serving, config), delta=config.delta)
