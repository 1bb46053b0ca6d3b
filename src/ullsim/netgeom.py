"""Network geometry: hexagonal wrap-around layout, pathloss, spatial correlation.

The L cells live on a torus built from the triangular BS lattice: picking
(i, j) with i^2 + i*j + j^2 = L, the BS lattice is quotiented by the
sublattice spanned by w1 = i*u1 + j*u2 and its 60-degree rotation, which
leaves exactly L inequivalent BS positions and removes all boundary effects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import ConfigError, ScenarioConfig


def _cluster_basis(L: int) -> tuple[int, int]:
    """Smallest (i, j) with i^2 + i*j + j^2 = L."""
    for i in range(int(L ** 0.5) + 2):
        for j in range(i + 1):
            if i * i + i * j + j * j == L:
                return i, j
    raise ConfigError(f"L={L} is not a hex cluster size")


@dataclass
class HexGrid:
    """Wrap-around hexagonal BS layout with torus distance helpers."""

    L: int
    spacing_km: float
    bs_pos: np.ndarray = field(init=False)      # (L, 2) positions in km
    _periods: np.ndarray = field(init=False)    # (P, 2) wrap translations

    def __post_init__(self):
        i, j = _cluster_basis(self.L)
        u1 = self.spacing_km * np.array([1.0, 0.0])
        u2 = self.spacing_km * np.array([0.5, np.sqrt(3.0) / 2.0])
        w1 = i * u1 + j * u2
        w2 = -j * u1 + (i + j) * u2          # w1 rotated by 60 degrees
        self._w = np.stack([w1, w2])

        # Coset representatives of the BS lattice modulo the wrap lattice.
        reps: list[tuple[int, int]] = []
        span = self.L + 2
        cand = [(a, b) for a in range(-span, span + 1) for b in range(-span, span + 1)]
        cand.sort(key=lambda ab: (np.linalg.norm(ab[0] * u1 + ab[1] * u2), ab))
        for a, b in cand:
            if not any(self._equivalent(a - ra, b - rb, i, j) for ra, rb in reps):
                reps.append((a, b))
            if len(reps) == self.L:
                break
        self.bs_pos = np.array([a * u1 + b * u2 for a, b in reps])

        shifts = [(m, n) for m in range(-2, 3) for n in range(-2, 3)]
        self._periods = np.array([m * w1 + n * w2 for m, n in shifts])
        self._winv = np.linalg.inv(self._w)

    @staticmethod
    def _equivalent(da: int, db: int, i: int, j: int) -> bool:
        # (da, db) is in the wrap sublattice iff the solved coefficients are integral.
        L = i * i + i * j + j * j
        return ((i + j) * da + j * db) % L == 0 and (-j * da + i * db) % L == 0

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


@dataclass
class NetworkRealization:
    """One large-scale realization: spatial correlations and transmit energies.

    Index convention: [l, ll, k] couples BS l with UE k of cell ll.
    """

    R: np.ndarray             # (L, L, K, M, M) spatial correlation matrices
    rho: np.ndarray           # (L, K) per-UE transmit energy after power control
    delta: float              # SP pilot share of rho

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
        """Intercell interference at every BS, (L, M, M).

        [l] = sum_{ll != l, kk} R[l, ll, kk] energy[ll, kk], summed in that order.
        """
        L, K = energy.shape
        inter = np.zeros((L,) + self.R.shape[-2:], dtype=complex)
        for l, ll, kk in np.ndindex(L, L, K):
            if ll != l:
                inter[l] += self.R[l, ll, kk] * energy[ll, kk]
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


def local_scattering_correlation(beta: float, nominal_angle: float,
                                 config: ScenarioConfig) -> np.ndarray:
    """Spatial correlation matrix of a ULA under Gaussian local scattering.

    Small-angular-spread closed form:
        [R]_{m,n} = beta * exp(2*pi*i*d*(n-m)*sin(t))
                         * exp(-(s^2/2) * (2*pi*d*(n-m)*cos(t))^2)
    with antenna spacing d in wavelengths, nominal angle t, and angular
    standard deviation s in radians. The result is Hermitian Toeplitz and
    positive semidefinite up to rounding; if a numerical check finds it
    indefinite the negative eigenvalues are clipped to zero.
    """
    if config.angular_std_deg <= 0:
        raise ConfigError("angular_std_deg must be positive")
    M = config.M
    d = config.antenna_spacing
    s = np.deg2rad(config.angular_std_deg)
    k = np.arange(M)
    row = beta * (np.exp(2j * np.pi * d * k * np.sin(nominal_angle))
                  * np.exp(-0.5 * (s * 2.0 * np.pi * d * k * np.cos(nominal_angle)) ** 2))
    idx = np.abs(k[None, :] - k[:, None])
    R = row[idx]
    R = np.where(k[None, :] >= k[:, None], R, np.conj(R))
    if M > 1:
        w = np.linalg.eigvalsh(R)
        if w[0] < -1e-12 * beta:
            w2, U = np.linalg.eigh(R)
            R = (U * np.clip(w2, 0.0, None)) @ U.conj().T
            R = 0.5 * (R + R.conj().T)
    return R


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
    """Full large-scale realization: correlations and powers of a fresh drop."""
    rng = np.random.default_rng(rng)
    _, _, beta, angle = build_geometry(config, rng)
    L, K, M = config.L, config.K, config.M

    R = np.empty((L, L, K, M, M), dtype=complex)
    for l in range(L):
        for ll in range(L):
            for k in range(K):
                R[l, ll, k] = local_scattering_correlation(beta[l, ll, k],
                                                           angle[l, ll, k], config)

    serving = beta[np.arange(L), np.arange(L), :]          # (L, K)
    rho = apply_power_control(serving, config)
    return NetworkRealization(R=R, rho=rho, delta=config.delta)
