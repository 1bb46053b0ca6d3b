"""Scenario configuration: deterministic system parameters and defaults.

All energies are per complex symbol in joules (i.e. watts divided by the
system bandwidth), so an SNR in dB is just 10*log10(energy / noise_energy).
Defaults follow the urban-macro setup used throughout: 20 MHz bandwidth,
20 dBm transmit power cap, -94 dBm noise floor, 3.76 pathloss exponent.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass
from pathlib import Path


class ConfigError(ValueError):
    """Raised for invalid or inconsistent scenario parameters."""


def require_integers(obj, *names: str) -> None:
    """ConfigError unless each named field of obj is an integer (operator.index)."""
    for name in names:
        value = getattr(obj, name)
        try:
            operator.index(value)
        except TypeError:
            raise ConfigError(f"{name} must be an integer (got {value!r})") from None


BANDWIDTH_HZ = 20e6


def dbm_to_joules(dbm: float, bandwidth_hz: float = BANDWIDTH_HZ) -> float:
    """Convert a power in dBm to a per-symbol energy in joules."""
    return 10.0 ** (dbm / 10.0) * 1e-3 / bandwidth_hz


# Default per-symbol energies from the standard link budget.
NOISE_ENERGY_DEFAULT = dbm_to_joules(-94.0)   # -94 dBm over 20 MHz
RHO_MAX_DEFAULT = dbm_to_joules(20.0)         # 20 dBm transmit cap

def hex_cluster_basis(n: int) -> tuple[int, int] | None:
    """Smallest (i, j) with j <= i and i^2 + i*j + j^2 = n; None if there is none.

    The n with a basis (1, 3, 4, 7, 9, 12, 13, ...) are exactly the cell
    counts and reuse factors that tile a hexagonal grid with a wrap-around
    (torus) topology.
    """
    if n < 1:
        return None
    for i in range(math.isqrt(n) + 1):
        j = (math.isqrt(4 * n - 3 * i * i) - i) // 2     # the root of j^2 + i*j + i^2 = n
        if j <= i and i * i + i * j + j * j == n:
            return i, j
    return None


@dataclass
class ScenarioConfig:
    M: int = 100          # BS antennas
    K: int = 10           # UEs per cell
    L: int = 4            # cells (hex wrap-around layout)
    tau_c: int = 200      # samples per coherence block
    tau_p: int = 10       # pilot samples (regular-pilot mode only)
    delta: float = 0.3    # superimposed-pilot power fraction (q = delta*rho)

    # Link budget (per-symbol energies, joules).
    noise_energy: float = NOISE_ENERGY_DEFAULT
    rho_design: float | None = None        # power-control target; None -> 0 dB SNR
    rho_max: float = RHO_MAX_DEFAULT       # per-UE transmit energy cap

    # Geometry and propagation.
    inter_bs_km: float = 0.15              # distance between neighboring BSs
    pathloss_exponent: float = 3.76
    pathloss_ref_db: float = 148.1         # pathloss at 1 km, dB
    shadow_std_db: float = 10.0            # log-normal shadow fading std
    min_dist_km: float = 0.01              # UE-to-serving-BS distance floor
    angular_std_deg: float = 10.0          # local-scattering angular spread
    antenna_spacing: float = 0.5           # ULA spacing in wavelengths

    def __post_init__(self):
        if self.rho_design is None:
            self.rho_design = self.noise_energy
        self.validate()

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name in _INT_FIELDS:
                require_integers(self, f.name)
            # rho_max = inf means no power cap; every other float must be finite.
            elif not (math.isfinite(value) or (f.name == "rho_max" and value == math.inf)):
                raise ConfigError(f"{f.name} must be finite (got {value})")
        if self.M < 1 or self.K < 1:
            raise ConfigError(f"M and K must be positive (got M={self.M}, K={self.K})")
        if hex_cluster_basis(self.L) is None:
            raise ConfigError(
                f"L={self.L} is not a hex-grid cluster size (1, 3, 4, 7, 9, 12, ...)")
        if not (1 <= self.tau_p <= self.tau_c):
            raise ConfigError(f"need 1 <= tau_p <= tau_c (got {self.tau_p}, {self.tau_c})")
        if self.tau_p < self.K:
            raise ConfigError(f"tau_p={self.tau_p} < K={self.K}: pilots cannot be orthogonal in-cell")
        if self.tau_c <= self.K:
            raise ConfigError(f"tau_c={self.tau_c} must exceed K={self.K}")
        if not 0.0 <= self.delta <= 1.0:
            raise ConfigError(f"delta must lie in [0, 1] (got {self.delta})")
        for name in ("noise_energy", "rho_design", "rho_max", "inter_bs_km",
                     "angular_std_deg", "antenna_spacing"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.shadow_std_db < 0 or self.min_dist_km < 0:
            raise ConfigError("shadow_std_db and min_dist_km must be nonnegative")

    @property
    def tau_d(self) -> int:
        """Data samples per block in regular-pilot mode."""
        return self.tau_c - self.tau_p

    def data_slots(self, mode: str) -> int:
        """Data samples per block: tau_d for rp (pilot head first), tau_c for sp.

        The pre-log factor of either scheme is data_slots(mode) / tau_c.
        """
        if mode == "rp":
            return self.tau_d
        if mode == "sp":
            return self.tau_c
        raise ConfigError(f"unknown pilot mode {mode!r}")

    def replace(self, **kwargs) -> "ScenarioConfig":
        """New config with selected fields overridden (re-validated)."""
        return dataclasses.replace(self, **kwargs)


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ScenarioConfig)}
_INT_FIELDS = {"M", "K", "L", "tau_c", "tau_p"}


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key in _INT_FIELDS:
        return int(raw)
    if raw.lower() == "none":
        return None
    return float(raw)


def load_config(path: str | Path) -> ScenarioConfig:
    """Read a ScenarioConfig from a key = value text file.

    Lines are `name = value`; blank lines and `#` comments are ignored.
    The file is UTF-8; other bytes, unknown keys and a key set twice are
    configuration errors.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
    overrides, seen = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown parameter {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: {key} is already set on line {seen[key]}")
        seen[key] = lineno
        try:
            overrides[key] = _parse_value(key, raw)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {raw!r}") from exc
    return ScenarioConfig(**overrides)

