"""Shared helpers: bespoke network realizations, and kernels split however small."""

import numpy as np
import pytest

from ullsim import ScenarioConfig, _threads
from ullsim.netgeom import NetworkRealization


def manual_network(config: ScenarioConfig, beta: np.ndarray,
                   rho: np.ndarray | None = None,
                   r: np.ndarray | None = None) -> NetworkRealization:
    """Realization with hand-picked gains (and optionally correlations).

    beta: (L, L, K) linear gains; r: (L, L, K, 2M-1) Toeplitz generators of
    the correlations, by default those of beta * I per link; default rho
    applies the config's channel-inversion power control.
    """
    L, K, M = config.L, config.K, config.M
    beta = np.asarray(beta, dtype=float)
    assert beta.shape == (L, L, K)
    if r is None:
        r = np.zeros((L, L, K, 2 * M - 1))
        r[..., M - 1] = beta
    r = np.asarray(r, dtype=complex)
    if rho is None:
        serving = beta[np.arange(L), np.arange(L)]
        rho = np.minimum(config.rho_design / serving, config.rho_max)
    rho = np.asarray(rho, dtype=float)
    return NetworkRealization(r=r, rho=rho, delta=config.delta)


@pytest.fixture
def split_small(monkeypatch):
    # Split every kernel, however small: test scenarios' kernels are tiny.
    monkeypatch.setattr(_threads, "_MIN_WORK", 1)
