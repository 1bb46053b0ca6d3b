"""Shared helpers for constructing bespoke network realizations in tests."""

import numpy as np

from ullsim import ScenarioConfig
from ullsim.netgeom import NetworkRealization


def manual_network(config: ScenarioConfig, beta: np.ndarray,
                   rho: np.ndarray | None = None,
                   R: np.ndarray | None = None) -> NetworkRealization:
    """Realization with hand-picked gains (and optionally correlations).

    beta: (L, L, K) linear gains; default R is beta * I per link; default
    rho applies the config's channel-inversion power control.
    """
    L, K, M = config.L, config.K, config.M
    beta = np.asarray(beta, dtype=float)
    assert beta.shape == (L, L, K)
    if R is None:
        R = beta[..., None, None] * np.eye(M)[None, None, None]
    R = np.asarray(R, dtype=complex)
    if rho is None:
        serving = beta[np.arange(L), np.arange(L)]
        rho = np.minimum(config.rho_design / serving, config.rho_max)
    rho = np.asarray(rho, dtype=float)
    return NetworkRealization(R=R, rho=rho, delta=config.delta)
