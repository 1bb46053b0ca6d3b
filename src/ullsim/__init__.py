"""Link-level simulator for multicell massive MIMO uplink with iterative
channel estimation and decoding.

Supports regular (time-multiplexed) and superimposed pilots, LMMSE channel
estimation with closed-form pilot-only and data-aided statistics, MR and
sequential MMSE combining, QC-LDPC coding over QPSK, and a reproducible
Monte Carlo campaign harness.
"""

from .airlink import (BlockSignals, correlation_sqrt, crandn, draw_channels,
                      gaussian_symbols, simulate_blocks)
from .chest import (EstimationError, FeasibilityResult,
                    data_aided_feasibility, data_aided_observation, lmmse_filter,
                    pilot_observation, psi_data_aided_bound,
                    psi_data_aided_empirical, psi_pilot,
                    simulate_data_aided_observations)
from .codec import (CodeSpec, CodewordFrame, decode, encode, frame_codeword,
                    hard_decisions, make_code, qpsk_demap_llr, qpsk_map, soft_symbols)
from .codec.framing import make_frame
from .combine import build_combiner, combine_iterative, effective_stats
from .config import ConfigError, ScenarioConfig, dbm_to_joules, load_config
from .harness import (Campaign, emit_figure_data, gaussian_symbol_study,
                      run_campaign, write_csv)
from .metrics import (binary_entropy, effective_snr_db,
                      mse_channel_analytic, mse_channel_empirical,
                      se_mutual_info, se_uatf_moments, se_uatf_samples)
from .netgeom import (HexGrid, NetworkRealization, apply_power_control,
                      build_geometry, local_scattering_correlation, make_network)
from .pilots import PilotAssignment, PilotBook, assign_pilots, make_pilot_book, sp_reuse_factor
from .receiver import (IterationState, IterationTrace, SoftDataState, estimate_and_combine,
                       run_receiver)

__version__ = "0.1.0"

__all__ = [
    "BlockSignals", "Campaign", "CodeSpec",
    "CodewordFrame", "ConfigError", "EstimationError",
    "FeasibilityResult", "HexGrid", "IterationState", "IterationTrace",
    "NetworkRealization", "PilotAssignment", "PilotBook",
    "ScenarioConfig", "SoftDataState", "apply_power_control", "assign_pilots",
    "binary_entropy", "build_combiner", "build_geometry",
    "combine_iterative", "correlation_sqrt", "crandn",
    "data_aided_feasibility", "data_aided_observation", "dbm_to_joules",
    "decode", "draw_channels", "effective_snr_db", "effective_stats",
    "emit_figure_data", "encode", "estimate_and_combine", "frame_codeword",
    "gaussian_symbol_study", "gaussian_symbols", "hard_decisions", "lmmse_filter",
    "load_config", "local_scattering_correlation", "make_code", "make_frame",
    "make_network", "make_pilot_book", "mse_channel_analytic",
    "mse_channel_empirical", "pilot_observation", "psi_data_aided_bound",
    "psi_data_aided_empirical", "psi_pilot", "qpsk_demap_llr", "qpsk_map",
    "run_campaign", "run_receiver",
    "se_mutual_info", "se_uatf_moments", "se_uatf_samples",
    "simulate_blocks", "simulate_data_aided_observations", "soft_symbols",
    "sp_reuse_factor", "write_csv",
]
