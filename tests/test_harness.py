"""Campaign runner: grids, aggregation, CSV output, CLI entry points."""

import csv
import dataclasses
import logging
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ullsim
import ullsim.codec
from ullsim import ScenarioConfig, airlink, cli, harness
from ullsim.chest import EstimationError
from ullsim.config import ConfigError, load_config
from ullsim.harness import (CSV_COLUMNS, Campaign, apply_grid_point,
                            gaussian_symbol_study, run_campaign, write_csv)


def small_config(**kw):
    base = dict(M=3, K=2, L=3, tau_c=24, tau_p=2)
    base.update(kw)
    return ScenarioConfig(**base)


# ---------------------------------------------------------------------------
# Grid handling


def test_apply_grid_point_none_is_identity():
    config = small_config()
    assert apply_grid_point(config, "none", 0.0) is config


def test_apply_grid_point_snr():
    config = small_config()
    out = apply_grid_point(config, "snr_db", 7.0)
    assert np.isclose(out.rho_design, config.noise_energy * 10 ** 0.7)
    assert out.M == config.M


def test_apply_grid_point_sigma_est_leaves_the_config():
    # the gaussian pipeline reads sigma_est from the grid value itself
    config = small_config()
    assert apply_grid_point(config, "sigma_est", 0.4) is config
    with pytest.raises(ConfigError):
        apply_grid_point(config, "sigma_est", 1.5)


def test_apply_grid_point_config_fields_revalidate():
    config = small_config()
    out = apply_grid_point(config, "tau_p", 4)
    assert out.tau_p == 4
    with pytest.raises(ConfigError):
        apply_grid_point(config, "tau_p", 1)       # tau_p < K
    with pytest.raises(ConfigError):
        apply_grid_point(config, "bandwidth", 1.0)


def test_campaign_validation():
    config = small_config()
    with pytest.raises(ConfigError):
        Campaign(config=config, pipeline="analog")
    with pytest.raises(ConfigError):
        Campaign(config=config, grid_values=())
    with pytest.raises(ConfigError):
        Campaign(config=config, trials=0)
    with pytest.raises(ConfigError):
        Campaign(config=config, grid_param="sigma_est", grid_values=(0.5, 2.0))


# tau_c = 4 leaves rp tau_d = 2 = K data samples: too few for the data-aided bound.
@pytest.mark.parametrize("field, value, extra", [
    pytest.param(f, v, {}, id=f"{f}-{v}") for f, v in [
        ("mode", "xx"), ("combiner", "zf"), ("code_rate", "2/3"),
        ("i_max", -1), ("workers", 0), ("seed", -1),
        # counts must be integers: a float i_max used to run a whole receiver
        # before range() raised, and took the campaign down with it
        ("trials", 2.0), ("seed", 1.5), ("i_max", 1.5), ("workers", 1.5), ("trials", "2")]
] + [
    # the coded receiver ignores sigma_est, so sweeping it means nothing
    pytest.param("grid_param", "sigma_est", {}, id="grid_param-sigma_est-coded"),
    pytest.param("config", small_config(tau_c=4), {}, id="config-rp_short_tau_d-coded"),
    pytest.param("config", small_config(tau_c=4), {"pipeline": "gaussian", "i_max": 0},
                 id="config-rp_short_tau_d-gaussian"),
    pytest.param("grid_param", "tau_c", {"grid_values": (24, 4)},
                 id="grid_param-tau_c-rp_short_tau_d"),
    # an integer field would silently run M=8 and label the rows 8.5
    pytest.param("grid_param", "M", {"grid_values": (8.5,)}, id="grid_param-M-fractional"),
    # rp needs tau_p to be a multiple of K: once raised only inside the first
    # trial, after its drop (or inside a pool worker)
    pytest.param("config", small_config(tau_p=3), {}, id="config-rp_tau_p_not_multiple_of_k"),
    pytest.param("grid_param", "tau_p", {"grid_values": (2, 3)},
                 id="grid_param-tau_p-rp_not_multiple_of_k"),
    # 10 ** 400 overflows a float: once an OverflowError traceback, exit 1
    pytest.param("grid_param", "snr_db", {"grid_values": (4000,)},
                 id="grid_param-snr_db-overflow"),
    # sp with no pilot energy once ran every trial into a singular covariance
    pytest.param("config", small_config(delta=0.0), {"mode": "sp"},
                 id="config-sp_no_pilot_energy"),
    pytest.param("grid_param", "delta", {"mode": "sp", "grid_values": (0.5, 0.0)},
                 id="grid_param-delta-sp_no_pilot_energy"),
    # coded sp with no data energy once wrote bler 0: every LLR is 0, and the
    # all-zero codeword passes the check
    pytest.param("config", small_config(delta=1.0), {"mode": "sp"},
                 id="config-coded_sp_no_data_energy"),
    pytest.param("grid_param", "delta", {"mode": "sp", "grid_values": (0.5, 1.0)},
                 id="grid_param-delta-coded_sp_no_data_energy"),
])
def test_campaign_rejects_bad_field_at_construction(field, value, extra):
    with pytest.raises(ConfigError):
        Campaign(**{"config": small_config(), field: value, **extra})


@pytest.mark.parametrize("config, extra, message", [
    # the value comes from the config: no grid point to name
    (small_config(delta=1.0), {"mode": "sp"}, r"delta < 1 \(got delta=1\.0\)$"),
    (small_config(delta=0.0), {"mode": "sp"}, r"delta > 0 \(got delta=0\.0\)$"),
    (small_config(tau_c=4), {}, r"\(got tau_d=2, K=2\)$"),
    # the value comes from a grid point, which the message names
    (small_config(), {"mode": "sp", "grid_param": "delta", "grid_values": (0.5, 1.0)},
     r"delta < 1 \(got delta=1\.0 at delta = 1\.0\)$"),
    (small_config(), {"grid_param": "tau_c", "grid_values": (24, 4)},
     r"\(got tau_d=2, K=2 at tau_c = 4\)$"),
], ids=["config-delta1", "config-delta0", "config-tau_d", "grid-delta1", "grid-tau_c"])
def test_campaign_errors_name_the_wrong_value(config, extra, message):
    with pytest.raises(ConfigError, match=message):
        Campaign(config=config, **extra)


@pytest.mark.parametrize("values", [(0, 0), (5, 0, 5.0)])
def test_campaign_rejects_a_repeated_grid_value(values):
    # Both points' rows would share one grid_value key, and a reader keyed on
    # it (emit_figure_data included) would mix two sets of trials.
    with pytest.raises(ConfigError, match=r"grid value (0|5\.0) is repeated$"):
        Campaign(config=small_config(), grid_param="snr_db", grid_values=values)


def test_short_rp_data_is_fine_where_no_data_aided_bound_runs():
    Campaign(config=small_config(tau_c=4), i_max=0)
    Campaign(config=small_config(tau_c=4), mode="sp")


def test_rp_tau_p_sweep_with_a_bad_value_fails_before_any_trial(monkeypatch, tmp_path,
                                                                config_file, capsys):
    Campaign(config=small_config(tau_p=3), mode="sp")   # sp pilots span the block
    ran = []
    monkeypatch.setattr(harness, "_run_pairs", lambda *args: ran.append(args))
    assert cli.main(["sweep", str(config_file), "--param", "tau_p", "--values", "2,3",
                     "--trials", "1", "--out", str(tmp_path / "tau_p.csv")]) == 2
    assert "multiple of K" in capsys.readouterr().err
    assert not ran
    assert not (tmp_path / "tau_p.csv").exists()


# ---------------------------------------------------------------------------
# Aggregation


def gaussian_campaign(**kw):
    base = dict(config=small_config(), pipeline="gaussian", mode="rp",
                grid_param="sigma_est", grid_values=(0.5,), trials=3, seed=7)
    base.update(kw)
    return Campaign(**base)


def test_gaussian_campaign_row_structure():
    rows = run_campaign(gaussian_campaign())
    # iterations {0, 1} x UE classes {0, 1}
    assert len(rows) == 4
    assert {(r["iteration"], r["ue_index_class"]) for r in rows} == \
        {(0, 0), (0, 1), (1, 0), (1, 1)}
    for row in rows:
        assert row["n_trials"] == 3
        assert row["mode"] == "rp"
        assert row["grid_param"] == "sigma_est"
        assert row["grid_value"] == 0.5
        assert np.isfinite(row["mse_ch"])
        assert np.isfinite(row["stderr_mse_ch"])
        assert np.isnan(row["bler"])               # no decoder in this pipeline


def test_coded_campaign_row_structure():
    config = ScenarioConfig(M=4, K=2, L=1, tau_c=200, tau_p=2)
    campaign = Campaign(config=config, pipeline="coded", mode="sp",
                        grid_param="none", grid_values=(0.0,), trials=1,
                        seed=3, i_max=1)
    rows = run_campaign(campaign)
    assert len(rows) == 2 * 2                      # (i_max + 1) x K
    for row in rows:
        assert set(CSV_COLUMNS) <= set(row)
        assert 0.0 <= row["bler"] <= 1.0
        assert np.isnan(row["stderr_bler"])        # single trial


def test_quadrupling_trials_halves_stderr():
    # shadowing makes the per-drop MSE heavy-tailed, which would need far
    # more trials for the 1/sqrt(n) law to show; pin the geometry instead
    config = small_config(inter_bs_km=0.02, shadow_std_db=0.0)
    small = run_campaign(gaussian_campaign(config=config, trials=12))
    large = run_campaign(gaussian_campaign(config=config, trials=48))
    ratios = [l["stderr_mse_ch"] / s["stderr_mse_ch"]
              for s, l in zip(small, large)]
    assert np.isclose(np.mean(ratios), 0.5, atol=0.15)


def test_failed_trials_are_counted_and_logged(monkeypatch, caplog):
    trial = harness.run_gaussian_trial

    def flaky(campaign, grid_index, trial_index):
        if trial_index == 1:
            raise EstimationError("observation covariance is singular")
        return trial(campaign, grid_index, trial_index)

    monkeypatch.setattr(harness, "run_gaussian_trial", flaky)
    with caplog.at_level(logging.WARNING, logger="ullsim.harness"):
        rows = run_campaign(gaussian_campaign(trials=3, workers=1))
    assert "1 of 3 trials failed" in caplog.messages
    assert {r["n_trials"] for r in rows} == {2}


def test_rp_bound_at_zero_quality_changes_nothing():
    rows = run_campaign(gaussian_campaign(grid_values=(0.0,), trials=2))
    by_it = {(r["iteration"], r["ue_index_class"]): r for r in rows}
    for k in (0, 1):
        assert by_it[(1, k)]["mse_ch"] == by_it[(0, k)]["mse_ch"]


def test_sp_perfect_symbols_beat_pilot_only():
    rows = run_campaign(gaussian_campaign(mode="sp", grid_values=(1.0,),
                                          trials=2))
    by_it = {(r["iteration"], r["ue_index_class"]): r for r in rows}
    for k in (0, 1):
        assert by_it[(1, k)]["mse_ch"] < by_it[(0, k)]["mse_ch"]


# ---------------------------------------------------------------------------
# CSV


def test_csv_layout(tmp_path):
    rows = [dict(mode="rp", combiner="mr", grid_param="none", grid_value=0.0,
                 iteration=0, ue_index_class=1, mse_ch=1.0 / 3.0,
                 n_trials=5)]
    path = tmp_path / "out.csv"
    write_csv(rows, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    cells = lines[1].split(",")
    assert cells[:6] == ["rp", "mr", "none", "0", "0", "1"]
    assert cells[6] == "0.333333333333"           # 12 significant digits
    assert cells[7] == "nan"                      # absent metric


def test_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_campaign(gaussian_campaign(), out_path=a)
    run_campaign(gaussian_campaign(), out_path=b)
    assert a.read_bytes() == b.read_bytes()


def test_worker_count_does_not_change_output(tmp_path):
    a, b = tmp_path / "w1.csv", tmp_path / "w2.csv"
    run_campaign(gaussian_campaign(trials=4, workers=1), out_path=a)
    run_campaign(gaussian_campaign(trials=4, workers=2), out_path=b)
    assert a.read_bytes() == b.read_bytes()


def test_study_emits_mode_variants_and_figures(tmp_path):
    campaign = gaussian_campaign(grid_values=(0.2, 0.8), trials=2)
    rows = gaussian_symbol_study(campaign, tmp_path)
    assert {r["mode"] for r in rows} == {"rp", "rp3", "sp"}
    for name in ("results.csv", "mse_curves.csv", "se_curves.csv",
                 "bler_vs_iteration.csv"):
        assert (tmp_path / name).exists()
    # figure files are long format with a fixed header
    head = (tmp_path / "mse_curves.csv").read_text().splitlines()[0]
    assert head == "series,x,ue_index_class,value,stderr,n_trials"


def test_study_variants_equal_standalone_campaigns(tmp_path):
    # Sharing one drop per (grid point, trial) changes no row of any variant.
    config = small_config()
    study = dict(config=config, grid_values=(0.2, 0.8), trials=2)
    rows = gaussian_symbol_study(gaussian_campaign(**study))
    for label, mode, tau_p in (("rp", "rp", 2), ("rp3", "rp", 6), ("sp", "sp", 2)):
        got = [r for r in rows if r["mode"] == label]
        want = run_campaign(gaussian_campaign(config=config.replace(tau_p=tau_p), mode=mode,
                                              grid_values=(0.2, 0.8), trials=2))
        assert len(got) == len(want) == 8
        for col in CSV_COLUMNS:
            expect = [label] * 8 if col == "mode" else [r[col] for r in want]
            np.testing.assert_array_equal([r[col] for r in got], expect, err_msg=col)

    a, b = tmp_path / "w1", tmp_path / "w2"
    gaussian_symbol_study(gaussian_campaign(**study, workers=1), a)
    gaussian_symbol_study(gaussian_campaign(**study, workers=2), b)
    assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()


def test_failed_drop_fails_the_trial_in_every_study_variant(monkeypatch, caplog):
    make_network = harness.make_network
    calls = []

    def flaky(config, rng):
        calls.append(None)
        if len(calls) == 1:                        # the drop of (grid 0, trial 0)
            raise np.linalg.LinAlgError("eigenvalues did not converge")
        return make_network(config, rng)

    monkeypatch.setattr(harness, "make_network", flaky)
    campaign = gaussian_campaign(grid_values=(0.2, 0.8), trials=2, workers=1)
    with caplog.at_level(logging.WARNING, logger="ullsim.harness"):
        rows = gaussian_symbol_study(campaign)
    assert len(calls) == 4                         # one drop per (grid point, trial)
    for label in ("rp", "rp3", "sp"):
        assert f"{label}: 1 of 4 trials failed" in caplog.messages
    assert {r["mode"] for r in rows} == {"rp", "rp3", "sp"}
    assert {(r["grid_value"], r["n_trials"]) for r in rows} == {(0.2, 1), (0.8, 2)}


def test_failed_link_pass_fails_the_trial_in_every_study_variant(monkeypatch, caplog):
    psd_sqrt = airlink._psd_sqrt
    calls = []

    def flaky(R):
        calls.append(None)
        if len(calls) == 1:                        # a link of (grid 0, trial 0)
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return psd_sqrt(R)

    monkeypatch.setattr(airlink, "_psd_sqrt", flaky)
    campaign = gaussian_campaign(grid_values=(0.2, 0.8), trials=2, workers=1)
    with caplog.at_level(logging.WARNING, logger="ullsim.harness"):
        rows = gaussian_symbol_study(campaign)
    assert "draws (grid=0, trial=0) failed: Eigenvalues did not converge" in caplog.messages
    for label in ("rp", "rp3", "sp"):
        assert f"{label}: 1 of 4 trials failed" in caplog.messages
    assert {r["mode"] for r in rows} == {"rp", "rp3", "sp"}
    assert {(r["grid_value"], r["n_trials"]) for r in rows} == {(0.2, 1), (0.8, 2)}


def test_study_pair_holds_no_r_sqrt_stack():
    # At L = 7, K = 1, M = 128 the pair's (L, L, K, M, M) R^(1/2) stack is
    # 12.8 MB. One link-by-link pass draws the three variants' channels (2 MB
    # each), and a variant holds one Y (1.7 MB) and one cell's LMMSE filter
    # (0.3 MB each for W and C) at a time: the pair peaks near 9.4 MB. Held
    # through the pair, the stack alone reaches the bound.
    config = ScenarioConfig(M=128, K=1, L=7, tau_c=6, tau_p=1)
    study = gaussian_campaign(config=config, grid_values=(0.6,), trials=1)
    variants = [sub for _, sub in harness._study_variants(study)]
    assert [sub.mode for sub in variants] == ["rp", "rp", "sp"]
    stack_bytes = config.L * config.L * config.K * config.M ** 2 * 16
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        _, _, rows = harness._run_variants((variants, 0, 0))
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert all(rows)                               # no variant failed
    assert peak < stack_bytes


def test_study_skips_rp3_when_its_data_is_too_short():
    # tau_p = 3K = 6 would leave rp3 tau_d = 2 = K data samples
    config = ScenarioConfig(M=8, K=2, L=3, tau_c=8, tau_p=2)
    rows = gaussian_symbol_study(gaussian_campaign(config=config, trials=1))
    assert {r["mode"] for r in rows} == {"rp", "sp"}
    assert all(np.isfinite(r["mse_ch"]) for r in rows)


def test_study_skips_rp3_when_any_grid_point_is_too_short():
    # At tau_c = 8, rp3 would have tau_d = 2 = K; at 24 it would run. The base
    # tau_c (24) alone would admit rp3, whose campaign then rejects tau_c = 8.
    config = ScenarioConfig(M=8, K=2, L=3, tau_c=24, tau_p=2)
    rows = gaussian_symbol_study(gaussian_campaign(config=config, grid_param="tau_c",
                                                   grid_values=(8.0, 24.0), trials=1))
    assert {(r["mode"], r["grid_value"]) for r in rows} == {
        (mode, value) for mode in ("rp", "sp") for value in (8.0, 24.0)}
    assert all(np.isfinite(r["mse_ch"]) for r in rows)


def test_study_judges_rp3_at_the_grid_points_not_the_base_tau_c(tmp_path):
    # tau_c = 5 is below 3K = 6, but every grid point admits rp3 (tau_c - 3K
    # = 18 and 24 > K): rp3 runs at both.
    config = tmp_path / "scenario.cfg"
    config.write_text("M = 8\nK = 2\nL = 3\ntau_c = 5\ntau_p = 2\n")
    assert cli.main(["sweep", str(config), "--study", "--param", "tau_c",
                     "--values", "24,30", "--trials", "1",
                     "--out", str(tmp_path / "study.csv")]) == 0
    with open(tmp_path / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {(r["mode"], r["grid_value"]) for r in rows} == {
        (mode, value) for mode in ("rp", "rp3", "sp") for value in ("24", "30")}
    assert sum(r["mode"] == "rp3" for r in rows) == 8   # 2 grid x 2 iterations x 2 UEs


@pytest.mark.parametrize("param", ["tau_p", "K"])
def test_study_rejects_sweeps_of_tau_p_and_k(monkeypatch, tmp_path, config_file, capsys,
                                             param):
    # The variants set tau_p to K and 3K: a tau_p sweep would overwrite it and
    # make the rp3 rows rp rows, and a K sweep would leave rp's tau_p at the
    # base K.
    ran = []
    monkeypatch.setattr(harness, "_run_pairs", lambda *args: ran.append(args))
    values = (2.0, 6.0) if param == "tau_p" else (1.0, 2.0)
    campaign = gaussian_campaign(config=ScenarioConfig(M=8, K=2, L=3, tau_p=2),
                                 grid_param=param, grid_values=values, trials=1)
    with pytest.raises(ConfigError, match=param):
        gaussian_symbol_study(campaign)
    assert not ran                                 # before any trial
    assert cli.main(["sweep", str(config_file), "--study", "--param", param,
                     "--values", ",".join(map(str, values)), "--trials", "1",
                     "--out", str(tmp_path / "study.csv")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not ran


# ---------------------------------------------------------------------------
# Package surface


@pytest.mark.parametrize("package", [ullsim, ullsim.codec], ids=["ullsim", "ullsim.codec"])
def test_exported_names_resolve(package):
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert not missing


# ---------------------------------------------------------------------------
# Config files


def test_config_load_reads_every_field(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text("# every field away from its default\n"
                    "M = 3\nK = 2\nL = 3\ntau_c = 24\ntau_p = 2\ndelta = 0.45\n"
                    "\n"
                    "noise_energy = 2e-13\nrho_design = 3.5e-13   # design target\n"
                    "rho_max = 1e-9\ninter_bs_km = 0.2\npathloss_exponent = 3.5\n"
                    "pathloss_ref_db = 140.5\nshadow_std_db = 6\nmin_dist_km = 0.02\n"
                    "angular_std_deg = 15\nantenna_spacing = 0.25\n")
    expected = ScenarioConfig(M=3, K=2, L=3, tau_c=24, tau_p=2, delta=0.45,
                              noise_energy=2e-13, rho_design=3.5e-13, rho_max=1e-9,
                              inter_bs_km=0.2, pathloss_exponent=3.5,
                              pathloss_ref_db=140.5, shadow_std_db=6.0, min_dist_km=0.02,
                              angular_std_deg=15.0, antenna_spacing=0.25)
    default = ScenarioConfig()
    assert all(getattr(expected, f.name) != getattr(default, f.name)
               for f in dataclasses.fields(ScenarioConfig))
    assert load_config(path) == expected


def test_config_load_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("M = 4\nbandwidth = 10\n")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("M 4\n")
    with pytest.raises(ConfigError):
        load_config(path)


_FLOAT_FIELDS = ("delta", "noise_energy", "rho_design", "rho_max", "inter_bs_km",
                 "pathloss_exponent", "pathloss_ref_db", "shadow_std_db", "min_dist_km",
                 "angular_std_deg", "antenna_spacing")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", _FLOAT_FIELDS)
def test_config_rejects_non_finite_floats(field, value):
    # NaN compares False with every bound, so a plain `<= 0` check lets it through.
    if field == "rho_max" and value == float("inf"):
        assert small_config(rho_max=value).rho_max == value     # no power cap
        return
    with pytest.raises(ConfigError, match=field):
        small_config(**{field: value})


@pytest.mark.parametrize("value", [8.5, 2.0, float("nan"), "8"],
                         ids=["8.5", "2.0", "nan", "str"])
@pytest.mark.parametrize("field", ["M", "K", "L", "tau_c", "tau_p"])
def test_config_rejects_non_integer_sizes(field, value):
    # Through the API a float size used to construct and fail inside a trial.
    with pytest.raises(ConfigError, match=field):
        small_config(**{field: value})


def test_config_accepts_numpy_integer_sizes():
    config = small_config(M=np.int64(3), K=np.int32(2), L=np.int64(3),
                          tau_c=np.int16(24), tau_p=np.uint8(2))
    assert config == small_config()


def test_config_load_missing_file_is_io_error(tmp_path):
    with pytest.raises(OSError):
        load_config(tmp_path / "nope.cfg")


# ---------------------------------------------------------------------------
# CLI


def run_cli(args, cwd):
    # The child runs from ``cwd``, where a relative PYTHONPATH entry such as
    # ``src`` no longer resolves; prepend the absolute directory holding the
    # ullsim this suite imported, so the child runs that same copy.
    package_dir = str(Path(ullsim.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": package_dir + (os.pathsep + path if path else "")}
    return subprocess.run([sys.executable, "-m", "ullsim.cli", *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text("M = 2\nK = 2\nL = 3\ntau_c = 12\ntau_p = 2\n")
    return path


def test_cli_run_succeeds(tmp_path, config_file):
    out = tmp_path / "res.csv"
    proc = run_cli(["run", str(config_file), "--pipeline", "gaussian",
                    "--trials", "2", "--out", str(out)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().splitlines()[0] == ",".join(CSV_COLUMNS)


def test_cli_sweep_succeeds(tmp_path, config_file):
    out = tmp_path / "sweep.csv"
    proc = run_cli(["sweep", str(config_file), "--pipeline", "gaussian",
                    "--param", "sigma_est", "--values", "0.2,0.8",
                    "--trials", "2", "--out", str(out)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2 * 2 * 2             # grid x iterations x UEs


def test_cli_study_runs_as_the_study_does(tmp_path):
    # The study forces the gaussian pipeline and its own tau_p per variant,
    # so neither --pipeline nor a tau_p leaving tau_d = K may reject it.
    config = tmp_path / "scenario.cfg"
    config.write_text("M = 2\nK = 2\nL = 3\ntau_c = 12\ntau_p = 10\n")
    proc = run_cli(["sweep", str(config), "--study", "--param", "sigma_est",
                    "--values", "0.5", "--trials", "1",
                    "--out", str(tmp_path / "study.csv")], tmp_path)
    assert proc.returncode == 0, proc.stderr
    modes = {line.split(",")[0] for line in
             (tmp_path / "results.csv").read_text().splitlines()[1:]}
    assert modes == {"rp", "rp3", "sp"}
    # the log names the file the study wrote, not --out
    assert f"to {tmp_path / 'results.csv'}" in proc.stderr, proc.stderr


def test_cli_config_error_exits_2(tmp_path, config_file, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("M = 4\nunknown_knob = 1\n")
    proc = run_cli(["run", str(bad)], tmp_path)
    assert proc.returncode == 2
    assert "config error" in proc.stderr
    # an invalid sweep grid is also a config error
    proc = run_cli(["sweep", str(config_file), "--param", "sigma_est",
                    "--values", "2.0", "--trials", "1"], tmp_path)
    assert proc.returncode == 2
    # these fail before any trial runs, so they run in-process
    for args in (["sweep", "--param", "snr_db", "--values", "abc"],
                 ["sweep", "--param", "snr_db", "--values", "0,nan"],
                 ["sweep", "--param", "snr_db", "--values", "inf"],
                 ["sweep", "--param", "M", "--values", "8.5"],
                 ["sweep", "--param", "snr_db", "--values", "4000"],
                 ["sweep", "--param", "snr_db", "--values", "0,0"],
                 ["sweep", "--mode", "sp", "--param", "delta", "--values", "0,0.5"],
                 # the study's sp variant is a Campaign too
                 ["sweep", "--study", "--param", "delta", "--values", "0,0.5"],
                 ["run", "--seed", "-1"]):
        assert cli.main([args[0], str(config_file), *args[1:]]) == 2, args
        assert "config error" in capsys.readouterr().err
    # a NaN in the config file once ran every trial into a failure and exited 0
    nan_file = tmp_path / "nan.cfg"
    nan_file.write_text(config_file.read_text() + "rho_design = nan\n")
    assert cli.main(["run", str(nan_file), "--pipeline", "gaussian", "--trials", "1",
                     "--out", str(tmp_path / "nan.csv")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "nan.csv").exists()
    # only the closed-form bound is left behind --psi
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", str(config_file), "--psi", "empirical"])
    assert exc.value.code == 2
    args = cli.build_parser().parse_args(["run", str(config_file), "--psi", "bound"])
    assert args.psi == "bound"


def test_cli_non_utf8_config_exits_2(tmp_path, config_file):
    # A Latin-1 byte in a comment once died with a UnicodeDecodeError traceback.
    bad = tmp_path / "latin1.cfg"
    bad.write_bytes(b"M = 8\nK = 2\n# caf\xe9\nL = 3\n")
    proc = run_cli(["run", str(bad), "--pipeline", "gaussian", "--trials", "1",
                    "--out", str(tmp_path / "latin1.csv")], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert f"config error: {bad}: not UTF-8" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "latin1.csv").exists()


def test_cli_repeated_config_key_exits_2(tmp_path, capsys):
    # A repeated key once let its last line win silently: this loaded M = 8.
    bad = tmp_path / "twice.cfg"
    bad.write_text("M = 16\nK = 2\n# the paper's array\nM = 8\n")
    with pytest.raises(ConfigError, match=r"twice.cfg:4: M is already set on line 1"):
        load_config(bad)
    assert cli.main(["run", str(bad), "--pipeline", "gaussian", "--trials", "1",
                     "--out", str(tmp_path / "twice.csv")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "twice.csv").exists()


def test_cli_io_error_exits_3(tmp_path, config_file):
    proc = run_cli(["run", str(tmp_path / "missing.cfg")], tmp_path)
    assert proc.returncode == 3
    assert "i/o error" in proc.stderr
    # writing the CSV onto an existing directory fails the same way
    proc = run_cli(["run", str(config_file), "--pipeline", "gaussian",
                    "--trials", "1", "--out", str(tmp_path)], tmp_path)
    assert proc.returncode == 3
