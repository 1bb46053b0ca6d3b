"""Campaign runner: grids, aggregation, CSV output, CLI entry points."""

import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ullsim
import ullsim.codec
from ullsim import ScenarioConfig, cli, harness
from ullsim.chest import ProjectionError
from ullsim.config import ConfigError, load_config, save_config
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
    out, extra = apply_grid_point(config, "none", 0.0)
    assert out is config
    assert extra == {}


def test_apply_grid_point_snr():
    config = small_config()
    out, _ = apply_grid_point(config, "snr_db", 7.0)
    assert np.isclose(out.rho_design, config.noise_energy * 10 ** 0.7)
    assert out.M == config.M


def test_apply_grid_point_sigma_est_is_an_extra():
    config = small_config()
    out, extra = apply_grid_point(config, "sigma_est", 0.4)
    assert out is config
    assert extra == {"sigma_est": 0.4}
    with pytest.raises(ConfigError):
        apply_grid_point(config, "sigma_est", 1.5)


def test_apply_grid_point_config_fields_revalidate():
    config = small_config()
    out, _ = apply_grid_point(config, "tau_p", 4)
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
])
def test_campaign_rejects_bad_field_at_construction(field, value, extra):
    with pytest.raises(ConfigError):
        Campaign(**{"config": small_config(), field: value, **extra})


def test_short_rp_data_is_fine_where_no_data_aided_bound_runs():
    Campaign(config=small_config(tau_c=4), i_max=0)
    Campaign(config=small_config(tau_c=4), mode="sp")


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
            raise ProjectionError("rank deficient")
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
# Config file round trip


def test_config_save_load_round_trip(tmp_path):
    config = small_config(delta=0.45, shadow_std_db=6.0)
    path = tmp_path / "scenario.cfg"
    save_config(config, path)
    assert load_config(path) == config


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
    save_config(ScenarioConfig(M=2, K=2, L=3, tau_c=12, tau_p=2), path)
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
    save_config(ScenarioConfig(M=2, K=2, L=3, tau_c=12, tau_p=10), config)
    proc = run_cli(["sweep", str(config), "--study", "--param", "sigma_est",
                    "--values", "0.5", "--trials", "1",
                    "--out", str(tmp_path / "study.csv")], tmp_path)
    assert proc.returncode == 0, proc.stderr
    modes = {line.split(",")[0] for line in
             (tmp_path / "results.csv").read_text().splitlines()[1:]}
    assert modes == {"rp", "rp3", "sp"}


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


def test_cli_io_error_exits_3(tmp_path, config_file):
    proc = run_cli(["run", str(tmp_path / "missing.cfg")], tmp_path)
    assert proc.returncode == 3
    assert "i/o error" in proc.stderr
    # writing the CSV onto an existing directory fails the same way
    proc = run_cli(["run", str(config_file), "--pipeline", "gaussian",
                    "--trials", "1", "--out", str(tmp_path)], tmp_path)
    assert proc.returncode == 3
