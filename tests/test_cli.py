import csv
import dataclasses
import json
import math
import os
import platform
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from polarlink import cli, harness
from polarlink.cli import main
from polarlink.config import RunConfig, dbm_to_watts
from polarlink.errors import (ConfigurationError, GeometryError, InfeasibleLayoutError,
                              NumericalError, ProjectionError, SingularChannelError,
                              UnsupportedConfigurationError)

RX = "75,-40,50"
SWEEP_HEADER = ["grid_value", "configuration", "users", "antennas", "power_w",
                "gamma_total", "gamma_total_db", "average_rate", "iterations",
                "scenario_hash", "seed", "failure", "trace_db"]


def _channel_eval(capsys, tx_dir="0,0,1", rx_dir="0,0,1", rx_pos=RX):
    code = main(["channel-eval", "--tx-pos", "0,0,0", "--tx-dir", tx_dir,
                 "--rx-pos", rx_pos, "--rx-dir", rx_dir])
    out = capsys.readouterr().out
    fields = {}
    for line in out.strip().splitlines():
        name, value = line.split()
        fields[name] = float(value)
    return code, fields


def test_channel_eval_reference_link(capsys):
    code, fields = _channel_eval(capsys)
    assert code == 0
    assert set(fields) == {
        "gain_magnitude", "gain_phase_rad", "emission_angle_rad",
        "incident_angle_rad", "matching_angle_rad", "gamma_parallel",
        "gamma_perpendicular", "matching_efficiency",
    }
    assert fields["gain_magnitude"] == pytest.approx(0.4872030289, abs=1e-8)
    assert fields["emission_angle_rad"] == pytest.approx(
        math.acos(50.0 / math.sqrt(9725.0)), abs=1e-9)
    assert fields["incident_angle_rad"] == pytest.approx(0.5317240672, abs=1e-9)
    assert fields["matching_angle_rad"] == pytest.approx(
        fields["incident_angle_rad"], abs=1e-9)
    assert 0.0 <= fields["matching_efficiency"] <= 1.0


def test_channel_eval_degenerate_orientation(capsys):
    # tx axis pointing straight at the receiver: no radiated field on the path.
    code, fields = _channel_eval(capsys, tx_dir=RX)
    assert code == 0
    assert fields["gain_magnitude"] == 0.0
    assert math.isnan(fields["matching_angle_rad"])
    assert fields["matching_efficiency"] == 0.0


def _off_path_by(angle):
    """A direction string for an axis angle rad off the path to RX."""
    path = np.array([75.0, -40.0, 50.0]) / math.sqrt(9725.0)
    side = np.cross(path, [0.0, 0.0, 1.0])
    side /= np.linalg.norm(side)
    axis = math.cos(angle) * path + math.sin(angle) * side
    return ",".join(repr(float(c)) for c in axis)


def test_channel_eval_emission_angle_near_the_path(capsys):
    # arccos(cos_emission) would print 9.88431212412e-08 here, 1.2% off.
    code, fields = _channel_eval(capsys, tx_dir=_off_path_by(1e-7))
    assert code == 0
    assert fields["emission_angle_rad"] == pytest.approx(1e-7, rel=1e-9)


def test_channel_eval_incident_angle_near_grazing(capsys):
    # arcsin(sin_incidence), or a cos_incidence taken as sqrt(1 - sin^2),
    # would print 1.57079622795 here, 1.2e-9 rad off.
    code, fields = _channel_eval(capsys, rx_dir=_off_path_by(1e-7))
    assert code == 0
    assert fields["incident_angle_rad"] == pytest.approx(math.pi / 2 - 1e-7, abs=1e-11)


def test_channel_eval_matching_angle_near_the_field(capsys):
    # The receive axis is perpendicular to the path and 1e-7 rad off the
    # field direction of the vertical transmitter; arccos(cos_matching) would
    # print 9.99600281194e-08 here, 0.04% off.
    path = np.array([75.0, -40.0, 50.0]) / math.sqrt(9725.0)
    field = np.array([0.0, 0.0, 1.0]) - path[2] * path
    field /= np.linalg.norm(field)
    axis = math.cos(1e-7) * field + math.sin(1e-7) * np.cross(path, field)
    code, fields = _channel_eval(capsys, rx_dir=",".join(repr(float(c)) for c in axis))
    assert code == 0
    assert fields["matching_angle_rad"] == pytest.approx(1e-7, rel=1e-9)


@pytest.mark.parametrize("triples", [
    {"--tx-pos": "0,0,0", "--tx-dir": "0,0,1", "--rx-pos": "-30,55,-20", "--rx-dir": "0,0,1"},
    {"--tx-pos": "-1,-2,-3", "--tx-dir": "-0.3,0.2,1", "--rx-pos": "-30,-55,-20",
     "--rx-dir": "-1,0,0.5"},
])
def test_channel_eval_reads_a_leading_minus_after_a_space(capsys, triples):
    # argparse alone takes -30,55,-20 after --rx-pos for a flag; each triple
    # flag reads it as its value, as the FLAG=VALUE form does.
    spaced = [token for flag, value in triples.items() for token in (flag, value)]
    joined = [f"{flag}={value}" for flag, value in triples.items()]
    assert main(["channel-eval", *joined]) == 0
    expected = capsys.readouterr().out
    assert main(["channel-eval", *spaced]) == 0
    assert capsys.readouterr().out == expected


def test_channel_eval_coincident_positions_is_infeasible(capsys):
    code = main(["channel-eval", "--tx-pos", "0,0,0", "--tx-dir", "0,0,1",
                 "--rx-pos", "0,0,0", "--rx-dir", "0,0,1"])
    assert code == 4
    assert "invalid geometry" in capsys.readouterr().err


@pytest.mark.parametrize("tx_pos, rx_pos", [("1e300,0,0", "1e200,2,3"),    # distance
                                            ("1e300,0,0", "1e10,2,3"),     # phase
                                            # A transmitter no closer to the origin than
                                            # its receiver: outside the far-field model,
                                            # which measures every path from the origin.
                                            ("1e300,0,0", RX), ("75,-40,50", RX),
                                            ("0,0,100", RX)])
def test_channel_eval_overflowing_geometry_is_infeasible(capsys, tx_pos, rx_pos):
    code = main(["channel-eval", "--tx-pos", tx_pos, "--tx-dir", "0,0,1",
                 "--rx-pos", rx_pos, "--rx-dir", "0,0,1"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith("error: invalid geometry")
    assert len(captured.err.splitlines()) == 1           # no numpy overflow warnings


def test_channel_eval_malformed_triple_is_usage_error(capsys):
    code = main(["channel-eval", "--tx-pos", "0,0", "--tx-dir", "0,0,1",
                 "--rx-pos", RX, "--rx-dir", "0,0,1"])
    assert code == 2


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["channel-eval", "--tx-pos", "0,0,0"])
    assert exc.value.code == 2


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _fast_config(tmp_path, **overrides):
    payload = {"monte_carlo_samples": 20000, "repetitions": 2, "user_count": 2,
               "max_outer_iterations": 8, "convergence_tol": 1e-3,
               "users_grid": [1, 2], "power_grid_w": [0.25, 0.5],
               "granularity_grid_deg": [30, 80], "configurations": [1, 5]}
    payload.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_run_montecarlo_deterministic(tmp_path, capsys):
    cfg = _fast_config(tmp_path)
    out1 = tmp_path / "mc1.csv"
    out2 = tmp_path / "mc2.csv"
    assert main(["run", "montecarlo", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["run", "montecarlo", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    rows = _read_csv(out1)
    assert rows[0] == ["scenario_kind", "samples", "half_energy_fraction"]
    fracs = {r[0]: float(r[2]) for r in rows[1:]}
    assert 0.5 < fracs["tx_random"] < 0.85
    assert fracs["rx_random"] > 0.95


def test_run_montecarlo_sidecar(tmp_path):
    cfg = _fast_config(tmp_path, wavelength_m=0.02)
    out = tmp_path / "mc.csv"
    assert main(["run", "montecarlo", "--config", cfg, "--out", str(out)]) == 0
    meta = json.loads((tmp_path / "mc.csv.meta.json").read_text())
    assert meta["tool"] == "polarlink"
    assert meta["subcommand"] == "montecarlo"
    assert meta["config_hash"] == RunConfig.from_file(cfg).config_hash()
    assert meta["config"]["monte_carlo_samples"] == 20000
    assert meta["environment"] == {"python": platform.python_version(),
                                   "numpy": np.__version__, "cpu_count": os.cpu_count(),
                                   "usable_cpu_count": len(os.sched_getaffinity(0))}
    # Each kind's fraction counts orientations with |h|^2 >= 0.5 peak^2: the
    # sidecar records that peak, for the configured medium.
    medium = RunConfig.from_file(cfg).medium()
    assert meta["peak_gain"] == {kind: harness.reference_link_peak(kind, medium)
                                 for kind in ("tx_random", "rx_random")}


def test_run_optimize_trace_monotone(tmp_path):
    cfg = _fast_config(tmp_path)
    out = tmp_path / "opt.csv"
    assert main(["run", "optimize", "--config", cfg, "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert rows[0] == ["iteration", "gamma_total_db"]
    trace = [float(r[1]) for r in rows[1:]]
    assert len(trace) >= 2
    assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))
    meta = json.loads((tmp_path / "opt.csv.meta.json").read_text())
    assert meta["gamma_total_db"] == pytest.approx(trace[-1], abs=1e-9)


def test_run_sweep_users_csv_schema(tmp_path):
    cfg = _fast_config(tmp_path)
    out = tmp_path / "users.csv"
    assert main(["run", "sweep-users", "--config", cfg, "--out", str(out),
                 "--reps", "1"]) == 0
    rows = _read_csv(out)
    assert rows[0] == SWEEP_HEADER
    # 2 grid points x 1 rep x 2 configurations
    assert len(rows) == 1 + 4
    assert [r[0] for r in rows[1:]] == ["1", "1", "2", "2"]
    assert all(r[11] == "" for r in rows[1:])        # no failures


def test_run_sweep_csv_failure_rows(tmp_path):
    # A power budget that overflows the SINRs leaves its cells failure rows:
    # no objective, no iterations and no trace, and the error that ended them.
    cfg = _fast_config(tmp_path, power_grid_w=[0.5, 1e308])
    out = tmp_path / "power.csv"
    assert main(["run", "sweep-power", "--config", cfg, "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert rows[0] == SWEEP_HEADER
    assert [(r[0], r[1]) for r in rows[1:]] == [("0.5", "1"), ("0.5", "5")] * 2 + [
        ("1e+308", "1"), ("1e+308", "5")] * 2
    for row in rows[1:5]:
        assert row[11] == "" and row[12] != ""
    for row in rows[5:]:
        assert row[4] == "1e+308"
        assert row[5:9] == ["nan", "nan", "nan", "0"]
        assert row[11].startswith("NumericalError: ")
        assert row[12] == ""


def test_run_convergence_runs_configurations_1_and_5_at_user_count(tmp_path):
    cfg = _fast_config(tmp_path)
    out = tmp_path / "conv.csv"
    assert main(["run", "convergence", "--config", cfg, "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert rows[0] == SWEEP_HEADER
    # 2 repetitions x configurations 1 and 5, all at user_count = 2
    assert [r[1] for r in rows[1:]] == ["1", "5", "1", "5"]
    assert all(r[0] == r[2] == "2" for r in rows[1:])
    assert all(r[11] == "" for r in rows[1:])        # no failures


@pytest.mark.parametrize("experiment, peak", [("scenario1", 0.600539),
                                              ("scenario2", 0.487240)])
def test_run_scenario_gain_map(tmp_path, monkeypatch, experiment, peak):
    # The 1-degree map, polar-major: polar 0..180 by azimuth 0..359.
    texts = []
    for workers in (1, 4):
        monkeypatch.setattr(harness, "_usable_cpu_count", lambda: workers)
        out = tmp_path / f"{experiment}_{workers}.csv"
        assert main(["run", experiment, "--out", str(out)]) == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]                      # any block pool size, same bytes

    rows = _read_csv(out)
    assert rows[0] == ["polar_deg", "azimuthal_deg", "gain_magnitude", "gain_power"]
    assert len(rows) == 1 + 181 * 360 == 65_161
    values = np.array([[float(v) for v in r] for r in rows[1:]])
    assert values[:, 0] == pytest.approx(np.repeat(np.arange(181.0), 360), abs=1e-9)
    assert values[:, 1] == pytest.approx(np.tile(np.arange(360.0), 181), abs=1e-9)
    assert values[:, 3] == pytest.approx(values[:, 2] ** 2, rel=1e-11)
    # The sidecar's peak is the 0.25-degree grid's, whose points include the map's.
    meta = json.loads((tmp_path / f"{experiment}_4.csv.meta.json").read_text())
    assert meta["subcommand"] == experiment
    top = values[:, 2].max()
    assert top <= meta["peak_gain"]
    assert top == pytest.approx(meta["peak_gain"], rel=1e-4)
    assert meta["peak_gain"] == pytest.approx(peak, abs=1e-6)


def test_run_seed_override_changes_output(tmp_path):
    cfg = _fast_config(tmp_path)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["run", "sweep-power", "--config", cfg, "--out", str(out_a),
                 "--reps", "1"]) == 0
    assert main(["run", "sweep-power", "--config", cfg, "--out", str(out_b),
                 "--reps", "1", "--seed", "99"]) == 0
    assert out_a.read_text() != out_b.read_text()
    meta = json.loads((tmp_path / "b.csv.meta.json").read_text())
    assert meta["seed"] == 99


@pytest.mark.parametrize("experiment", ["sweep-users", "sweep-granularity"])
def test_run_sweep_csv_is_the_same_for_any_worker_count(tmp_path, monkeypatch, experiment):
    # The CLI sizes the sweep's process pool by the usable CPU count.
    cfg = _fast_config(tmp_path)
    texts = []
    for workers in (1, 2):
        monkeypatch.setattr(cli, "_usable_cpu_count", lambda: workers)
        out = tmp_path / f"{experiment}_{workers}.csv"
        assert main(["run", experiment, "--config", cfg, "--out", str(out)]) == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]


def test_run_granularity_quantization_never_gains(tmp_path):
    cfg = _fast_config(tmp_path)
    out = tmp_path / "gran.csv"
    assert main(["run", "sweep-granularity", "--config", cfg, "--out", str(out),
                 "--reps", "1"]) == 0
    rows = _read_csv(out)
    by_res = {float(r[0]): float(r[6]) for r in rows[1:]}
    assert set(by_res) == {30.0, 80.0}
    assert by_res[80.0] <= by_res[30.0] + 1e-9


def test_run_unwritable_output_exits_3(tmp_path, capsys, monkeypatch):
    # A missing output directory is refused before any work.
    def no_work(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "monte_carlo_half_energy", no_work)
    cfg = _fast_config(tmp_path)
    out = tmp_path / "no" / "such" / "dir" / "x.csv"
    assert main(["run", "montecarlo", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: cannot write output: ")
    assert not out.parent.exists()


@pytest.mark.parametrize("directory", ["x.csv", "x.csv.meta.json"])
def test_run_output_that_is_a_directory_exits_3_before_any_work(tmp_path, capsys,
                                                               monkeypatch, directory):
    # An --out, or its sidecar, that is an existing directory is refused
    # before the experiment runs, as a missing directory is.
    def no_work(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "monte_carlo_half_energy", no_work)
    cfg = _fast_config(tmp_path)
    (tmp_path / directory).mkdir()
    out = tmp_path / "x.csv"
    assert main(["run", "montecarlo", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: ") and "Is a directory" in err
    assert str(tmp_path / directory) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([directory, Path(cfg).name])


def test_run_missing_config_exits_3(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["run", "montecarlo", "--config", str(tmp_path / "nope.json"),
                 "--out", str(out)]) == 3


@pytest.mark.parametrize("payload", [None, b"{not json", b'{"seed": 1, "x": "\xff"}'])
def test_channel_eval_unreadable_config_exits_3(tmp_path, capsys, payload):
    path = tmp_path / "config.json"
    if payload is not None:
        path.write_bytes(payload)
    code = main(["channel-eval", "--tx-pos", "0,0,0", "--tx-dir", "0,0,1",
                 "--rx-pos", RX, "--rx-dir", "0,0,1", "--config", str(path)])
    assert code == 3
    assert "error: cannot read config:" in capsys.readouterr().err


def test_run_config_not_utf8_exits_3(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"seed": 1, "x": "\xff"}')
    out = tmp_path / "x.csv"
    assert main(["run", "montecarlo", "--config", str(path), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: cannot read config: ")
    assert not out.exists()


@pytest.mark.parametrize("reps", ["0", "-3"])
def test_run_nonpositive_reps_override_exits_2(tmp_path, capsys, reps):
    cfg = _fast_config(tmp_path)
    out = tmp_path / "users.csv"
    assert main(["run", "sweep-users", "--config", cfg, "--out", str(out),
                 "--reps", reps]) == 2
    assert "repetitions must be a positive integer" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "users.csv.meta.json").exists()


def test_run_negative_seed_override_exits_2(tmp_path, capsys):
    cfg = _fast_config(tmp_path)
    out = tmp_path / "opt.csv"
    assert main(["run", "optimize", "--config", cfg, "--out", str(out), "--seed", "-1"]) == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err
    assert not out.exists()


def test_run_invalid_config_key_exits_2(tmp_path, capsys):
    # The line-search step constants, the deleted sphere-uniform Monte Carlo
    # switch and the gain-scale constants are not configuration keys.
    for key in ("not_a_key", "inner_steps", "initial_step_angle",
                "monte_carlo_sphere_uniform", "permeability", "antenna_factor",
                "frequency_hz"):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({key: 1}))
        out = tmp_path / "x.csv"
        assert main(["run", "montecarlo", "--config", str(bad),
                     "--out", str(out)]) == 2
        assert f"unknown configuration keys: ['{key}']" in capsys.readouterr().err


@pytest.mark.parametrize("experiment, overrides, code", [
    ("optimize", {"max_outer_iterations": 0}, 2),
    ("sweep-users", {"repetitions": 0}, 2),
    ("montecarlo", {"monte_carlo_samples": 0}, 2),
    ("optimize", {"total_power_w": -1}, 2),
    ("sweep-users", {"configurations": [7]}, 2),
    # No point of the coverage cube lies 1 m from the transmitter.
    ("optimize", {"coverage_half_side_m": 0.5}, 4),
    # The movement box is too small for 8 antennas half a wavelength apart.
    ("optimize", {"region_half_side_m": 0.001}, 4),
    # More users than antennas, as a users_grid entry or as user_count.
    ("sweep-users", {"users_grid": [9]}, 2),
    ("optimize", {"user_count": 9}, 2),
    # Only the cube's corner tips lie 1 m out: the draws give up.
    ("optimize", {"coverage_half_side_m": 0.58}, 4),
    # A value of the wrong JSON type: an integer takes no fraction or boolean,
    # a number no string, and a list is checked per element.
    ("optimize", {"max_outer_iterations": 2.5}, 2),
    ("optimize", {"max_outer_iterations": True}, 2),
    ("optimize", {"user_count": "8"}, 2),
    ("optimize", {"total_power_w": "0.5"}, 2),
    ("optimize", {"convergence_tol": "x"}, 2),
    ("optimize", {"noise_power_dbm": "x"}, 2),
    ("montecarlo", {"monte_carlo_samples": 10.5}, 2),
    ("sweep-users", {"repetitions": 1.5}, 2),
    ("optimize", {"seed": "x"}, 2),
    ("montecarlo", {"seed": "x"}, 2),
    ("sweep-users", {"seed": "x"}, 2),
    ("sweep-users", {"users_grid": [1.5]}, 2),
    # A noise power too large for a float is an invalid value.
    ("optimize", {"noise_power_dbm": 4000}, 2),
    # A power budget that overflows the SINRs leaves no finite objective.
    ("optimize", {"total_power_w": 1e308, "user_count": 2, "max_outer_iterations": 3}, 5),
    # A seed is a non-negative integer, and the configurations a nonempty list.
    ("optimize", {"seed": -1}, 2),
    ("montecarlo", {"seed": -3}, 2),
    ("sweep-users", {"configurations": []}, 2),
    # The users' distances overflow a float.
    ("optimize", {"coverage_half_side_m": 1e300}, 4),
    ("sweep-users", {"coverage_half_side_m": 1e300}, 4),
    ("optimize", {"coverage_half_side_m": 1e308}, 4),
    # Users so far out that the objective underflows to 0.
    ("optimize", {"coverage_half_side_m": 1e150}, 5),
    # JSON's non-standard NaN and Infinity tokens (json.dumps writes them).
    ("optimize", {"wavelength_m": math.inf}, 2),
    ("optimize", {"region_half_side_m": math.nan}, 2),
    ("optimize", {"region_half_side_m": math.inf}, 2),
    ("optimize", {"relative_permittivity": math.inf}, 2),
    # Finite values that overflow what is built from them: the default box of
    # 100 wavelengths, a wavenumber, and squared distances in the box.
    ("optimize", {"wavelength_m": 1e307}, 2),
    ("optimize", {"wavelength_m": 1e-320}, 2),
    ("optimize", {"region_half_side_m": 1e308}, 2),
    ("optimize", {"region_half_side_m": 1e300}, 2),
    # A sweep's optimization that fails leaves failure rows, not an error:
    # a granularity cell gives one per resolution.
    ("sweep-granularity", {"total_power_w": 1e308, "max_outer_iterations": 3}, 0),
    # A resolution outside (0, 180] is refused before any cell runs.
    ("sweep-granularity", {"granularity_grid_deg": [200]}, 2),
])
def test_run_exit_codes(tmp_path, capsys, experiment, overrides, code):
    # An invalid value is a usage error (2); a valid scenario that cannot be
    # placed is infeasible (4). Each failure is reported by its exit code and
    # error line alone, with no numpy warning on the way.
    cfg = _fast_config(tmp_path, **overrides)
    out = tmp_path / "x.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", experiment, "--config", cfg, "--out", str(out)]) == code
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    if code == 0:
        rows = _read_csv(out)
        assert err == ""
        assert [(r[0], r[1]) for r in rows[1:]] == [("30", "5"), ("80", "5")] * 2
        assert all(r[11] == "NumericalError: objective is not finite: inf" for r in rows[1:])
    else:
        assert err.startswith("error: ")
        assert not out.exists()


@pytest.mark.parametrize("error, code, message", [
    (GeometryError("g"), 4, "error: invalid geometry: g"),
    (InfeasibleLayoutError("i"), 4, "error: infeasible scenario: i"),
    (UnsupportedConfigurationError("u"), 4, "error: infeasible scenario: u"),
    (ConfigurationError("c"), 2, "error: c"),
    (SingularChannelError("s"), 5, "error: numerical failure: s"),
    (NumericalError("n"), 5, "error: numerical failure: n"),
    (ProjectionError("p"), 5, "error: p"),
    (PermissionError("w"), 3, "error: cannot write output: w"),
])
def test_each_error_ends_a_run_with_its_exit_code(tmp_path, capsys, monkeypatch,
                                                  error, code, message):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "monte_carlo_half_energy", fail)
    assert main(["run", "montecarlo", "--out", str(tmp_path / "x.csv")]) == code
    assert capsys.readouterr().err == message + "\n"


def test_a_non_package_error_raises(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise TypeError("injected")

    monkeypatch.setattr(cli, "monte_carlo_half_energy", fail)
    with pytest.raises(TypeError, match="injected"):
        main(["run", "montecarlo", "--out", str(tmp_path / "x.csv")])
    monkeypatch.setattr(cli, "link_terms", fail)
    with pytest.raises(TypeError, match="injected"):
        main(["channel-eval", "--tx-pos", "0,0,0", "--tx-dir", "0,0,1",
              "--rx-pos", RX, "--rx-dir", "0,0,1"])


@pytest.mark.parametrize("key, value", [("coverage_half_side_m", 10.0),
                                        ("region_half_side_m", 0.5)])
def test_run_sweep_honours_scenario_shape(tmp_path, key, value):
    outputs = []
    for overrides in ({}, {key: value}):
        cfg = _fast_config(tmp_path, **overrides)
        out = tmp_path / "users.csv"
        assert main(["run", "sweep-users", "--config", cfg, "--out", str(out),
                     "--reps", "1"]) == 0
        outputs.append(_read_csv(out))
    default, changed = outputs
    assert len(default) == len(changed)
    # Every scenario differs: another drop of users, or another movement box.
    assert all(a[9] != b[9] for a, b in zip(default[1:], changed[1:]))


@pytest.mark.parametrize("payload, kind", [("5", "number"), ("[]", "array"),
                                           ('"users"', "string")])
def test_run_config_not_an_object_exits_2(tmp_path, capsys, payload, kind):
    bad = tmp_path / "bad.json"
    bad.write_text(payload)
    out = tmp_path / "x.csv"
    assert main(["run", "montecarlo", "--config", str(bad), "--out", str(out)]) == 2
    assert f"must be a JSON object, got a JSON {kind}" in capsys.readouterr().err
    assert not out.exists()


def test_config_roundtrip_and_hash(tmp_path):
    cfg_path = _fast_config(tmp_path)
    cfg = RunConfig.from_file(cfg_path)
    assert cfg.monte_carlo_samples == 20000
    assert cfg.config_hash() == RunConfig(**{
        k: v for k, v in cfg.to_dict().items()}).config_hash()
    assert cfg.config_hash() != RunConfig().config_hash()


def test_config_validation():
    with pytest.raises(ConfigurationError):
        RunConfig(user_count=9, antenna_count=8)
    with pytest.raises(ConfigurationError):
        RunConfig(repetitions=0)


def test_readme_config_block_is_the_defaults(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.json"
    path.write_text(block)
    assert RunConfig.from_file(path) == RunConfig()


def test_readme_sweep_schema_is_the_written_header(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Sweep CSV schema\n", 1)[1]
    block = section.split("```\n", 1)[1].split("```", 1)[0]
    cfg = _fast_config(tmp_path, users_grid=[1])
    out = tmp_path / "users.csv"
    assert main(["run", "sweep-users", "--config", cfg, "--out", str(out),
                 "--reps", "1"]) == 0
    assert [name.strip() for name in block.split(",")] == _read_csv(out)[0] \
        == list(harness.CSV_COLUMNS) == SWEEP_HEADER


def test_readme_documents_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    missing = [f.name for f in dataclasses.fields(RunConfig)
               if f'"{f.name}"' not in readme and f"`{f.name}`" not in readme]
    assert missing == []


def test_readme_documents_every_run_flag(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    common = readme.split("Common flags:", 1)[1].split("\n\n", 1)[0]
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    defined = set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) - {"--help"}
    assert set(re.findall(r"`(--[a-z-]+)", common)) == defined


def test_config_default_medium_values():
    medium = RunConfig().medium()
    assert medium.wavelength == 0.01
    assert medium.relative_permittivity == 2.0
    assert medium.noise_power == pytest.approx(dbm_to_watts(-20.0))
    assert dbm_to_watts(-20.0) == pytest.approx(1e-5)
