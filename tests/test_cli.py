import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptembed import variational
from ptembed.cli import (
    compare_runs,
    main,
    parse_config,
    read_timeseries,
    run_scenario,
    write_outputs,
)
from ptembed.errors import MissingKey, NoOverlap, ParseError, UnitError


STATIONARY_CFG = """
[scenario]
name = stationary
t_end = 1.0

[output]
stride = 0.1
"""


class TestParseConfig:
    def test_minimal_config(self):
        cfg = parse_config("[scenario]\nname = stationary\n")
        assert cfg.scenario == "stationary"
        assert cfg.get("scenario", "t_end", 5.0) == 5.0

    def test_comments_and_blank_lines(self):
        cfg = parse_config(
            "# leading comment\n\n[scenario]\nname = collapse  # trailing\n")
        assert cfg.scenario == "collapse"

    def test_unknown_section_with_line_number(self):
        with pytest.raises(ParseError, match="line 2.*unknown section"):
            parse_config("[scenario]\n[nope]\nname = stationary\n")

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ParseError, match="line 3.*unknown key"):
            parse_config("[scenario]\nname = stationary\nbogus = 1\n")

    def test_duplicate_key(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_config("[scenario]\nname = stationary\nt_end = 1\nt_end = 2\n")

    def test_bad_numeric_value(self):
        with pytest.raises(ParseError, match="numeric"):
            parse_config("[scenario]\nname = stationary\nt_end = soon\n")

    def test_key_outside_section(self):
        with pytest.raises(ParseError, match="outside"):
            parse_config("name = stationary\n")

    def test_missing_name(self):
        with pytest.raises(MissingKey):
            parse_config("[scenario]\nt_end = 1\n")

    def test_unknown_scenario(self):
        with pytest.raises(ParseError, match="unknown scenario"):
            parse_config("[scenario]\nname = warp\n")
        # recorded runs are compared by the compare subcommand only
        with pytest.raises(ParseError, match="unknown scenario"):
            parse_config("[scenario]\nname = compare\n")

    def test_negative_t_end(self):
        with pytest.raises(ParseError, match="positive"):
            parse_config("[scenario]\nname = stationary\nt_end = -1\n")

    def test_bad_units(self):
        with pytest.raises(UnitError):
            parse_config(
                "[scenario]\nname = stationary\n[units]\nw_z = -1e-6\n")

    def test_transverse_trap_widths_rejected(self):
        # the trap's transverse widths are fixed at 4 w_z, not settable
        for key in ("w_x", "w_y"):
            with pytest.raises(ParseError, match=f"line 4.*unknown key '{key}'"):
                parse_config(f"[scenario]\nname = stationary\n[trap]\n{key} = 4\n")

    @settings(max_examples=60)
    @given(data=st.data())
    def test_malformed_line_named_by_number(self, data):
        lines = ["[scenario]", "name = stationary", "t_end = 1.0",
                 "[integrator]", "rel_tol = 1e-8", "[output]", "stride = 0.1"]
        bad = data.draw(st.one_of(
            st.from_regex(r"[a-z][a-z0-9_ ]{0,12}", fullmatch=True),          # no '='
            st.from_regex(r"\[[a-z_]{0,10}", fullmatch=True),                 # unterminated
            st.from_regex(r"\[unknown_[a-z]{0,6}\]", fullmatch=True),         # unknown section
            st.from_regex(r"unknown_[a-z]{0,6} = 1", fullmatch=True),         # unknown key
            st.builds("{} = {}".format,                                       # bad number
                      st.sampled_from(["t_end", "gamma", "rel_tol", "stride", "w_z"]),
                      st.sampled_from(["nan", "inf", "-Infinity", "soon", "1.0.0"])),
        ))
        at = data.draw(st.integers(0, len(lines)))
        lines.insert(at, bad)
        with pytest.raises(ParseError, match=rf"^line {at + 1}: "):
            parse_config("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def stationary_run():
    cfg = parse_config(STATIONARY_CFG)
    return run_scenario(cfg)


class TestRunAndOutputs:
    def test_stationary_status_and_summary(self, stationary_run):
        status, ts, cols, summary = stationary_run
        assert status == 0
        assert summary["breakdown_time"] is None
        assert summary["breakdown_message"] is None
        assert abs(summary["slope_n0"] + 0.5) < 1e-3
        assert abs(summary["slope_n3"] - 0.5) < 1e-3
        assert summary["total_norm_drift"] < 1e-9

    def test_sample_grid_and_columns(self, stationary_run):
        status, ts, cols, summary = stationary_run
        assert ts[0] == 0.0 and abs(ts[-1] - 1.0) < 1e-9
        assert abs(ts[1] - ts[0] - 0.1) < 1e-12
        for key in ("n0", "n1", "n2", "n3", "j01", "j12", "j23",
                    "E0", "E3", "J01", "J23", "gamma", "breakdown", "lgs_condition"):
            assert key in cols and len(cols[key]) == len(ts)
        cond = np.asarray(cols["lgs_condition"])
        assert np.all(np.isfinite(cond)) and np.all(cond >= 1.0)

    def test_csv_round_trip(self, stationary_run, tmp_path):
        status, ts, cols, summary = stationary_run
        write_outputs(ts, cols, summary, str(tmp_path))
        t2, cols2 = read_timeseries(str(tmp_path / "timeseries.csv"))
        assert np.array_equal(t2, ts)
        for key, vals in cols.items():
            assert np.array_equal(cols2[key], np.asarray(vals))
        loaded = json.loads((tmp_path / "summary.json").read_text())
        assert loaded["scenario"] == "stationary"

    def test_csv_rows_match_per_value_formatting(self, stationary_run, tmp_path):
        # extreme cells, one per row, in the n1 column of the stationary run
        status, ts, cols, summary = stationary_run
        special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308]
        cols = {key: np.array(vals, dtype=float) for key, vals in cols.items()}
        cols["n1"][:len(special)] = special
        write_outputs(ts, cols, summary, str(tmp_path))
        header, *rows = (tmp_path / "timeseries.csv").read_text().splitlines()
        order = header.split(",")
        data = {"t": ts, **cols}
        assert len(rows) == len(ts)
        for i, row in enumerate(rows):
            assert row == ",".join(f"{data[k][i]:.16e}" for k in order)
        # the finite extremes read back bit for bit; non-finite cells are
        # refused by name
        with pytest.raises(ParseError, match="'n1'"):
            read_timeseries(str(tmp_path / "timeseries.csv"))
        cols["n1"][:3] = 1.0
        write_outputs(ts, cols, summary, str(tmp_path))
        _, cols2 = read_timeseries(str(tmp_path / "timeseries.csv"))
        assert np.array_equal(np.signbit(cols2["n1"]), np.signbit(cols["n1"]))
        for key, vals in cols.items():
            assert np.array_equal(cols2[key], vals)

    def test_plot_scripts_emitted(self, stationary_run, tmp_path):
        status, ts, cols, summary = stationary_run
        write_outputs(ts, cols, summary, str(tmp_path), emit_plots=True)
        for panel in ("populations", "currents", "controls_fewmode", "gain_loss"):
            assert (tmp_path / f"plot_{panel}.gp").exists()
        # depth controls only exist for variational records
        assert not (tmp_path / "plot_controls_variational.gp").exists()

    def test_determinism(self):
        cfg = parse_config(STATIONARY_CFG)
        a = run_scenario(cfg)
        b = run_scenario(cfg)
        assert np.array_equal(a[1], b[1])
        for key in a[2]:
            assert np.array_equal(a[2][key], b[2][key])

    def test_summary_counts_integrator_work(self, stationary_run, tmp_path):
        status, ts, cols, summary = stationary_run
        counts = [summary[k] for k in ("accepted_steps", "rejected_steps", "rhs_evals")]
        assert all(type(c) is int for c in counts)
        accepted, rejected, evals = counts
        # first evaluation, starting-step probe, 12 per attempted step and
        # 3 dense-output stages per accepted step
        assert accepted > 0 and evals == 2 + 12 * (accepted + rejected) + 3 * accepted
        # the counters are deterministic: a second run writes the same bytes
        write_outputs(ts, cols, summary, str(tmp_path / "a"))
        write_outputs(*run_scenario(parse_config(STATIONARY_CFG))[1:], str(tmp_path / "b"))
        for name in ("timeseries.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestCompare:
    def test_identical_runs_give_zero(self, stationary_run):
        status, ts, cols, summary = stationary_run
        report = compare_runs((ts, cols), (ts, cols))
        assert report["n1"]["max_abs_deviation"] == 0.0
        assert report["j12"]["rms_deviation"] == 0.0

    def test_shifted_copy_measured(self, stationary_run):
        status, ts, cols, summary = stationary_run
        shifted = dict(cols)
        shifted["n1"] = cols["n1"] + 1e-3
        report = compare_runs((ts, cols), (ts, shifted))
        assert abs(report["n1"]["max_abs_deviation"] - 1e-3) < 1e-12
        assert abs(report["n1"]["rms_deviation"] - 1e-3) < 1e-12

    def test_disjoint_ranges_rejected(self, stationary_run):
        status, ts, cols, summary = stationary_run
        with pytest.raises(NoOverlap):
            compare_runs((ts, cols), (ts + 100.0, cols))


class TestMain:
    def _write(self, tmp_path, text, name="run.cfg"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    def test_run_exit_zero(self, tmp_path, capsys):
        cfg = self._write(tmp_path, STATIONARY_CFG)
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "timeseries.csv").exists()
        assert "stationary: status 0" in capsys.readouterr().out

    def test_breakdown_exit_two(self, tmp_path, capsys):
        cfg = self._write(tmp_path, (
            "[scenario]\nname = oscillatory\nt_end = 30\n"
            "[output]\nstride = 0.1\n"))
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["breakdown_time"] is not None
        # E0 diverges as the source reservoir empties, and the step size
        # collapses before the depletion floor or the condition limit is hit
        assert summary["breakdown_reason"] == "StepSizeUnderflow"
        message = summary["breakdown_message"]
        assert message.startswith("step size underflow at t=")
        out = capsys.readouterr().out
        assert f"breakdown at t = {summary['breakdown_time']:.6g} (StepSizeUnderflow): {message}" in out

    def test_variational_breakdown_exit_two(self, tmp_path, capsys):
        # gamma reaches 100 J12 within one 1e-3 control interval: the wall
        # current it asks for would need a repulsive outer well
        cfg = self._write(tmp_path, (
            "[scenario]\nname = adiabatic_variational\ngamma_f_rel = 100\n"
            "t_f = 0.001\nt_end = 0.001\ncontrol_dt = 0.001\n"))
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        out = capsys.readouterr().out
        assert "breakdown at t = 0 (ControlSearchFailed): depth search" in out
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["breakdown_reason"] == "ControlSearchFailed"
        assert summary["breakdown_message"].startswith("depth search ")
        assert summary["control_root_iterations"] == 0

    def test_bad_config_exit_one(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "[scenario]\nname = stationary\nbogus = 1\n")
        rc = main(["run", "--config", cfg])
        assert rc == 1
        assert "ParseError" in capsys.readouterr().err

    @pytest.mark.parametrize("section, line", [
        ("scenario", "t_end = nan"),
        ("scenario", "t_end = inf"),
        ("scenario", "t_end = 0"),
        ("integrator", "rel_tol = -1"),
        ("integrator", "abs_tol = 0"),
        ("integrator", "max_step = -0.5"),
        ("integrator", "max_steps = 0"),
        ("integrator", "max_steps = 2.5"),
        ("output", "stride = 0"),
        ("output", "stride = -inf"),
    ])
    def test_bad_numeric_value_exit_one(self, tmp_path, capsys, section, line):
        header = "" if section == "scenario" else f"[{section}]\n"
        cfg = self._write(tmp_path, f"[scenario]\nname = stationary\n{header}{line}\n")
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ParseError: ")
        assert not (tmp_path / "out").exists()

    def test_missing_file_exit_one(self, tmp_path, capsys):
        rc = main(["run", "--config", str(tmp_path / "absent.cfg")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "fit", "params"])
    def test_unreadable_config_is_io_error(self, tmp_path, capsys, command):
        rc = main([command, "--config", str(tmp_path / "absent.cfg")])
        assert rc == 1
        assert "error: IoError: cannot read config" in capsys.readouterr().err

    def test_compare_subcommand(self, tmp_path, capsys, stationary_run):
        status, ts, cols, summary = stationary_run
        write_outputs(ts, cols, summary, str(tmp_path / "a"))
        write_outputs(ts, cols, summary, str(tmp_path / "b"))
        rc = main(["compare", "--a", str(tmp_path / "a" / "timeseries.csv"),
                   "--b", str(tmp_path / "b" / "timeseries.csv")])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n1"]["max_abs_deviation"] == 0.0

    @pytest.mark.parametrize("text, detail", [
        ("t,n0\n0.0,abc\n", ""), ("", ""), ("t,n0\n", ""), ("n0,n1\n0.5,0.5\n", ""),
        ("t,n0\n0,1\n2,1\n1,1\n", ""),
        # a nan cell would otherwise print "NaN", which is not JSON, and exit 0
        ("t,n1\n0,nan\n1,0.6\n2,0.7\n", "column 'n1'"),
    ], ids=["non_numeric", "empty", "header_only", "no_t_column", "unsorted_t", "nan_cell"])
    def test_compare_bad_csv_exit_one(self, tmp_path, capsys, stationary_run, text, detail):
        write_outputs(*stationary_run[1:], str(tmp_path / "a"))
        bad = self._write(tmp_path, text, name="bad.csv")
        rc = main(["compare", "--a", str(tmp_path / "a" / "timeseries.csv"), "--b", bad])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: ParseError: {bad}: {detail}")


@pytest.mark.slow
class TestPhysicalSubcommands:
    def test_fit_and_params(self, tmp_path, capsys):
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("[scenario]\nname = adiabatic_fewmode\n")
        rc = main(["fit", "--config", str(cfg)])
        assert rc == 0
        fit = json.loads(capsys.readouterr().out)
        assert fit["energy"] < -35.0
        assert len(fit["amplitudes"]) == 4
        rc = main(["params", "--config", str(cfg)])
        assert rc == 0
        assert "tunneling" in capsys.readouterr().out

    def test_variational_summary_counts_control_work(self, tmp_path):
        cfg = tmp_path / "var.cfg"
        cfg.write_text("[scenario]\nname = adiabatic_variational\nt_end = 1.0\n")
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        # two control intervals of one root iteration each: only the first
        # builds the depth-search Jacobian (two extra integrations), the
        # second starts from the first's
        assert summary["control_jacobian_refreshes"] == 1
        assert summary["control_root_iterations"] == 2
        assert summary["control_integrations"] == 6

    def test_variational_summary_reports_integrator_work(self, tmp_path, monkeypatch):
        # every right-hand side call goes through variational.assemble_eom
        calls = []
        assemble = variational.assemble_eom

        def counting(*args, **kwargs):
            calls.append(1)
            return assemble(*args, **kwargs)

        monkeypatch.setattr(variational, "assemble_eom", counting)
        cfg = tmp_path / "var.cfg"
        cfg.write_text("[scenario]\nname = adiabatic_variational\nt_end = 0.5\n")
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        # one interval: the start point and the two finite-difference
        # trials of the depth search are counted with the accepted one
        assert summary["control_integrations"] >= 3
        assert summary["rhs_evals"] == len(calls) > 0
        assert summary["accepted_steps"] >= summary["control_integrations"]
        assert summary["rejected_steps"] >= 0
        assert 1e-12 <= summary["metric_rcond_min"] < 1.0
