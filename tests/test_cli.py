import contextlib
import io
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptembed import cli, dnlse, variational
from ptembed.cli import (
    SCENARIOS,
    compare_runs,
    main,
    parse_config,
    read_timeseries,
    run_scenario,
    write_outputs,
)
from ptembed.errors import ConvergenceWarning, MissingKey, NoOverlap, ParseError, UnitError


# the values a domain is probed with besides 0, -1 and +-1e300: its edges and
# the floats just outside them, and for an open edge the float just inside
TINY = 5e-324
DOMAIN_PROBES = {
    cli.POSITIVE: (-TINY, TINY),
    cli.NEGATIVE: (TINY, -TINY),
    cli.NON_NEGATIVE: (-TINY,),
    cli.AT_LEAST_1: (1.0, math.nextafter(1.0, 0.0)),
    cli.WHOLE: (1.0, math.nextafter(1.0, 0.0), 1.5),
    cli.NONZERO: (TINY, -TINY),
    cli.FINITE: (),
    cli.UNIT_INTERVAL: (1.0, -TINY, math.nextafter(1.0, 2.0)),
    cli.ABOVE_MINUS_1: (math.nextafter(-1.0, 0.0), math.nextafter(-1.0, -2.0)),
    cli.SYMMETRIC_UNIT: (-1.0, 1.0, math.nextafter(-1.0, -2.0), math.nextafter(1.0, 2.0)),
}

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
        assert cfg["t_end"] == 5.0

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

    def test_control_limits_rejected(self):
        for line, message in (("cond_limit = 0.5", "cond_limit must be at least 1"),
                              ("cond_limit = -1", "cond_limit must be at least 1"),
                              ("depletion_floor = -1e-3",
                               "depletion_floor must not be negative")):
            with pytest.raises(ParseError) as err:
                parse_config(f"[scenario]\nname = oscillatory\n{line}\n")
            assert str(err.value) == f"line 3: [scenario] {message}"
        cfg = parse_config("[scenario]\nname = oscillatory\ncond_limit = 1\n"
                           "depletion_floor = 0\n")
        assert cfg.get("scenario", "cond_limit") == 1.0

    def test_bad_units(self):
        for line, message in (("w_z = -1e-6", "w_z must be positive, not -1e-06"),
                              ("w_z = 0", "w_z must be positive, not 0.0"),
                              ("n_atoms = -1", "n_atoms must not be negative, not -1.0")):
            with pytest.raises(UnitError) as err:
                parse_config(f"[scenario]\nname = adiabatic_fewmode\n[units]\n{line}\n")
            assert str(err.value) == f"line 4: {message}"

    def test_transverse_trap_widths_rejected(self):
        # the trap's transverse widths are fixed at 4 w_z, not settable
        for key in ("w_x", "w_y"):
            with pytest.raises(ParseError, match=f"line 4.*unknown key '{key}'"):
                parse_config(f"[scenario]\nname = adiabatic_fewmode\n[trap]\n{key} = 4\n")

    @pytest.mark.parametrize("name, key", [
        ("stationary", "control_dt"), ("oscillatory", "perturbation"),
        ("collapse", "psi1_abs2"), ("adiabatic_fewmode", "gamma"),
        ("adiabatic_variational", "cond_limit"),
        # its records sit at the control-interval ends
        ("adiabatic_variational", "[output] stride"),
    ])
    def test_key_of_another_scenario_rejected_by_line(self, name, key):
        # the key is read by some scenario, just not by this one; a key
        # outside [scenario] is given with its section
        section, key = key.split() if " " in key else ("[scenario]", key)
        assert any((section[1:-1], key) in table for table in cli._KEYS.values())
        with pytest.raises(ParseError) as err:
            parse_config(f"{section}\n{key} = 0.1\n[scenario]\nname = {name}\nt_end = 1\n")
        assert str(err.value) == f"line 2: {section} {key} is not read by scenario '{name}'"

    @pytest.mark.parametrize("name", ["stationary", "oscillatory", "collapse"])
    @pytest.mark.parametrize("section, line", [("trap", "spacing = 1.8"),
                                               ("units", "w_z = 1e-6")])
    def test_abstract_scenarios_reject_trap_and_units(self, name, section, line):
        with pytest.raises(ParseError) as err:
            parse_config(f"[{section}]\n{line}\n[scenario]\nname = {name}\n")
        key = line.split(" = ")[0]
        assert str(err.value) == f"line 2: [{section}] {key} is not read by scenario '{name}'"

    @pytest.mark.parametrize("name", list(SCENARIOS))
    def test_every_key_of_a_scenario_parses(self, name):
        keys = {key: default for key, (default, _) in SCENARIOS[name][1].items()}
        lines = [f"{key} = {default!r}" for key, default in keys.items()]
        sections = "[integrator]\nrel_tol = 1e-9\n[output]\ndir = out\n"
        if name != "adiabatic_variational":
            sections += "stride = 0.1\n"
        if name.startswith("adiabatic"):
            sections += "[trap]\nspacing = 1.8\n[units]\nw_z = 1e-6\n"
        cfg = parse_config("[scenario]\nname = {}\n{}\n{}".format(
            name, "\n".join(lines), sections))
        assert {key: cfg[key] for key in keys} == keys
        assert cfg.get("units", "w_z") == (1e-6 if name.startswith("adiabatic") else None)

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

    def test_variational_breakdown_exit_two(self, tmp_path, capsys, monkeypatch):
        # every right-hand side call goes through variational.assemble_eom,
        # and so does the one Gram check of the initial state before the ramp
        calls = []
        assemble = variational.assemble_eom

        def counting(*args, **kwargs):
            calls.append(1)
            return assemble(*args, **kwargs)

        monkeypatch.setattr(variational, "assemble_eom", counting)
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
        # the interval that broke down counts its work: the start point and
        # the two finite-difference trials of the depth search, the Jacobian
        # they built, and the iteration whose trial depth left the domain
        assert summary["control_integrations"] >= 3
        assert summary["control_jacobian_refreshes"] == 1
        assert summary["control_root_iterations"] == 1
        assert summary["rhs_evals"] == len(calls) - 1 > 0

    @pytest.mark.parametrize("line, prefix", [
        ("depletion_floor = 0.05", "reservoir depleted (n0="),
        ("cond_limit = 1e3", "onsite control system singular"),
    ])
    def test_control_breakdown_exit_two(self, tmp_path, capsys, line, prefix):
        # the run ends on the control's own guard before the step size collapses
        cfg = self._write(tmp_path, f"[scenario]\nname = oscillatory\n{line}\n")
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["breakdown_reason"] == "control_singular"
        assert summary["breakdown_message"].startswith(prefix)
        assert "(control_singular): " + prefix in capsys.readouterr().out

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

    @pytest.mark.parametrize("name, lines, key", [
        ("stationary", "[output]\nstride = 1e-8", "[output] stride = 1e-08"),
        ("stationary", "[output]\nstride = 5e-324", "[output] stride = 5e-324"),
        ("adiabatic_variational", "control_dt = 1e-12", "[scenario] control_dt = 1e-12"),
        ("adiabatic_fewmode", "[trap]\nspacing = 5e-324", "[trap] spacing = 5e-324"),
    ])
    def test_tiny_positive_value_is_one_error_line(self, tmp_path, capsys, name, lines, key):
        # over t_end = 5: 5e8 or more records, 5e12 control intervals, or four
        # wells at equal positions
        cfg = self._write(tmp_path, f"[scenario]\nname = {name}\nt_end = 5\n{lines}\n")
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: ParseError: {key}") and len(err.splitlines()) == 1, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "fit"])
    def test_stacked_wells_are_a_degenerate_trap(self, tmp_path, capsys, command):
        # the four positions stay distinct, but the fitted Gaussians lie on
        # one another: their overlap matrix is singular to working precision
        cfg = self._write(tmp_path, "[scenario]\nname = adiabatic_fewmode\n[trap]\nspacing = 1e-12\n")
        out = ["--out", str(tmp_path / "out")] if command == "run" else []
        assert main([command, "--config", cfg, *out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: DegenerateInput: [trap] spacing = 1e-12 ") and \
            len(err.splitlines()) == 1, err
        assert not (tmp_path / "out").exists()

    @settings(max_examples=60)
    @given(data=st.data())
    def test_run_never_ends_in_a_traceback(self, data):
        # one key of one scenario at a domain edge, just outside it, 0, a
        # negative or +-1e300, in a short run: t_end = 0.05 and max_steps =
        # 200, and for the variational ramp one control interval, so that a
        # huge t_end is bounded by max_steps too
        name = data.draw(st.sampled_from(list(SCENARIOS)), label="scenario")
        keys = [(section, key, domain) for (section, key), (_, domain) in cli._KEYS[name].items()
                if domain is not None]
        section, key, domain = data.draw(st.sampled_from(keys), label="key")
        value = data.draw(st.sampled_from(DOMAIN_PROBES[domain] + (0.0, -1.0, 1e300, -1e300)),
                          label="value")
        config = {"scenario": {"name": name, "t_end": 0.05}, "integrator": {"max_steps": 200.0}}
        if name == "adiabatic_variational":
            config["scenario"]["control_dt"] = 1e300
        config.setdefault(section, {})[key] = value
        lines = []
        for sec, entries in config.items():
            lines.append(f"[{sec}]")
            lines += [f"{k} = {v if k == 'name' else repr(v)}" for k, v in entries.items()]
        # numpy's overflow warnings and the fit's ConvergenceWarning at the
        # extremes are recorded apart from the error line, or raised under
        # the test suite's own rule, where main reports them as that line
        for raised in (False, True):
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "run.cfg")
                with open(path, "w") as fh:
                    fh.write("\n".join(lines) + "\n")
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                        warnings.catch_warnings(record=True):
                    warnings.simplefilter("always")
                    if raised:
                        warnings.simplefilter("error", RuntimeWarning)
                    rc = main(["run", "--config", path, "--out", os.path.join(tmp, "out")])
            err = err.getvalue()
            assert rc in (0, 1, 2) and "Traceback" not in err, err
            if rc == 1:
                assert len(err.splitlines()) == 1 and err.startswith("error: "), err
            if not domain[0](value):
                # refused by the config, on the value's line
                ln = lines.index(f"{key} = {value!r}") + 1
                kind = "UnitError" if section == "units" else "ParseError"
                assert rc == 1 and err.startswith(f"error: {kind}: line {ln}: "), err

    def test_warning_raised_as_an_error_is_one_error_line(self, tmp_path, capsys):
        # the fit at spacing 0.2 stops short of its tolerance and warns
        cfg = self._write(tmp_path, "[scenario]\nname = adiabatic_fewmode\nt_end = 0.05\n"
                                    "[trap]\nspacing = 0.2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConvergenceWarning: ") and len(err.splitlines()) == 1, err

    def test_singular_initial_gram_matrix_is_a_degenerate_trap(self, tmp_path, capsys):
        # the fitted overlap matrix passes (reciprocal condition number
        # 2.5e-6), but the Gram matrix of the relaxed state at t = 0 is
        # singular to working precision: an input error, not a breakdown
        cfg = self._write(tmp_path, "[scenario]\nname = adiabatic_variational\nt_end = 0.05\n"
                                    "[trap]\nspacing = 0.2\n")
        with pytest.warns(ConvergenceWarning):
            assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: DegenerateInput: [trap] spacing = 0.2 ") and \
            len(err.splitlines()) == 1, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["fit", "params"])
    def test_fit_needs_a_physical_scenario(self, tmp_path, capsys, command):
        cfg = self._write(tmp_path, "[scenario]\nname = stationary\n")
        assert main([command, "--config", cfg]) == 1
        assert capsys.readouterr().err == (
            "error: ParseError: scenario 'stationary' has no [trap] to fit\n")

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
        # the table holds the effective model of the fitted default trap, to
        # the printed digits
        wells, units = dnlse.standard_four_well(), dnlse.UnitSystem.rubidium87()
        basis, _, _ = dnlse.fit_ground_state(wells, units)
        eff = dnlse.effective_model(basis, wells, units)
        per_well, per_pair = capsys.readouterr().out.split("pair  tunneling\n")
        assert [line.split() for line in per_well.splitlines()[2:]] == [
            [str(k), f"{e:.8e}", f"{u:.8e}"]
            for k, (e, u) in enumerate(zip(eff.onsite, eff.interaction))]
        assert [line.split() for line in per_pair.splitlines()] == [
            [f"{k},{k + 1}", f"{j:.8e}"] for k, j in enumerate(eff.tunneling)]

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
        # every right-hand side call goes through variational.assemble_eom,
        # and so does the one Gram check of the initial state before the ramp
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
        assert summary["rhs_evals"] == len(calls) - 1 > 0
        assert summary["accepted_steps"] >= summary["control_integrations"]
        assert summary["rejected_steps"] >= 0
        assert 1e-12 <= summary["metric_rcond_min"] < 1.0
