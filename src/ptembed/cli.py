"""Command-line front end: config parsing, scenario orchestration, outputs.

Subcommands::

    ptembed run --config cfg [--out DIR] [--emit-plots]
    ptembed compare --a run_a/timeseries.csv --b run_b/timeseries.csv
    ptembed fit --config cfg
    ptembed params --config cfg

Configs are strict line-based ``key = value`` files with ``[section]``
headers; unknown keys and non-finite numbers are rejected, and so are
non-positive times, tolerances, step limits and strides. Abstract
scenarios (stationary, oscillatory, collapse) use internal units with the
middle coupling as the energy scale; physical scenarios (adiabatic_fewmode,
adiabatic_variational) measure energies in E0 = hbar^2 / (m w_z^2) and
times in t0 = hbar / E0.

Exit status: 0 = completed, 2 = controlled breakdown (a physical result),
1 = error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import dnlse, embedding, variational
from .errors import IoError, MissingKey, NoOverlap, ParseError, PtError, UnitError
from .numerics import IntegratorSettings

SCENARIOS = (
    "stationary", "oscillatory", "collapse",
    "adiabatic_fewmode", "adiabatic_variational",
)

# section -> allowed keys
_SCHEMA = {
    "scenario": {
        "name", "t_end", "gamma", "gamma_f_rel", "t_f", "d", "c",
        "psi1_abs2", "reservoir_0", "reservoir_3", "perturbation",
        "cond_limit", "depletion_floor", "control_dt", "control_tol",
    },
    "integrator": {"rel_tol", "abs_tol", "max_step", "max_steps"},
    "trap": {"depth_outer", "depth_inner", "spacing"},
    "units": {"w_z", "n_atoms", "a_scat_bohr"},
    "output": {"dir", "stride"},
}

_STRING_KEYS = {"name", "dir"}


@dataclass
class ScenarioConfig:
    scenario: str
    values: dict = field(default_factory=dict)

    def get(self, section, key, default=None):
        return self.values.get((section, key), default)


def parse_config(text):
    """Strict ``key = value`` configuration with ``[section]`` headers."""
    values = {}
    section = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError(f"line {ln}: unterminated section header")
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ParseError(f"line {ln}: unknown section '{section}'")
            continue
        if "=" not in line:
            raise ParseError(f"line {ln}: expected 'key = value'")
        if section is None:
            raise ParseError(f"line {ln}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA[section]:
            raise ParseError(f"line {ln}: unknown key '{key}' in [{section}]")
        if (section, key) in values:
            raise ParseError(f"line {ln}: duplicate key '{key}'")
        if key in _STRING_KEYS:
            values[(section, key)] = value
        else:
            try:
                number = float(value)
            except ValueError:
                raise ParseError(
                    f"line {ln}: cannot parse numeric value '{value}' for '{key}'"
                ) from None
            if not math.isfinite(number):
                raise ParseError(f"line {ln}: '{key}' must be finite, got '{value}'")
            values[(section, key)] = number
    name = values.get(("scenario", "name"))
    if name is None:
        raise MissingKey("missing [scenario] name")
    if name not in SCENARIOS:
        raise ParseError(f"unknown scenario '{name}'")
    cfg = ScenarioConfig(scenario=name, values=values)
    _validate(cfg)
    return cfg


def _validate(cfg):
    for section, key in _POSITIVE_KEYS:
        v = cfg.get(section, key)
        if v is not None and v <= 0:
            raise ParseError(f"[{section}] {key} must be positive")
    steps = cfg.get("integrator", "max_steps")
    if steps is not None and steps != int(steps):
        raise ParseError("[integrator] max_steps must be a whole number")
    for key, lo in (("w_z", 0.0), ("n_atoms", -0.0), ("a_scat_bohr", -0.0)):
        v = cfg.get("units", key)
        if v is not None and v < lo:
            raise UnitError(f"{key} must be >= {lo}")
    wz = cfg.get("units", "w_z")
    if wz is not None and wz <= 0:
        raise UnitError("w_z must be positive")


_DEFAULT_T_END = {
    "stationary": 5.0,
    "oscillatory": 30.0,
    "collapse": 30.0,
}

# numeric keys that only make sense above zero
_POSITIVE_KEYS = (
    ("scenario", "t_end"), ("integrator", "rel_tol"), ("integrator", "abs_tol"),
    ("integrator", "max_step"), ("integrator", "max_steps"),
    ("output", "stride"),
)


def _integrator(cfg, rel_default):
    kwargs = {
        "rel_tol": cfg.get("integrator", "rel_tol", rel_default),
        "abs_tol": cfg.get("integrator", "abs_tol", rel_default * 1e-2),
    }
    ms = cfg.get("integrator", "max_step")
    if ms is not None:
        kwargs["max_step"] = ms
    mn = cfg.get("integrator", "max_steps")
    if mn is not None:
        kwargs["max_steps"] = int(mn)
    return IntegratorSettings(**kwargs)


def _trap(cfg):
    return dnlse.standard_four_well(
        depth_outer=cfg.get("trap", "depth_outer", -60.0),
        depth_inner=cfg.get("trap", "depth_inner", -45.0),
        spacing=cfg.get("trap", "spacing", 1.8),
    )


def _units(cfg):
    return dnlse.UnitSystem.rubidium87(
        w_z=cfg.get("units", "w_z", 1e-6),
        N=cfg.get("units", "n_atoms", 1e5),
        a_scat=cfg.get("units", "a_scat_bohr", 2.83) * dnlse.BOHR_RADIUS,
    )


def _sample_times(t_grid_end, stride):
    n = int(math.floor(t_grid_end / stride + 1e-9))
    ts = stride * np.arange(n + 1)
    if ts[-1] < t_grid_end - 1e-12:
        ts = np.append(ts, t_grid_end)
    return ts


def _fewmode_columns(run, ts, j12, gauge_shift=0.0):
    """Tabulate a controlled four-mode run at the sample times."""
    psi = run.trajectory.sample(ts)
    j01c, j23c, e0, e3, gamma, cond = np.fromiter(
        ((cs.J01, cs.J23, cs.E0, cs.E3, cs.gamma, cs.lgs_condition)
         for cs in map(run.controls_at, ts, psi)),
        dtype=(float, 6), count=len(ts)).T
    n = np.abs(psi) ** 2
    jt = -2.0 * (psi[:, :-1] * np.conj(psi[:, 1:])).imag  # j~_{k,k+1}
    cols = {
        "n0": n[:, 0], "n1": n[:, 1], "n2": n[:, 2], "n3": n[:, 3],
        "j01": j01c * jt[:, 0], "j12": j12 * jt[:, 1], "j23": j23c * jt[:, 2],
        "E0": e0 - gauge_shift, "E3": e3 - gauge_shift, "J01": j01c, "J23": j23c,
        "gamma": gamma, "breakdown": np.zeros(len(ts)), "lgs_condition": cond,
    }
    if run.broke_down:
        cols["breakdown"][-1] = 1.0
    return cols


def _condition_residuals(run):
    """Worst embedding-condition residual at the accepted integrator steps.

    The residuals need only gamma and the couplings J01 = d C13 and
    J23 = d C02, which ``check_conditions`` derives from ``d`` with the
    control kernel's arithmetic; the onsite solve is not repeated."""
    traj = run.trajectory
    return max(
        max(map(abs, embedding.check_conditions(
            psi, embedding.ControlState(*run.gamma_fn(t), run.d))))
        for t, psi in zip(traj.t.tolist(), traj.y.tolist())
    )


def _step_counts(traj):
    """The integrator's work on a run, for summary.json."""
    return {
        "accepted_steps": traj.accepted_steps,
        "rejected_steps": traj.rejected_steps,
        "rhs_evals": traj.rhs_evals,
    }


def _run_abstract(cfg):
    """stationary / oscillatory / collapse: internal units, middle coupling 1."""
    name = cfg.scenario
    gamma = cfg.get("scenario", "gamma", 0.5 if name != "collapse" else 0.9)
    c = cfg.get("scenario", "c", -1.0 if name == "collapse" else 0.0)
    d = cfg.get("scenario", "d", 1.0 if name == "stationary" else -1.0)
    r0 = cfg.get("scenario", "reservoir_0",
                 math.sqrt(3.0) if name == "stationary" else 3.0)
    r3 = cfg.get("scenario", "reservoir_3", 0.7 if name == "stationary" else 0.8)
    t_end = cfg.get("scenario", "t_end", _DEFAULT_T_END[name])
    cond_limit = cfg.get("scenario", "cond_limit", 1e12)
    floor = cfg.get("scenario", "depletion_floor", 1e-4)
    # near-breakdown runs need tight tolerances to hold the total norm
    settings = _integrator(cfg, 1e-10 if name == "stationary" else 1e-12)

    if name == "stationary":
        psi1, psi2 = embedding.pt_stationary_state(gamma, c=c)
    elif name == "oscillatory":
        a1 = cfg.get("scenario", "psi1_abs2", 0.6)
        psi1, psi2 = math.sqrt(a1), math.sqrt(1.0 - a1)
    else:  # collapse: perturbed stationary state
        eps = cfg.get("scenario", "perturbation", 0.01)
        psi1, psi2 = embedding.pt_stationary_state(gamma, c=c)
        psi1 = psi1 * math.sqrt(1.0 + eps)
    psi0 = embedding.build_initial_state(psi1, psi2, r0, r3, gamma, d)

    nonlinear = np.array([0.0, c, c, 0.0])
    run = embedding.run_controlled(
        psi0, t_end, embedding.constant_gamma(gamma), d, nonlinear,
        settings=settings, cond_limit=cond_limit, depletion_floor=floor,
    )
    t_grid_end = run.trajectory.t[-1]
    stride = cfg.get("output", "stride", 0.02)
    ts = _sample_times(t_grid_end, stride)
    cols = _fewmode_columns(run, ts, 1.0)

    summary = {
        "scenario": name,
        "gamma": gamma, "c": c, "d": d,
        "t_final": float(t_grid_end),
        "breakdown_time": run.breakdown_time,
        "breakdown_reason": run.breakdown_reason,
        "breakdown_message": run.breakdown_message,
        "total_norm_drift": float(abs(
            np.sum(np.abs(run.trajectory.y[-1]) ** 2)
            - np.sum(np.abs(run.trajectory.y[0]) ** 2))),
        "max_condition_residual": _condition_residuals(run),
        **_step_counts(run.trajectory),
    }
    if name == "stationary":
        summary["slope_n0"] = float(np.polyfit(ts, cols["n0"], 1)[0])
        summary["slope_n3"] = float(np.polyfit(ts, cols["n3"], 1)[0])
    if name == "collapse":
        n1 = cols["n1"]
        summary["n1_growth_factor"] = float(n1[-1] / n1[0])
        summary["n1_monotone"] = bool(np.all(np.diff(n1) > -1e-12))
    status = 2 if run.broke_down else 0
    return status, ts, cols, summary


def _fitted_system(cfg):
    wells = _trap(cfg)
    units = _units(cfg)
    basis, d_amp, energy = dnlse.fit_ground_state(wells, units)
    eff = dnlse.effective_model(basis, wells, units)
    return wells, units, basis, d_amp, energy, eff


def _run_adiabatic_fewmode(cfg):
    wells, units, basis, d_amp, energy, eff = _fitted_system(cfg)
    j12 = float(eff.tunneling[1])
    gamma_f = cfg.get("scenario", "gamma_f_rel", 0.5) * j12
    t_f = cfg.get("scenario", "t_f", 60.0)
    t_end = cfg.get("scenario", "t_end", 70.0)
    schedule = embedding.RampSchedule(gamma_f=gamma_f, t_f=t_f)

    d_eff, occ = dnlse.effective_amplitudes(d_amp, basis)
    x = np.abs(d_eff)
    x = x / np.linalg.norm(x)
    # choose d so the synthesized J01 = d C13 starts at the fitted tunneling
    d = float(eff.tunneling[0]) / (2.0 * x[1] * x[3])
    e1, e2 = float(eff.onsite[1]), float(eff.onsite[2])
    c = eff.interaction.astype(float)
    # a global onsite shift is pure gauge for the observables but removes the
    # fast common phase, which speeds up the integration enormously
    shift = -(e1 + c[1] * x[1] ** 2)
    settings = _integrator(cfg, 1e-10)
    run = embedding.run_controlled(
        x.astype(complex), t_end, embedding.ramp_gamma(schedule), d,
        c, j12=j12, e1=e1 + shift, e2=e2 + shift, settings=settings,
        cond_limit=cfg.get("scenario", "cond_limit", 1e14),
        depletion_floor=cfg.get("scenario", "depletion_floor", 1e-3),
    )
    t_grid_end = run.trajectory.t[-1]
    stride = cfg.get("output", "stride", 0.02)
    ts = _sample_times(t_grid_end, stride)
    cols = _fewmode_columns(run, ts, j12, gauge_shift=shift)
    n1 = cols["n1"]
    tail = ts >= t_f
    summary = {
        "scenario": "adiabatic_fewmode",
        "fit_energy": float(energy),
        "effective_tunneling": [float(v) for v in eff.tunneling],
        "effective_onsite": [float(v) for v in eff.onsite],
        "effective_interaction": [float(v) for v in c],
        "gamma_f": gamma_f, "t_f": t_f, "d": float(d),
        "t_final": float(t_grid_end),
        "breakdown_time": run.breakdown_time,
        "breakdown_reason": run.breakdown_reason,
        "breakdown_message": run.breakdown_message,
        "total_norm_drift": float(abs(
            np.sum(np.abs(run.trajectory.y[-1]) ** 2)
            - np.sum(np.abs(run.trajectory.y[0]) ** 2))),
        "max_condition_residual": _condition_residuals(run),
        **_step_counts(run.trajectory),
        "n1_tail_drift": float((n1[tail].max() - n1[tail].min()) / n1[-1])
        if np.any(tail) else None,
        "middle_imbalance": float(abs(cols["n1"][-1] - cols["n2"][-1]) / cols["n1"][-1]),
    }
    status = 2 if run.broke_down else 0
    return status, ts, cols, summary


def _run_adiabatic_variational(cfg):
    wells, units, basis, d_amp, energy, eff = _fitted_system(cfg)
    j12 = float(eff.tunneling[1])
    gamma_f = cfg.get("scenario", "gamma_f_rel", 0.5) * j12
    t_f = cfg.get("scenario", "t_f", 60.0)
    t_end = cfg.get("scenario", "t_end", 70.0)
    schedule = embedding.RampSchedule(gamma_f=gamma_f, t_f=t_f)

    state = variational.VariationalState.from_basis(basis, d_amp)
    state = variational.relax_to_fixed_point(state, wells, units)
    settings = _integrator(cfg, 1e-7)
    record, _ = variational.run_variational_scenario(
        wells, units, embedding.ramp_gamma(schedule), t_end,
        control_dt=cfg.get("scenario", "control_dt", 0.5),
        state=state, settings=settings,
        control_tol=cfg.get("scenario", "control_tol", 1e-8),
    )
    ts = record.t
    cols = {
        "n0": record.n[:, 0], "n1": record.n[:, 1],
        "n2": record.n[:, 2], "n3": record.n[:, 3],
        "j01": record.j[:, 0], "j12": record.j[:, 1], "j23": record.j[:, 2],
        "V0": record.depths[:, 0], "V3": record.depths[:, 3],
        "delta0": record.delta[:, 0], "delta1": record.delta[:, 1],
        "delta2": record.delta[:, 2], "delta3": record.delta[:, 3],
        "gamma": record.gamma,
        "breakdown": np.zeros(len(ts)),
    }
    if record.broke_down:
        cols["breakdown"][-1] = 1.0
    n1 = cols["n1"]
    tail = ts >= t_f
    summary = {
        "scenario": "adiabatic_variational",
        "fit_energy": float(energy),
        "gamma_f": gamma_f, "t_f": t_f,
        "t_final": float(ts[-1]),
        "breakdown_time": record.breakdown_time,
        "breakdown_reason": record.breakdown_reason,
        "breakdown_message": record.breakdown_message,
        "total_norm_drift": float(abs(record.n[-1].sum() - record.n[0].sum())),
        "n1_tail_drift": float((n1[tail].max() - n1[tail].min()) / n1[-1])
        if np.any(tail) else None,
        "middle_imbalance": float(abs(cols["n1"][-1] - cols["n2"][-1]) / cols["n1"][-1]),
        "control_root_iterations": int(record.root_iterations.sum()),
        "control_jacobian_refreshes": int(record.jacobian_refreshes.sum()),
        "control_integrations": int(record.integrations.sum()),
        # the integrator's work over every control integration, trials included
        "rhs_evals": int(record.rhs_evals.sum()),
        "accepted_steps": int(record.accepted_steps.sum()),
        "rejected_steps": int(record.rejected_steps.sum()),
        "metric_rcond_min": float(record.metric_rcond_min.min())
        if len(record.metric_rcond_min) else None,
    }
    status = 2 if record.broke_down else 0
    return status, ts, cols, summary


_FEWMODE_COLUMNS = ("t", "n0", "n1", "n2", "n3", "j01", "j12", "j23",
                    "E0", "E3", "J01", "J23", "gamma", "breakdown", "lgs_condition")
_VARIATIONAL_COLUMNS = ("t", "n0", "n1", "n2", "n3", "j01", "j12", "j23",
                        "V0", "V3", "delta0", "delta1", "delta2", "delta3",
                        "gamma", "breakdown")


def run_scenario(cfg: ScenarioConfig):
    """Dispatch a scenario; returns (status, times, columns, summary)."""
    if cfg.scenario in ("stationary", "oscillatory", "collapse"):
        return _run_abstract(cfg)
    if cfg.scenario == "adiabatic_fewmode":
        return _run_adiabatic_fewmode(cfg)
    if cfg.scenario == "adiabatic_variational":
        return _run_adiabatic_variational(cfg)
    raise ParseError(f"unknown scenario '{cfg.scenario}'")


def write_outputs(ts, cols, summary, out_dir, emit_plots=False):
    import os
    try:
        os.makedirs(out_dir, exist_ok=True)
        order = _VARIATIONAL_COLUMNS if "V0" in cols else _FEWMODE_COLUMNS
        csv_path = os.path.join(out_dir, "timeseries.csv")
        with open(csv_path, "w") as fh:
            fh.write(",".join(order) + "\n")
            data = {"t": ts, **cols}
            # one %-template per row writes the same text as f"{v:.16e}" per
            # value, with one Python formatting call a row instead of one a cell
            row_format = ",".join(["%.16e"] * len(order)) + "\n"
            for row in zip(*(data[k] for k in order)):
                fh.write(row_format % row)
        with open(os.path.join(out_dir, "summary.json"), "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        if emit_plots:
            _emit_plot_scripts(out_dir, order)
        return csv_path
    except OSError as exc:
        raise IoError(str(exc)) from exc


_PLOT_PANELS = {
    "populations": ["n0", "n1", "n2", "n3"],
    "currents": ["j01", "j12", "j23"],
    "controls_fewmode": ["E0", "E3", "J01", "J23"],
    "controls_variational": ["V0", "V3"],
    "gain_loss": ["gamma"],
}


def _emit_plot_scripts(out_dir, order):
    import os
    for panel, series in _PLOT_PANELS.items():
        present = [s for s in series if s in order]
        if not present:
            continue
        lines = [
            "set datafile separator ','",
            f"set title '{panel}'",
            "set xlabel 't'",
            "set key autotitle columnheader",
            "plot \\",
        ]
        plots = [
            f"  'timeseries.csv' using 1:{order.index(s) + 1} with lines"
            for s in present
        ]
        lines.append(", \\\n".join(plots))
        with open(os.path.join(out_dir, f"plot_{panel}.gp"), "w") as fh:
            fh.write("\n".join(lines) + "\n")


def read_timeseries(path):
    """Load a timeseries.csv back into (times, column dict).

    A file without a ``t`` column or without records, with a cell that is
    not a finite number, a row of the wrong length or times that do not
    increase, is a ParseError that names the file."""
    try:
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            rows = fh.read().splitlines()
    except OSError as exc:
        raise IoError(str(exc)) from exc
    if "t" not in header:
        raise ParseError(f"{path}: no 't' column in the header")
    if not any(row.strip() for row in rows):
        raise ParseError(f"{path}: no records")
    try:
        data = np.loadtxt(rows, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
    if data.shape[1] != len(header):
        raise ParseError(f"{path}: column count mismatch")
    cols = {name: data[:, i] for i, name in enumerate(header)}
    t = cols.pop("t")
    # compare_runs interpolates in t, which needs increasing sample times
    if not (np.isfinite(t).all() and np.all(np.diff(t) > 0.0)):
        raise ParseError(f"{path}: the times in column 't' do not increase")
    for name, col in cols.items():
        if not np.isfinite(col).all():
            raise ParseError(f"{path}: column '{name}' has a non-finite cell")
    return t, cols


def compare_runs(a, b):
    """Time-aligned deviations between two record sets.

    ``a`` and ``b`` are (times, columns) pairs; returns max and RMS
    deviations of the shared middle-well observables and depth controls
    over the overlapping time range.
    """
    ta, ca = a
    tb, cb = b
    lo, hi = max(ta[0], tb[0]), min(ta[-1], tb[-1])
    if hi <= lo:
        raise NoOverlap(f"no overlapping time range ([{ta[0]}, {ta[-1]}] vs [{tb[0]}, {tb[-1]}])")
    grid = np.linspace(lo, hi, 2001)
    report = {"t_overlap": [float(lo), float(hi)]}
    keys = [k for k in ("n1", "n2", "j12", "V0", "V3") if k in ca and k in cb]
    for key in keys:
        va = np.interp(grid, ta, ca[key])
        vb = np.interp(grid, tb, cb[key])
        dev = va - vb
        report[key] = {
            "max_abs_deviation": float(np.max(np.abs(dev))),
            "rms_deviation": float(np.sqrt(np.mean(dev**2))),
        }
    return report


def _read_config(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read config: {exc}") from exc
    return parse_config(text)


def _cmd_run(args):
    cfg = _read_config(args.config)
    status, ts, cols, summary = run_scenario(cfg)
    summary["exit_status"] = status
    out_dir = args.out or cfg.get("output", "dir", "out")
    csv_path = write_outputs(ts, cols, summary, out_dir, emit_plots=args.emit_plots)
    print(f"{cfg.scenario}: status {status}, {len(ts)} records -> {csv_path}")
    if summary.get("breakdown_time") is not None:
        print(f"breakdown at t = {summary['breakdown_time']:.6g}"
              f" ({summary['breakdown_reason']}): {summary['breakdown_message']}")
    return status


def _cmd_compare(args):
    a = read_timeseries(args.a)
    b = read_timeseries(args.b)
    print(json.dumps(compare_runs(a, b), indent=2, sort_keys=True))
    return 0


def _cmd_fit(args):
    cfg = _read_config(args.config)
    wells = _trap(cfg)
    units = _units(cfg)
    basis, d_amp, energy = dnlse.fit_ground_state(wells, units)
    out = {
        "energy": float(energy),
        "A_x": [complex(v).real for v in basis.A_x],
        "A_y": [complex(v).real for v in basis.A_y],
        "A_z": [complex(v).real for v in basis.A_z],
        "q_z": [float(v) for v in basis.q_z],
        "amplitudes": [float(v.real) for v in d_amp],
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def _cmd_params(args):
    cfg = _read_config(args.config)
    wells = _trap(cfg)
    units = _units(cfg)
    basis, d_amp, energy = dnlse.fit_ground_state(wells, units)
    eff = dnlse.effective_model(basis, wells, units)
    print(f"# effective model (energies in E0 = {units.E0_hz:.4f} Hz * h)")
    print("well  onsite          interaction")
    for k in range(wells.size):
        print(f"{k:>4}  {eff.onsite[k]: .8e}  {eff.interaction[k]: .8e}")
    print("pair  tunneling")
    for k in range(wells.size - 1):
        print(f"{k},{k + 1}  {eff.tunneling[k]: .8e}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ptembed",
        description="Balanced gain/loss dynamics embedded in closed four-well systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a scenario from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--emit-plots", action="store_true")
    p_cmp = sub.add_parser("compare", help="compare two recorded time series")
    p_cmp.add_argument("--a", required=True)
    p_cmp.add_argument("--b", required=True)
    p_fit = sub.add_parser("fit", help="ground-state fit only")
    p_fit.add_argument("--config", required=True)
    p_par = sub.add_parser("params", help="print the effective model table")
    p_par.add_argument("--config", required=True)
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "fit":
            return _cmd_fit(args)
        return _cmd_params(args)
    except PtError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
