"""Command-line front end: config parsing, scenario orchestration, outputs.

Subcommands::

    ptembed run --config cfg [--out DIR] [--emit-plots]
    ptembed compare --a run_a/timeseries.csv --b run_b/timeseries.csv
    ptembed fit --config cfg
    ptembed params --config cfg

Configs are strict line-based ``key = value`` files with ``[section]``
headers; unknown keys and non-finite numbers are rejected. ``SCENARIOS``
lists the ``[scenario]`` keys each scenario reads and ``SECTIONS`` the
others, each with its default and domain; a key the scenario does not read
(a ``[trap]`` or ``[units]`` key in an abstract scenario among them), and a
value outside its key's domain, are rejected by line number, and a stride
or control_dt too small for t_end (``_SIZE_BOUNDS``) by name. Abstract
scenarios (stationary, oscillatory, collapse) use internal units with the
middle coupling as the energy scale; physical scenarios (adiabatic_fewmode, adiabatic_variational)
measure energies in E0 = hbar^2 / (m w_z^2) and times in t0 = hbar / E0.

Exit status: 0 = completed, 2 = controlled breakdown (a physical result),
1 = error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import dnlse, embedding, variational
from .errors import (DegenerateInput, IoError, MissingKey, NoOverlap, ParseError, PtError,
                     SingularMetric, UnitError)
from .numerics import IntegratorSettings

# A key's domain: a test of its (finite) value and the rule an error states.
POSITIVE = (lambda v: v > 0, "be positive")
NEGATIVE = (lambda v: v < 0, "be negative")
NON_NEGATIVE = (lambda v: v >= 0, "not be negative")
AT_LEAST_1 = (lambda v: v >= 1, "be at least 1")
WHOLE = (lambda v: v >= 1 and v == int(v), "be a whole number of at least 1")
NONZERO = (lambda v: v != 0, "be nonzero")
FINITE = (lambda v: True, "be finite")
UNIT_INTERVAL = (lambda v: 0 <= v <= 1, "lie in [0, 1]")
ABOVE_MINUS_1 = (lambda v: v > -1, "be greater than -1")
SYMMETRIC_UNIT = (lambda v: -1 <= v <= 1, "lie in [-1, 1]")

# scenario -> ({[integrator] key: default}, {[scenario] key: (default,
# domain)}): the only place a scenario default is written and the only list
# of the [scenario] keys a scenario reads. Near-breakdown runs need tight
# tolerances to hold the total norm. The stationary state that stationary and
# collapse start from exists for |gamma| <= J12 = 1. No 2-norm condition
# number is below 1, and a negative depletion floor is no guard.
SCENARIOS = {
    "stationary": (dict(rel_tol=1e-10, abs_tol=1e-12), dict(
        t_end=(5.0, POSITIVE), gamma=(0.5, SYMMETRIC_UNIT), c=(0.0, FINITE),
        d=(1.0, NONZERO), reservoir_0=(math.sqrt(3.0), NONZERO), reservoir_3=(0.7, FINITE),
        cond_limit=(1e12, AT_LEAST_1), depletion_floor=(1e-4, NON_NEGATIVE))),
    "oscillatory": (dict(rel_tol=1e-12, abs_tol=1e-14), dict(
        t_end=(30.0, POSITIVE), gamma=(0.5, FINITE), c=(0.0, FINITE),
        d=(-1.0, NONZERO), reservoir_0=(3.0, NONZERO), reservoir_3=(0.8, FINITE),
        cond_limit=(1e12, AT_LEAST_1), depletion_floor=(1e-4, NON_NEGATIVE),
        psi1_abs2=(0.6, UNIT_INTERVAL))),
    "collapse": (dict(rel_tol=1e-12, abs_tol=1e-14), dict(
        t_end=(30.0, POSITIVE), gamma=(0.9, SYMMETRIC_UNIT), c=(-1.0, FINITE),
        d=(-1.0, NONZERO), reservoir_0=(3.0, NONZERO), reservoir_3=(0.8, FINITE),
        cond_limit=(1e12, AT_LEAST_1), depletion_floor=(1e-4, NON_NEGATIVE),
        perturbation=(0.01, ABOVE_MINUS_1))),
    "adiabatic_fewmode": (dict(rel_tol=1e-10, abs_tol=1e-12), dict(
        t_end=(70.0, POSITIVE), gamma_f_rel=(0.5, FINITE), t_f=(60.0, POSITIVE),
        cond_limit=(1e14, AT_LEAST_1), depletion_floor=(1e-3, NON_NEGATIVE))),
    "adiabatic_variational": (dict(rel_tol=1e-7, abs_tol=1e-9), dict(
        t_end=(70.0, POSITIVE), gamma_f_rel=(0.5, FINITE), t_f=(60.0, POSITIVE),
        control_dt=(0.5, POSITIVE), control_tol=(1e-8, POSITIVE))),
}

# section -> {key: (default, domain)} outside [scenario]; domain None marks a
# string. Every scenario reads [integrator] and [output] (adiabatic_variational,
# which records at its control-interval ends, no stride), and the physical
# ones [trap] and [units]. rel_tol and abs_tol default to the scenario's.
SECTIONS = {
    "integrator": dict(rel_tol=(None, POSITIVE), abs_tol=(None, POSITIVE),
                       max_step=(math.inf, POSITIVE), max_steps=(1_000_000, WHOLE)),
    "trap": dict(depth_outer=(-60.0, NEGATIVE), depth_inner=(-45.0, NEGATIVE),
                 spacing=(1.8, POSITIVE)),
    "units": dict(w_z=(1e-6, POSITIVE), n_atoms=(1e5, NON_NEGATIVE),
                  a_scat_bohr=(2.83, NON_NEGATIVE)),
    "output": dict(dir=("out", None), stride=(0.02, POSITIVE)),
}

# the scenarios on the fitted Gaussian trap, the only ones that read [trap]
# and [units]
_PHYSICAL = ("adiabatic_fewmode", "adiabatic_variational")

# Bounds on t_end over the key's value, checked before a run starts, so that
# a tiny stride or control_dt is refused instead of exhausting memory or
# time. On a 2-core x86-64 host 1e6 records take about 20 s, 0.65 GB of
# memory and a 0.35 GB CSV (3,501 by default), and 1e5 control intervals,
# at 4.5 ms or more each, 8 minutes to over an hour (140 by default).
_SIZE_BOUNDS = {("output", "stride"): (1_000_000, "records"),
                ("scenario", "control_dt"): (100_000, "control intervals")}


def _key_table(name):
    """(section, key) -> (default, domain) of every key scenario ``name`` reads."""
    tolerances, keys = SCENARIOS[name]
    table = {("scenario", "name"): (name, None)}
    table.update((("scenario", key), entry) for key, entry in keys.items())
    for section in ("integrator", "output", *(("trap", "units") if name in _PHYSICAL else ())):
        for key, (default, domain) in SECTIONS[section].items():
            table[section, key] = (tolerances.get(key, default), domain)
    if name == "adiabatic_variational":
        del table["output", "stride"]
    return table


_KEYS = {name: _key_table(name) for name in SCENARIOS}
# every (section, key) that some scenario reads -> whether it holds a string
_KNOWN = {k: domain is None for table in _KEYS.values() for k, (_, domain) in table.items()}


@dataclass
class ScenarioConfig:
    """A parsed config: ``values`` maps each (section, key) the scenario
    reads to its value, the default where the config sets none."""

    scenario: str
    values: dict

    def __getitem__(self, key):
        return self.values["scenario", key]

    def get(self, section, key):
        """The value of [section] key, or None if the scenario does not read it."""
        return self.values.get((section, key))


def parse_config(text):
    """Strict ``key = value`` configuration with ``[section]`` headers. A key
    the named scenario does not read, or a value outside its key's domain, is
    an error that names its line; a [units] value is refused as a UnitError.
    A stride or control_dt that asks for more records or control intervals
    over t_end than ``_SIZE_BOUNDS`` allows is an error that names the key."""
    lines = {}
    section = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError(f"line {ln}: unterminated section header")
            section = line[1:-1].strip()
            if section != "scenario" and section not in SECTIONS:
                raise ParseError(f"line {ln}: unknown section '{section}'")
            continue
        if "=" not in line:
            raise ParseError(f"line {ln}: expected 'key = value'")
        if section is None:
            raise ParseError(f"line {ln}: key outside any [section]")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if (section, key) not in _KNOWN:
            raise ParseError(f"line {ln}: unknown key '{key}' in [{section}]")
        if (section, key) in lines:
            raise ParseError(f"line {ln}: duplicate key '{key}'")
        if not _KNOWN[section, key]:
            try:
                number = float(value)
            except ValueError:
                raise ParseError(
                    f"line {ln}: cannot parse numeric value '{value}' for '{key}'") from None
            if not math.isfinite(number):
                raise ParseError(f"line {ln}: '{key}' must be finite, got '{value}'")
            value = number
        lines[section, key] = ln, value
    if ("scenario", "name") not in lines:
        raise MissingKey("missing [scenario] name")
    name = lines["scenario", "name"][1]
    if name not in SCENARIOS:
        raise ParseError(f"unknown scenario '{name}'")
    table = _KEYS[name]
    values = {k: default for k, (default, _) in table.items()}
    for (section, key), (ln, value) in lines.items():
        if (section, key) not in table:
            raise ParseError(
                f"line {ln}: [{section}] {key} is not read by scenario '{name}'")
        test, rule = table[section, key][1] or FINITE  # a string is taken as it is
        if not test(value):
            if section == "units":
                raise UnitError(f"line {ln}: {key} must {rule}, not {value!r}")
            raise ParseError(f"line {ln}: [{section}] {key} must {rule}")
        values[section, key] = value
    t_end = values["scenario", "t_end"]
    for (section, key), (bound, what) in _SIZE_BOUNDS.items():
        if (section, key) in values and t_end / values[section, key] > bound:
            raise ParseError(f"[{section}] {key} = {values[section, key]!r} is too small for "
                             f"t_end = {t_end!r}: it asks for more than {bound:,} {what}")
    return ScenarioConfig(name, values)


def _integrator(cfg):
    settings = {key: cfg.get("integrator", key) for key in SECTIONS["integrator"]}
    settings["max_steps"] = int(settings["max_steps"])
    return IntegratorSettings(**settings)


def _trap(cfg):
    if cfg.scenario not in _PHYSICAL:
        raise ParseError(f"scenario '{cfg.scenario}' has no [trap] to fit")
    try:
        return dnlse.standard_four_well(**{key: cfg.get("trap", key) for key in SECTIONS["trap"]})
    except ValueError as exc:
        # the depths' domains hold, so it is a spacing so small (a few
        # subnormals) that the well positions round to equal values
        raise ParseError(f"[trap] spacing = {cfg.get('trap', 'spacing')!r}: {exc}") from None


def _units(cfg):
    return dnlse.UnitSystem.rubidium87(
        w_z=cfg.get("units", "w_z"),
        N=cfg.get("units", "n_atoms"),
        a_scat=cfg.get("units", "a_scat_bohr") * dnlse.BOHR_RADIUS,
    )


def _sample_times(t_grid_end, stride):
    n = int(math.floor(t_grid_end / stride + 1e-9))
    ts = stride * np.arange(n + 1)
    if ts[-1] < t_grid_end - 1e-12:
        ts = np.append(ts, t_grid_end)
    return ts


def _record(n, j, gamma, controls, run, t_final, norms, work, diagnostics=None):
    """Columns and summary entries of a controlled run of either level:
    populations ``n`` (a row of four per sample), currents ``j`` (a row of
    three), the level's ``controls``, gamma, the breakdown flag and the
    level's ``diagnostics``; the end time, ``run``'s breakdown, the drift of
    the total norm between ``norms`` (the run's first and last populations)
    and the ``work`` counters, among them the integrator's three."""
    cols = {
        "n0": n[:, 0], "n1": n[:, 1], "n2": n[:, 2], "n3": n[:, 3],
        "j01": j[:, 0], "j12": j[:, 1], "j23": j[:, 2],
        **controls, "gamma": gamma, "breakdown": np.zeros(len(n)), **(diagnostics or {}),
    }
    if run.broke_down:
        cols["breakdown"][-1] = 1.0
    summary = {
        "t_final": float(t_final),
        "breakdown_time": run.breakdown_time,
        "breakdown_reason": run.breakdown_reason,
        "breakdown_message": run.breakdown_message,
        "total_norm_drift": float(abs(np.sum(norms[1]) - np.sum(norms[0]))),
        **work,
    }
    return cols, summary


def _fewmode_record(cfg, run, gauge_shift=0.0):
    """Sample times, columns and summary entries of a controlled four-mode
    run, with the controls from one ``controls_at`` call over the sample
    grid. The condition audit reads the controls at the accepted steps,
    where the integrator already evaluated the kernel without a breakdown."""
    traj = run.trajectory
    ts = _sample_times(traj.t[-1], cfg.get("output", "stride"))
    psi = traj.sample(ts)
    cs = run.controls_at(ts, psi)
    jt = -2.0 * (psi[:, :-1] * np.conj(psi[:, 1:])).imag  # j~_{k,k+1}
    cols, summary = _record(
        np.abs(psi) ** 2,
        np.column_stack([cs.J01 * jt[:, 0], run.j12 * jt[:, 1], cs.J23 * jt[:, 2]]), cs.gamma,
        controls={"E0": cs.E0 - gauge_shift, "E3": cs.E3 - gauge_shift,
                  "J01": cs.J01, "J23": cs.J23},
        run=run, t_final=traj.t[-1], norms=np.abs(traj.y[[0, -1]]) ** 2,
        work={"accepted_steps": traj.accepted_steps, "rejected_steps": traj.rejected_steps,
              "rhs_evals": traj.rhs_evals},
        diagnostics={"lgs_condition": cs.lgs_condition})
    residuals = embedding.check_conditions(traj.y, run.controls_at(traj.t, traj.y))
    summary["max_condition_residual"] = float(np.max(np.abs(residuals)))
    return ts, cols, summary


def _run_abstract(cfg):
    """stationary / oscillatory / collapse: internal units, middle coupling 1."""
    name = cfg.scenario
    gamma, c, d = cfg["gamma"], cfg["c"], cfg["d"]
    if name == "oscillatory":
        a1 = cfg["psi1_abs2"]
        psi1, psi2 = math.sqrt(a1), math.sqrt(1.0 - a1)
    else:
        psi1, psi2 = embedding.pt_stationary_state(gamma, c=c)
        if name == "collapse":  # perturbed stationary state
            psi1 = psi1 * math.sqrt(1.0 + cfg["perturbation"])
    psi0 = embedding.build_initial_state(
        psi1, psi2, cfg["reservoir_0"], cfg["reservoir_3"], gamma, d)
    run = embedding.run_controlled(
        psi0, cfg["t_end"], embedding.constant_gamma(gamma), d,
        np.array([0.0, c, c, 0.0]), settings=_integrator(cfg),
        cond_limit=cfg["cond_limit"], depletion_floor=cfg["depletion_floor"],
    )
    ts, cols, record = _fewmode_record(cfg, run)
    summary = {"scenario": name, "gamma": gamma, "c": c, "d": d, **record}
    if name == "stationary":
        summary["slope_n0"] = float(np.polyfit(ts, cols["n0"], 1)[0])
        summary["slope_n3"] = float(np.polyfit(ts, cols["n3"], 1)[0])
    if name == "collapse":
        n1 = cols["n1"]
        summary["n1_growth_factor"] = float(n1[-1] / n1[0])
        summary["n1_monotone"] = bool(np.all(np.diff(n1) > -1e-12))
    return ts, cols, summary


def _fitted_system(cfg):
    """The trap and units of ``cfg``, its ground-state fit and the effective
    model. A fit whose overlap matrix K is singular, or less well
    conditioned than the Gram solve accepts, stacks the wells: it is refused."""
    wells = _trap(cfg)
    units = _units(cfg)
    basis, d_amp, energy = dnlse.fit_ground_state(wells, units)
    try:
        rcond = variational.inverse_and_rcond(variational.gaussian_overlaps(basis))[1]
    except np.linalg.LinAlgError:
        rcond = 0.0
    if not rcond >= variational.METRIC_RCOND_MIN:
        raise DegenerateInput(
            f"[trap] spacing = {cfg.get('trap', 'spacing')!r} stacks the wells: the fitted "
            f"overlap matrix has reciprocal condition number {rcond:.3e} "
            f"< {variational.METRIC_RCOND_MIN:g}")
    eff = dnlse.effective_model(basis, wells, units)
    return wells, units, basis, d_amp, energy, eff


def _ramp(cfg, eff):
    """Cosine ramp of gamma to gamma_f_rel times the fitted middle tunneling."""
    return embedding.RampSchedule(gamma_f=cfg["gamma_f_rel"] * float(eff.tunneling[1]),
                                  t_f=cfg["t_f"])


def _ramp_summary(cfg, energy, schedule, ts, cols):
    """Summary entries of the two adiabatic scenarios: the ramp, and how
    still and balanced the middle pair ends."""
    n1, n2 = cols["n1"], cols["n2"]
    tail = ts >= schedule.t_f
    return {
        "scenario": cfg.scenario,
        "fit_energy": float(energy),
        "gamma_f": schedule.gamma_f, "t_f": schedule.t_f,
        "n1_tail_drift": float((n1[tail].max() - n1[tail].min()) / n1[-1])
        if np.any(tail) else None,
        "middle_imbalance": float(abs(n1[-1] - n2[-1]) / n1[-1]),
    }


def _run_adiabatic_fewmode(cfg):
    wells, units, basis, d_amp, energy, eff = _fitted_system(cfg)
    schedule = _ramp(cfg, eff)
    j12 = float(eff.tunneling[1])
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
    run = embedding.run_controlled(
        x.astype(complex), cfg["t_end"], schedule, d,
        c, j12=j12, e1=e1 + shift, e2=e2 + shift, settings=_integrator(cfg),
        cond_limit=cfg["cond_limit"], depletion_floor=cfg["depletion_floor"],
    )
    ts, cols, record = _fewmode_record(cfg, run, gauge_shift=shift)
    summary = {
        **_ramp_summary(cfg, energy, schedule, ts, cols),
        "effective_tunneling": [float(v) for v in eff.tunneling],
        "effective_onsite": [float(v) for v in eff.onsite],
        "effective_interaction": [float(v) for v in c],
        "d": float(d),
        **record,
    }
    return ts, cols, summary


def _run_adiabatic_variational(cfg):
    wells, units, basis, d_amp, energy, eff = _fitted_system(cfg)
    schedule = _ramp(cfg, eff)
    state = variational.VariationalState.from_basis(basis, d_amp)
    state = variational.relax_to_fixed_point(state, wells, units)
    try:
        variational.assemble_eom(state, variational.TrapKernel(wells, units))
    except SingularMetric as exc:
        raise DegenerateInput(
            f"[trap] spacing = {cfg.get('trap', 'spacing')!r} stacks the wells: at the "
            f"relaxed initial state, the {exc}") from None
    record = variational.run_variational_scenario(
        wells, units, schedule, cfg["t_end"],
        control_dt=cfg["control_dt"], state=state, settings=_integrator(cfg),
        control_tol=cfg["control_tol"],
    )
    ts = record.t
    # the work tally holds the depth search's totals besides the integrator's
    cols, shared = _record(
        record.n, record.j, record.gamma,
        controls={"V0": record.depths[:, 0], "V3": record.depths[:, 3],
                  **{f"delta{k}": record.delta[:, k] for k in range(4)}},
        run=record, t_final=ts[-1], norms=record.n[[0, -1]], work=record.work)
    return ts, cols, {**_ramp_summary(cfg, energy, schedule, ts, cols), **shared}


def run_scenario(cfg: ScenarioConfig):
    """Dispatch a scenario; returns (status, times, columns, summary), with
    status 2 for a run that broke down and 0 for one that completed."""
    if cfg.scenario not in SCENARIOS:
        raise ParseError(f"unknown scenario '{cfg.scenario}'")
    runner = {"adiabatic_fewmode": _run_adiabatic_fewmode,
              "adiabatic_variational": _run_adiabatic_variational}.get(cfg.scenario, _run_abstract)
    ts, cols, summary = runner(cfg)
    return (0 if summary["breakdown_time"] is None else 2), ts, cols, summary


def write_outputs(ts, cols, summary, out_dir, emit_plots=False):
    import os
    try:
        os.makedirs(out_dir, exist_ok=True)
        # the columns in the order of ``cols``, after the sample times
        data = {"t": ts, **cols}
        order = list(data)
        csv_path = os.path.join(out_dir, "timeseries.csv")
        with open(csv_path, "w") as fh:
            fh.write(",".join(order) + "\n")
            # one %-template per row writes the same text as f"{v:.16e}" per
            # value, with one Python formatting call a row instead of one a cell
            row_format = ",".join(["%.16e"] * len(order)) + "\n"
            for row in zip(*data.values()):
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
    out_dir = args.out or cfg.get("output", "dir")
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
    _, _, basis, d_amp, energy, _ = _fitted_system(_read_config(args.config))
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
    wells, units, _, _, _, eff = _fitted_system(_read_config(args.config))
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
    except (PtError, Warning) as exc:
        # a Warning arrives here raised, where the warnings filter (say,
        # PYTHONWARNINGS=error::RuntimeWarning) makes it an error
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
