"""Per-layer tracing by wrapping the layers' public functions from outside.

``Tracer.installed()`` replaces each traced function at every module
attribute through which ptembed's own callers look it up (for example
``embedding.integrate_adaptive`` and ``variational.integrate_adaptive``
both name ``numerics.integrate_adaptive``) and restores the originals on
exit. Calls are aggregated per function into counters and busy time; no
individual spans are kept, because the hot leaves run 10^5 times a pass.

Self time is a call's duration minus the time of the traced calls it made.
The callables a layer hands to the numerics (ODE right-hand sides, root
functions, energies) are counted as leaves of the numerics function; the
time they spend outside other traced calls is self time of the function
that called the numerics, since it is that layer's code.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass

from ptembed import cli, dnlse, embedding, fewmode, numerics, variational


@dataclass
class Stat:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    steps: int = 0           # accepted integrator steps
    rejected: int = 0        # rejected integrator steps
    iterations: int = 0      # root-search iterations
    unconverged: int = 0     # root searches that did not converge
    integrations: int = 0    # integrator calls made inside the call
    bytes: int = 0           # bytes written


# exact work counters: identical on every pass of a deterministic program
EXACT_FIELDS = ("calls", "steps", "rejected", "iterations", "unconverged",
                "integrations", "bytes")

# Dormand-Prince 5(4) with FSAL: one evaluation at the start, then six new
# stages per attempted step (accepted or rejected).
_STAGES_PER_STEP = 6

# traced function -> the modules whose attribute of that name callers use
_SITES = {
    (numerics, "integrate_adaptive"): (numerics, embedding, fewmode, variational),
    (numerics, "root_find"): (numerics, dnlse, variational),
    (numerics, "minimize_norm_constrained"): (numerics, dnlse),
    (fewmode, "model_rhs"): (fewmode, embedding),
    (embedding, "synth_onsite"): (embedding,),
    (embedding, "run_controlled"): (embedding,),
    (dnlse, "fit_ground_state"): (dnlse,),
    (dnlse, "mean_field_energy"): (dnlse,),
    (dnlse, "interaction_tensor"): (dnlse,),
    (dnlse, "effective_model"): (dnlse,),
    (dnlse, "invert_to_potential"): (dnlse,),
    (variational, "assemble_eom"): (variational,),
    (variational, "box_observables"): (variational,),
    (variational, "controlled_step"): (variational,),
    (variational, "relax_to_fixed_point"): (variational,),
    (cli, "run_scenario"): (cli,),
    (cli, "write_outputs"): (cli,),
}

# the callable argument each numerics function evaluates
_LEAF_ARG = {
    "numerics.integrate_adaptive": "rhs",
    "numerics.root_find": "f",
    "numerics.minimize_norm_constrained": "energy",
}


class Tracer:
    def __init__(self):
        self.stats = {}
        # open calls, innermost last: [stat credited with self time,
        # time spent in traced calls made from it]
        self._stack = []

    def stat(self, name):
        return self.stats.setdefault(name, Stat())

    def _call(self, stat, fn, args, kwargs, owner=None):
        stack = self._stack
        frame = [owner or stat, 0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][1] += dt
            stat.calls += 1
            stat.busy_s += dt
            frame[0].self_s += dt - frame[1]

    def _wrap(self, name, fn):
        stat = self.stat(name)
        if name in _LEAF_ARG:
            return self._wrap_numerics(name, stat, fn)
        integrator = self.stat("numerics.integrate_adaptive")

        def traced(*args, **kwargs):
            before = integrator.calls
            try:
                result = self._call(stat, fn, args, kwargs)
            finally:
                stat.integrations += integrator.calls - before
            if name == "cli.write_outputs":
                out_dir = args[3] if len(args) > 3 else kwargs["out_dir"]
                stat.bytes += sum(os.path.getsize(os.path.join(out_dir, f))
                                  for f in ("timeseries.csv", "summary.json"))
            elif name == "variational.controlled_step":
                stat.iterations += result[0].iterations
            return result

        return traced

    def _wrap_numerics(self, name, stat, fn):
        """Trace a numerics function and count calls of its callable argument."""
        leaf_name = _LEAF_ARG[name]
        leaf = self.stat(f"{name}.{leaf_name}")

        def traced(*args, **kwargs):
            user_fn = args[0] if args else kwargs.pop(leaf_name)
            owner = self._stack[-1][0] if self._stack else None

            def counted(*a, **k):
                return self._call(leaf, user_fn, a, k, owner=owner)

            evals = leaf.calls
            try:
                result = self._call(stat, fn, (counted,) + args[1:], kwargs)
            except Exception as exc:
                self._record(stat, getattr(exc, "trajectory", None), leaf.calls - evals)
                raise
            self._record(stat, result, leaf.calls - evals)
            return result

        return traced

    def _record(self, stat, result, evals):
        if isinstance(result, numerics.Trajectory):
            attempted = -(-(evals - 1) // _STAGES_PER_STEP)
            stat.steps += len(result.t) - 1
            stat.rejected += attempted - (len(result.t) - 1)
        elif isinstance(result, numerics.RootFindReport):
            stat.iterations += result.iterations
            stat.unconverged += not result.converged

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for (home, attr), sites in _SITES.items():
                name = f"{home.__name__.rsplit('.', 1)[-1]}.{attr}"
                wrapper = self._wrap(name, getattr(home, attr))
                for module in sites:
                    saved.append((module, attr, getattr(module, attr)))
                    setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def exact_counters(self):
        return {(name, f): getattr(s, f) for name, s in self.stats.items()
                for f in EXACT_FIELDS if getattr(s, f)}

    def layer_metrics(self):
        """Per-layer metric values accumulated since construction."""
        s = self.stat
        integ = s("numerics.integrate_adaptive")
        attempted = integ.steps + integ.rejected
        metrics = {
            "numerics.integrate_adaptive.calls": (integ.calls, "count"),
            "numerics.integrate_adaptive.self_s": (integ.self_s, "s"),
            "numerics.integrate_adaptive.rhs_evals": (s("numerics.integrate_adaptive.rhs").calls, "count"),
            "numerics.integrate_adaptive.accepted_steps": (integ.steps, "count"),
            "numerics.integrate_adaptive.rejected_steps": (integ.rejected, "count"),
            "numerics.integrate_adaptive.accept_ratio":
                (integ.steps / attempted if attempted else 0.0, "ratio"),
        }
        root = s("numerics.root_find")
        metrics.update({
            "numerics.root_find.calls": (root.calls, "count"),
            "numerics.root_find.iterations": (root.iterations, "count"),
            "numerics.root_find.f_evals": (s("numerics.root_find.f").calls, "count"),
            "numerics.root_find.busy_s": (root.busy_s, "s"),
            "numerics.root_find.unconverged": (root.unconverged, "count"),
            "numerics.minimize_norm_constrained.busy_s":
                (s("numerics.minimize_norm_constrained").busy_s, "s"),
            "numerics.minimize_norm_constrained.energy_evals":
                (s("numerics.minimize_norm_constrained.energy").calls, "count"),
        })
        for name in ("dnlse.fit_ground_state", "dnlse.mean_field_energy",
                     "dnlse.interaction_tensor", "dnlse.effective_model",
                     "dnlse.invert_to_potential", "embedding.synth_onsite",
                     "fewmode.model_rhs", "variational.assemble_eom",
                     "variational.box_observables", "variational.controlled_step",
                     "variational.relax_to_fixed_point"):
            metrics[f"{name}.calls"] = (s(name).calls, "count")
            metrics[f"{name}.busy_s"] = (s(name).busy_s, "s")
        step = s("variational.controlled_step")
        metrics.update({
            "variational.controlled_step.root_iterations": (step.iterations, "count"),
            "variational.controlled_step.integrations": (step.integrations, "count"),
            "embedding.run_controlled.self_s": (s("embedding.run_controlled").self_s, "s"),
            "cli.run_scenario.self_s": (s("cli.run_scenario").self_s, "s"),
            "cli.write_outputs.busy_s": (s("cli.write_outputs").busy_s, "s"),
            "cli.write_outputs.bytes": (s("cli.write_outputs").bytes, "bytes"),
        })
        return metrics
