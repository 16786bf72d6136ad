"""Balanced gain/loss quantum dynamics embedded in closed four-well systems.

Modules by layer: :mod:`ptembed.numerics` (ODE integrator, root finder,
minimizer), :mod:`ptembed.fewmode` (discrete mode models and observables),
:mod:`ptembed.embedding` (control synthesis turning the Hermitian four-mode
system into an effective two-mode gain/loss system), :mod:`ptembed.dnlse`
(Gaussian-basis reduction of the Gross-Pitaevskii equation to a discrete
model), :mod:`ptembed.variational` (fully time-dependent Gaussian ansatz),
and :mod:`ptembed.cli` (scenario orchestration and file outputs).

Only numpy is imported at module level. scipy is imported inside the
functions that call it (the variational metric solve and the wall
observables), so few-mode runs and ground-state fits never load it.
"""

from .errors import PtError

__version__ = "0.1.0"

__all__ = ["PtError", "__version__"]
