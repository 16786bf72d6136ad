"""Balanced gain/loss quantum dynamics embedded in closed four-well systems.

Modules by layer: :mod:`ptembed.numerics` (ODE integrator, root finder,
minimizer), :mod:`ptembed.fewmode` (discrete mode models: the PT two-mode
reference), :mod:`ptembed.embedding` (control synthesis turning the
Hermitian four-mode system into an effective two-mode gain/loss system),
:mod:`ptembed.dnlse` (Gaussian-basis reduction of the Gross-Pitaevskii
equation to a discrete model), :mod:`ptembed.variational` (fully
time-dependent Gaussian ansatz), :mod:`ptembed.special` (the complex error
function) and :mod:`ptembed.cli` (scenario orchestration and file
outputs).

The package runs on numpy alone; scipy is needed only by the tests, as an
independent reference.
"""

from .errors import PtError

__version__ = "0.1.0"

__all__ = ["PtError", "__version__"]
