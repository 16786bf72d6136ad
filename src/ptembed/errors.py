"""Exception hierarchy, and the one warning class, shared by all ptembed modules."""


class PtError(Exception):
    """Base class for all ptembed errors.

    Errors raised inside an ODE right-hand side are annotated by the
    integrator with the partial trajectory accumulated so far (attributes
    ``trajectory`` and ``t_fail``), so callers can recover the run up to
    the failure point. Errors that end a root search carry the search's
    partial report (attribute ``report``).
    """

    trajectory = None
    t_fail = None
    report = None


# --- numerics ---

class StepLimitExceeded(PtError):
    """Adaptive integrator hit its step budget."""


class NonFiniteDerivative(PtError):
    """ODE right-hand side produced NaN/Inf (collapse or controller failure)."""


class StepSizeUnderflow(PtError):
    """Adaptive step size fell below the resolution of the time variable."""


class NoConvergence(PtError):
    """Iterative solver stopped without meeting its tolerance."""


class NonFiniteFunction(PtError):
    """Root-search objective returned NaN/Inf."""


class ConvergenceWarning(RuntimeWarning):
    """A ground-state fit stopped above its gradient tolerance; the best
    iterate is returned (warning, not error)."""


# --- few-mode models ---

class SizeMismatch(PtError):
    """State and model dimensions disagree."""


class UnsupportedSize(PtError):
    """Operation is only defined for specific model sizes."""


# --- embedding control ---

class ZeroCoupling(PtError):
    """Coupling scalar d must be nonzero."""


class ControlSingular(PtError):
    """Onsite-energy control system became singular (reservoir depleted)."""


class DegenerateInput(PtError):
    """Initial-state construction received degenerate inputs."""


# --- Gaussian basis / variational ---

class NonNormalizable(PtError):
    """Gaussian parameters violate Re(A) > 0."""


class OutOfRange(PtError):
    """Potential inversion left the admissible parameter domain."""


class SingularMetric(PtError):
    """The variational Gram matrix is singular, or too ill-conditioned to
    solve: the ansatz has (near-)redundant Gaussians."""


class ControlSearchFailed(PtError):
    """The root search on the outer well depths, run once per control
    interval, stalled or tried a depth >= 0."""


# --- CLI ---

class ParseError(PtError):
    """A configuration or time-series file could not be parsed."""


class MissingKey(PtError):
    """Configuration is missing a required key."""


class UnitError(PtError):
    """Configuration value has inconsistent units."""


class IoError(PtError):
    """A config or output file could not be read or written."""


class NoOverlap(PtError):
    """Two record sequences share no common time range."""
