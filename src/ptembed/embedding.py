"""Synthesis of the time-dependent four-mode controls.

The two outer wells (0 and 3) act as particle reservoirs. Their couplings
J01, J23 and onsite energies E0, E3 are chosen at every instant so that the
middle wells reproduce the balanced gain/loss two-mode dynamics with
parameter gamma. Conventions (hbar = 1):

    n_k        = |psi_k|^2
    j~_kl      = i (psi_k psi_l* - psi_k* psi_l)
    C_kl       = psi_k psi_l* + psi_k* psi_l
    j_kl       = J_kl * j~_kl

The replication conditions are j01 = 2 gamma n1, j23 = 2 gamma n2,
J01 C02 = J23 C13 and J01 j~02 = J23 j~13; the fourth follows from the
first three and is only monitored, never enforced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ControlSingular,
    DegenerateInput,
    PtError,
    ZeroCoupling,
)
from .fewmode import model_rhs  # noqa: F401 (bench/tracing.py wraps it here)
from .numerics import IntegratorSettings, Trajectory, integrate_adaptive


@dataclass(frozen=True)
class ControlState:
    """Gain/loss parameter, coupling scalar and reservoir controls. The
    fields are floats at one state, or arrays over the samples of a grid."""

    gamma: float
    gamma_dot: float
    d: float
    J01: float | None = None
    J23: float | None = None
    E0: float | None = None
    E3: float | None = None
    lgs_condition: float | None = None

    def __post_init__(self):
        if self.d == 0.0:
            raise ZeroCoupling("coupling scalar d must be nonzero")


@dataclass(frozen=True)
class RampSchedule:
    """Cosine ramp gamma(t) = gamma_f [1 - cos(pi t / t_f)] / 2 for t <= t_f,
    gamma_f after; a call at time t returns gamma and its analytic time
    derivative, so the schedule is itself a ``gamma_fn``."""

    gamma_f: float
    t_f: float

    def __post_init__(self):
        if self.t_f <= 0:
            raise ValueError("t_f must be positive")

    def __call__(self, t):
        gamma_f, t_f = self.gamma_f, self.t_f
        if t >= t_f:
            return gamma_f, 0.0
        phase = math.pi * t / t_f
        return (gamma_f * (1.0 - math.cos(phase)) / 2.0,
                gamma_f * math.pi / (2.0 * t_f) * math.sin(phase))


def constant_gamma(gamma):
    """Gamma schedule for the fixed-parameter scenarios."""
    def fn(t):
        return gamma, 0.0
    return fn


def _control_kernel(psi, g, gd, d, nl, j12, e1, e2, cond_limit, depletion_floor=None):
    """Reservoir controls and the controlled derivative, from four Python
    complex amplitudes (the RHS: on vectors this short, scalar arithmetic is
    several times faster than numpy) or four arrays over samples, with
    ``g``, ``gd`` arrays too. ``nl`` holds four float nonlinearities.

    The body works on the real and imaginary parts of the amplitudes, in
    plain float products, and builds complex numbers only for the
    derivative it returns. It squares by multiplication (``x * x``: Python
    squares a float ``x ** 2`` by ``pow``, numpy an array by
    multiplication), so both paths do the same IEEE operations and the
    tables over samples equal the RHS's controls bit for bit.

    Returns ``(dpsi, J01, J23, E0, E3, condition)`` with ``dpsi`` a 4-tuple.
    Raises ControlSingular, naming the worst condition number, when the
    onsite system's 2-norm condition number reaches ``cond_limit`` at any
    sample. The RHS passes its ``depletion_floor``: a reservoir occupation
    n0 or n3 below it then raises ControlSingular first, and the condition
    number, which the RHS does not read, is None when the cheap regularity
    test below settles it.
    """
    p0, p1, p2, p3 = psi
    x0, y0, x1, y1 = p0.real, p0.imag, p1.real, p1.imag
    x2, y2, x3, y3 = p2.real, p2.imag, p3.real, p3.imag
    n0, n3 = x0 * x0 + y0 * y0, x3 * x3 + y3 * y3
    if depletion_floor is not None and (n0 < depletion_floor or n3 < depletion_floor):
        raise ControlSingular(f"reservoir depleted (n0={n0:.3e}, n3={n3:.3e})")
    n1, n2 = x1 * x1 + y1 * y1, x2 * x2 + y2 * y2
    c0, c1, c2, c3 = nl
    # u_kl = C_kl / 2 = Re(psi_k psi_l*) and v_kl = j~_kl / 2 = -Im(psi_k psi_l*).
    # The factors 2 and 4 that C and j~ bring into the formulas sit in d2, d4
    # and g4: scaling by a power of 2 is exact, so every value below equals,
    # bit for bit, the one computed from C and j~, in fewer operations
    u01, u02 = x0 * x1 + y0 * y1, x0 * x2 + y0 * y2
    u13, u23 = x1 * x3 + y1 * y3, x2 * x3 + y2 * y3
    v01, v02 = x0 * y1 - y0 * x1, x0 * y2 - y0 * x2
    v12, v13 = x1 * y2 - y1 * x2, x1 * y3 - y1 * x3
    v23 = x2 * y3 - y2 * x3
    d2 = 2.0 * d
    d4 = 2.0 * d2
    j01c, j23c = d2 * u13, d2 * u02

    # coefficient matrix of the onsite-energy system (affine in E0, E3)
    a11 = d4 * u01 * u13
    a12 = d4 * v01 * v13
    a21 = -d4 * v02 * v23
    a22 = -d4 * u02 * u23
    det = a11 * a22 - a12 * a21
    # 2-norm condition number of the 2x2 matrix: the squared singular values
    # are (sq +- root) / 2, whose product is det^2, so cond = (sq + root) /
    # (2 |det|). root = sqrt(sq^2 - 4 det^2) is taken in its product form,
    # which does not cancel when the singular values are close, and the
    # difference sq - root, which cancels when they are far apart, is avoided.
    # As root <= sq, sq < cond_limit |det| implies cond < cond_limit: on the
    # RHS that cheap test settles regularity, and only a state that fails it
    # takes the square root for the exact test. The tables run both tests
    # and accept a sample that passes either, so they decide as the RHS
    # does. Each test compares products: False where det = 0 or a value is
    # NaN, with no division by zero. A Python bool is the scalar path's
    # answer.
    sq = a11 * a11 + a12 * a12 + a21 * a21 + a22 * a22
    adet = abs(det)
    regular = sq < cond_limit * adet
    cond = None
    if regular is not True or depletion_floor is None:
        sqrt = np.sqrt if isinstance(sq, np.ndarray) else math.sqrt
        s11, s22, s12, s21 = a11 - a22, a11 + a22, a12 + a21, a12 - a21
        top = sq + sqrt((s11 * s11 + s12 * s12) * (s22 * s22 + s21 * s21))
        bottom = 2.0 * adet
        regular = regular | (top < cond_limit * bottom)
        if regular is not True and not np.all(regular):
            with np.errstate(divide="ignore", invalid="ignore"):
                worst = np.max(np.where(bottom == 0.0, np.inf, np.divide(top, bottom)))
            raise ControlSingular(
                f"onsite control system singular (condition {worst:.3e}); "
                "reservoir cannot supply the demanded current"
            )
        cond = top / bottom

    # d psi/dt = -i H psi at E0 = E3 = 0, as (real, imaginary) parts, and
    # the current derivatives d/dt (d C13 j~01), d/dt (d C02 j~23) it gives
    h0, h1, h2, h3 = c0 * n0, e1 + c1 * n1, e2 + c2 * n2, c3 * n3
    q0r, q0i = h0 * y0 - j01c * y1, j01c * x1 - h0 * x0
    q1r = h1 * y1 - j12 * y2 - j01c * y0
    q1i = j12 * x2 + j01c * x0 - h1 * x1
    q2r = h2 * y2 - j23c * y3 - j12 * y1
    q2i = j23c * x3 + j12 * x1 - h2 * x2
    q3r, q3i = h3 * y3 - j23c * y2, j23c * x2 - h3 * x3
    # d/dt of Re(psi1 psi3*), Im(psi0 psi1*), Re(psi0 psi2*), Im(psi2 psi3*)
    dre13 = q1r * x3 + q1i * y3 + x1 * q3r + y1 * q3i
    dim01 = q0i * x1 - q0r * y1 + y0 * q1r - x0 * q1i
    dre02 = q0r * x2 + q0i * y2 + x0 * q2r + y0 * q2i
    dim23 = q2i * x3 - q2r * y3 + y2 * q3r - x2 * q3i
    b1 = d4 * (dre13 * v01 - u13 * dim01)
    b2 = d4 * (dre02 * v23 - u02 * dim23)

    # target current derivatives d/dt (2 gamma n_k), occupation rates expanded
    gd2, g4 = 2.0 * gd, 4.0 * g
    r1 = gd2 * n1 + g4 * (j01c * v01 - j12 * v12) - b1
    r2 = gd2 * n2 + g4 * (j12 * v12 - j23c * v23) - b2
    e0 = (r1 * a22 - a12 * r2) / det
    e3 = (a11 * r2 - r1 * a21) / det
    # the onsite energies act on the reservoir amplitudes only
    dpsi = ((q0r + e0 * y0) + (q0i - e0 * x0) * 1j, q1r + q1i * 1j,
            q2r + q2i * 1j, (q3r + e3 * y3) + (q3i - e3 * x3) * 1j)
    return dpsi, j01c, j23c, e0, e3, cond


def synth_onsite(psi, controls: ControlState, nonlinear, j12=1.0,
                 e1=0.0, e2=0.0, cond_limit=1e14):
    """Solve the 2x2 linear system for the reservoir onsite energies.

    The system enforces d/dt j01 = d/dt (2 gamma n1) and the analogue for
    j23, with the gamma_dot term included so ramped schedules stay on the
    conditions. The occupation rates are expanded through the instantaneous
    state, which keeps the controlled system a self-contained ODE.

    ``psi`` holds four amplitudes, or has shape (m, 4) with ``controls``
    holding gamma and gamma_dot as arrays over the m states; one kernel call
    then makes the table, equal bit for bit to the state-by-state results.
    Returns a completed ControlState (J01, J23, E0, E3, lgs_condition).
    Raises ControlSingular when the coefficient matrix degenerates at any
    state, which physically signals a depleted reservoir.
    """
    psi = np.asarray(psi, dtype=complex)
    _, j01, j23, e0, e3, cond = _control_kernel(
        psi.tolist() if psi.ndim == 1 else psi.T, controls.gamma,
        controls.gamma_dot, controls.d, np.asarray(nonlinear, dtype=float).tolist(),
        j12, e1, e2, cond_limit,
    )
    return replace(controls, J01=j01, J23=j23, E0=e0, E3=e3, lgs_condition=cond)


def build_initial_state(psi1, psi2, psi0_r, psi3_r, gamma, d):
    """Admissible four-mode initial state for given middle-well amplitudes.

    The global phase is fixed by taking psi2 real; the imaginary parts of
    the reservoir amplitudes are then determined by the current conditions
    at t = 0.
    """
    if d == 0.0:
        raise ZeroCoupling("d must be nonzero")
    psi1 = complex(psi1)
    psi2 = float(psi2)
    if psi2 < 0:
        raise DegenerateInput("psi2 must be real and nonnegative (global phase)")
    if psi0_r == 0.0:
        raise DegenerateInput("psi0 real part must be nonzero")
    if psi1.real == 0.0:
        raise DegenerateInput("psi1 real part must be nonzero")
    psi3_i = gamma / (2.0 * d * psi0_r)
    denom = psi1.real * psi3_r + psi1.imag * psi3_i
    if denom == 0.0:
        raise DegenerateInput("psi1 and psi3 must not be phase-orthogonal")
    n1 = abs(psi1) ** 2
    psi0_i = psi0_r * psi1.imag / psi1.real - gamma * n1 / (2.0 * d * psi1.real * denom)
    return np.array(
        [psi0_r + 1j * psi0_i, psi1, psi2, psi3_r + 1j * psi3_i], dtype=complex
    )


def check_conditions(psi, controls: ControlState):
    """Residuals of the four replication conditions (the fourth is implied
    by the first three and only monitored), as a 4-tuple.

    ``psi`` holds four amplitudes, or has shape (m, 4) and gives arrays over
    the m states, where ``controls`` (from ``synth_onsite`` or
    ``EmbeddingRun.controls_at``) may hold arrays too."""
    psi = np.asarray(psi, dtype=complex)
    p0, p1, p2, p3 = psi.tolist() if psi.ndim == 1 else psi.T
    c02, c13 = 2.0 * (p0 * p2.conjugate()).real, 2.0 * (p1 * p3.conjugate()).real
    j01c, j23c, g = controls.J01, controls.J23, controls.gamma
    return (
        -2.0 * j01c * (p0 * p1.conjugate()).imag - 2.0 * g * abs(p1) ** 2,
        -2.0 * j23c * (p2 * p3.conjugate()).imag - 2.0 * g * abs(p2) ** 2,
        j01c * c02 - j23c * c13,
        -2.0 * (j01c * (p0 * p2.conjugate()).imag - j23c * (p1 * p3.conjugate()).imag),
    )


def pt_stationary_state(gamma, j12=1.0, c=0.0):
    """Middle-well amplitudes of the stationary gain/loss two-mode state.

    n1 = n2 = 1/2 with the relative phase set by gamma; exists for
    |gamma| <= j12. psi2 is real (global phase convention).
    """
    if abs(gamma) > j12:
        raise DegenerateInput(f"stationary state requires |gamma| <= J12, got gamma = {gamma}, J12 = {j12}")
    theta = -math.asin(gamma / j12)
    return complex(math.cos(theta), math.sin(theta)) / math.sqrt(2.0), 1.0 / math.sqrt(2.0)


def make_controlled_rhs(gamma_fn, d, nonlinear, j12=1.0, e1=0.0, e2=0.0,
                        cond_limit=1e14, depletion_floor=1e-3):
    """Self-contained ODE right-hand side of the controlled four-mode model.

    Control synthesis happens inside the RHS, so the controlled system is
    an autonomous ODE in the four amplitudes. The derivative comes back as
    a 4-tuple of Python complex numbers. Raises ControlSingular when a
    reservoir is depleted or the onsite system degenerates.
    """
    # Python floats: a numpy scalar here would turn every product in the
    # control kernel into numpy scalar arithmetic, several times slower
    d, j12, e1, e2 = float(d), float(j12), float(e1), float(e2)
    cond_limit, depletion_floor = float(cond_limit), float(depletion_floor)
    nl = np.asarray(nonlinear, dtype=float).tolist()
    kernel = _control_kernel

    def rhs(t, psi):
        g, gd = gamma_fn(t)
        return kernel(psi.tolist(), g, gd, d, nl, j12, e1, e2, cond_limit,
                      depletion_floor)[0]

    return rhs


@dataclass
class EmbeddingRun:
    """Controlled four-mode run, possibly truncated at a breakdown event:
    ``breakdown_reason`` names it, ``breakdown_message`` is the text of the
    exception that ended the integration."""

    trajectory: Trajectory
    gamma_fn: object
    d: float
    nonlinear: np.ndarray
    j12: float
    e1: float
    e2: float
    cond_limit: float
    breakdown_time: float | None = None
    breakdown_reason: str | None = None
    breakdown_message: str | None = None

    @property
    def broke_down(self):
        return self.breakdown_time is not None

    def controls_at(self, t, psi):
        """Controls under the run's ``cond_limit`` at time ``t`` and four
        amplitudes ``psi``, or at m times and ``psi`` of shape (m, 4), giving
        fields that are arrays over the samples (see :func:`synth_onsite`)."""
        if np.ndim(psi) == 1:
            g, gd = self.gamma_fn(t)
        else:
            g, gd = np.array([self.gamma_fn(s) for s in np.asarray(t).tolist()],
                             dtype=float).reshape(-1, 2).T
        return synth_onsite(psi, ControlState(gamma=g, gamma_dot=gd, d=self.d),
                            self.nonlinear, self.j12, self.e1, self.e2, self.cond_limit)


def run_controlled(psi0, t_end, gamma_fn, d, nonlinear, j12=1.0, e1=0.0, e2=0.0,
                   settings: IntegratorSettings = IntegratorSettings(),
                   cond_limit=1e14, depletion_floor=1e-3):
    """Propagate the controlled four-mode model; breakdown is a result, not
    an error: the trajectory up to the failure time is returned flagged."""
    # the run record keeps Python floats too: controls_at runs the kernel
    d, j12, e1, e2 = float(d), float(j12), float(e1), float(e2)
    rhs = make_controlled_rhs(
        gamma_fn, d, nonlinear, j12=j12, e1=e1, e2=e2,
        cond_limit=cond_limit, depletion_floor=depletion_floor,
    )
    psi0 = np.asarray(psi0, dtype=complex)
    run = EmbeddingRun(
        trajectory=None, gamma_fn=gamma_fn, d=d, nonlinear=np.asarray(nonlinear, dtype=float),
        j12=j12, e1=e1, e2=e2, cond_limit=float(cond_limit),
    )
    try:
        run.trajectory = integrate_adaptive(rhs, psi0, (0.0, t_end), settings)
    except PtError as exc:
        if exc.trajectory is None or len(exc.trajectory.t) < 2:
            raise
        run.trajectory = exc.trajectory
        run.breakdown_time = exc.t_fail
        run.breakdown_reason = (
            "control_singular" if isinstance(exc, ControlSingular) else type(exc).__name__
        )
        run.breakdown_message = str(exc)
    return run
