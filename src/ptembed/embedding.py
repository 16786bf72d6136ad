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
    BranchViolation,
    ControlSingular,
    DegenerateInput,
    PtError,
    ZeroCoupling,
)
from .fewmode import cross_moments, model_rhs  # noqa: F401 (model_rhs re-exported)
from .numerics import IntegratorSettings, Trajectory, integrate_adaptive


@dataclass(frozen=True)
class ControlState:
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
    """Cosine ramp gamma(t) = gamma_f [1 - cos(pi t / t_f)] / 2 for t <= t_f."""

    gamma_f: float
    t_f: float

    def __post_init__(self):
        if self.t_f <= 0:
            raise ValueError("t_f must be positive")


def gamma_ramp(t, schedule: RampSchedule):
    """Ramp value and its analytic time derivative at time t."""
    if t >= schedule.t_f:
        return schedule.gamma_f, 0.0
    g = schedule.gamma_f * (1.0 - math.cos(math.pi * t / schedule.t_f)) / 2.0
    gd = schedule.gamma_f * math.pi / (2.0 * schedule.t_f) * math.sin(
        math.pi * t / schedule.t_f
    )
    return g, gd


def constant_gamma(gamma):
    """Gamma schedule for the fixed-parameter scenarios."""
    def fn(t):
        return gamma, 0.0
    return fn


def ramp_gamma(schedule: RampSchedule):
    def fn(t):
        return gamma_ramp(t, schedule)
    return fn


def synth_tunneling(obs, d):
    """Reservoir couplings J01 = d C13 and J23 = d C02 (fulfills the
    correlation-balance condition identically)."""
    if d == 0.0:
        raise ZeroCoupling("d = 0 decouples nothing; must be nonzero")
    return d * obs.C[1, 3], d * obs.C[0, 2]


def _control_kernel(psi, g, gd, d, nl, j12, e1, e2, cond_limit):
    """Reservoir controls and the controlled derivative at one state.

    ``psi`` and ``nl`` hold four Python complex amplitudes and four float
    nonlinearities: on vectors this short, scalar arithmetic is several
    times faster than numpy. Returns ``(dpsi, J01, J23, E0, E3, condition)``
    with ``dpsi`` a 4-tuple. Raises ControlSingular when the onsite system
    degenerates.
    """
    p0, p1, p2, p3 = psi
    c0, c1, c2, c3 = nl
    n0, n1, n2, n3 = abs(p0) ** 2, abs(p1) ** 2, abs(p2) ** 2, abs(p3) ** 2
    # C_kl = 2 Re m_kl and j~_kl = -2 Im m_kl with m_kl = psi_k psi_l*
    m01, m02, m12 = p0 * p1.conjugate(), p0 * p2.conjugate(), p1 * p2.conjugate()
    m13, m23 = p1 * p3.conjugate(), p2 * p3.conjugate()
    cc01, cc02, cc13, cc23 = 2.0 * m01.real, 2.0 * m02.real, 2.0 * m13.real, 2.0 * m23.real
    jt01, jt02, jt12 = -2.0 * m01.imag, -2.0 * m02.imag, -2.0 * m12.imag
    jt13, jt23 = -2.0 * m13.imag, -2.0 * m23.imag
    j01c, j23c = d * cc13, d * cc02

    # coefficient matrix of the onsite-energy system (affine in E0, E3)
    a11 = d * cc01 * cc13
    a12 = d * jt01 * jt13
    a21 = -d * jt02 * jt23
    a22 = -d * cc02 * cc23
    det = a11 * a22 - a12 * a21
    # 2-norm condition number of the 2x2 matrix: the squared singular values
    # are (sq +- root) / 2, whose product is det^2, so cond = (sq + root) /
    # (2 |det|). root = sqrt(sq^2 - 4 det^2) is taken in its product form,
    # which does not cancel when the singular values are close, and the
    # difference sq - root, which cancels when they are far apart, is avoided.
    sq = a11**2 + a12**2 + a21**2 + a22**2
    root = math.sqrt(((a11 - a22) ** 2 + (a12 + a21) ** 2)
                     * ((a11 + a22) ** 2 + (a12 - a21) ** 2))
    cond = (sq + root) / (2.0 * abs(det)) if det != 0.0 else math.inf
    if not math.isfinite(cond) or cond > cond_limit:
        raise ControlSingular(
            f"onsite control system singular (condition {cond:.3e}); "
            "reservoir cannot supply the demanded current"
        )

    # d psi/dt = -i H psi at E0 = E3 = 0, and the current derivatives
    # d/dt (d C13 j~01), d/dt (d C02 j~23) it gives
    q0 = -1j * (c0 * n0 * p0 - j01c * p1)
    q1 = -1j * ((e1 + c1 * n1) * p1 - j12 * p2 - j01c * p0)
    q2 = -1j * ((e2 + c2 * n2) * p2 - j23c * p3 - j12 * p1)
    q3 = -1j * (c3 * n3 * p3 - j23c * p2)
    b1 = 2.0 * d * ((q1 * p3.conjugate() + p1 * q3.conjugate()).real * jt01
                    - cc13 * (q0 * p1.conjugate() + p0 * q1.conjugate()).imag)
    b2 = 2.0 * d * ((q0 * p2.conjugate() + p0 * q2.conjugate()).real * jt23
                    - cc02 * (q2 * p3.conjugate() + p2 * q3.conjugate()).imag)

    # target current derivatives d/dt (2 gamma n_k), occupation rates expanded
    r1 = 2.0 * gd * n1 + 2.0 * g * (j01c * jt01 - j12 * jt12) - b1
    r2 = 2.0 * gd * n2 + 2.0 * g * (j12 * jt12 - j23c * jt23) - b2
    e0 = (r1 * a22 - a12 * r2) / det
    e3 = (a11 * r2 - r1 * a21) / det
    # the onsite energies act on the reservoir amplitudes only
    dpsi = (q0 - 1j * e0 * p0, q1, q2, q3 - 1j * e3 * p3)
    return dpsi, j01c, j23c, e0, e3, cond


def synth_onsite(psi, controls: ControlState, nonlinear, j12=1.0,
                 e1=0.0, e2=0.0, cond_limit=1e14):
    """Solve the 2x2 linear system for the reservoir onsite energies.

    The system enforces d/dt j01 = d/dt (2 gamma n1) and the analogue for
    j23, with the gamma_dot term included so ramped schedules stay on the
    conditions. The occupation rates are expanded through the instantaneous
    state, which keeps the controlled system a self-contained ODE.

    Returns a completed ControlState (J01, J23, E0, E3, lgs_condition).
    Raises ControlSingular when the coefficient matrix degenerates, which
    physically signals a depleted reservoir.
    """
    _, j01, j23, e0, e3, cond = _control_kernel(
        np.asarray(psi, dtype=complex).tolist(), controls.gamma,
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
    by the first three and only monitored), as a 4-tuple of floats.

    ``psi`` is any sequence of four amplitudes."""
    p0, p1, p2, p3 = map(complex, psi)
    c02, c13 = 2.0 * (p0 * p2.conjugate()).real, 2.0 * (p1 * p3.conjugate()).real
    j01c = controls.J01 if controls.J01 is not None else controls.d * c13
    j23c = controls.J23 if controls.J23 is not None else controls.d * c02
    g = controls.gamma
    return (
        -2.0 * j01c * (p0 * p1.conjugate()).imag - 2.0 * g * abs(p1) ** 2,
        -2.0 * j23c * (p2 * p3.conjugate()).imag - 2.0 * g * abs(p2) ** 2,
        j01c * c02 - j23c * c13,
        -2.0 * (j01c * (p0 * p2.conjugate()).imag - j23c * (p1 * p3.conjugate()).imag),
    )


@dataclass(frozen=True)
class ClosedFormSigns:
    s1: int
    s2: int
    s3: int
    s6: int


def signs_from_state(psi, gamma, d):
    """Read the closed-form branch signs off an admissible wave function."""
    c_mat, jt = cross_moments(psi)
    n = np.abs(psi) ** 2
    s2 = 1 if jt[0, 1] >= 0 else -1
    s3 = 1 if jt[0, 1] * jt[2, 3] >= 0 else -1
    s6 = 1 if jt[0, 2] >= 0 else -1
    gaux = jt[1, 2] / math.sqrt(n[1] * n[2])
    beta = s3 * gamma / (d * math.sqrt(n[0] * n[3]))
    alpha = 0.5 * gaux * (beta + 0.5 * gaux)
    s1 = 1 if jt[0, 1] ** 2 / (2.0 * n[0] * n[1]) >= (1.0 - alpha) else -1
    return ClosedFormSigns(s1=s1, s2=s2, s3=s3, s6=s6)


def closed_form_observables(n, j_tilde_12, gamma, d, signs: ClosedFormSigns):
    """Correlations and currents from (n_k, j~12) alone.

    Returns (j~01, j~23, C02, C13, j~02, j~13). Raises BranchViolation when
    the discriminant is negative (no real solution for these occupations).
    """
    n = np.asarray(n, dtype=float)
    if np.any(n <= 0):
        raise BranchViolation("all occupations must be positive")
    gaux = j_tilde_12 / math.sqrt(n[1] * n[2])
    beta = signs.s3 * gamma / (d * math.sqrt(n[0] * n[3]))
    alpha = 0.5 * gaux * (beta + 0.5 * gaux)
    disc = (1.0 - alpha) ** 2 - beta**2
    if disc < 0:
        raise BranchViolation(f"(1-alpha)^2 - beta^2 = {disc:.3e} < 0")
    root = math.sqrt(disc)
    plus = 1.0 - alpha + signs.s1 * root
    minus = 1.0 - alpha - signs.s1 * root
    outer = 1.0 + alpha + signs.s1 * root
    if min(plus, minus, outer) < -1e-12:
        raise BranchViolation("negative radicand in closed-form observables")
    plus, minus, outer = max(plus, 0.0), max(minus, 0.0), max(outer, 0.0)
    jt01 = signs.s2 * math.sqrt(2.0 * n[0] * n[1] * plus)
    jt23 = signs.s3 * math.sqrt(n[2] * n[3] / (n[0] * n[1])) * jt01
    sgn_d = 1.0 if d > 0 else -1.0
    c02 = signs.s2 * sgn_d * math.sqrt(2.0 * n[0] * n[2] * minus)
    c13 = signs.s2 * sgn_d * math.sqrt(2.0 * n[1] * n[3] * minus)
    jt02 = signs.s6 * math.sqrt(2.0 * n[0] * n[2] * outer)
    jt13 = signs.s6 * math.sqrt(2.0 * n[1] * n[3] * outer)
    return jt01, jt23, c02, c13, jt02, jt13


def pt_stationary_state(gamma, j12=1.0, c=0.0):
    """Middle-well amplitudes of the stationary gain/loss two-mode state.

    n1 = n2 = 1/2 with the relative phase set by gamma; exists for
    gamma <= j12. psi2 is real (global phase convention).
    """
    if abs(gamma) > j12:
        raise DegenerateInput("stationary state requires gamma <= J12")
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

    def rhs(t, psi):
        p = psi.tolist()
        n0 = p[0].real**2 + p[0].imag**2
        n3 = p[3].real**2 + p[3].imag**2
        if n0 < depletion_floor or n3 < depletion_floor:
            raise ControlSingular(
                f"reservoir depleted at t={t:.6g} (n0={n0:.3e}, n3={n3:.3e})"
            )
        g, gd = gamma_fn(t)
        return _control_kernel(p, g, gd, d, nl, j12, e1, e2, cond_limit)[0]

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
    breakdown_time: float | None = None
    breakdown_reason: str | None = None
    breakdown_message: str | None = None

    @property
    def broke_down(self):
        return self.breakdown_time is not None

    def controls_at(self, t, psi):
        """Controls at time ``t`` and amplitudes ``psi`` (any sequence of four)."""
        g, gd = self.gamma_fn(t)
        _, j01, j23, e0, e3, cond = _control_kernel(
            map(complex, psi), g, gd, self.d,
            self.nonlinear.tolist(), self.j12, self.e1, self.e2, 1e14,
        )
        return ControlState(gamma=g, gamma_dot=gd, d=self.d, J01=j01, J23=j23,
                            E0=e0, E3=e3, lgs_condition=cond)


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
        trajectory=None, gamma_fn=gamma_fn, d=d,
        nonlinear=np.asarray(nonlinear, dtype=float), j12=j12, e1=e1, e2=e2,
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
