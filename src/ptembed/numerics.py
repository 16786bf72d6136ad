"""Numerical kernel: adaptive ODE integration, small dense solves, root
finding, minimization (optionally norm-constrained) and an adaptive
quadrature oracle.

Everything here is deterministic for fixed inputs and free of module-level
state, so independent calls can run in parallel.
"""

from __future__ import annotations

import cmath
import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.integrate
import scipy.optimize

from .errors import (
    ConstraintProjectionFailure,
    ConvergenceWarning,
    NoConvergence,
    NonFiniteDerivative,
    NonFiniteFunction,
    PtError,
    RefinementLimit,
    SingularMatrix,
    StepLimitExceeded,
    StepSizeUnderflow,
)


@dataclass(frozen=True)
class IntegratorSettings:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = math.inf
    max_steps: int = 1_000_000

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0 and self.max_step > 0):
            raise ValueError("tolerances and max_step must be positive")


@dataclass(frozen=True)
class RootFindReport:
    """Outcome of :func:`root_find`.

    ``jacobian`` is the Broyden model at ``solution`` after the last step's
    update (the ``jac`` passed in when no step was taken, possibly None);
    pass it as ``jac`` to a nearby search to skip the finite-difference
    build. ``jacobian_refreshes`` counts the finite-difference builds.
    """

    solution: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool
    jacobian: np.ndarray | None = None
    jacobian_refreshes: int = 0


@dataclass
class Trajectory:
    """Accepted steps of an adaptive integration: times, states, derivatives.

    ``sample`` interpolates with a cubic Hermite polynomial on each step,
    which is accurate far beyond the step tolerances used here.

    ``rejected_steps`` and ``rhs_evals`` count the integrator's work, the
    initial evaluation included; ``accepted_steps``, ``h_min`` and ``h_max``
    follow from ``t``. A partial trajectory attached to an exception counts
    the work done up to the failure.
    """

    t: np.ndarray
    y: np.ndarray
    f: np.ndarray = field(repr=False)
    rejected_steps: int
    rhs_evals: int

    @property
    def accepted_steps(self):
        return len(self.t) - 1

    @property
    def h_min(self):
        """Shortest accepted step (nan without one)."""
        return float(np.min(np.diff(self.t))) if len(self.t) > 1 else math.nan

    @property
    def h_max(self):
        """Longest accepted step (nan without one)."""
        return float(np.max(np.diff(self.t))) if len(self.t) > 1 else math.nan

    def sample(self, tq):
        scalar = np.isscalar(tq) or np.ndim(tq) == 0
        tq = np.atleast_1d(np.asarray(tq, dtype=float))
        idx = np.clip(np.searchsorted(self.t, tq, side="right") - 1, 0, len(self.t) - 2)
        t0 = self.t[idx]
        h = self.t[idx + 1] - t0
        s = np.where(h > 0, (tq - t0) / np.where(h > 0, h, 1.0), 0.0)
        s = np.clip(s, 0.0, 1.0)[:, None]
        hh = h[:, None]
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s**2 * (3 - 2 * s)
        h11 = s**2 * (s - 1)
        # accumulated in place: one gathered block is live at a time
        out = h00 * self.y[idx]
        out += h10 * hh * self.f[idx]
        out += h01 * self.y[idx + 1]
        out += h11 * hh * self.f[idx + 1]
        return out[0] if scalar else out

    def final(self):
        return self.t[-1], self.y[-1]


# Dormand-Prince 5(4) tableau. FSAL: the seventh stage is evaluated at the
# new state (its weights are _B*), so it is the next step's first stage.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# error weights: fifth-order weights minus the embedded fourth-order ones
# (the second stage has weight 0 in both)
_E1 = _B1 - 5179 / 57600
_E3 = _B3 - 7571 / 16695
_E4 = _B4 - 393 / 640
_E5 = _B5 - -92097 / 339200
_E6 = _B6 - 187 / 2100
_E7 = -1 / 40


def integrate_adaptive(rhs, y0, t_span, settings: IntegratorSettings = IntegratorSettings()):
    """Integrate ``dy/dt = rhs(t, y)`` with the Dormand-Prince 5(4) pair.

    Uses PI step-size control. Works for real or complex state vectors.
    ``rhs(t, y)`` receives ``y`` as a 1-D ndarray of the state's dtype and
    may return any 1-D sequence of the state's length. Between those calls
    the state and the stages are stepped as lists of Python scalars: on the
    short states used here numpy's per-call overhead would cost more than
    the arithmetic.

    Returns a :class:`Trajectory` containing every accepted step (both
    endpoints included) and the work counters. If the right-hand side
    raises a :class:`PtError` or produces non-finite values, or a step
    limit is hit, the partial trajectory is attached to the raised
    exception together with ``t_fail``.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError("t_span must be increasing and non-degenerate")
    y0 = np.atleast_1d(np.asarray(y0))
    dtype = complex if np.iscomplexobj(y0) else float
    y = y0.astype(dtype).tolist()
    n = len(y)

    ts = [t0]
    ys = [y]
    fs = []
    evals = 0
    rejected = 0

    def _fail(exc, t_fail):
        if not fs:
            fs.append([0.0] * n)
        exc.trajectory = Trajectory(np.array(ts), np.array(ys, dtype=dtype),
                                    np.array(fs, dtype=dtype), rejected, evals)
        exc.t_fail = t_fail
        raise exc

    def call(t, yl):
        nonlocal evals
        evals += 1
        r = rhs(t, np.array(yl, dtype=dtype))
        r = r.tolist() if isinstance(r, np.ndarray) else list(r)
        if len(r) != n:
            raise ValueError(f"rhs returned {len(r)} components for a state of {n}")
        return r

    try:
        f = call(t0, y)
    except PtError as exc:
        _fail(exc, t0)
    if not all(map(cmath.isfinite, f)):
        _fail(NonFiniteDerivative("rhs not finite at initial state"), t0)
    fs.append(f)

    rtol, atol = settings.rel_tol, settings.abs_tol
    # initial step guess from the scale of y and f
    d0 = d1 = 0.0
    for yv, fv in zip(y, f):
        sc = atol + rtol * abs(yv)
        d0 += (abs(yv) / sc) ** 2
        d1 += (abs(fv) / sc) ** 2
    d0, d1 = math.sqrt(d0 / n), math.sqrt(d1 / n)
    h = min(settings.max_step, t1 - t0, 0.01 * d0 / d1 if d1 > 1e-300 else 1e-6)
    h = max(h, 1e-14 * (t1 - t0))

    t = t0
    err_prev = 1.0
    nsteps = 0
    while t < t1:
        if nsteps >= settings.max_steps:
            _fail(StepLimitExceeded(f"max_steps={settings.max_steps} reached at t={t}"), t)
        h = min(h, t1 - t)
        k1 = f
        try:
            k2 = call(t + _C2 * h, [v + h * (_A21 * a) for v, a in zip(y, k1)])
            k3 = call(t + _C3 * h, [v + h * (_A31 * a + _A32 * b)
                                    for v, a, b in zip(y, k1, k2)])
            k4 = call(t + _C4 * h, [v + h * (_A41 * a + _A42 * b + _A43 * c)
                                    for v, a, b, c in zip(y, k1, k2, k3)])
            k5 = call(t + _C5 * h, [v + h * (_A51 * a + _A52 * b + _A53 * c + _A54 * d)
                                    for v, a, b, c, d in zip(y, k1, k2, k3, k4)])
            k6 = call(t + h, [v + h * (_A61 * a + _A62 * b + _A63 * c + _A64 * d + _A65 * e)
                              for v, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)])
            y_new = [v + h * (_B1 * a + _B3 * c + _B4 * d + _B5 * e + _B6 * g)
                     for v, a, c, d, e, g in zip(y, k1, k3, k4, k5, k6)]
            k7 = call(t + h, y_new)
        except PtError as exc:
            _fail(exc, t)
        if not all(map(cmath.isfinite, itertools.chain(k2, k3, k4, k5, k6, k7))):
            _fail(NonFiniteDerivative(f"rhs not finite near t={t}"), t)

        err = 0.0
        for v, w, a, c, d, e, g, p in zip(y, y_new, k1, k3, k4, k5, k6, k7):
            sc = atol + rtol * max(abs(v), abs(w))
            err += (abs(h * (_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * g + _E7 * p))
                    / sc) ** 2
        err = math.sqrt(err / n)
        nsteps += 1
        if err <= 1.0:
            t += h
            y = y_new
            f = k7  # FSAL
            ts.append(t)
            ys.append(y)
            fs.append(f)
            err_prev = max(err, 1e-10)
        else:
            rejected += 1
        # PI controller
        fac = 0.9 * (err + 1e-300) ** -0.2 * err_prev**0.04
        h *= min(5.0, max(0.2, fac))
        h = min(h, settings.max_step)
        if h <= 1e-15 * max(abs(t), 1.0):
            _fail(StepSizeUnderflow(f"step size underflow at t={t}"), t)

    return Trajectory(np.array(ts), np.array(ys, dtype=dtype), np.array(fs, dtype=dtype),
                      rejected, evals)


def solve_linear(matrix, rhs, cond_limit=1e14):
    """Solve a small dense linear system, guarding against near-singularity."""
    a = np.asarray(matrix, dtype=float)
    b = np.asarray(rhs, dtype=float)
    if not np.all(np.isfinite(a)) or not np.all(np.isfinite(b)):
        raise SingularMatrix("non-finite entries in linear system")
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > cond_limit:
        raise SingularMatrix(f"condition estimate {cond:.3e} exceeds {cond_limit:.1e}")
    return np.linalg.solve(a, b)


def _fd_jacobian(f, x, fx):
    n = len(x)
    jac = np.empty((len(fx), n))
    for i in range(n):
        step = max(1e-7, 1e-7 * abs(x[i]))
        xp = x.copy()
        xp[i] += step
        jac[:, i] = (f(xp) - fx) / step
    return jac


def root_find(f, x0, tol=1e-10, max_iter=200, jac=None):
    """Quasi-Newton (Broyden) root search.

    ``jac``, when given, is the starting model Jacobian (for example the
    ``jacobian`` of a previous report on a nearby problem); otherwise it is
    built by forward differences at ``x0``. A search that stagnates (a step
    backtracked below 1e-6) rebuilds it by forward differences.

    Deterministic: same inputs give the same iterates. Returns a
    :class:`RootFindReport`; convergence is measured in the max norm.
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    refreshes = 0

    def feval(xv):
        fv = np.atleast_1d(np.asarray(f(xv), dtype=float))
        if not np.all(np.isfinite(fv)):
            raise NonFiniteFunction(f"f({xv}) is not finite")
        return fv

    def newton_step(jac_m, fx_v):
        try:
            return np.linalg.solve(jac_m, -fx_v)
        except np.linalg.LinAlgError:
            # singular model Jacobian: minimum-norm least-squares step; the
            # Broyden updates along it restore an invertible model
            return np.linalg.lstsq(jac_m, -fx_v, rcond=None)[0]

    def report(iterations, converged):
        return RootFindReport(x, float(np.max(np.abs(fx))), iterations, converged,
                              jac, refreshes)

    fx = feval(x)
    if np.max(np.abs(fx)) <= tol:
        return report(0, True)
    if jac is None:
        jac = _fd_jacobian(feval, x, fx)
        refreshes += 1
    for it in range(1, max_iter + 1):
        dx = newton_step(jac, fx)
        if not np.all(np.isfinite(dx)) or np.max(np.abs(dx)) == 0.0:
            return report(it, False)
        # backtracking on the residual norm
        lam = 1.0
        norm0 = np.max(np.abs(fx))
        f_new = None
        for _ in range(40):
            try:
                f_new = feval(x + lam * dx)
            except NonFiniteFunction:
                lam *= 0.5
                continue
            if np.max(np.abs(f_new)) < norm0 or lam < 1e-8:
                break
            lam *= 0.5
        if f_new is None:
            return report(it, False)
        step = lam * dx
        x = x + step
        df = f_new - fx
        fx = f_new
        denom = step @ step
        if denom > 0:
            jac = jac + np.outer((df - jac @ step) / denom, step)
        if np.max(np.abs(fx)) <= tol:
            return report(it, True)
        if lam < 1e-6:
            # stagnation: refresh the Jacobian
            jac = _fd_jacobian(feval, x, fx)
            refreshes += 1
    return report(max_iter, False)


def minimize_norm_constrained(energy, x0, constraint=None, tol=1e-6, project=None,
                              bounds=None, max_iter=500, jac=False):
    """Minimize ``energy(x)``, subject to ``constraint(x) == 1`` when given.

    ``tol`` bounds the max norm of the gradient at exit: the gradient of
    ``energy`` without a constraint, its part tangent to the constraint
    surface with one; components pushing against an active bound do not
    count. A minimization that stops above ``tol`` (by ``max_iter``, or by a
    line search that lost precision) emits a :class:`ConvergenceWarning`
    and returns its best iterate.

    With ``jac=True``, ``energy`` returns ``(value, analytic gradient)``;
    otherwise gradients come from forward differences.

    Without a constraint, L-BFGS-B keeps every trial point within
    ``bounds``. Near a minimum a step lowers the energy by less than the
    energy's roundoff long before an analytic gradient reaches its own
    noise floor, and the line search stops; with an analytic ``jac``, Newton
    steps on a finite-difference Hessian of the gradient then carry it on
    to ``tol`` (each step counts against ``max_iter``).

    With a constraint, SLSQP runs until the energy changes by less than
    1e-14 relative, and the result is projected so that
    ``|constraint(x*) - 1| <= 1e-10``. ``project``, when given, maps an
    iterate onto the constraint set exactly (for quadratic norm constraints
    rescaling part of the vector suffices). The default ``tol`` leaves a
    margin over what SLSQP reaches with forward-difference gradients (3e-8
    for a quadratic form on the unit sphere).

    Returns ``(x*, energy*)``.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    if jac:
        value = lambda x: energy(x)[0]
        gradient = lambda x: energy(x)[1]
    else:
        value = energy
        gradient = lambda x: scipy.optimize.approx_fprime(x, energy)
    lo, hi = _bound_arrays(bounds, len(x0))

    if constraint is None:
        res = scipy.optimize.minimize(
            energy, x0, jac=jac, method="L-BFGS-B", bounds=bounds,
            options={"maxiter": max_iter, "gtol": tol, "ftol": 0.0, "maxcor": 20},
        )
        x, grad, reason = res.x, _projected_gradient(res.jac, res.x, lo, hi), res.message
        if jac and res.status != 1 and np.max(np.abs(grad)) > tol:
            x, grad = _newton_polish(
                lambda v: _projected_gradient(gradient(v), v, lo, hi),
                x, grad, lo, hi, tol, max_iter - res.nit,
            )
            reason += "; then Newton steps"
    else:
        if project is None:
            def project(x):
                c = constraint(x)
                if not np.isfinite(c) or c <= 0:
                    raise ConstraintProjectionFailure("cannot normalize zero-norm iterate")
                return x / np.sqrt(c)

        x0 = project(x0)
        res = scipy.optimize.minimize(
            energy, x0, jac=jac, method="SLSQP", bounds=bounds,
            constraints=[{"type": "eq", "fun": lambda x: constraint(x) - 1.0}],
            options={"maxiter": max_iter, "ftol": 1e-14},
        )
        x = project(res.x)
        if abs(constraint(x) - 1.0) > 1e-10:
            raise ConstraintProjectionFailure(
                f"constraint residual {abs(constraint(x) - 1.0):.3e}"
            )
        if value(x) > value(x0) + 1e-12 * (1 + abs(value(x0))):
            raise NoConvergence("minimizer did not improve on projected start")
        g = gradient(x)
        normal = scipy.optimize.approx_fprime(x, constraint)
        grad = _projected_gradient(g - (g @ normal) / (normal @ normal) * normal, x, lo, hi)
        reason = res.message

    gmax = float(np.max(np.abs(grad)))
    if not gmax <= tol:
        warnings.warn(
            f"minimization stopped at gradient {gmax:.3e} above tol {tol:.1e} "
            f"({reason}); returning the best iterate",
            ConvergenceWarning, stacklevel=2,
        )
    return x, float(value(x))


def _bound_arrays(bounds, n):
    """Lower and upper bound vectors (+-inf where unbounded)."""
    lo, hi = np.full(n, -np.inf), np.full(n, np.inf)
    for i, (a, b) in enumerate(bounds or ()):
        lo[i] = -np.inf if a is None else a
        hi[i] = np.inf if b is None else b
    return lo, hi


def _projected_gradient(grad, x, lo, hi):
    """The gradient without components that push against an active bound."""
    grad = np.array(grad, dtype=float)
    grad[((x <= lo) & (grad > 0)) | ((x >= hi) & (grad < 0))] = 0.0
    return grad


def _newton_polish(gradient, x, grad, lo, hi, tol, max_steps):
    """Newton steps on a forward-difference Hessian of an analytic gradient.

    Directions of curvature below 1e-8 of the largest (flat directions
    such as the scale of a Rayleigh quotient) are left out of the step.
    Stops at ``tol``, after ``max_steps`` steps, or at the first step that
    would leave the bounds or does not shrink the gradient; returns the
    best iterate and its gradient.
    """
    n = len(x)
    for _ in range(max_steps):
        if np.max(np.abs(grad)) <= tol:
            break
        h = 1e-6 * np.maximum(1.0, np.abs(x))
        h = np.where(x + h > hi, -h, h)
        hess = np.empty((n, n))
        for i in range(n):
            xp = x.copy()
            xp[i] += h[i]
            hess[:, i] = (gradient(xp) - grad) / h[i]
        step = np.linalg.lstsq(0.5 * (hess + hess.T), -grad, rcond=1e-8)[0]
        x_new = x + step
        if np.any(x_new < lo) or np.any(x_new > hi):
            break
        g_new = gradient(x_new)
        if not np.max(np.abs(g_new)) < np.max(np.abs(grad)):
            break
        x, grad = x_new, g_new
    return x, grad


def _quad_1d(fun, a, b, tol):
    # request tighter accuracy than we verify: quad's error estimate is
    # conservative and routinely lands slightly above the requested eps
    eps = tol / 50.0
    re, err_re = scipy.integrate.quad(lambda x: np.real(fun(x)), a, b,
                                      epsabs=eps, epsrel=eps, limit=200)
    probe = fun(0.5 * (a + b) if np.isfinite(a) and np.isfinite(b) else 0.0)
    if np.iscomplexobj(np.asarray(probe)):
        im, err_im = scipy.integrate.quad(lambda x: np.imag(fun(x)), a, b,
                                          epsabs=eps, epsrel=eps, limit=200)
        val = re + 1j * im
        err = err_re + err_im
    else:
        val, err = re, err_re
    return val, err


def quadrature_oracle(integrand, region, tol=1e-10):
    """Adaptive quadrature over 1-3 dimensions (test oracle, not production).

    ``region`` is a pair ``(a, b)`` or a sequence of such pairs, with
    ``+-inf`` allowed. Complex integrands are handled componentwise. Raises
    :class:`RefinementLimit` if the error estimate exceeds ``tol`` relative
    to ``max(1, |value|)``.
    """
    region = np.asarray(region, dtype=float)
    if region.ndim == 1:
        dims = [region]
    else:
        dims = list(region)
    ndim = len(dims)
    if ndim == 1:
        val, err = _quad_1d(lambda x: integrand(x), dims[0][0], dims[0][1], tol)
    elif ndim == 2:
        def outer(y):
            v, _ = _quad_1d(lambda x: integrand(x, y), dims[0][0], dims[0][1], tol / 10)
            return v
        val, err = _quad_1d(outer, dims[1][0], dims[1][1], tol)
    elif ndim == 3:
        def outer2(z):
            def outer1(y):
                v, _ = _quad_1d(lambda x: integrand(x, y, z),
                                dims[0][0], dims[0][1], tol / 100)
                return v
            v, _ = _quad_1d(outer1, dims[1][0], dims[1][1], tol / 10)
            return v
        val, err = _quad_1d(outer2, dims[2][0], dims[2][1], tol)
    else:
        raise ValueError("only 1-3 dimensions supported")
    if err > tol * max(1.0, abs(val)):
        raise RefinementLimit(f"quadrature error {err:.3e} above tol {tol:.1e}")
    return val
