"""Numerical kernel: adaptive ODE integration (the Dormand-Prince 8(5,3)
pair, DOP853, with its 7th-order dense output), root finding and
unconstrained minimization with an analytic gradient. The minimizer's
energy takes a stack of points (m, n) as well as one point (n,), and
builds each Hessian from one call on a stack.

Everything here is deterministic for fixed inputs and free of module-level
state, so independent calls can run in parallel. The module needs numpy
alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NonFiniteDerivative,
    NonFiniteFunction,
    PtError,
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
    """Accepted steps of an adaptive integration: times and states.

    ``sample`` evaluates the integrator's 7th-order continuous extension on
    each step; ``dense`` holds its seven coefficient rows per accepted step
    ((accepted_steps, 7, n)), or is None for a trajectory integrated
    without dense output, which cannot be sampled.

    ``rejected_steps`` and ``rhs_evals`` count the integrator's work, the
    initial evaluation and the initial-step probe included;
    ``accepted_steps``, ``h_min`` and ``h_max`` follow from ``t``. A partial
    trajectory attached to an exception counts the work done up to the
    failure.
    """

    t: np.ndarray
    y: np.ndarray
    rejected_steps: int
    rhs_evals: int
    dense: np.ndarray | None = field(default=None, repr=False)

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
        """States at the times ``tq`` (clipped to the integrated interval);
        at an accepted step's time, the stored state bit for bit."""
        if self.dense is None:
            raise ValueError("trajectory was integrated without dense output")
        scalar = np.isscalar(tq) or np.ndim(tq) == 0
        tq = np.atleast_1d(np.asarray(tq, dtype=float))
        idx = np.clip(np.searchsorted(self.t, tq, side="right") - 1, 0, len(self.t) - 2)
        t0 = self.t[idx]
        s = np.clip((tq - t0) / (self.t[idx + 1] - t0), 0.0, 1.0)[:, None]
        s1 = 1.0 - s
        # y0 + s (F0 + (1-s) (F1 + s (F2 + (1-s) (F3 + s (F4 + (1-s) (F5 + s F6))))))
        rows = self.dense[idx]
        out = rows[:, 6] * s
        for k in range(5, -1, -1):
            out += rows[:, k]
            out *= s if k % 2 == 0 else s1
        out += self.y[idx]
        # the polynomial ends on y0 + (y1 - y0), an ulp from the stored y1
        out = np.where(s == 1.0, self.y[idx + 1], out)
        return out[0] if scalar else out

    def final(self):
        return self.t[-1], self.y[-1]


# Dormand-Prince 8(5,3), "DOP853" (Hairer, Norsett & Wanner, Solving
# Ordinary Differential Equations I, Sec. II.10), with the coefficients of
# Hairer's Fortran code. Stages 0-11 make a step; stage 12 is the derivative
# at the new state (its weights are the 8th-order weights _A[12]), so it is
# the next step's stage 0 (FSAL); stages 13-15 serve only the dense output.
# _A[i] holds stage i's weights of stages 0..i-1 (zeros written out).
_C = (
    0.0, 0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01, 0.118350341907227396726757197510,
    0.281649658092772603273242802490, 0.333333333333333333333333333333, 0.25,
    0.307692307692307692307692307692, 0.651282051282051282051282051282, 0.6,
    0.857142857142857142857142857142, 1.0, 1.0, 0.1, 0.2,
    0.777777777777777777777777777778,
)
_A = tuple(np.array(row) for row in (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0,
     8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0,
     -8.84549479328286085344864962717e-1, 9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0,
     1.70828608729473871279604482173e-1, 1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0,
     1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
     -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0,
     -3.36089262944694129406857109825, -8.68219346841726006818189891453e-1,
     2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
     -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0,
     -2.48811461997166764192642586468, -5.90290826836842996371446475743e-1,
     2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
     -3.32882109689848629194453265587e1, -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0,
     5.18637242884406370830023853209, 1.09143734899672957818500254654,
     -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
     2.27394870993505042818970056734e1, 2.49360555267965238987089396762,
     -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0,
     -1.05344954667372501984066689879e1, -2.00087205822486249909675718444,
     -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
     -2.85899827713502369474065508674, -8.87285693353062954433549289258,
     1.23605671757943030647266201528e1, 6.43392746015763530355970484046e-1),
    (5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
     4.45031289275240888144113950566, 1.89151789931450038304281599044,
     -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
     -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
     4.47106157277725905176885569043e-2),
    (5.61675022830479523392909219681e-2, 0.0, 0.0, 0.0, 0.0, 0.0,
     2.53500210216624811088794765333e-1, -2.46239037470802489917441475441e-1,
     -1.24191423263816360469010140626e-1, 1.5329179827876569731206322685e-1,
     8.20105229563468988491666602057e-3, 7.56789766054569976138603589584e-3,
     -8.298e-3),
    (3.18346481635021405060768473261e-2, 0.0, 0.0, 0.0, 0.0,
     2.83009096723667755288322961402e-2, 5.35419883074385676223797384372e-2,
     -5.49237485713909884646569340306e-2, 0.0, 0.0,
     -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
     -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1),
    (-4.28896301583791923408573538692e-1, 0.0, 0.0, 0.0, 0.0,
     -4.69762141536116384314449447206, 7.68342119606259904184240953878,
     4.06898981839711007970213554331, 3.56727187455281109270669543021e-1, 0.0,
     0.0, 0.0, -1.39902416515901462129418009734e-3,
     2.9475147891527723389556272149, -9.15095847217987001081870187138),
))
_BHH = np.array([
    0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    0.733846688281611857341361741547, 0.0, 0.0,
    0.220588235294117647058823529412e-1,
])
_ER = np.array([
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
    -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1,
])
_D = np.array([
    [-0.84289382761090128651353491142e+1, 0.0, 0.0, 0.0, 0.0,
     0.56671495351937776962531783590, -0.30689499459498916912797304727e+1,
     0.23846676565120698287728149680e+1, 0.21170345824450282767155149946e+1,
     -0.87139158377797299206789907490, 0.22404374302607882758541771650e+1,
     0.63157877876946881815570249290, -0.88990336451333310820698117400e-1,
     0.18148505520854727256656404962e+2, -0.91946323924783554000451984436e+1,
     -0.44360363875948939664310572000e+1],
    [0.10427508642579134603413151009e+2, 0.0, 0.0, 0.0, 0.0,
     0.24228349177525818288430175319e+3, 0.16520045171727028198505394887e+3,
     -0.37454675472269020279518312152e+3, -0.22113666853125306036270938578e+2,
     0.77334326684722638389603898808e+1, -0.30674084731089398182061213626e+2,
     -0.93321305264302278729567221706e+1, 0.15697238121770843886131091075e+2,
     -0.31139403219565177677282850411e+2, -0.93529243588444783865713862664e+1,
     0.35816841486394083752465898540e+2],
    [0.19985053242002433820987653617e+2, 0.0, 0.0, 0.0, 0.0,
     -0.38703730874935176555105901742e+3, -0.18917813819516756882830838328e+3,
     0.52780815920542364900561016686e+3, -0.11573902539959630126141871134e+2,
     0.68812326946963000169666922661e+1, -0.10006050966910838403183860980e+1,
     0.77771377980534432092869265740, -0.27782057523535084065932004339e+1,
     -0.60196695231264120758267380846e+2, 0.84320405506677161018159903784e+2,
     0.11992291136182789328035130030e+2],
    [-0.25693933462703749003312586129e+2, 0.0, 0.0, 0.0, 0.0,
     -0.15418974869023643374053993627e+3, -0.23152937917604549567536039109e+3,
     0.35763911791061412378285349910e+3, 0.93405324183624310003907691704e+2,
     -0.37458323136451633156875139351e+2, 0.10409964950896230045147246184e+3,
     0.29840293426660503123344363579e+2, -0.43533456590011143754432175058e+2,
     0.96324553959188282948394950600e+2, -0.39177261675615439165231486172e+2,
     -0.14972683625798562581422125276e+3],
])

# the step's increment and the error estimates in one product with the
# first twelve stages: 8th-order weights, the embedded 5th-order error
# weights and the 8th- minus 3rd-order weights (_BHH)
_STEP_WEIGHTS = np.stack([_A[12], _ER, _A[12] - _BHH])


def integrate_adaptive(rhs, y0, t_span, settings: IntegratorSettings = IntegratorSettings(),
                       dense_output=True):
    """Integrate ``dy/dt = rhs(t, y)`` with the Dormand-Prince 8(5,3) pair.

    Works for real or complex state vectors. ``rhs(t, y)`` receives ``y``
    as a 1-D ndarray of the state's dtype and may return any 1-D sequence
    of the state's length. The stages are rows of one (16, n) array.

    The error norm combines the embedded 5th- and 3rd-order estimates
    (RMS over components, scaled by ``abs_tol + rel_tol * |y|``); a step is
    accepted at norm <= 1, and the next step is the last one times
    0.9 norm^(-1/8), clamped to [0.2, 10], without growth on the step
    after a rejection. The first step comes from Hairer's starting-step
    rule for order 8, which probes the right-hand side once. Each attempted
    step evaluates the right-hand side 12 times: 11 stages and the
    derivative at the new state, which is the next step's first stage.
    With ``dense_output`` (the default) each accepted step evaluates 3 more
    stages, for the 7th-order continuous extension that
    :meth:`Trajectory.sample` evaluates; callers that read only the states
    at the accepted steps pass False and save them.

    Returns a :class:`Trajectory` containing every accepted step (both
    endpoints included) and the work counters. If the right-hand side
    raises a :class:`PtError` or produces non-finite values, the step size
    underflows, or ``settings.max_steps`` steps (attempted) are used up, the
    partial trajectory is attached to the raised exception together with
    ``t_fail``, the time of the last accepted step.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError("t_span must be increasing and non-degenerate")
    y0 = np.atleast_1d(np.asarray(y0))
    dtype = complex if np.iscomplexobj(y0) else float
    y = y0.astype(dtype)
    n = len(y)
    K = np.empty((16, n), dtype=dtype)

    ts, ys, dense = [t0], [y], []
    evals = 0
    rejected = 0

    def _fail(exc, t_fail):
        exc.trajectory = Trajectory(
            np.array(ts), np.array(ys), rejected, evals,
            np.array(dense, dtype=dtype).reshape(-1, 7, n) if dense_output else None)
        exc.t_fail = t_fail
        raise exc

    def stage(i, t, yi):
        nonlocal evals
        evals += 1
        r = rhs(t, yi)
        if len(r) != n:
            raise ValueError(f"rhs returned {len(r)} components for a state of {n}")
        K[i] = r
        if not np.isfinite(K[i]).all():
            raise NonFiniteDerivative(f"rhs not finite at t={t}")

    rtol, atol = settings.rel_tol, settings.abs_tol
    try:
        stage(0, t0, y)
        # starting step: an explicit Euler probe estimates the second
        # derivative, and the step is sized for order 8 on it
        sc = atol + rtol * np.abs(y)
        d0 = math.sqrt(np.vdot(y / sc, y / sc).real / n)
        d1 = math.sqrt(np.vdot(K[0] / sc, K[0] / sc).real / n)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, t1 - t0, settings.max_step)
        stage(1, t0 + h0, y + h0 * K[0])
    except PtError as exc:
        _fail(exc, t0)
    dk = (K[1] - K[0]) / sc
    d2 = math.sqrt(np.vdot(dk, dk).real / n) / h0
    h1 = max(1e-6, 1e-3 * h0) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** 0.125
    h = min(100.0 * h0, h1, t1 - t0, settings.max_step)

    t = t0
    nsteps = 0
    after_rejection = False
    while t < t1:
        if h <= 1e-15 * max(abs(t), 1.0):
            _fail(StepSizeUnderflow(f"step size underflow at t={t}"), t)
        if nsteps >= settings.max_steps:
            _fail(StepLimitExceeded(f"max_steps={settings.max_steps} reached at t={t}"), t)
        if h >= t1 - t:
            t_new = t1
        else:
            t_new = t + h
            if t_new - t > h:
                # rounded up: keep the stored step within h (and max_step)
                t_new = math.nextafter(t_new, t)
        h = t_new - t
        try:
            for i in range(1, 12):
                stage(i, t + _C[i] * h, y + h * (_A[i] @ K[:i]))
            dy, err5, err3 = _STEP_WEIGHTS @ K[:12]
            y_new = y + h * dy
            stage(12, t_new, y_new)
        except PtError as exc:
            _fail(exc, t)
        nsteps += 1

        sc = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err5 /= sc
        err3 /= sc
        e5 = np.vdot(err5, err5).real
        denom = e5 + 0.01 * np.vdot(err3, err3).real
        err = h * e5 / math.sqrt(denom * n) if denom > 0.0 else 0.0
        if err <= 1.0:
            if dense_output:
                try:
                    for i in range(13, 16):
                        stage(i, t + _C[i] * h, y + h * (_A[i] @ K[:i]))
                except PtError as exc:
                    _fail(exc, t)
                rows = np.empty((7, n), dtype=dtype)
                rows[0] = y_new - y
                rows[1] = h * K[0] - rows[0]
                rows[2] = 2.0 * rows[0] - h * (K[12] + K[0])
                rows[3:] = h * (_D @ K)
                dense.append(rows)
            t, y = t_new, y_new
            K[0] = K[12]  # FSAL
            ts.append(t)
            ys.append(y)
            fac = 10.0 if err == 0.0 else min(10.0, 0.9 * err**-0.125)
            if after_rejection:
                fac = min(1.0, fac)
            after_rejection = False
        else:
            rejected += 1
            fac = max(0.2, 0.9 * err**-0.125)
            after_rejection = True
        h = min(h * fac, settings.max_step)

    return Trajectory(np.array(ts), np.array(ys), rejected, evals,
                      np.array(dense) if dense_output else None)


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


def minimize_norm_constrained(energy, x0, tol=1e-6, max_iter=500):
    """Minimize ``energy(x)``, which returns ``(value, analytic gradient)``,
    by damped, saddle-free Newton steps.

    ``energy`` takes one point ``x`` (n,) and returns ``(value, grad)``,
    and takes a stack of points (m, n) and returns their values (m,) and
    gradients (m, n). The name dates from an optional norm constraint that
    no caller used; it is kept because the benchmark's tracer
    (``bench/tracing.py``) wraps this function by name.

    Each step builds a forward-difference Hessian of the gradient, from one
    call of ``energy`` on the n points x + h_i e_i, and eigendecomposes it.
    Directions of curvature |lambda| at or below 1e-8
    of the largest (flat directions such as the scale of a Rayleigh
    quotient) are left out; along the others the step is
    -(v.g) v / (|lambda| + mu max|lambda|), so it points downhill at a
    saddle too (Dauphin et al., NeurIPS 2014). mu starts at 1e-6. A trial
    point is accepted when the energy drops by more than its roundoff
    (taken as 1e-12 of |value|), or, near the minimum, when it changes by
    no more than that while the gradient's max norm shrinks; then mu is
    divided by 10. Otherwise, and when ``energy`` raises a
    :class:`PtError` (for example at a trial point outside its domain), mu
    is multiplied by 10 and the step retried, so no bounds are needed.

    Stops when the gradient's max norm is at most ``tol``, after
    ``max_iter`` steps, or when the damped step no longer moves ``x``.
    Does not warn: the caller decides what a gradient above ``tol`` means.

    Returns ``(x, value, gradient)`` at the last accepted iterate.
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    value, grad = energy(x)
    mu = 1e-6
    for _ in range(max_iter):
        gmax = np.max(np.abs(grad))
        if gmax <= tol:
            break
        # row i of the stack is x + h_i e_i
        h = 1e-6 * np.maximum(1.0, np.abs(x))
        xp = np.tile(x, (len(x), 1))
        xp.flat[::len(x) + 1] += h
        hess = ((energy(xp)[1] - grad) / h[:, None]).T
        lam, vec = np.linalg.eigh(0.5 * (hess + hess.T))
        scale = np.max(np.abs(lam))
        keep = np.abs(lam) > 1e-8 * scale
        lam, vec = np.abs(lam[keep]), vec[:, keep]
        coef = vec.T @ grad
        slack = 1e-12 * abs(value)
        while True:
            x_new = x - vec @ (coef / (lam + mu * scale))
            if np.array_equal(x_new, x):
                return x, float(value), grad
            try:
                v_new, g_new = energy(x_new)
            except PtError:
                mu *= 10.0
                continue
            g_new_max = np.max(np.abs(g_new))
            if np.isfinite(g_new_max) and (
                    v_new < value - slack or (v_new <= value + slack and g_new_max < gmax)):
                break
            mu *= 10.0
        x, value, grad = x_new, v_new, g_new
        mu /= 10.0
    return x, float(value), grad
