import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate._ivp import dop853_coefficients as dop853

from ptembed.errors import (
    ControlSingular,
    NonFiniteDerivative,
    NonFiniteFunction,
    NonNormalizable,
    StepLimitExceeded,
    StepSizeUnderflow,
)
from ptembed.numerics import (
    IntegratorSettings,
    integrate_adaptive,
    minimize_norm_constrained,
    root_find,
)


def dop853_reference_step(rhs, t, y, h, s):
    """End state of one DOP853 step and its continuous extension at t + s h,
    built from scipy's table: an independent reference for the constants
    and the stepper in integrate_adaptive."""
    k = np.empty((dop853.N_STAGES_EXTENDED, y.size), dtype=y.dtype)
    for i in range(dop853.N_STAGES_EXTENDED):
        # stage 12 is the derivative at the end state, whose weights are B
        k[i] = rhs(t + dop853.C[i] * h, y + h * (dop853.A[i, :i] @ k[:i]))
    y_new = y + h * (dop853.B @ k[:dop853.N_STAGES])
    dy = y_new - y
    f = [dy, h * k[0] - dy, 2.0 * dy - h * (k[0] + k[dop853.N_STAGES]), *(h * (dop853.D @ k))]
    r = 1.0 - s
    mid = y + s * (f[0] + r * (f[1] + s * (f[2] + r * (f[3] + s * (f[4] + r * (f[5] + s * f[6]))))))
    return y_new, mid


def forced_linear_rhs(seed, n, complex_state):
    """rhs(t, y) = a y + cos(3 t) b with random a and b, and a random y0."""
    rng = np.random.default_rng(seed)
    a, b, y0 = rng.normal(size=(n, n)), rng.normal(size=n), rng.normal(size=n)
    if complex_state:
        a = a + 1j * rng.normal(size=(n, n))
        y0 = y0 + 1j * rng.normal(size=n)
    return (lambda t, y: a @ y + np.cos(3.0 * t) * b), y0


class TestIntegrator:
    def test_harmonic_oscillator_accuracy(self):
        # y'' = -y as a complex first-order system: y = exp(-i t)
        traj = integrate_adaptive(
            lambda t, y: -1j * y, np.array([1.0 + 0j]), (0.0, 10.0),
            IntegratorSettings(rel_tol=1e-12, abs_tol=1e-14),
        )
        assert abs(traj.y[-1][0] - np.exp(-10j)) < 1e-10

    def test_dense_output_between_steps(self):
        # oscillator of frequency 2: y = exp(-2i t), and its real and
        # imaginary parts as a real first-order system
        cases = [
            (lambda t, y: -2j * y, np.array([1.0 + 0j]),
             lambda t: np.exp(-2j * t)[:, None]),
            (lambda t, y: np.array([2.0 * y[1], -2.0 * y[0]]), np.array([1.0, 0.0]),
             lambda t: np.stack([np.cos(2.0 * t), -np.sin(2.0 * t)], axis=1)),
        ]
        rel_tol = 1e-10
        tq = np.linspace(0.0, 5.0, 1001)
        for rhs, y0, exact in cases:
            traj = integrate_adaptive(rhs, y0, (0.0, 5.0),
                                      IntegratorSettings(rel_tol=rel_tol, abs_tol=1e-12))
            assert len(tq) > 20 * traj.accepted_steps
            assert np.max(np.abs(traj.sample(tq) - exact(tq))) < 10 * rel_tol

    def test_sample_needs_dense_output(self):
        rhs, y0 = forced_linear_rhs(5, 3, True)
        settings_ = IntegratorSettings(rel_tol=1e-8, abs_tol=1e-10)
        traj = integrate_adaptive(rhs, y0, (0.0, 2.0), settings_, dense_output=False)
        dense = integrate_adaptive(rhs, y0, (0.0, 2.0), settings_)
        assert traj.dense is None
        with pytest.raises(ValueError, match="dense output"):
            traj.sample(1.0)
        # the same steps, without the three dense-output stages per step
        for field in ("t", "y"):
            assert np.array_equal(getattr(traj, field), getattr(dense, field))
        assert traj.rhs_evals == 2 + 12 * (traj.accepted_steps + traj.rejected_steps)
        assert dense.rhs_evals == traj.rhs_evals + 3 * traj.accepted_steps

    def test_sample_scalar_time_returns_vector(self):
        traj = integrate_adaptive(
            lambda t, y: -y, np.array([2.0]), (0.0, 1.0), IntegratorSettings()
        )
        out = traj.sample(0.5)
        assert out.shape == (1,)
        assert abs(out[0] - 2.0 * np.exp(-0.5)) < 1e-7

    def test_nonlinear_conserves_invariant(self):
        # |y| is conserved for y' = i |y|^2 y
        traj = integrate_adaptive(
            lambda t, y: 1j * np.abs(y) ** 2 * y, np.array([1.3 + 0.2j]),
            (0.0, 20.0), IntegratorSettings(rel_tol=1e-11, abs_tol=1e-13),
        )
        assert abs(abs(traj.y[-1][0]) - abs(traj.y[0][0])) < 1e-9

    def test_nonfinite_rhs_raises_with_partial_trajectory(self):
        def rhs(t, y):
            if t > 1.0:
                return np.array([np.nan])
            return -y

        with pytest.raises(NonFiniteDerivative) as exc:
            integrate_adaptive(rhs, np.array([1.0]), (0.0, 5.0), IntegratorSettings())
        assert exc.value.trajectory is not None
        assert exc.value.t_fail is not None
        assert exc.value.t_fail <= 1.1

    def test_nonfinite_rhs_at_initial_state(self):
        with pytest.raises(NonFiniteDerivative) as exc:
            integrate_adaptive(lambda t, y: np.array([np.inf]), np.array([1.0]),
                               (0.5, 1.0), IntegratorSettings())
        traj = exc.value.trajectory
        assert exc.value.t_fail == 0.5
        assert traj.t.tolist() == [0.5] and traj.y.tolist() == [[1.0]]
        assert traj.accepted_steps == 0 and traj.rhs_evals == 1
        assert np.isnan(traj.h_min) and np.isnan(traj.h_max)

    def test_pt_error_at_initial_state_attaches_one_point(self):
        def rhs(t, y):
            raise ControlSingular("reservoir depleted")

        with pytest.raises(ControlSingular) as exc:
            integrate_adaptive(rhs, np.array([1.0 + 2.0j, 3.0]), (0.5, 1.0),
                               IntegratorSettings())
        traj = exc.value.trajectory
        assert exc.value.t_fail == 0.5
        assert traj.t.tolist() == [0.5]
        assert traj.y.tolist() == [[1.0 + 2.0j, 3.0 + 0j]]
        assert traj.rhs_evals == 1

    def test_finite_time_blowup_underflows_step_size(self):
        # y' = y^2 with y(0) = 1 blows up at t = 1: the step size collapses
        # while y is still finite
        with pytest.raises(StepSizeUnderflow) as exc:
            integrate_adaptive(lambda t, y: y**2, np.array([1.0]), (0.0, 2.0),
                               IntegratorSettings())
        # DOP853 stops within 1e-11 past the pole, as scipy's DOP853 does:
        # the side of the pole is the sign of the global error
        assert abs(exc.value.t_fail - 1.0) < 1e-9
        assert exc.value.trajectory.t[-1] == exc.value.t_fail
        assert np.all(np.isfinite(exc.value.trajectory.y))

    def test_max_steps_enforced(self):
        with pytest.raises(StepLimitExceeded) as exc:
            integrate_adaptive(
                lambda t, y: -y, np.array([1.0]), (0.0, 1e6),
                IntegratorSettings(max_steps=50),
            )
        traj = exc.value.trajectory
        # max_steps counts attempted steps
        assert traj.rejected_steps == 2
        assert len(traj.t) == 49 and traj.accepted_steps == 48
        assert exc.value.t_fail == traj.t[-1]
        assert traj.rhs_evals == 2 + 12 * 50 + 3 * 48

    @pytest.mark.parametrize("complex_state", [True, False])
    def test_steps_match_numpy_reference(self, complex_state):
        rhs, y0 = forced_linear_rhs(3, 5, complex_state)
        evals = []
        counted = lambda t, y: evals.append(t) or rhs(t, y)
        traj = integrate_adaptive(counted, y0, (0.0, 2.0),
                                  IntegratorSettings(rel_tol=1e-8, abs_tol=1e-10,
                                                     max_step=0.2))
        assert traj.y.dtype == (complex if complex_state else float)
        assert traj.accepted_steps >= 10 and traj.h_max <= 0.2
        assert traj.rhs_evals == len(evals)
        # the first evaluation and the starting-step probe, 12 evaluations
        # per attempted step and 3 dense-output stages per accepted step
        assert traj.rhs_evals == (2 + 12 * (traj.accepted_steps + traj.rejected_steps)
                                  + 3 * traj.accepted_steps)
        for i in range(6):
            h = traj.t[i + 1] - traj.t[i]
            ref, mid = dop853_reference_step(rhs, traj.t[i], traj.y[i], h, 0.3)
            assert np.max(np.abs(traj.y[i + 1] - ref)) <= 1e-12 * np.max(np.abs(ref))
            got = traj.sample(traj.t[i] + 0.3 * h)
            assert np.max(np.abs(got - mid)) <= 1e-12 * np.max(np.abs(mid))

    def test_tuple_rhs_same_as_ndarray_rhs(self):
        rhs, y0 = forced_linear_rhs(4, 3, True)
        a = integrate_adaptive(rhs, y0, (0.0, 2.0), IntegratorSettings())
        b = integrate_adaptive(lambda t, y: tuple(rhs(t, y).tolist()), y0, (0.0, 2.0),
                               IntegratorSettings())
        for field in ("t", "y", "dense"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert (a.rejected_steps, a.rhs_evals) == (b.rejected_steps, b.rhs_evals)

    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
           complex_state=st.booleans(), t_end=st.floats(0.01, 5.0))
    def test_sample_hits_step_endpoints_exactly(self, seed, n, complex_state, t_end):
        rhs, y0 = forced_linear_rhs(seed, n, complex_state)
        traj = integrate_adaptive(rhs, y0, (0.0, t_end),
                                  IntegratorSettings(rel_tol=1e-6, abs_tol=1e-8))
        assert np.array_equal(traj.sample(traj.t), traj.y)

    def test_determinism(self):
        run = lambda: integrate_adaptive(
            lambda t, y: np.array([y[1], -np.sin(y[0])]),
            np.array([1.0, 0.0]), (0.0, 10.0), IntegratorSettings()
        )
        a, b = run(), run()
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.y, b.y)


class TestRootFind:
    def test_scalar_root(self):
        rep = root_find(lambda x: np.array([x[0] ** 2 - 2.0]), np.array([1.0]))
        assert rep.converged
        assert abs(rep.solution[0] - np.sqrt(2.0)) < 1e-9

    def test_coupled_system(self):
        def f(x):
            return np.array([x[0] + x[1] - 3.0, x[0] * x[1] - 2.0])

        rep = root_find(f, np.array([0.4, 0.6]))
        assert rep.converged
        assert np.allclose(sorted(rep.solution), [1.0, 2.0], atol=1e-8)

    def test_reports_failure(self):
        rep = root_find(lambda x: np.array([x[0] ** 2 + 1.0]), np.array([1.0]),
                        max_iter=25)
        assert not rep.converged

    def test_supplied_jacobian_skips_finite_differences(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        b = np.array([1.0, -2.0])
        calls = []

        def f(x):
            calls.append(x.copy())
            return a @ x - b

        cold = root_find(f, np.zeros(2))
        assert cold.jacobian_refreshes == 1
        # start, two forward differences, one evaluation per step
        assert len(calls) == 3 + cold.iterations
        calls.clear()
        warm = root_find(f, np.zeros(2), jac=a)
        assert warm.converged and warm.iterations == 1
        assert warm.jacobian_refreshes == 0
        assert len(calls) == 2
        assert np.allclose(a @ warm.solution, b, atol=1e-12)

    def test_returns_jacobian_updated_by_the_final_step(self):
        # f = 2x - 2 from a model slope of 1.9: the first step lands within
        # tol, and its secant slope is the exact one
        start = np.array([[1.9]])
        rep = root_find(lambda x: 2.0 * x - 2.0, np.array([0.0]), tol=0.2, jac=start)
        assert rep.converged and rep.iterations == 1
        assert rep.jacobian[0, 0] == pytest.approx(2.0, rel=1e-12)
        assert start[0, 0] == 1.9  # the caller's model is not modified

    def test_wrong_warm_jacobian_recovers(self):
        def f(x):
            return np.array([x[0] + x[1] - 3.0, x[0] * x[1] - 2.0])

        # the true Jacobian at the start, negated: the Newton step points uphill
        wrong = -np.array([[1.0, 1.0], [0.6, 0.4]])
        rep = root_find(f, np.array([0.4, 0.6]), jac=wrong)
        assert rep.converged
        assert rep.jacobian_refreshes >= 1  # the stagnation refresh rebuilt it
        assert np.allclose(sorted(rep.solution), [1.0, 2.0], atol=1e-8)

    def test_nan_at_start_raises(self):
        with pytest.raises(NonFiniteFunction):
            root_find(lambda x: np.array([np.nan, x[1]]), np.array([0.4, 0.6]))


class TestConstrainedMinimize:
    """The energies take one point (n,) or a stack of points (m, n)."""

    def test_analytic_gradient_meets_tol(self):
        # Rayleigh quotient of diag(1, 2, 3): flat along the scale of x
        a = np.array([1.0, 2.0, 3.0])

        def quotient(x):
            nrm = np.sum(x * x, axis=-1)
            e = np.sum(x * (a * x), axis=-1) / nrm
            return e, 2.0 * (a * x - e[..., None] * x) / nrm[..., None]

        x, val, grad = minimize_norm_constrained(quotient, np.array([0.5, 0.5, 0.7]),
                                                 tol=1e-12)
        assert np.array_equal(grad, quotient(x)[1])
        assert np.max(np.abs(grad)) <= 1e-12
        assert abs(val - 1.0) < 1e-14

    def test_start_next_to_a_saddle_reaches_the_minimum(self):
        # x^2 - y^2 + y^4/2: saddle at the origin, minima -1/2 at (0, +-1)
        def f(v):
            x, y = v[..., 0], v[..., 1]
            return (x * x - y * y + 0.5 * y**4,
                    np.stack([2.0 * x, -2.0 * y + 2.0 * y**3], axis=-1))

        start = np.array([0.3, 1e-3])
        # the undamped Newton step from the start lands next to the saddle
        hess = np.diag([2.0, -2.0 + 6.0 * start[1] ** 2])
        assert np.max(np.abs(start - np.linalg.solve(hess, f(start)[1]))) < 1e-8
        x, val, grad = minimize_norm_constrained(f, start, tol=1e-10)
        assert np.max(np.abs(grad)) <= 1e-10
        assert np.allclose(x, [0.0, 1.0], atol=1e-10)
        assert abs(val + 0.5) < 1e-15

    def test_trial_point_outside_the_domain_is_stepped_around(self):
        # x - log x has its minimum at x = 1; the full Newton step from 3
        # goes to -3, where the energy raises, as a width with Re A <= 0 does
        raised = []

        def f(v):
            x = v[..., 0]
            if np.any(x <= 0.0):
                raised.append(x)
                raise NonNormalizable("x must stay positive")
            return x - np.log(x), 1.0 - 1.0 / v

        x, val, grad = minimize_norm_constrained(f, np.array([3.0]), tol=1e-12)
        assert raised
        assert abs(grad[0]) <= 1e-12
        assert abs(x[0] - 1.0) < 1e-11

    def test_max_iter_exhausted_returns_best_iterate(self):
        def rosenbrock(v):
            x, y = v[..., 0], v[..., 1]
            return ((1.0 - x) ** 2 + 100.0 * (y - x * x) ** 2,
                    np.stack([-2.0 * (1.0 - x) - 400.0 * x * (y - x * x),
                              200.0 * (y - x * x)], axis=-1))

        start = np.array([-1.2, 1.0])
        x, val, grad = minimize_norm_constrained(rosenbrock, start, tol=1e-10, max_iter=2)
        value_at_x, grad_at_x = rosenbrock(x)
        assert val == value_at_x and np.array_equal(grad, grad_at_x)
        assert np.max(np.abs(grad)) > 1e-10
        assert val < rosenbrock(start)[0]
