import numpy as np
import pytest

from ptembed.errors import (
    NonFiniteDerivative,
    NonFiniteFunction,
    RefinementLimit,
    SingularMatrix,
    StepLimitExceeded,
    StepSizeUnderflow,
)
from ptembed.numerics import (
    IntegratorSettings,
    integrate_adaptive,
    minimize_norm_constrained,
    quadrature_oracle,
    root_find,
    solve_linear,
)


class TestIntegrator:
    def test_harmonic_oscillator_accuracy(self):
        # y'' = -y as a complex first-order system: y = exp(-i t)
        traj = integrate_adaptive(
            lambda t, y: -1j * y, np.array([1.0 + 0j]), (0.0, 10.0),
            IntegratorSettings(rel_tol=1e-12, abs_tol=1e-14),
        )
        assert abs(traj.y[-1][0] - np.exp(-10j)) < 1e-10

    def test_dense_output_between_steps(self):
        traj = integrate_adaptive(
            lambda t, y: -1j * y, np.array([1.0 + 0j]), (0.0, 5.0),
            IntegratorSettings(rel_tol=1e-10, abs_tol=1e-12),
        )
        tq = np.linspace(0.3, 4.7, 57)
        vals = traj.sample(tq)[:, 0]
        assert np.max(np.abs(vals - np.exp(-1j * tq))) < 1e-7

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

    def test_finite_time_blowup_underflows_step_size(self):
        # y' = y^2 with y(0) = 1 blows up at t = 1: the step size collapses
        # while y is still finite
        with pytest.raises(StepSizeUnderflow) as exc:
            integrate_adaptive(lambda t, y: y**2, np.array([1.0]), (0.0, 2.0),
                               IntegratorSettings())
        assert 0.999 < exc.value.t_fail < 1.0
        assert exc.value.trajectory.t[-1] == exc.value.t_fail
        assert np.all(np.isfinite(exc.value.trajectory.y))

    def test_max_steps_enforced(self):
        with pytest.raises(StepLimitExceeded):
            integrate_adaptive(
                lambda t, y: -y, np.array([1.0]), (0.0, 1e6),
                IntegratorSettings(max_steps=50),
            )

    def test_determinism(self):
        run = lambda: integrate_adaptive(
            lambda t, y: np.array([y[1], -np.sin(y[0])]),
            np.array([1.0, 0.0]), (0.0, 10.0), IntegratorSettings()
        )
        a, b = run(), run()
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.y, b.y)


class TestLinearSolve:
    def test_solves(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        x = solve_linear(a, np.array([3.0, 4.0]))
        assert np.allclose(a @ x, [3.0, 4.0], atol=1e-12)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            solve_linear(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 1.0]))


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
    def test_quadratic_on_sphere(self):
        # minimize x^T diag(1,2,3) x on |x| = 1 -> minimum 1 at e_1
        energy = lambda x: float(x @ (np.array([1.0, 2.0, 3.0]) * x))
        norm = lambda x: float(x @ x)
        x, val = minimize_norm_constrained(energy, np.array([0.5, 0.5, 0.7]),
                                           constraint=norm)
        assert abs(val - 1.0) < 1e-8
        assert abs(abs(x[0]) - 1.0) < 1e-4

    def test_analytic_gradient_meets_tol(self):
        # Rayleigh quotient of diag(1, 2, 3): flat along the scale of x
        a = np.array([1.0, 2.0, 3.0])

        def quotient(x):
            nrm = x @ x
            e = x @ (a * x) / nrm
            return e, 2.0 * (a * x - e * x) / nrm

        x, val = minimize_norm_constrained(quotient, np.array([0.5, 0.5, 0.7]),
                                           tol=1e-12, jac=True)
        assert np.max(np.abs(quotient(x)[1])) <= 1e-12
        assert abs(val - 1.0) < 1e-14


class TestQuadratureOracle:
    def test_gaussian_1d(self):
        v = quadrature_oracle(lambda x: np.exp(-x * x), (-np.inf, np.inf))
        assert abs(v - np.sqrt(np.pi)) < 1e-10

    def test_complex_integrand(self):
        a = 1.0 + 0.5j
        v = quadrature_oracle(lambda x: np.exp(-a * x * x), (-np.inf, np.inf))
        assert abs(v - np.sqrt(np.pi / a)) < 1e-9

    def test_2d_product(self):
        v = quadrature_oracle(lambda x, y: np.exp(-x * x - 2 * y * y),
                              [(-8.0, 8.0), (-8.0, 8.0)], tol=1e-9)
        assert abs(v - np.pi / np.sqrt(2.0)) < 1e-8

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_refinement_limit(self):
        # genuinely nasty integrand: quad cannot certify 1e-10 here
        with pytest.raises(RefinementLimit):
            quadrature_oracle(lambda x: np.sin(1.0 / (x * x + 1e-8)),
                              (-1.0, 1.0), tol=1e-12)
