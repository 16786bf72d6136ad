import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptembed.errors import (
    ControlSingular,
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


# Dormand-Prince 5(4) tableau as numpy arrays: an independent reference for
# the scalar stepper in integrate_adaptive
DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
DP_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])


def dp5_reference_step(rhs, t, y, h):
    k = np.empty((7, y.size), dtype=y.dtype)
    k[0] = rhs(t, y)
    for i in range(1, 7):
        k[i] = rhs(t + DP_C[i] * h, y + h * (DP_A[i] @ k[:i]))
    return y + h * (DP_B @ k)


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
        assert traj.f.shape == (1, 2) and traj.rhs_evals == 1

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
        with pytest.raises(StepLimitExceeded) as exc:
            integrate_adaptive(
                lambda t, y: -y, np.array([1.0]), (0.0, 1e6),
                IntegratorSettings(max_steps=50),
            )
        traj = exc.value.trajectory
        assert traj.rejected_steps == 0
        assert len(traj.t) == 51 and traj.accepted_steps == 50
        assert exc.value.t_fail == traj.t[-1]
        assert traj.rhs_evals == 1 + 6 * 50

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
        assert traj.rhs_evals == 1 + 6 * (traj.accepted_steps + traj.rejected_steps)
        for i in range(6):
            ref = dp5_reference_step(rhs, traj.t[i], traj.y[i], traj.t[i + 1] - traj.t[i])
            assert np.max(np.abs(traj.y[i + 1] - ref)) <= 1e-12 * np.max(np.abs(ref))
            # FSAL: the stored derivative is the rhs at the stored state
            assert np.array_equal(traj.f[i + 1], rhs(traj.t[i + 1], traj.y[i + 1]))

    def test_tuple_rhs_same_as_ndarray_rhs(self):
        rhs, y0 = forced_linear_rhs(4, 3, True)
        a = integrate_adaptive(rhs, y0, (0.0, 2.0), IntegratorSettings())
        b = integrate_adaptive(lambda t, y: tuple(rhs(t, y).tolist()), y0, (0.0, 2.0),
                               IntegratorSettings())
        for field in ("t", "y", "f"):
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
