import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptembed import variational
from ptembed.dnlse import (
    UnitSystem,
    WellPotentialSpec,
    fit_ground_state,
    overlap_matrix,
    standard_four_well,
)
from ptembed.errors import (
    ControlSearchFailed,
    NoConvergence,
    NonNormalizable,
    SingularMetric,
    SizeMismatch,
)
from ptembed.numerics import IntegratorSettings
from ptembed.variational import (
    TrapKernel,
    VariationalState,
    WallPartition,
    assemble_eom,
    box_observables,
    controlled_step,
    density_profile,
    eom_rhs,
    free_gaussian_width,
    norm_and_energy,
    normalized_energy,
    propagate_state,
    relax_to_fixed_point,
    run_variational_scenario,
)

FREE_UNITS = UnitSystem.rubidium87(N=0.0)  # g = 0


def single_packet(a_z=0.7 + 0.2j, q=0.3, p=0.4):
    return VariationalState(A_x=[0.5], A_y=[0.5], A_z=[a_z],
                            q_z=[q], p_z=[p], gamma=[0.1 + 0j])


@pytest.fixture(scope="module")
def trap_system():
    wells = standard_four_well()
    units = UnitSystem.rubidium87()
    basis, d, energy = fit_ground_state(wells, units)
    state = VariationalState.from_basis(basis, d)
    return wells, units, state


class TestState:
    def test_vector_round_trip(self):
        st = single_packet()
        st2 = VariationalState.from_vector(st.to_vector())
        assert np.allclose(st2.A_z, st.A_z)
        assert np.allclose(st2.gamma, st.gamma)

    def test_width_positivity_enforced(self):
        with pytest.raises(NonNormalizable):
            VariationalState(A_x=[-0.1], A_y=[1.0], A_z=[1.0],
                             q_z=[0.0], p_z=[0.0], gamma=[0.0])

    def test_eom_rhs_rejects_nonpositive_width(self):
        # the right-hand side reads the packed vector without building a
        # state: its kernel checks the widths instead, and the derivative
        # is unchanged
        st = single_packet()
        rhs = eom_rhs(None, FREE_UNITS)
        x = st.to_vector()
        assert np.array_equal(rhs(0.0, x), assemble_eom(st, None, FREE_UNITS)[1])
        x[4] = -0.1  # Re A_z
        with pytest.raises(NonNormalizable):
            rhs(0.0, x)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            VariationalState(A_x=[1.0, 1.0], A_y=[1.0], A_z=[1.0],
                             q_z=[0.0], p_z=[0.0], gamma=[0.0])


class TestFreeMotion:
    def test_width_dispersion(self):
        st = single_packet()
        stf, _ = propagate_state(
            st, None, FREE_UNITS, (0.0, 1.0),
            IntegratorSettings(rel_tol=1e-11, abs_tol=1e-13))
        assert abs(stf.A_z[0] - free_gaussian_width(0.7 + 0.2j, 1.0)) < 1e-9
        assert abs(stf.A_x[0] - free_gaussian_width(0.5, 1.0)) < 1e-9

    def test_packet_drifts_at_momentum(self):
        st = single_packet()
        stf, _ = propagate_state(
            st, None, FREE_UNITS, (0.0, 1.0),
            IntegratorSettings(rel_tol=1e-11, abs_tol=1e-13))
        assert abs(stf.q_z[0] - (0.3 + 0.4 * 1.0)) < 1e-9
        assert abs(stf.p_z[0] - 0.4) < 1e-9

    def test_norm_and_energy_conserved(self):
        st = single_packet()
        n0, e0 = norm_and_energy(st, None, FREE_UNITS)
        stf, _ = propagate_state(
            st, None, FREE_UNITS, (0.0, 1.0),
            IntegratorSettings(rel_tol=1e-11, abs_tol=1e-13))
        n1, e1 = norm_and_energy(stf, None, FREE_UNITS)
        assert abs(n1 - n0) < 1e-10
        assert abs(e1 - e0) < 1e-10


def test_metric_is_hermitian_positive(trap_system):
    wells, units, state = trap_system
    system, xdot = assemble_eom(state, wells, units)
    m = system.metric
    assert np.allclose(m, m.conj().T, atol=1e-10)
    evals = np.linalg.eigvalsh(m.real + m.real.T)
    assert evals[-1] > 0
    assert evals[0] > -1e-10 * evals[-1]
    assert np.all(np.isfinite(xdot))


def test_box_numbers_sum_to_norm(trap_system):
    wells, units, state = trap_system
    part = WallPartition.from_wells(wells)
    n, j = box_observables(state, part)
    nrm, _ = norm_and_energy(state, wells, units)
    assert abs(n.sum() - nrm) < 1e-10
    # the fitted ground state is real: all wall currents vanish
    assert np.max(np.abs(j)) < 1e-12


def test_density_profile_peaks_at_wells(trap_system):
    wells, units, state = trap_system
    z = np.linspace(-5.0, 5.0, 2001)
    rho = density_profile(state, z)
    assert np.all(rho >= 0)
    # outer wells are deeper: density maxima near the outer positions
    peak = z[np.argmax(rho)]
    assert min(abs(peak - wells.positions[0]), abs(peak - wells.positions[3])) < 0.3


def test_relaxed_state_is_stationary(trap_system):
    wells, units, state = trap_system
    gs = relax_to_fixed_point(state, wells, units)
    nrm, e0 = norm_and_energy(gs, wells, units)
    assert abs(nrm - 1.0) < 1e-10
    part = WallPartition.from_wells(wells)
    n0, _ = box_observables(gs, part)
    stf, _ = propagate_state(gs, wells, units, (0.0, 2.0),
                             IntegratorSettings(rel_tol=1e-9, abs_tol=1e-11))
    n1, _ = box_observables(stf, part)
    _, e1 = norm_and_energy(stf, wells, units)
    assert np.max(np.abs(n1 - n0)) < 1e-6
    assert abs(e1 - e0) < 1e-8


def test_relaxation_out_of_steps_raises(trap_system):
    wells, units, state = trap_system
    # the fitted state is already a minimum: start from wider packets
    wider = VariationalState(A_x=state.A_x, A_y=state.A_y, A_z=0.8 * state.A_z,
                             q_z=state.q_z, p_z=state.p_z, gamma=state.gamma)
    with pytest.raises(NoConvergence, match="gradient"):
        relax_to_fixed_point(wider, wells, units, max_steps=1)


def test_controlled_step_meets_current_targets(trap_system):
    wells, units, state = trap_system
    gs = relax_to_fixed_point(state, wells, units)
    part = WallPartition.from_wells(wells)
    n, _ = box_observables(gs, part)
    gamma = 1e-3
    targets = (2.0 * gamma * n[1], 2.0 * gamma * n[2])
    result, wells2 = controlled_step(
        gs, wells, units, targets, dt=0.5,
        settings=IntegratorSettings(rel_tol=1e-7, abs_tol=1e-9), tol=1e-9)
    assert abs(result.currents[0] - targets[0]) < 1e-8
    assert abs(result.currents[2] - targets[1]) < 1e-8
    # only the outer depths move
    assert np.allclose(wells2.depths[1:3], wells.depths[1:3])
    assert not np.allclose(wells2.depths[[0, 3]], wells.depths[[0, 3]])


def test_warm_started_step_skips_finite_differences(trap_system):
    wells, units, state = trap_system
    gs = relax_to_fixed_point(state, wells, units)
    part = WallPartition.from_wells(wells)
    settings = IntegratorSettings(rel_tol=1e-7, abs_tol=1e-9)
    n, _ = box_observables(gs, part)
    first, wells1 = controlled_step(gs, wells, units, (2e-4 * n[1], 2e-4 * n[2]),
                                    dt=0.5, settings=settings)
    assert first.jacobian_refreshes == 1
    n, j = box_observables(first.state, part)
    # the step reports the end state's observables: the next targets use them
    assert np.array_equal(first.populations, n) and np.array_equal(first.currents, j)
    targets = (4e-4 * n[1], 4e-4 * n[2])
    second, _ = controlled_step(first.state, wells1, units, targets, dt=0.5,
                                settings=settings, jacobian=first.jacobian)
    assert abs(second.currents[0] - targets[0]) < 1e-8
    assert abs(second.currents[2] - targets[1]) < 1e-8
    # the start point and one Newton step; a cold search adds two
    # finite-difference integrations
    assert second.jacobian_refreshes == 0
    assert second.integrations == 2


def test_run_record_counts_every_integration(trap_system, monkeypatch):
    wells, units, state = trap_system
    trajectories, rconds = [], []
    integrate, solve = variational.integrate_adaptive, variational._solve_metric

    def counting_integrate(*args, **kwargs):
        trajectories.append(integrate(*args, **kwargs))
        return trajectories[-1]

    def recording_solve(*args):
        xdot, rcond = solve(*args)
        rconds.append(rcond)
        return xdot, rcond

    monkeypatch.setattr(variational, "integrate_adaptive", counting_integrate)
    monkeypatch.setattr(variational, "_solve_metric", recording_solve)
    record, _ = run_variational_scenario(
        wells, units, lambda t: (2e-3 * t, 2e-3), t_end=1.0, control_dt=0.5,
        state=state, settings=IntegratorSettings(rel_tol=1e-7, abs_tol=1e-9))
    assert not record.broke_down
    # the root search's trial integrations count with the accepted ones
    assert len(trajectories) == record.integrations.sum() > len(record.integrations)
    assert record.rhs_evals.sum() == sum(t.rhs_evals for t in trajectories) == len(rconds)
    assert record.accepted_steps.sum() == sum(t.accepted_steps for t in trajectories)
    assert record.rejected_steps.sum() == sum(t.rejected_steps for t in trajectories)
    assert record.metric_rcond_min.min() == min(rconds)
    assert 1e-12 <= min(rconds) < 1.0


def test_unreachable_targets_fail_the_search(trap_system):
    wells, units, state = trap_system
    settings = IntegratorSettings(rel_tol=1e-7, abs_tol=1e-9)
    # j_01 = 1 within dt = 1e-3 would need a repulsive outer well
    with pytest.raises(ControlSearchFailed):
        controlled_step(state, wells, units, (1.0, 1.0), dt=1e-3, settings=settings)
    record, final = run_variational_scenario(
        wells, units, lambda t: (2.0, 0.0), t_end=1e-3, control_dt=1e-3,
        state=state, settings=settings)
    assert record.broke_down
    assert record.breakdown_time == 0.0
    assert record.breakdown_reason == "ControlSearchFailed"
    assert record.breakdown_message.startswith("depth search ")
    assert len(record.t) == 1 and len(record.root_iterations) == 0
    assert final is state


def test_wall_partition_from_wells():
    wells = standard_four_well()
    part = WallPartition.from_wells(wells)
    assert np.allclose(part.walls, [-1.8, 0.0, 1.8])
    with pytest.raises(ValueError):
        WallPartition(walls=[1.0, 0.0])


# ------------------------------------------------- brackets, object by object

def random_system(seed, n, n_wells):
    """A state of ``n`` complex Gaussians about 1.8 apart (the default
    trap's spacing, which keeps the metric well conditioned), a random
    trap of ``n_wells`` wells and a random interaction strength."""
    rng = np.random.default_rng(seed)
    u = lambda lo, hi, size=n: rng.uniform(lo, hi, size)
    state = VariationalState(
        A_x=u(0.3, 1.0) + 1j * u(-0.3, 0.3), A_y=u(0.3, 1.0) + 1j * u(-0.3, 0.3),
        A_z=u(0.8, 1.6) + 1j * u(-0.5, 0.5),
        q_z=1.8 * (np.arange(n) - 0.5 * (n - 1)) + u(-0.2, 0.2), p_z=u(-0.5, 0.5),
        gamma=u(-0.5, 0.5) + 1j * u(-math.pi, math.pi),
    )
    wells = WellPotentialSpec(
        depths=u(-60.0, -10.0, n_wells), positions=np.sort(u(-3.0, 3.0, n_wells)),
        w_x=u(2.0, 5.0, None), w_y=u(2.0, 5.0, None), w_z=u(0.7, 1.5, None),
    )
    return state, wells, UnitSystem.rubidium87(N=u(0.0, 2e5, None))


def axis_moments(a, b, c, orders):
    """int s^k exp(-a s^2 + b s + c) ds for k < orders, by the recurrence
    m_k = mu m_(k-1) + (k - 1) m_(k-2) / (2a) of the Gaussian's moments."""
    m = [np.sqrt(math.pi / a) * np.exp(b * b / (4.0 * a) + c)]
    m.append(b / (2.0 * a) * m[0])
    for k in range(2, orders):
        m.append(b / (2.0 * a) * m[-1] + (k - 1) / (2.0 * a) * m[-2])
    return m


# monomials 1, x^2, y^2, z, z^2 as powers of (x, y, z)
POWERS = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 1), (0, 0, 2)]


def reference_brackets(state, wells, units):
    """The metric <D|D> and h = <D|H|psi> summed ket object by ket object:
    kinetic, every (well, Gaussian) potential term and all NG^3 interaction
    triples, each through its full 5x5 table of monomial pair moments."""
    n = state.size
    gauss = [(state.A_x[k], state.A_y[k], state.A_z[k],
              2.0 * state.A_z[k] * state.q_z[k] + 1j * state.p_z[k],
              -state.A_z[k] * state.q_z[k] ** 2 - 1j * state.p_z[k] * state.q_z[k]
              - state.gamma[k]) for k in range(n)]

    def table(bra, ket):
        ax, ay, az, b, c = (np.conj(u) + v for u, v in zip(bra, ket))
        mx, my, mz = axis_moments(ax, 0, 0, 5), axis_moments(ay, 0, 0, 5), axis_moments(az, b, c, 5)
        return np.array([[mx[pi[0] + pj[0]] * my[pi[1] + pj[1]] * mz[pi[2] + pj[2]]
                          for pj in POWERS] for pi in POWERS])

    # d psi / d x per packed direction (AxR, AxI, AyR, AyI, AzR, AzI, q, p, gR, gI)
    D = np.zeros((10 * n, 5), dtype=complex)
    for k in range(n):
        q, p, az = state.q_z[k], state.p_z[k], state.A_z[k]
        D[10 * k:10 * k + 10] = [
            [0, -1, 0, 0, 0], [0, -1j, 0, 0, 0], [0, 0, -1, 0, 0], [0, 0, -1j, 0, 0],
            [-q * q, 0, 0, 2 * q, -1], [-1j * q * q, 0, 0, 2j * q, -1j],
            [-2 * az * q - 1j * p, 0, 0, 2 * az, 0], [-1j * q, 0, 0, 1j, 0],
            [-1, 0, 0, 0, 0], [-1j, 0, 0, 0, 0],
        ]

    kets = []
    for ax, ay, az, b, c in gauss:
        kets.append(((ax, ay, az, b, c),
                     [ax + ay + az - 0.5 * b * b, -2 * ax * ax, -2 * ay * ay, 2 * az * b, -2 * az * az]))
    for vm, sm in zip(wells.depths, wells.positions):
        for ax, ay, az, b, c in gauss:
            kets.append(((ax + 2 / wells.w_x ** 2, ay + 2 / wells.w_y ** 2, az + 2 / wells.w_z ** 2,
                          b + 4 * sm / wells.w_z ** 2, c - 2 * sm * sm / wells.w_z ** 2),
                         [vm, 0, 0, 0, 0]))
    for ga in gauss:
        for gb in gauss:
            for gc in gauss:
                kets.append((tuple(x + np.conj(y) + z for x, y, z in zip(ga, gb, gc)),
                             [units.g, 0, 0, 0, 0]))

    metric = np.zeros((10 * n, 10 * n), dtype=complex)
    h = np.zeros(10 * n, dtype=complex)
    for w in range(n):
        bra = np.conj(D[10 * w:10 * w + 10])
        for v in range(n):
            metric[10 * w:10 * w + 10, 10 * v:10 * v + 10] = (
                bra @ table(gauss[w], gauss[v]) @ D[10 * v:10 * v + 10].T)
        for ket, poly in kets:
            h[10 * w:10 * w + 10] += bra @ table(gauss[w], ket) @ np.array(poly)
    return metric, h


@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4), n_wells=st.integers(1, 4))
def test_assembly_matches_object_by_object_reference(seed, n, n_wells):
    state, wells, units = random_system(seed, n, n_wells)
    system, xdot = assemble_eom(state, wells, units)
    metric, h = reference_brackets(state, wells, units)
    assert np.max(np.abs(system.metric - metric)) <= 1e-11 * np.max(np.abs(metric))
    assert np.max(np.abs(system.rhs_vector - h)) <= 1e-11 * np.max(np.abs(h))
    sym, rhs = system.metric.real + system.metric.real.T, 2.0 * system.rhs_vector.imag
    assert np.linalg.norm(sym @ xdot - rhs) <= 1e-10 * np.linalg.norm(rhs)


@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4), n_wells=st.integers(1, 4),
       trapped=st.booleans(), interacting=st.booleans())
def test_kernel_reuse_matches_a_fresh_kernel_bit_for_bit(seed, n, n_wells, trapped, interacting):
    # one kernel serves a whole integration; its buffers must carry nothing
    # from one state to the next
    first, wells, units = random_system(seed, n, n_wells)
    second, _, _ = random_system(seed + 1, n, n_wells)
    wells = wells if trapped else None
    units = units if interacting else FREE_UNITS
    kernel = TrapKernel(wells, units)
    rhs = eom_rhs(wells, units)
    results = []
    for state in (first, second):
        x = state.to_vector()
        fresh_system, fresh_xdot = assemble_eom(VariationalState.from_vector(x), wells, units)
        assert np.array_equal(rhs(0.0, x), fresh_xdot)
        system, xdot = assemble_eom(x, wells, units, kernel)
        assert np.array_equal(xdot, fresh_xdot)
        assert np.array_equal(system.metric, fresh_system.metric)
        assert np.array_equal(system.rhs_vector, fresh_system.rhs_vector)
        e, grad = normalized_energy(x, wells, units, kernel=kernel)
        fresh_e, fresh_grad = normalized_energy(state, wells, units)
        assert e == fresh_e and np.array_equal(grad, fresh_grad)
        results.append((system, xdot, fresh_system, fresh_xdot))
    # what the kernel returned for the first state is not overwritten
    system, xdot, fresh_system, fresh_xdot = results[0]
    assert np.array_equal(xdot, fresh_xdot)
    assert np.array_equal(system.metric, fresh_system.metric)
    assert np.array_equal(system.rhs_vector, fresh_system.rhs_vector)


@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4), n_wells=st.integers(1, 4),
       trapped=st.booleans(), interacting=st.booleans(), rows=st.integers(1, 5))
def test_stacked_brackets_match_row_by_row_bit_for_bit(seed, n, n_wells, trapped,
                                                      interacting, rows):
    _, wells, units = random_system(seed, n, n_wells)
    wells = wells if trapped else None
    units = units if interacting else FREE_UNITS
    stack = np.stack([random_system(seed + k, n, n_wells)[0].to_vector()
                      for k in range(rows)])
    kernel = TrapKernel(wells, units)
    stacked = [a.copy() for a in kernel.brackets(stack)]
    picked = np.arange(2, len(stack[0]), 3)
    energies, grads = normalized_energy(stack, wells, units, kernel=kernel)
    sub_energies, sub_grads = normalized_energy(stack, wells, units, picked, kernel=kernel)
    assert energies.shape == (rows,) and grads.shape == stack.shape
    assert sub_grads.shape == (rows, len(picked))
    for k, x in enumerate(stack):
        for whole, alone in zip(stacked, kernel.brackets(x)):
            assert np.array_equal(whole[k], alone)
        e, grad = normalized_energy(x, wells, units, kernel=kernel)
        assert energies[k] == e and np.array_equal(grads[k], grad)
        e, grad = normalized_energy(x, wells, units, picked, kernel=kernel)
        assert sub_energies[k] == e and np.array_equal(sub_grads[k], grad)
    # further leading axes are the same stack
    for whole, nested in zip(stacked, kernel.brackets(stack[None])):
        assert np.array_equal(nested[0], whole)


def test_long_stack_is_evaluated_in_blocks_with_the_same_bits():
    state, wells, units = random_system(3, 4, 4)
    x = state.to_vector()
    rows = variational.STACK_BLOCK * 2 + 3
    stack = x + 1e-3 * np.random.default_rng(0).standard_normal((rows, len(x)))
    energies, grads = normalized_energy(stack, wells, units)
    assert energies.shape == (rows,) and grads.shape == stack.shape
    for k, point in enumerate(stack):
        e, grad = normalized_energy(point, wells, units)
        assert energies[k] == e and np.array_equal(grads[k], grad)


def test_stack_with_one_nonpositive_width_raises():
    state, wells, units = random_system(5, 3, 4)
    stack = np.tile(state.to_vector(), (4, 1))
    stack[2, 10 + 4] = -0.1  # Re A_z of the second Gaussian in the third row
    kernel = TrapKernel(wells, units)
    for call in (lambda: kernel.brackets(stack),
                 lambda: normalized_energy(stack, wells, units, kernel=kernel)):
        with pytest.raises(NonNormalizable):
            call()
    # the kernel still serves the valid rows
    e, grad = normalized_energy(stack[:2], wells, units, kernel=kernel)
    assert np.array_equal(e, normalized_energy(stack[0], wells, units)[0] * np.ones(2))


@settings(max_examples=10)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4), n_wells=st.integers(1, 4))
def test_overlap_matrix_from_own_pairs_matches_the_full_evaluation(seed, n, n_wells):
    state, wells, _ = random_system(seed, n, n_wells)
    K = overlap_matrix(state)
    assert np.array_equal(K, variational.gaussian_matrices(state, None)[0])
    assert np.array_equal(K, variational.gaussian_matrices(state, wells)[0])


@settings(max_examples=10)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4))
def test_energy_gradient_matches_central_differences(seed, n):
    state, wells, units = random_system(seed, n, 4)
    x = state.to_vector()
    energy = lambda y: normalized_energy(VariationalState.from_vector(y), wells, units)[0]
    e, grad = normalized_energy(state, wells, units)
    step = 1e-5
    fd = np.empty_like(x)
    for i in range(len(x)):
        dx = np.zeros_like(x)
        dx[i] = step
        fd[i] = (energy(x + dx) - energy(x - dx)) / (2.0 * step)
    # central differences: truncation ~ step^2 |E'''|, roundoff ~ eps |E| / step
    assert np.max(np.abs(grad - fd)) <= 1e-6 * max(1.0, abs(e))
    picked = np.arange(3, len(x), 4)
    _, sub = normalized_energy(state, wells, units, directions=picked)
    assert np.allclose(sub, grad[picked], rtol=1e-13, atol=0.0)


class TestSingularMetric:
    """A dependent parameter set is a breakdown of the ansatz, not a
    regularised solve: assemble_eom raises instead of returning velocities."""

    @staticmethod
    def pair(dq):
        return VariationalState(A_x=[0.5, 0.5], A_y=[0.5, 0.5], A_z=[0.7 + 0.2j] * 2,
                                q_z=[0.3, 0.3 + dq], p_z=[0.4, 0.4], gamma=[0.1, 0.1])

    def test_identical_gaussians_raise(self):
        for wells in (None, standard_four_well()):
            with pytest.raises(SingularMetric):
                assemble_eom(self.pair(0.0), wells, UnitSystem.rubidium87())

    def test_near_dependent_metric_reports_its_condition_estimate(self):
        # factorizable, but the two packets' centres differ by 1e-2
        with pytest.raises(SingularMetric, match="reciprocal condition estimate"):
            assemble_eom(self.pair(1e-2), standard_four_well(), UnitSystem.rubidium87())

    def test_propagation_stops_at_the_singular_metric(self):
        with pytest.raises(SingularMetric):
            propagate_state(self.pair(0.0), None, FREE_UNITS, (0.0, 0.1))
