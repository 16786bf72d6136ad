import numpy as np
import pytest

from ptembed.dnlse import (
    UnitSystem,
    WellPotentialSpec,
    fit_ground_state,
    standard_four_well,
)
from ptembed.errors import ControlSearchFailed, NonNormalizable, SizeMismatch
from ptembed.numerics import IntegratorSettings
from ptembed.variational import (
    VariationalState,
    WallPartition,
    assemble_eom,
    box_observables,
    controlled_step,
    density_profile,
    free_gaussian_width,
    norm_and_energy,
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
    assert len(record.t) == 1 and len(record.root_iterations) == 0
    assert final is state


def test_wall_partition_from_wells():
    wells = standard_four_well()
    part = WallPartition.from_wells(wells)
    assert np.allclose(part.walls, [-1.8, 0.0, 1.8])
    with pytest.raises(ValueError):
        WallPartition(walls=[1.0, 0.0])
