import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptembed import dnlse
from ptembed.dnlse import (
    EffectiveModel,
    UnitSystem,
    WellPotentialSpec,
    effective_amplitudes,
    effective_model,
    fit_ground_state,
    hamiltonian_matrices,
    interaction_tensor,
    invert_to_potential,
    lowdin_exact,
    lowdin_nn,
    lowdin_nn_inverse,
    mean_field_energy,
    overlap_matrix,
    standard_four_well,
)
from ptembed.errors import (
    ConvergenceWarning,
    NonNormalizable,
    NotPositiveDefinite,
    OutOfRange,
    SizeMismatch,
)
from ptembed.variational import VariationalState


@pytest.fixture(scope="module")
def fitted():
    wells = standard_four_well()
    units = UnitSystem.rubidium87()
    basis, d, energy = fit_ground_state(wells, units)
    return wells, units, basis, d, energy


def test_standard_trap_layout():
    wells = standard_four_well()
    assert np.allclose(wells.positions, [-2.7, -0.9, 0.9, 2.7])
    assert np.allclose(wells.depths, [-60.0, -45.0, -45.0, -60.0])
    assert wells.w_x == wells.w_y == 4.0


def test_trap_invariants():
    with pytest.raises(ValueError):
        WellPotentialSpec(depths=[1.0, -1.0], positions=[0.0, 1.0])
    with pytest.raises(ValueError):
        WellPotentialSpec(depths=[-1.0, -1.0], positions=[1.0, 0.0])
    with pytest.raises(SizeMismatch):
        WellPotentialSpec(depths=[-1.0], positions=[0.0, 1.0])


def test_basis_width_positivity():
    with pytest.raises(NonNormalizable):
        VariationalState(A_x=[-0.1], A_y=[1.0], A_z=[1.0], q_z=[0.0])


class TestUnits:
    def test_energy_and_time_scales(self):
        units = UnitSystem.rubidium87()
        assert abs(units.E0_hz - 116.0) / 116.0 < 0.01
        assert abs(units.t0 - 1.37e-3) / 1.37e-3 < 0.01

    def test_interaction_strength_scaling(self):
        units = UnitSystem.rubidium87()
        doubled = UnitSystem.rubidium87(N=2e5)
        assert abs(doubled.g / units.g - 2.0) < 1e-12

    @pytest.mark.parametrize("name, codata_key", [
        ("HBAR", "reduced Planck constant"),
        ("PLANCK", "Planck constant"),
        ("ATOMIC_MASS", "atomic mass constant"),
        ("BOHR_RADIUS", "Bohr radius"),
    ])
    def test_constants_are_codata_2022(self, name, codata_key):
        # scipy 1.15 and later tabulate CODATA 2022; the bits must match so
        # that the trap units are those computed from scipy's table
        from scipy.constants import physical_constants

        assert getattr(dnlse, name) == physical_constants[codata_key][0]


def random_complex_basis(seed, n):
    """``n`` Gaussians with random complex widths and centres at least 0.5
    apart, and a trap of ``n`` random wells."""
    rng = np.random.default_rng(seed)
    rand_a = lambda: rng.uniform(0.3, 2.0, n) + 1j * rng.uniform(-0.5, 0.5, n)
    q = np.cumsum(rng.uniform(0.5, 1.5, n))
    basis = VariationalState(A_x=rand_a(), A_y=rand_a(), A_z=rand_a(), q_z=q - q.mean())
    wells = WellPotentialSpec(
        depths=rng.uniform(-60.0, -20.0, n), positions=q - q.mean() + rng.uniform(-0.2, 0.2),
        w_x=rng.uniform(2.0, 5.0), w_y=rng.uniform(2.0, 5.0), w_z=rng.uniform(0.7, 1.5))
    return basis, wells


class TestMatrixElements:
    def test_single_gaussian_overlap(self):
        # int exp(-2 a r^2) = (pi / 2a)^{3/2} for a = 1/2
        basis = VariationalState(A_x=[0.5], A_y=[0.5], A_z=[0.5], q_z=[0.0])
        assert abs(overlap_matrix(basis)[0, 0] - np.pi**1.5) < 1e-13

    def test_displaced_pair_overlap(self):
        basis = VariationalState(A_x=[0.5, 0.5], A_y=[0.5, 0.5],
                                 A_z=[0.5, 0.5], q_z=[0.0, 2.0])
        expected = (np.pi / 1.0) ** 1.5 * np.exp(-0.5 * 0.5 / 1.0 * 4.0)
        assert abs(overlap_matrix(basis)[0, 1] - expected) < 1e-13

    def test_kinetic_isotropic_ratio(self):
        # <g|-(1/2)Delta|g> / <g|g> = 3 a / 2 for isotropic width a
        basis = VariationalState(A_x=[0.5], A_y=[0.5], A_z=[0.5], q_z=[0.0])
        wells = WellPotentialSpec(depths=[-45.0], positions=[0.0])
        bundle = hamiltonian_matrices(basis, wells, UnitSystem.rubidium87())
        assert abs(bundle.T[0, 0] / bundle.K[0, 0] - 0.75) < 1e-13

    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4))
    def test_hermiticity(self, seed, n):
        basis, wells = random_complex_basis(seed, n)
        bundle = hamiltonian_matrices(basis, wells, UnitSystem.rubidium87())
        for m in (bundle.K, bundle.T, bundle.V):
            assert np.allclose(m, m.conj().T, rtol=0.0, atol=1e-13 * np.max(np.abs(m)))
        # K is a Gram matrix of linearly independent Gaussians
        assert np.linalg.eigvalsh(bundle.K)[0] > 0.0

    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4))
    def test_interaction_tensor_symmetry(self, seed, n):
        basis, _ = random_complex_basis(seed, n)
        w = interaction_tensor(basis, UnitSystem.rubidium87())
        tol = 1e-13 * np.max(np.abs(w))
        # W~_lkji: bras l, j and kets k, i; swapping bras with kets conjugates
        assert np.allclose(w, np.transpose(w, (1, 0, 3, 2)).conj(), rtol=0.0, atol=tol)
        assert np.allclose(w, np.transpose(w, (3, 2, 1, 0)).conj(), rtol=0.0, atol=tol)
        # swapping the two bra (or the two ket) slots leaves W~ unchanged
        assert np.allclose(w, np.transpose(w, (2, 1, 0, 3)), rtol=0.0, atol=tol)
        assert np.allclose(w, np.transpose(w, (0, 3, 2, 1)), rtol=0.0, atol=tol)


class TestLowdin:
    def _basis(self, sep):
        return VariationalState(A_x=[0.5] * 4, A_y=[0.5] * 4, A_z=[2.0] * 4,
                                q_z=sep * (np.arange(4) - 1.5))

    def test_exact_orthogonalization(self):
        K = overlap_matrix(self._basis(1.8))
        x = lowdin_exact(K)
        assert np.linalg.norm(x @ K @ x - np.eye(4)) < 1e-12

    def test_not_positive_definite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            lowdin_exact(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_nn_matches_exact_at_large_separation(self):
        basis = self._basis(4.0)
        x_exact = lowdin_exact(overlap_matrix(basis))
        x_nn = lowdin_nn(basis)
        assert np.max(np.abs(x_nn - x_exact)) < 1e-8

    def test_nn_inverse_consistency(self):
        basis = self._basis(3.0)
        prod = lowdin_nn(basis) @ lowdin_nn_inverse(basis)
        assert np.max(np.abs(prod - np.eye(4))) < 1e-4


class TestGroundStateFit(object):
    def test_fit_energy_and_symmetry(self, fitted):
        wells, units, basis, d, energy = fitted
        assert energy < -35.0
        # the trap is mirror symmetric; so is the fit
        assert abs(basis.A_z[0] - basis.A_z[3]) < 1e-5
        assert abs(d[0].real - d[3].real) < 1e-6
        assert np.max(np.abs(basis.q_z - wells.positions)) < 0.2

    def test_normalization(self, fitted):
        wells, units, basis, d, energy = fitted
        K = overlap_matrix(basis)
        assert abs(np.vdot(d, K @ d).real - 1.0) < 1e-8

    def test_energy_matches_mean_field(self, fitted):
        wells, units, basis, d, energy = fitted
        assert abs(mean_field_energy(d, basis, wells, units) - energy) < 1e-8

    def test_zero_amplitude_is_not_normalizable(self, fitted):
        wells, units, basis, d, energy = fitted
        with pytest.raises(NonNormalizable):
            mean_field_energy(np.array([d[0], 0.0, d[2], d[3]]), basis, wells, units)

    def test_effective_model_structure(self, fitted):
        wells, units, basis, d, energy = fitted
        eff = effective_model(basis, wells, units)
        assert np.all(eff.tunneling > 0)
        assert np.all(eff.interaction > 0)
        assert abs(eff.onsite[0] - eff.onsite[3]) < 1e-3
        assert eff.onsite[0] < eff.onsite[1] < 0

    def test_warm_refit_from_the_returned_amplitudes(self, fitted, monkeypatch):
        # the amplitudes are real, so they seed a refit without a
        # ComplexWarning (an error under the suite's warning filter)
        wells, units, basis, d, energy = fitted
        assert d.dtype == float
        evals = []
        minimize = dnlse.minimize_norm_constrained

        def counting(energy_fn, x0, **kwargs):
            return minimize(lambda x: evals.append(1) or energy_fn(x), x0, **kwargs)

        monkeypatch.setattr(dnlse, "minimize_norm_constrained", counting)
        basis2, d2, energy2 = fit_ground_state(wells, units, seed_basis=basis, seed_d=d)
        assert len(evals) <= 2
        assert abs(energy2 - energy) < 1e-12
        assert np.max(np.abs(d2 - d)) < 1e-9

    def test_effective_amplitudes_close_to_box_numbers(self, fitted):
        wells, units, basis, d, energy = fitted
        d_nn, occ_nn = effective_amplitudes(d, basis)
        d_ex, occ_ex = effective_amplitudes(d, basis, exact=True)
        assert np.max(np.abs(occ_nn - occ_ex)) < 1e-4
        assert abs(occ_ex.sum() - 1.0) < 1e-3


def test_fit_stopped_by_max_iter_warns():
    wells = standard_four_well()
    units = UnitSystem.rubidium87()
    with pytest.warns(ConvergenceWarning):
        basis, d, energy = fit_ground_state(wells, units, max_iter=3)
    assert abs(np.vdot(d, overlap_matrix(basis) @ d).real - 1.0) < 1e-12
    assert abs(mean_field_energy(d, basis, wells, units) - energy) < 1e-12


def test_each_newton_step_makes_one_stacked_hessian_call(monkeypatch):
    # the cold fit stopped after three damped Newton steps: three Hessians,
    # each from one energy call on len(x) points, the rest single points
    shapes = []
    minimize = dnlse.minimize_norm_constrained

    def recording(energy_fn, x0, **kwargs):
        def energy(x):
            shapes.append(np.shape(x))
            return energy_fn(x)
        return minimize(energy, x0, **kwargs)

    monkeypatch.setattr(dnlse, "minimize_norm_constrained", recording)
    with pytest.warns(ConvergenceWarning):
        fit_ground_state(standard_four_well(), UnitSystem.rubidium87(), max_iter=3)
    (n,) = shapes[0]
    stacked = [i for i, shape in enumerate(shapes) if len(shape) == 2]
    assert [shapes[i] for i in stacked] == [(n, n)] * 3
    # each Hessian call is followed by the step's trial points alone
    assert all(len(shape) == 1 for shape in shapes[stacked[-1] + 1:])
    assert all(j - i > 1 for i, j in zip(stacked, stacked[1:]))


@pytest.mark.slow
def test_invert_to_potential_round_trip(fitted):
    wells, units, basis, d, energy = fitted
    eff = effective_model(basis, wells, units)
    target = EffectiveModel(
        onsite=eff.onsite + np.array([0.3, 0.0, 0.0, 0.3]),
        tunneling=eff.tunneling, interaction=eff.interaction)
    wells2 = invert_to_potential(target, wells, units, seed_basis=basis,
                                 tol=1e-6, vary_positions=False)
    basis2, d2, _ = fit_ground_state(wells2, units, seed_basis=basis)
    eff2 = effective_model(basis2, wells2, units)
    assert abs(eff2.onsite[0] - target.onsite[0]) < 1e-4
    assert abs(eff2.onsite[-1] - target.onsite[-1]) < 1e-4


def test_inversion_leaving_the_attractive_domain_raises(fitted):
    # an outer onsite target 100 E0 up needs depths far above 0: the first
    # Newton step tries a repulsive outer well, and root_find lets the
    # error through
    wells, units, basis, d, energy = fitted
    eff = effective_model(basis, wells, units)
    target = EffectiveModel(
        onsite=eff.onsite + np.array([100.0, 0.0, 0.0, 100.0]),
        tunneling=eff.tunneling, interaction=eff.interaction)
    with pytest.raises(OutOfRange):
        invert_to_potential(target, wells, units, seed_basis=basis, vary_positions=False)
