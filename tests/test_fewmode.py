import numpy as np
import pytest

from ptembed.errors import SizeMismatch, UnsupportedSize
from ptembed.fewmode import (
    TridiagonalComplexModel,
    cross_moments,
    model_rhs,
    propagate,
    pt_two_mode,
    two_mode_eigenvalues,
)
from ptembed.numerics import IntegratorSettings


def test_pt_model_shape():
    m = pt_two_mode(0.4)
    assert m.size == 2
    assert np.any(m.onsite.imag != 0.0)
    assert pt_two_mode(0.0).onsite.imag.tolist() == [0.0, 0.0]


def test_hermitian_flag():
    m = TridiagonalComplexModel(onsite=[1.0, 2.0, 3.0], coupling=[0.5, 0.5],
                                nonlinear=[0.0, 0.0, 0.0])
    assert np.all(m.onsite.imag == 0.0)


def test_size_mismatch_rejected():
    with pytest.raises(SizeMismatch):
        TridiagonalComplexModel(onsite=[0.0, 0.0], coupling=[1.0, 1.0],
                                nonlinear=[0.0, 0.0])


def test_cross_moments_symmetries():
    psi = np.array([0.3 + 0.4j, -0.2 + 0.9j, 0.5 - 0.1j])
    c, jt = cross_moments(psi)
    assert np.allclose(c, c.T)
    assert np.allclose(jt, -jt.T)
    assert np.allclose(np.diag(c), 2.0 * np.abs(psi) ** 2)


def test_rhs_matches_matrix_form_linear():
    m = TridiagonalComplexModel(onsite=[0.3, -0.1, 0.7], coupling=[1.0, 0.4],
                                nonlinear=[0.0, 0.0, 0.0])
    h = np.array([[0.3, -1.0, 0.0], [-1.0, -0.1, -0.4], [0.0, -0.4, 0.7]])
    psi = np.array([0.2 + 0.1j, 0.5 - 0.3j, 0.1 + 0.9j])
    assert np.allclose(model_rhs(psi, m), -1j * h @ psi, atol=1e-14)


class TestTwoModeSpectrum:
    def test_unbroken_real(self):
        for g in (0.0, 0.5, 0.9):
            ev = two_mode_eigenvalues(pt_two_mode(g))
            expected = np.sqrt(1.0 - g * g)
            assert np.max(np.abs(ev.imag)) < 1e-14
            assert np.allclose(ev.real, [-expected, expected], atol=1e-14)

    def test_broken_imaginary(self):
        ev = two_mode_eigenvalues(pt_two_mode(1.5))
        expected = np.sqrt(1.5**2 - 1.0)
        assert np.max(np.abs(ev.real)) < 1e-14
        assert np.allclose(sorted(ev.imag), [-expected, expected], atol=1e-14)

    def test_nonlinear_rejected(self):
        with pytest.raises(UnsupportedSize):
            two_mode_eigenvalues(pt_two_mode(0.5, c=1.0))


def test_hermitian_propagation_conserves_norm():
    m = TridiagonalComplexModel(onsite=[0.1, -0.3, 0.2, 0.0],
                                coupling=[0.4, 1.0, 0.6],
                                nonlinear=[0.3, 0.3, 0.3, 0.3])
    psi0 = np.array([0.6, 0.4, 0.5, 0.2], dtype=complex)
    traj = propagate(m, psi0, (0.0, 25.0),
                     IntegratorSettings(rel_tol=1e-11, abs_tol=1e-13))
    norms = np.sum(np.abs(traj.y) ** 2, axis=1)
    assert np.max(np.abs(norms - norms[0])) < 1e-9

