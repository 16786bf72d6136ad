"""Discrete mode models: tridiagonal (possibly non-Hermitian) Hamiltonians,
their pair moments, dynamics and the two-mode spectrum: the balanced
gain/loss reference that the controlled four-mode run of
:mod:`ptembed.embedding` reproduces.

States are plain complex numpy vectors (the mode amplitudes psi_k). Internal
units set hbar = 1; energies are measured in the reference coupling J12 for
abstract scenarios and in E0 = hbar^2 / (m w_z^2) for physical ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SizeMismatch, UnsupportedSize
from .numerics import IntegratorSettings, integrate_adaptive


@dataclass(frozen=True)
class TridiagonalComplexModel:
    """Onsite energies (complex), nearest-neighbor couplings, nonlinearities.

    Hermitian iff all onsite energies are real.
    """

    onsite: np.ndarray
    coupling: np.ndarray
    nonlinear: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "onsite", np.asarray(self.onsite, dtype=complex))
        object.__setattr__(self, "coupling", np.asarray(self.coupling, dtype=float))
        object.__setattr__(self, "nonlinear", np.asarray(self.nonlinear, dtype=float))
        if len(self.coupling) != len(self.onsite) - 1:
            raise SizeMismatch("coupling must have length size-1")
        if len(self.nonlinear) != len(self.onsite):
            raise SizeMismatch("nonlinear must have length size")

    @property
    def size(self):
        return len(self.onsite)


def pt_two_mode(gamma, j12=1.0, c=0.0):
    """The balanced gain/loss two-mode model: onsite energies +-i*gamma."""
    return TridiagonalComplexModel(
        onsite=np.array([1j * gamma, -1j * gamma]),
        coupling=np.array([j12]),
        nonlinear=np.array([c, c], dtype=float),
    )


def cross_moments(psi):
    """Full pair matrices (C_kl, j_tilde_kl) for all index pairs."""
    p = np.outer(psi, np.conj(psi))
    return 2.0 * p.real, -2.0 * p.imag


def model_rhs(psi, model: TridiagonalComplexModel):
    """d psi / dt for i hbar d psi/dt = H psi (hbar = 1)."""
    if len(psi) != model.size:
        raise SizeMismatch(f"state size {len(psi)} != model size {model.size}")
    h = (model.onsite + model.nonlinear * np.abs(psi) ** 2) * psi
    h[:-1] -= model.coupling * psi[1:]
    h[1:] -= model.coupling * psi[:-1]
    return -1j * h


def two_mode_eigenvalues(model: TridiagonalComplexModel):
    """Eigenvalues of the linear two-mode Hamiltonian, sorted by (Re, Im)."""
    if model.size != 2:
        raise UnsupportedSize("two_mode_eigenvalues needs a size-2 model")
    if np.any(model.nonlinear != 0.0):
        raise UnsupportedSize("eigenvalues defined for the linear model only")
    h = np.array(
        [[model.onsite[0], -model.coupling[0]], [-model.coupling[0], model.onsite[1]]]
    )
    ev = np.linalg.eigvals(h)
    order = np.lexsort((ev.imag, ev.real))
    return ev[order]


def propagate(model: TridiagonalComplexModel, psi0, t_span,
              settings: IntegratorSettings = IntegratorSettings()):
    """Integrate the model dynamics; returns the numerics Trajectory."""
    psi0 = np.asarray(psi0, dtype=complex)
    if len(psi0) != model.size:
        raise SizeMismatch("initial state size mismatch")
    return integrate_adaptive(lambda t, y: model_rhs(y, model), psi0, t_span, settings)
