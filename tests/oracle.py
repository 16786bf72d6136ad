"""Independent references that the tests compare the program against.

``quadrature_oracle`` integrates by nested ``scipy.integrate.quad`` calls,
independently of the closed-form Gaussian moments the package uses, so the
tests can check those moments against it. The exact and the
nearest-neighbor Loewdin orthogonalizers, the force-free width of a
Gaussian packet and the closed-form correlations of the embedding are
further references. They live with the tests because no program path uses
them.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.integrate

from ptembed.errors import PtError
from ptembed.fewmode import cross_moments
from ptembed.variational import VariationalState, gaussian_overlaps


class RefinementLimit(PtError):
    """Adaptive quadrature could not reach the requested tolerance."""


class NotPositiveDefinite(PtError):
    """Overlap matrix is not positive definite."""


class BranchViolation(PtError):
    """Closed-form correlations have no real solution for these inputs."""


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
    """Adaptive quadrature over 1-3 dimensions.

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


def lowdin_exact(K):
    """Symmetric orthogonalizer X = U D^{-1/2} U^dag with K = U D U^dag."""
    K = np.asarray(K, dtype=complex)
    evals, U = np.linalg.eigh(K)
    if evals[0] <= 1e-14 * abs(evals[-1]):
        raise NotPositiveDefinite(
            f"overlap matrix has eigenvalue {evals[0]:.3e} (basis linearly dependent)"
        )
    return (U / np.sqrt(evals)) @ U.conj().T


def lowdin_nn(basis: VariationalState):
    """Nearest-neighbor orthogonalizer X^(0) + X^(1): diag(N) minus
    K_lk N_l^2 N_k^2 / (N_l + N_k) between neighbors, N_k = K_kk^(-1/2)."""
    K = gaussian_overlaps(basis)
    N = np.diag(K).real ** -0.5
    n = basis.size
    neighbors = np.eye(n, k=1) + np.eye(n, k=-1)
    return np.diag(N) - neighbors * K * np.outer(N, N) ** 2 / np.add.outer(N, N)


def free_gaussian_width(a0, t):
    """Analytic width of a force-free Gaussian: 1/A(t) = 1/A(0) + 2 i t."""
    return 1.0 / (1.0 / a0 + 2j * t)


@dataclass(frozen=True)
class ClosedFormSigns:
    s1: int
    s2: int
    s3: int
    s6: int


def signs_from_state(psi, gamma, d):
    """Read the closed-form branch signs off an admissible wave function."""
    c_mat, jt = cross_moments(psi)
    n = np.abs(psi) ** 2
    s2 = 1 if jt[0, 1] >= 0 else -1
    s3 = 1 if jt[0, 1] * jt[2, 3] >= 0 else -1
    s6 = 1 if jt[0, 2] >= 0 else -1
    gaux = jt[1, 2] / math.sqrt(n[1] * n[2])
    beta = s3 * gamma / (d * math.sqrt(n[0] * n[3]))
    alpha = 0.5 * gaux * (beta + 0.5 * gaux)
    s1 = 1 if jt[0, 1] ** 2 / (2.0 * n[0] * n[1]) >= (1.0 - alpha) else -1
    return ClosedFormSigns(s1=s1, s2=s2, s3=s3, s6=s6)


def closed_form_observables(n, j_tilde_12, gamma, d, signs: ClosedFormSigns):
    """Correlations and currents from (n_k, j~12) alone.

    Returns (j~01, j~23, C02, C13, j~02, j~13). Raises BranchViolation when
    the discriminant is negative (no real solution for these occupations).
    """
    n = np.asarray(n, dtype=float)
    if np.any(n <= 0):
        raise BranchViolation("all occupations must be positive")
    gaux = j_tilde_12 / math.sqrt(n[1] * n[2])
    beta = signs.s3 * gamma / (d * math.sqrt(n[0] * n[3]))
    alpha = 0.5 * gaux * (beta + 0.5 * gaux)
    disc = (1.0 - alpha) ** 2 - beta**2
    if disc < 0:
        raise BranchViolation(f"(1-alpha)^2 - beta^2 = {disc:.3e} < 0")
    root = math.sqrt(disc)
    plus = 1.0 - alpha + signs.s1 * root
    minus = 1.0 - alpha - signs.s1 * root
    outer = 1.0 + alpha + signs.s1 * root
    if min(plus, minus, outer) < -1e-12:
        raise BranchViolation("negative radicand in closed-form observables")
    plus, minus, outer = max(plus, 0.0), max(minus, 0.0), max(outer, 0.0)
    jt01 = signs.s2 * math.sqrt(2.0 * n[0] * n[1] * plus)
    jt23 = signs.s3 * math.sqrt(n[2] * n[3] / (n[0] * n[1])) * jt01
    sgn_d = 1.0 if d > 0 else -1.0
    c02 = signs.s2 * sgn_d * math.sqrt(2.0 * n[0] * n[2] * minus)
    c13 = signs.s2 * sgn_d * math.sqrt(2.0 * n[1] * n[3] * minus)
    jt02 = signs.s6 * math.sqrt(2.0 * n[0] * n[2] * outer)
    jt13 = signs.s6 * math.sqrt(2.0 * n[1] * n[3] * outer)
    return jt01, jt23, c02, c13, jt02, jt13


