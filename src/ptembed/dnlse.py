"""Gaussian few-mode machinery for the multi-well trap.

All computations run in trap units: lengths in w_z, energies in
E0 = hbar^2/(m w_z^2), times in t0 = m w_z^2/hbar, so hbar = m = 1
internally. ``UnitSystem`` anchors these to SI and carries the particle
number and scattering length; the only physical input to the matrix
elements is the dimensionless interaction strength g = 4 pi N a / w_z.

The per-well basis functions are Gaussians

    g^k(r) = exp[-A_x^k x^2 - A_y^k y^2 - A_z^k (z - q_z^k)^2],

generally with complex widths. A basis is the time-dependent ansatz of
:mod:`ptembed.variational` at rest: a :class:`VariationalState` with
p = gamma = 0, the amplitudes d held apart. The overlap matrix K,
kinetic/potential matrices T, V, the two-body tensor W~ and the
mean-field energy come from that module's Gaussian moment tables. The
effective tridiagonal model uses nearest-neighbor closed forms; symmetric
orthogonalization (exact or truncated to nearest neighbors) maps amplitudes
onto it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConvergenceWarning,
    NonNormalizable,
    NotPositiveDefinite,
    NoConvergence,
    OutOfRange,
    SizeMismatch,
)
from .numerics import minimize_norm_constrained, root_find
from .variational import (
    PARAM_NAMES,
    PARAMS_PER_WELL,
    TrapKernel,
    VariationalState,
    gaussian_matrices,
    gaussian_overlaps,
    norm_and_energy,
    normalized_energy,
)


@dataclass(frozen=True)
class WellPotentialSpec:
    """Gaussian-profile trap: V(r) = sum_k V^k exp[-2x^2/w_x^2 - 2y^2/w_y^2
    - 2(z - s_z^k)^2/w_z^2]. Depths in E0, positions/widths in w_z."""

    depths: np.ndarray
    positions: np.ndarray
    w_x: float = 4.0
    w_y: float = 4.0
    w_z: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "depths", np.asarray(self.depths, dtype=float))
        object.__setattr__(self, "positions", np.asarray(self.positions, dtype=float))
        if len(self.depths) != len(self.positions):
            raise SizeMismatch("depths and positions must have equal length")
        if np.any(self.depths >= 0):
            raise ValueError("all well depths must be negative")
        if min(self.w_x, self.w_y, self.w_z) <= 0:
            raise ValueError("well widths must be positive")
        if np.any(np.diff(self.positions) <= 0):
            raise ValueError("well positions must be strictly increasing")

    @property
    def size(self):
        return len(self.depths)


def standard_four_well(depth_outer=-60.0, depth_inner=-45.0, spacing=1.8):
    """The four-well trap used for the physical scenarios (units of E0/w_z)."""
    pos = spacing * (np.arange(4) - 1.5)
    return WellPotentialSpec(
        depths=np.array([depth_outer, depth_inner, depth_inner, depth_outer]),
        positions=pos,
    )


# CODATA 2022 (SI, in J s, J s, kg and m); fixed here so that results do not
# depend on the CODATA edition of an installed library
HBAR = 1.0545718176461565e-34
PLANCK = 6.62607015e-34
ATOMIC_MASS = 1.66053906892e-27
BOHR_RADIUS = 5.29177210544e-11


@dataclass(frozen=True)
class UnitSystem:
    """Trap units anchored to SI: length w_z, energy E0 = hbar^2/(m w_z^2),
    time t0 = m w_z^2/hbar."""

    w_z: float
    mass: float
    N: float
    a_scat: float

    @property
    def E0(self):
        return HBAR**2 / (self.mass * self.w_z**2)

    @property
    def t0(self):
        return self.mass * self.w_z**2 / HBAR

    @property
    def E0_hz(self):
        return self.E0 / PLANCK

    @property
    def g(self):
        """Dimensionless interaction 4 pi N a / w_z (hbar = m = 1 units)."""
        return 4.0 * math.pi * self.N * self.a_scat / self.w_z

    @classmethod
    def rubidium87(cls, w_z=1e-6, N=1e5, a_scat=2.83 * BOHR_RADIUS):
        return cls(w_z=w_z, mass=86.909180527 * ATOMIC_MASS, N=N, a_scat=a_scat)


@dataclass(frozen=True)
class MatrixBundle:
    K: np.ndarray
    T: np.ndarray
    V: np.ndarray
    W_tensor: np.ndarray


@dataclass(frozen=True)
class EffectiveModel:
    onsite: np.ndarray
    tunneling: np.ndarray
    interaction: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "onsite", np.asarray(self.onsite, dtype=float))
        object.__setattr__(self, "tunneling", np.asarray(self.tunneling, dtype=float))
        object.__setattr__(self, "interaction", np.asarray(self.interaction, dtype=float))
        if len(self.tunneling) != len(self.onsite) - 1:
            raise SizeMismatch("tunneling must have length size-1")


def _pair(a):
    """A^{kl} = A^k + (A^l)* as an (l, k)-indexed matrix."""
    return a[None, :] + np.conj(a)[:, None]


def _kappa(a):
    return a[None, :] * np.conj(a)[:, None] / _pair(a)


def _beta(a, w):
    akl = _pair(a)
    return np.sqrt(akl * w**2 / (akl * w**2 + 2.0))


def _potential_exponent(basis, s_m, w_z):
    """Exponent of the z-part of <g^l| well at s_m |g^k> relative to K_lk."""
    ak = basis.A_z[None, :]
    al = np.conj(basis.A_z)[:, None]
    qk = basis.q_z[None, :]
    ql = basis.q_z[:, None]
    akl = ak + al
    num = 2.0 * (ak * (s_m - qk) + al * (s_m - ql)) ** 2
    return np.exp(-num / (akl * (akl * w_z**2 + 2.0)))


def overlap_matrix(basis: VariationalState):
    """K_lk = <g^l|g^k>, all pairs, for a basis at rest."""
    return gaussian_overlaps(basis)


def interaction_tensor(basis: VariationalState, units: UnitSystem):
    """W~_lkji = g * int (g^l)* (g^j)* g^i g^k d^3r with g = 4 pi N a / w_z."""
    return units.g * gaussian_matrices(basis, None)[3]


def hamiltonian_matrices(basis: VariationalState, wells: WellPotentialSpec,
                         units: UnitSystem):
    """K, T = <g^l| -Delta/2 |g^k>, V = <g^l| V_trap |g^k> and W~ from one
    evaluation of the Gaussian moment tables."""
    if basis.size != wells.size:
        raise SizeMismatch("basis and trap must have equal well counts")
    K, T, V, W = gaussian_matrices(basis, wells)
    return MatrixBundle(K=K, T=T, V=V, W_tensor=units.g * W)


def lowdin_exact(K):
    """Symmetric orthogonalizer X = U D^{-1/2} U^dag with K = U D U^dag."""
    K = np.asarray(K, dtype=complex)
    evals, U = np.linalg.eigh(K)
    if evals[0] <= 1e-14 * abs(evals[-1]):
        raise NotPositiveDefinite(
            f"overlap matrix has eigenvalue {evals[0]:.3e} (basis linearly dependent)"
        )
    return (U / np.sqrt(evals)) @ U.conj().T


def _geo_root4(basis):
    """Fourth root of the product of real width parts, per well."""
    prod = basis.A_x.real * basis.A_y.real * basis.A_z.real
    return prod**0.25


def _nn_kernel(basis):
    """c^{kl} / sqrt(A_x^{kl} A_y^{kl} A_z^{kl}) on the off-diagonals
    (the geometry factor shared by every nearest-neighbor closed form)."""
    axy = _pair(basis.A_x)
    ayy = _pair(basis.A_y)
    azz = _pair(basis.A_z)
    kappa_z = basis.A_z[None, :] * np.conj(basis.A_z)[:, None] / azz
    dq = basis.q_z[None, :] - basis.q_z[:, None]
    c = np.exp(-kappa_z * dq**2)
    return c / (np.sqrt(axy) * np.sqrt(ayy) * np.sqrt(azz))


def _nn_mask(n):
    m = np.zeros((n, n))
    idx = np.arange(n - 1)
    m[idx, idx + 1] = 1.0
    m[idx + 1, idx] = 1.0
    return m


def lowdin_nn(basis: VariationalState):
    """Nearest-neighbor orthogonalizer X^(0) + X^(1) in closed form."""
    n = basis.size
    r4 = _geo_root4(basis)
    x0 = np.diag((2.0 / math.pi) ** 0.75 * r4).astype(complex)
    pair_geo = (r4**2)[None, :] * (r4**2)[:, None]
    denom = r4[None, :] + r4[:, None]
    x1 = (
        -((8.0 / math.pi) ** 0.75)
        * _nn_kernel(basis) * _nn_mask(n)
        * pair_geo / denom
    )
    return x0 + x1


def lowdin_nn_inverse(basis: VariationalState):
    """Closed-form (X^(0) + X^(1))^{-1} through first order in the overlap."""
    n = basis.size
    r4 = _geo_root4(basis)
    y0 = np.diag((math.pi**3 / 8.0) ** 0.25 / r4).astype(complex)
    pair_geo = (r4**2)[None, :] * (r4**2)[:, None]
    denom = r4[None, :] + r4[:, None]
    y1 = (
        (8.0 * math.pi**3) ** 0.25
        * _nn_kernel(basis) * _nn_mask(n)
        * np.sqrt(pair_geo) / denom
    )
    return y0 + y1


def effective_model(basis: VariationalState, wells: WellPotentialSpec,
                    units: UnitSystem):
    """Tridiagonal few-mode parameters in the nearest-neighbor approximation."""
    if basis.size != wells.size:
        raise SizeMismatch("basis and trap must have equal well counts")
    n = basis.size
    axr = basis.A_x.real
    ayr = basis.A_y.real
    azr = basis.A_z.real

    bx = _beta(basis.A_x, wells.w_x)
    by = _beta(basis.A_y, wells.w_y)
    bz = _beta(basis.A_z, wells.w_z)

    # onsite energies: kinetic zero order plus the own-well potential term
    e = np.empty(n)
    for k in range(n):
        own = wells.depths[k] * math.exp(
            -2.0 * bz[k, k].real ** 2 * (wells.positions[k] - basis.q_z[k]) ** 2
            / wells.w_z**2
        )
        e[k] = 0.5 * (axr[k] + ayr[k] + azr[k]) + (bx[k, k] * by[k, k] * bz[k, k]).real * own

    # h_lk = t_lk + v_lk with the potential restricted to the two own wells
    kx = _kappa(basis.A_x)
    ky = _kappa(basis.A_y)
    kz = _kappa(basis.A_z)
    dq = basis.q_z[None, :] - basis.q_z[:, None]
    t_lk = kx + ky + kz - 2.0 * kz**2 * dq**2
    expo = [_potential_exponent(basis, s, wells.w_z) for s in wells.positions]
    v_lk = np.zeros((n, n), dtype=complex)
    for l in range(n):
        for k in range(n):
            acc = wells.depths[k] * expo[k][l, k] + wells.depths[l] * expo[l][l, k]
            v_lk[l, k] = bx[l, k] * by[l, k] * bz[l, k] * acc
    h_lk = t_lk + v_lk

    r4 = _geo_root4(basis)
    kernel = _nn_kernel(basis)
    j = np.empty(n - 1)
    for k in range(n - 1):
        l = k + 1
        pref = -2.0 * math.sqrt(2.0) * (r4[k] ** 2 * r4[l] ** 2) / (r4[k] + r4[l])
        inner = (e[k] - h_lk[l, k]) / r4[k] + (e[l] - h_lk[l, k]) / r4[l]
        h1 = (pref * inner * kernel[l, k]).real
        j[k] = -h1

    c = units.g / math.pi**1.5 * np.sqrt(axr * ayr * azr)
    return EffectiveModel(onsite=e, tunneling=j, interaction=c)


def effective_amplitudes(d, basis: VariationalState, exact=False):
    """Orthogonalized amplitudes d_eff = X^{-1} d and occupations |d_eff|^2."""
    d = np.asarray(d, dtype=complex)
    if len(d) != basis.size:
        raise SizeMismatch("amplitude vector size mismatch")
    if exact:
        x = lowdin_exact(overlap_matrix(basis))
        d_eff = np.linalg.solve(x, d)
    else:
        d_eff = lowdin_nn_inverse(basis) @ d
    return d_eff, np.abs(d_eff) ** 2


def mean_field_energy(d, basis: VariationalState, wells: WellPotentialSpec,
                      units: UnitSystem):
    """E_mf = d^dag (T + V) d + 1/2 sum W~ d* d d* d over the untruncated
    matrices: the energy of psi = sum_k d_k g^k by
    :func:`ptembed.variational.norm_and_energy`. A zero amplitude raises
    NonNormalizable (the amplitudes enter as exp(-gamma))."""
    return norm_and_energy(VariationalState.from_basis(basis, d), wells, units)[1]


def _default_seed(wells: WellPotentialSpec):
    n = wells.size
    return VariationalState(
        A_x=np.full(n, 0.3), A_y=np.full(n, 0.3), A_z=np.full(n, 2.0),
        q_z=wells.positions.copy(),
    )


# packed variational parameters a fit varies per well (the real subspace)
_FIT_PARAMS = ("AxR", "AyR", "AzR", "q", "gR")


def fit_ground_state(wells: WellPotentialSpec, units: UnitSystem,
                     seed_basis: VariationalState | None = None, seed_d=None,
                     tol=1e-9, max_iter=800):
    """Ground state of one real Gaussian per well.

    Minimizes the normalized mean-field energy E[psi]/<psi|psi> over the
    widths A_x, A_y, A_z, the centers q_z and gamma = -log d, with the
    analytic gradient of :func:`ptembed.variational.normalized_energy`, by
    the damped Newton steps of
    :func:`ptembed.numerics.minimize_norm_constrained` (at most
    ``max_iter`` of them). A trial width with Re A <= 0 raises
    NonNormalizable inside the minimizer, which damps the step instead.
    ``seed_d`` must be positive: the ground state has no nodes.

    ``tol`` bounds the max norm of that gradient at exit. On the standard
    trap (E = -37.7) the gradient's roundoff is about 1e-11 and the fit
    ends near it; the default leaves a factor 100 for other traps, and at
    the softest curvature (0.01) it keeps the widths within 1e-7 of the
    minimum. A fit that stops above ``tol`` warns
    (:class:`ptembed.errors.ConvergenceWarning`) and returns its best
    iterate.

    Returns ``(basis, d, energy)``: the fitted state with gamma = 0, the
    real amplitudes d renormalized to d^dag K d = 1 (a valid ``seed_d`` for
    a warm refit), and
    ``energy = mean_field_energy(d, basis, wells, units)``.
    """
    if seed_basis is None:
        seed_basis = _default_seed(wells)
    n = wells.size
    seed_d = np.full(n, 1.0) if seed_d is None else np.asarray(seed_d, dtype=float)
    if np.any(seed_d <= 0):
        raise NonNormalizable("seed amplitudes must be positive (the ground state has no nodes)")
    offsets = [PARAM_NAMES.index(name) for name in _FIT_PARAMS]
    directions = (PARAMS_PER_WELL * np.arange(n)[:, None] + offsets).ravel()
    x0 = np.column_stack([
        seed_basis.A_x.real, seed_basis.A_y.real, seed_basis.A_z.real,
        seed_basis.q_z, -np.log(seed_d),
    ]).ravel()

    def packed(x):
        """The packed vector (10 NG,) of the fit's parameters (5 NG,), or
        the packed vectors (..., 10 NG) of a stack of them (..., 5 NG)."""
        out = np.zeros((*x.shape[:-1], PARAMS_PER_WELL * n))
        out[..., directions] = x
        return out

    kernel = TrapKernel(wells, units)

    def energy(x):
        return normalized_energy(packed(x), wells, units, directions, kernel=kernel)

    x, _, grad = minimize_norm_constrained(energy, x0, tol=tol, max_iter=max_iter)
    gmax = np.max(np.abs(grad))
    if not gmax <= tol:
        warnings.warn(f"ground-state fit stopped at gradient {gmax:.3e} above tol "
                      f"{tol:.1e}; returning the best iterate",
                      ConvergenceWarning, stacklevel=2)
    state = VariationalState.from_vector(packed(x))
    basis = replace(state, gamma=np.zeros(n))
    # gamma is real here: the amplitudes are real
    d = np.exp(-state.gamma).real
    d *= 1.0 / math.sqrt(np.vdot(d, overlap_matrix(basis) @ d).real)
    return basis, d, mean_field_energy(d, basis, wells, units)


def invert_to_potential(target: EffectiveModel, current_wells: WellPotentialSpec,
                        units: UnitSystem, seed_basis: VariationalState | None = None,
                        tol=1e-8, vary_positions=True):
    """Find outer-well depths (and optionally positions) whose ground-state
    effective model reproduces the targeted outer elements E_0, E_3
    (onsite) and J_01, J_23 (tunneling); inner wells held fixed.

    Continuation problem: ``target`` must lie near the image of
    ``current_wells``. Every residual refits the ground state warm at
    ``fit_ground_state``'s default ``tol``. Returns the adjusted
    WellPotentialSpec."""
    n = current_wells.size
    if n != len(target.onsite):
        raise SizeMismatch("target size must match the trap")
    state = {"basis": seed_basis, "d": None}

    def wells_from(p):
        depths = current_wells.depths.copy()
        positions = current_wells.positions.copy()
        depths[0], depths[-1] = p[0], p[1]
        if vary_positions:
            positions[0], positions[-1] = p[2], p[3]
        if depths[0] >= 0 or depths[-1] >= 0:
            raise OutOfRange("outer-well depth left the attractive domain")
        return replace(current_wells, depths=depths, positions=positions)

    def residual(p):
        wells = wells_from(p)
        basis, d, _ = fit_ground_state(
            wells, units, seed_basis=state["basis"], seed_d=state["d"]
        )
        state["basis"], state["d"] = basis, d
        em = effective_model(basis, wells, units)
        res = [
            em.onsite[0] - target.onsite[0],
            em.onsite[-1] - target.onsite[-1],
        ]
        if vary_positions:
            res += [
                em.tunneling[0] - target.tunneling[0],
                em.tunneling[-1] - target.tunneling[-1],
            ]
        return np.array(res)

    p0 = [current_wells.depths[0], current_wells.depths[-1]]
    if vary_positions:
        p0 += [current_wells.positions[0], current_wells.positions[-1]]
    report = root_find(residual, np.array(p0, dtype=float), tol=tol, max_iter=60)
    if not report.converged:
        raise NoConvergence(
            f"potential inversion stalled at residual {report.residual_norm:.3e}"
        )
    return wells_from(report.solution)
