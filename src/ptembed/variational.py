"""Fully time-dependent Gaussian ansatz for the trapped condensate.

The wave function is a sum of one Gaussian per well,

    psi = sum_k exp[-A_x^k x^2 - A_y^k y^2 - A_z^k (z - q^k)^2
                    + i p^k (z - q^k) - gamma^k],

with all parameters time-dependent. The equations of motion follow from
the time-dependent variational principle: with the real parameter vector
x (complex parameters split into real/imaginary parts),

    Re(M) xdot = Im(h),      M_lk = <d psi/d x_l | d psi/d x_k>,
                             h_l  = <d psi/d x_l | H | psi>,

in units hbar = m = 1 (lengths in w_z, energies in E0, cf. the dnlse
module). Every bracket reduces to moments of pair Gaussians: each
parameter derivative acts on its Gaussian as a polynomial in the
monomials {1, x^2, y^2, z, z^2}, so brackets are assembled from per-axis
Gaussian moments (orders 0/2/4 transverse, 0..4 longitudinal).

Box-integrated particle numbers and wall currents discretize the
condensate into the four-well picture; a per-step root search on the
outer well depths turns the trap into the balanced gain/loss machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import erf

from .dnlse import GaussianBasisSet, UnitSystem, WellPotentialSpec
from .errors import (
    ControlSearchFailed,
    NonNormalizable,
    NoConvergence,
    PtError,
    SingularMetric,
    SizeMismatch,
)
from .numerics import IntegratorSettings, integrate_adaptive, root_find

# real-parameter layout per well; complex parameters are split (R, I)
PARAMS_PER_WELL = 10
PARAM_NAMES = ("AxR", "AxI", "AyR", "AyI", "AzR", "AzI", "q", "p", "gR", "gI")

# monomial basis for derivative polynomials and operator actions
_N_MONO = 5  # 1, x^2, y^2, z, z^2
_XDEG = np.array([0, 1, 0, 0, 0])
_YDEG = np.array([0, 0, 1, 0, 0])
_ZDEG = np.array([0, 0, 0, 1, 2])
_IXTAB = _XDEG[:, None] + _XDEG[None, :]
_IYTAB = _YDEG[:, None] + _YDEG[None, :]
_IZTAB = _ZDEG[:, None] + _ZDEG[None, :]


@dataclass(frozen=True)
class VariationalState:
    A_x: np.ndarray
    A_y: np.ndarray
    A_z: np.ndarray
    q_z: np.ndarray
    p_z: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        for name in ("A_x", "A_y", "A_z", "gamma"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=complex))
        for name in ("q_z", "p_z"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = len(self.q_z)
        if not all(len(getattr(self, f)) == n for f in ("A_x", "A_y", "A_z", "p_z", "gamma")):
            raise SizeMismatch("all parameter vectors must share one length")
        for a in (self.A_x, self.A_y, self.A_z):
            if np.any(a.real <= 0):
                raise NonNormalizable("Re(A) must stay positive on every axis")

    @property
    def size(self):
        return len(self.q_z)

    def to_vector(self):
        n = self.size
        out = np.empty(PARAMS_PER_WELL * n)
        out[0::10], out[1::10] = self.A_x.real, self.A_x.imag
        out[2::10], out[3::10] = self.A_y.real, self.A_y.imag
        out[4::10], out[5::10] = self.A_z.real, self.A_z.imag
        out[6::10], out[7::10] = self.q_z, self.p_z
        out[8::10], out[9::10] = self.gamma.real, self.gamma.imag
        return out

    @classmethod
    def from_vector(cls, x):
        x = np.asarray(x, dtype=float)
        return cls(
            A_x=x[0::10] + 1j * x[1::10],
            A_y=x[2::10] + 1j * x[3::10],
            A_z=x[4::10] + 1j * x[5::10],
            q_z=x[6::10], p_z=x[7::10],
            gamma=x[8::10] + 1j * x[9::10],
        )

    @classmethod
    def from_basis(cls, basis: GaussianBasisSet, d):
        """Simplified-ansatz configuration with amplitudes folded into gamma."""
        d = np.asarray(d, dtype=complex)
        if np.any(d == 0):
            raise NonNormalizable("zero amplitude cannot be represented as exp(-gamma)")
        return cls(
            A_x=basis.A_x, A_y=basis.A_y, A_z=basis.A_z,
            q_z=basis.q_z, p_z=basis.p_z, gamma=-np.log(d),
        )


@dataclass(frozen=True)
class WallPartition:
    walls: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "walls", np.asarray(self.walls, dtype=float))
        if np.any(np.diff(self.walls) <= 0):
            raise ValueError("walls must be strictly increasing")

    @classmethod
    def from_wells(cls, wells: WellPotentialSpec):
        p = wells.positions
        return cls(walls=0.5 * (p[:-1] + p[1:]))


@dataclass(frozen=True)
class VariationalSystem:
    metric: np.ndarray
    rhs_vector: np.ndarray


def _z_shape(state: VariationalState):
    """Ket z-factor exp(-A_z z^2 + b z + c): returns (b, c)."""
    b = 2.0 * state.A_z * state.q_z + 1j * state.p_z
    c = -state.A_z * state.q_z**2 - 1j * state.p_z * state.q_z - state.gamma
    return b, c


def _derivative_polys(state: VariationalState):
    """Coefficients of d psi / d x over {1, x^2, y^2, z, z^2} per direction.

    Returns (coeffs (10 NG, 5), well index (10 NG,)).
    """
    n = state.size
    b, _ = _z_shape(state)
    D = np.zeros((PARAMS_PER_WELL * n, _N_MONO), dtype=complex)
    wells_of = np.repeat(np.arange(n), PARAMS_PER_WELL)
    for k in range(n):
        o = PARAMS_PER_WELL * k
        q, p, az = state.q_z[k], state.p_z[k], state.A_z[k]
        D[o + 0, 1] = -1.0                 # AxR: -x^2
        D[o + 1, 1] = -1j                  # AxI
        D[o + 2, 2] = -1.0                 # AyR
        D[o + 3, 2] = -1j                  # AyI
        D[o + 4, [0, 3, 4]] = [-q * q, 2.0 * q, -1.0]        # AzR: -(z-q)^2
        D[o + 5, [0, 3, 4]] = [-1j * q * q, 2j * q, -1j]     # AzI
        D[o + 6, [0, 3]] = [-2.0 * az * q - 1j * p, 2.0 * az]  # q: 2A_z(z-q)-ip
        D[o + 7, [0, 3]] = [-1j * q, 1j]   # p: i(z-q)
        D[o + 8, 0] = -1.0                 # gamma_R
        D[o + 9, 0] = -1j                  # gamma_I
    return D, wells_of


def _pair_moments(state: VariationalState, ket_x, ket_y, ket_z, ket_b, ket_c):
    """Per-axis moment tables between every bra well and every ket object.

    Returns (MX (3, NG, M), MY (3, NG, M), MZ (5, NG, M)); the scalar
    prefactor exp(b^2/4S + C) is folded into MZ.
    """
    ax = np.conj(state.A_x)[:, None] + ket_x[None, :]
    ay = np.conj(state.A_y)[:, None] + ket_y[None, :]
    az = np.conj(state.A_z)[:, None] + ket_z[None, :]
    bra_b, bra_c = _z_shape(state)
    b = np.conj(bra_b)[:, None] + ket_b[None, :]
    c = np.conj(bra_c)[:, None] + ket_c[None, :]
    if np.any(ax.real <= 0) or np.any(ay.real <= 0) or np.any(az.real <= 0):
        raise NonNormalizable("pair Gaussian with nonpositive real width")

    ix0 = np.sqrt(math.pi / ax)
    MX = np.stack([ix0, ix0 / (2.0 * ax), 3.0 * ix0 / (4.0 * ax**2)])
    iy0 = np.sqrt(math.pi / ay)
    MY = np.stack([iy0, iy0 / (2.0 * ay), 3.0 * iy0 / (4.0 * ay**2)])
    mu = b / (2.0 * az)
    s2 = 1.0 / (2.0 * az)
    iz0 = np.sqrt(math.pi / az) * np.exp(b**2 / (4.0 * az) + c)
    MZ = np.stack([
        iz0,
        iz0 * mu,
        iz0 * (mu**2 + s2),
        iz0 * (mu**3 + 3.0 * mu * s2),
        iz0 * (mu**4 + 6.0 * mu**2 * s2 + 3.0 * s2**2),
    ])
    return MX, MY, MZ


def _bracket(D_bra, wells_of, moments, Q_ket, ket_wells=None):
    """val[d, m] = sum_ij conj(D_bra[d,i]) Q_ket[m,j] Mom[i,j,well(d),m].

    When the moment table's ket axis runs over wells rather than objects
    (several polynomial objects sharing one ket Gaussian), ``ket_wells``
    maps each object to its well."""
    MX, MY, MZ = moments
    mom = MX[_IXTAB] * MY[_IYTAB] * MZ[_IZTAB]     # (5, 5, NG_bra, M_or_NG)
    if ket_wells is not None:
        mom = mom[..., ket_wells]                   # (5, 5, NG_bra, M)
    # contract the ket polynomials before gathering bra wells into
    # directions: the tensor summed over is NG_bra wide, not D
    ket = np.einsum("mj,ijwm->iwm", Q_ket, mom)     # (5, NG_bra, M)
    return np.einsum("di,idm->dm", np.conj(D_bra), ket[:, wells_of, :])


def _identity_polys(n):
    Q = np.zeros((n, _N_MONO), dtype=complex)
    Q[:, 0] = 1.0
    return Q


def _kinetic_polys(state: VariationalState):
    """-1/2 Delta acting on each ket Gaussian, as monomial coefficients."""
    b, _ = _z_shape(state)
    n = state.size
    Q = np.zeros((n, _N_MONO), dtype=complex)
    Q[:, 0] = state.A_x + state.A_y + state.A_z - 0.5 * b**2
    Q[:, 1] = -2.0 * state.A_x**2
    Q[:, 2] = -2.0 * state.A_y**2
    Q[:, 3] = 2.0 * state.A_z * b
    Q[:, 4] = -2.0 * state.A_z**2
    return Q


def _ket_objects(state: VariationalState, wells: WellPotentialSpec | None,
                 units: UnitSystem):
    """All ket objects entering <.|H|psi>: per object (Bx, By, Bz, b, C, Q).

    Order: kinetic (NG), potential (NG * N_wells), interaction (NG^3).
    """
    n = state.size
    b, c = _z_shape(state)
    kx = [state.A_x]
    ky = [state.A_y]
    kz = [state.A_z]
    kb = [b]
    kc = [c]
    kq = [_kinetic_polys(state)]

    if wells is not None:
        wx2 = 2.0 / wells.w_x**2
        wy2 = 2.0 / wells.w_y**2
        wz2 = 2.0 / wells.w_z**2
        for vm, sm in zip(wells.depths, wells.positions):
            kx.append(state.A_x + wx2)
            ky.append(state.A_y + wy2)
            kz.append(state.A_z + wz2)
            kb.append(b + 2.0 * wz2 * sm)
            kc.append(c - wz2 * sm**2)
            qv = _identity_polys(n)
            qv[:, 0] = vm
            kq.append(qv)

    g = units.g
    if g != 0.0:
        idx = np.indices((n, n, n)).reshape(3, -1)
        a_i, b_i, c_i = idx
        kx.append(state.A_x[a_i] + np.conj(state.A_x)[b_i] + state.A_x[c_i])
        ky.append(state.A_y[a_i] + np.conj(state.A_y)[b_i] + state.A_y[c_i])
        kz.append(state.A_z[a_i] + np.conj(state.A_z)[b_i] + state.A_z[c_i])
        kb.append(b[a_i] + np.conj(b)[b_i] + b[c_i])
        kc.append(c[a_i] + np.conj(c)[b_i] + c[c_i])
        qw = _identity_polys(n**3)
        qw[:, 0] = g
        kq.append(qw)

    return (np.concatenate(kx), np.concatenate(ky), np.concatenate(kz),
            np.concatenate(kb), np.concatenate(kc), np.concatenate(kq))


def _hamiltonian_brackets(state, wells, units, D_bra, wells_of):
    """(h, h_nl): linear and nonlinear parts of <D_bra | H | psi>."""
    n = state.size
    kx, ky, kz, kb, kc, kq = _ket_objects(state, wells, units)
    moments = _pair_moments(state, kx, ky, kz, kb, kc)
    vals = _bracket(D_bra, wells_of, moments, kq)
    n_lin = n * (1 + (wells.size if wells is not None else 0))
    return vals[:, :n_lin].sum(axis=1), vals[:, n_lin:].sum(axis=1)


def _state_kets(state: VariationalState):
    b, c = _z_shape(state)
    return state.A_x, state.A_y, state.A_z, b, c


def norm_and_energy(state: VariationalState, wells: WellPotentialSpec | None,
                    units: UnitSystem):
    """(<psi|psi>, <psi|T+V|psi> + g/2 <psi| |psi|^2 |psi>)."""
    n = state.size
    val_bra = _identity_polys(n)
    wells_of = np.arange(n)
    moments = _pair_moments(state, *_state_kets(state))
    nrm = float(_bracket(val_bra, wells_of, moments, _identity_polys(n)).sum().real)
    h_lin, h_nl = _hamiltonian_brackets(state, wells, units, val_bra, wells_of)
    return nrm, float((h_lin.sum() + 0.5 * h_nl.sum()).real)


def assemble_eom(state: VariationalState, wells: WellPotentialSpec | None,
                 units: UnitSystem, floor_ratio=1e-12):
    """Variational system and parameter velocities xdot (real vector).

    The metric eigenvalues below ``floor_ratio`` times the largest are
    floored before solving (near-redundant parameter directions)."""
    D, wells_of = _derivative_polys(state)
    moments = _pair_moments(state, *_state_kets(state))
    metric = _bracket(D, wells_of, moments, D, ket_wells=wells_of)
    h_lin, h_nl = _hamiltonian_brackets(state, wells, units, D, wells_of)
    h = h_lin + h_nl
    xdot = _solve_metric(metric.real + metric.real.T, 2.0 * h.imag, floor_ratio)
    return VariationalSystem(metric=metric, rhs_vector=h), xdot


def _solve_metric(sym, rhs, floor_ratio):
    evals, vec = np.linalg.eigh(sym)
    lam = abs(evals[-1])
    if lam == 0.0 or not np.all(np.isfinite(evals)):
        raise SingularMetric("variational metric vanished")
    floor = floor_ratio * lam
    evals = np.where(np.abs(evals) < floor, floor, evals)
    return vec @ ((vec.T @ rhs) / evals)


def eom_rhs(wells, units, floor_ratio=1e-12):
    """Time-derivative of the packed real parameter vector."""
    def rhs(t, x):
        state = VariationalState.from_vector(x)
        _, xdot = assemble_eom(state, wells, units, floor_ratio)
        return xdot
    return rhs


def propagate_state(state: VariationalState, wells, units, t_span,
                    settings: IntegratorSettings = IntegratorSettings(rel_tol=1e-9, abs_tol=1e-11)):
    traj = integrate_adaptive(eom_rhs(wells, units), state.to_vector(), t_span, settings)
    return VariationalState.from_vector(traj.y[-1]), traj


def normalized_energy(state: VariationalState, wells, units, directions=None):
    """Mean-field energy of the normalized state, E[psi]/<psi|psi>, and its
    analytic gradient with respect to the packed real parameters.

    ``directions``, when given, selects the entries of the packed vector
    (see ``to_vector``) whose derivatives are returned, in that order.
    Returns ``(energy, gradient)``.
    """
    D, wells_of = _derivative_polys(state)
    if directions is not None:
        D, wells_of = D[directions], wells_of[directions]
    moments = _pair_moments(state, *_state_kets(state))
    val_bra = _identity_polys(state.size)
    val_wells = np.arange(state.size)
    nrm = float(_bracket(val_bra, val_wells, moments, val_bra).sum().real)
    v_lin, v_nl = _hamiltonian_brackets(state, wells, units, val_bra, val_wells)
    lin = v_lin.sum().real
    nl = v_nl.sum().real
    e_n = lin / nrm + 0.5 * nl / nrm**2
    h_lin, h_nl = _hamiltonian_brackets(state, wells, units, D, wells_of)
    overlap = _bracket(D, wells_of, moments, val_bra).sum(axis=1)
    mu = lin / nrm + nl / nrm**2
    grad = (2.0 / nrm) * (h_lin + h_nl / nrm - mu * overlap).real
    return e_n, grad


def relax_to_fixed_point(state: VariationalState, wells, units, tol=1e-5,
                         max_steps=2000):
    """Minimize the normalized mean-field energy over all ansatz parameters.

    BFGS on E[psi]/<psi|psi> (with the analytic gradient) starting from
    ``state``; the result is renormalized exactly through the real parts of
    gamma and is a fixed point of the real-time equations of motion up to a
    global phase. Raises NoConvergence if the gradient does not drop below
    ``tol``.
    """
    from scipy.optimize import minimize

    def energy_and_grad(x):
        return normalized_energy(VariationalState.from_vector(x), wells, units)

    res = minimize(energy_and_grad, state.to_vector(), jac=True, method="BFGS",
                   options={"gtol": tol, "maxiter": max_steps})
    grad_norm = float(np.max(np.abs(res.jac)))
    if grad_norm > tol:
        raise NoConvergence(
            f"energy minimization stalled (gradient {grad_norm:.3e})"
        )
    x = res.x
    st = VariationalState.from_vector(x)
    nrm, _ = norm_and_energy(st, wells, units)
    # exact renormalization through a uniform shift of the gamma real parts
    x[8::10] += 0.5 * math.log(nrm)
    return VariationalState.from_vector(x)


def box_observables(state: VariationalState, partition: WallPartition):
    """Slab particle numbers and wall currents of the four-well picture.

    n_k integrates |psi|^2 between neighboring walls (outer slabs reach
    infinity); j_{k,k+1} integrates the z-current density over the wall
    plane. Closed forms via the (complex) error function.
    """
    n_g = state.size
    b, c = _z_shape(state)
    sx = np.conj(state.A_x)[:, None] + state.A_x[None, :]
    sy = np.conj(state.A_y)[:, None] + state.A_y[None, :]
    sz = np.conj(state.A_z)[:, None] + state.A_z[None, :]
    bb = np.conj(b)[:, None] + b[None, :]
    cc = np.conj(c)[:, None] + c[None, :]
    xy = math.pi / (np.sqrt(sx) * np.sqrt(sy))
    amp = xy * np.exp(bb**2 / (4.0 * sz) + cc)
    mu = bb / (2.0 * sz)
    root = np.sqrt(sz)
    half = 0.5 * np.sqrt(math.pi / sz)

    walls = partition.walls
    edges = np.concatenate([[-np.inf], walls, [np.inf]])
    n_wells = len(edges) - 1
    n = np.empty(n_wells)
    for k in range(n_wells):
        a_e, b_e = edges[k], edges[k + 1]
        ea = -np.ones_like(sz) if not np.isfinite(a_e) else erf(root * (a_e - mu))
        eb = np.ones_like(sz) if not np.isfinite(b_e) else erf(root * (b_e - mu))
        n[k] = np.sum(amp * half * (eb - ea)).real

    j = np.empty(len(walls))
    for w, zw in enumerate(walls):
        # integral over the wall plane of Im(psi* dpsi/dz)
        dz_poly = (-2.0 * state.A_z * zw + b)[None, :]
        dens = xy * dz_poly * np.exp(-sz * zw**2 + bb * zw + cc)
        j[w] = np.sum(dens).imag
    return n, j


def density_profile(state: VariationalState, z_grid):
    """|psi(0, 0, z)|^2 along the trap axis."""
    z = np.asarray(z_grid, dtype=float)
    b, c = _z_shape(state)
    vals = np.zeros_like(z, dtype=complex)
    for k in range(state.size):
        vals += np.exp(-state.A_z[k] * z**2 + b[k] * z + c[k])
    return np.abs(vals) ** 2


def free_gaussian_width(a0, t):
    """Analytic width of a force-free Gaussian: 1/A(t) = 1/A(0) + 2 i t."""
    return 1.0 / (1.0 / a0 + 2j * t)


@dataclass
class ControlledStepResult:
    """One control interval: the end state, the accepted outer depths, the
    end populations and currents, the root search's iterations and
    finite-difference Jacobian builds, the end-of-interval integrations it
    made, and ``jacobian``, the Broyden model of d(j_01, j_23) / d(V^0, V^3)
    at the accepted depths (unscaled currents)."""

    state: VariationalState
    depths: tuple
    populations: np.ndarray
    currents: np.ndarray
    iterations: int
    jacobian_refreshes: int
    integrations: int
    jacobian: np.ndarray | None


def controlled_step(state: VariationalState, wells: WellPotentialSpec,
                    units: UnitSystem, targets, dt,
                    settings: IntegratorSettings = IntegratorSettings(rel_tol=1e-9, abs_tol=1e-11),
                    partition: WallPartition | None = None,
                    tol=1e-8, jacobian=None):
    """Advance one control interval with (V^0, V^3) held constant.

    The two depths are found by a root search demanding that the outer wall
    currents at the end of the step equal ``targets``. ``jacobian`` is the
    previous interval's ``ControlledStepResult.jacobian``: the
    depth-to-current map changes little from one interval to the next, so
    the search starts from it instead of building a finite-difference
    Jacobian (two extra end-of-interval integrations); without it, or when
    the search stagnates, the Jacobian is built by finite differences.
    A search that stalls or tries a depth >= 0 raises
    :class:`ControlSearchFailed`.
    Returns the :class:`ControlledStepResult` and the well specification
    with the accepted depths.
    """
    if partition is None:
        partition = WallPartition.from_wells(wells)
    x0 = state.to_vector()
    scale = max(abs(t) for t in targets) + 1e-4

    cache = {}

    def end_point(v):
        """End state and its wall populations and currents at depths ``v``."""
        key = (float(v[0]), float(v[1]))
        if key not in cache:
            if max(key) >= 0.0:
                # targets beyond what attractive outer wells can drive
                raise ControlSearchFailed(
                    f"depth search left the attractive domain (V0, V3 = {key})"
                )
            depths = wells.depths.copy()
            depths[0], depths[-1] = v
            wtrial = replace(wells, depths=depths)
            traj = integrate_adaptive(eom_rhs(wtrial, units), x0, (0.0, dt), settings)
            st = VariationalState.from_vector(traj.y[-1])
            cache[key] = (st, *box_observables(st, partition))
        return cache[key]

    def residual(v):
        _, _, j = end_point(v)
        return np.array([(j[0] - targets[0]) / scale, (j[2] - targets[1]) / scale])

    v0 = np.array([wells.depths[0], wells.depths[-1]])
    # the search works on currents divided by this interval's scale
    report = root_find(residual, v0, tol=tol / scale, max_iter=40,
                       jac=None if jacobian is None else jacobian / scale)
    if not report.converged:
        raise ControlSearchFailed(
            f"depth search stalled (residual {report.residual_norm * scale:.3e})"
        )
    v = report.solution
    st, n, j = end_point(v)
    depths = wells.depths.copy()
    depths[0], depths[-1] = v
    return ControlledStepResult(
        state=st, depths=(v[0], v[1]), populations=n, currents=j,
        iterations=report.iterations, jacobian_refreshes=report.jacobian_refreshes,
        integrations=len(cache),
        jacobian=None if report.jacobian is None else report.jacobian * scale,
    ), replace(wells, depths=depths)


@dataclass
class VariationalRunRecord:
    """Sampled observables at the control-interval ends (``t[0] = 0``), and
    per completed interval the depth search's root iterations,
    finite-difference Jacobian builds and end-of-interval integrations."""

    t: np.ndarray
    n: np.ndarray
    j: np.ndarray
    depths: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray
    root_iterations: np.ndarray
    jacobian_refreshes: np.ndarray
    integrations: np.ndarray
    breakdown_time: float | None = None
    breakdown_reason: str | None = None

    @property
    def broke_down(self):
        return self.breakdown_time is not None


def run_variational_scenario(wells: WellPotentialSpec, units: UnitSystem,
                             gamma_fn, t_end, control_dt=0.05,
                             state: VariationalState | None = None,
                             settings: IntegratorSettings = IntegratorSettings(rel_tol=1e-9, abs_tol=1e-11),
                             control_tol=1e-8):
    """Drive the trap through a gain/loss schedule with depth control.

    ``gamma_fn(t) -> (gamma, gamma_dot)`` sets the target currents
    j_01 = 2 gamma n_1 and j_23 = 2 gamma n_2 (enforced at step ends).
    Each interval's depth search starts from the Jacobian the previous
    interval ended with. Only the first interval that iterates builds one
    by finite differences; later ones rebuild it only when their search
    stagnates.
    Returns a VariationalRunRecord; a failed control search terminates the
    run and is recorded as a breakdown, not raised.
    """
    if state is None:
        raise ValueError("an initial (relaxed) state is required")
    partition = WallPartition.from_wells(wells)
    times = [0.0]
    n0, j0 = box_observables(state, partition)
    ns, js = [n0], [j0]
    depths = [wells.depths.copy()]
    gammas = [gamma_fn(0.0)[0]]
    deltas = [state.q_z - wells.positions]
    iterations, refreshes, integrations = [], [], []
    jacobian = None
    t = 0.0
    current_wells = wells
    n_now = n0

    def record(**breakdown):
        return VariationalRunRecord(
            t=np.array(times), n=np.array(ns), j=np.array(js),
            depths=np.array(depths), gamma=np.array(gammas),
            delta=np.array(deltas),
            root_iterations=np.array(iterations, dtype=int),
            jacobian_refreshes=np.array(refreshes, dtype=int),
            integrations=np.array(integrations, dtype=int),
            **breakdown,
        )

    while t < t_end - 1e-12:
        dt = min(control_dt, t_end - t)
        g_end = gamma_fn(t + dt)[0]
        targets = (2.0 * g_end * n_now[1], 2.0 * g_end * n_now[2])
        try:
            result, current_wells = controlled_step(
                state, current_wells, units, targets, dt,
                settings=settings, partition=partition, tol=control_tol,
                jacobian=jacobian,
            )
        except PtError as exc:
            return record(breakdown_time=t, breakdown_reason=type(exc).__name__), state
        state = result.state
        jacobian = result.jacobian
        t += dt
        times.append(t)
        n_now = result.populations
        ns.append(n_now)
        js.append(result.currents)
        depths.append(current_wells.depths.copy())
        gammas.append(g_end)
        deltas.append(state.q_z - wells.positions)
        iterations.append(result.iterations)
        refreshes.append(result.jacobian_refreshes)
        integrations.append(result.integrations)
    return record(), state
