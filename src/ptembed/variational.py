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
Gaussian moments (orders 0/2/4 transverse, 0..4 longitudinal). Only the
kinetic ket carries a polynomial; the potential and interaction kets carry
a constant, so they need one bra-monomial column each and are summed
before the bra wells are expanded into parameter directions. The metric
system is solved by Cholesky; a (near-)singular metric raises
SingularMetric instead of being regularised. ``gaussian_matrices`` reads
the Gaussian-basis matrices K, T, V and W~ off the same moment tables; the
dnlse module builds on them, with its basis a state at rest (p = gamma = 0).

Box-integrated particle numbers and wall currents discretize the
condensate into the four-well picture; a root search on the outer well
depths, once per control interval, turns the trap into the balanced
gain/loss machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    ControlSearchFailed,
    NonNormalizable,
    NoConvergence,
    PtError,
    SingularMetric,
    SizeMismatch,
)
from .numerics import IntegratorSettings, integrate_adaptive, root_find

if TYPE_CHECKING:
    from .dnlse import UnitSystem, WellPotentialSpec

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

# smallest reciprocal condition estimate (1-norm) of the symmetrized metric
# that the equations of motion accept; the default trap's metric sits near
# 1e-4, and below this the velocities along its weakest directions are noise
METRIC_RCOND_MIN = 1e-12


@dataclass(frozen=True)
class VariationalState:
    """One Gaussian per well; complex widths with Re(A) > 0. ``p_z`` and
    ``gamma`` default to zero: a state at rest is a basis of the simplified
    (DNLSE) ansatz, whose amplitudes are kept apart from it."""

    A_x: np.ndarray
    A_y: np.ndarray
    A_z: np.ndarray
    q_z: np.ndarray
    p_z: np.ndarray | None = None
    gamma: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.q_z)
        for name in ("p_z", "gamma"):
            if getattr(self, name) is None:
                object.__setattr__(self, name, np.zeros(n))
        for name in ("A_x", "A_y", "A_z", "gamma"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=complex))
        for name in ("q_z", "p_z"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
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
    def from_vector(cls, x, check=True):
        """The state packed by ``to_vector``. ``check=False`` skips the
        validation of ``__post_init__``, for a vector known to have the
        packed length: a width with Re A <= 0 still raises NonNormalizable
        as soon as its moments are evaluated (``_pair_moments``)."""
        x = np.asarray(x, dtype=float)
        fields = dict(
            A_x=x[0::10] + 1j * x[1::10],
            A_y=x[2::10] + 1j * x[3::10],
            A_z=x[4::10] + 1j * x[5::10],
            q_z=x[6::10], p_z=x[7::10],
            gamma=x[8::10] + 1j * x[9::10],
        )
        if check:
            return cls(**fields)
        state = object.__new__(cls)
        state.__dict__.update(fields)
        return state

    @classmethod
    def from_basis(cls, basis: VariationalState, d):
        """Simplified-ansatz configuration: the basis (a state at rest) with
        the amplitudes folded into gamma = -log d."""
        d = np.asarray(d, dtype=complex)
        if np.any(d == 0):
            raise NonNormalizable("zero amplitude cannot be represented as exp(-gamma)")
        return replace(basis, gamma=-np.log(d))


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
    q, p, az = state.q_z, state.p_z, state.A_z
    D = np.zeros((n, PARAMS_PER_WELL, _N_MONO), dtype=complex)
    D[:, 0, 1] = -1.0                      # AxR: -x^2
    D[:, 1, 1] = -1j                       # AxI
    D[:, 2, 2] = -1.0                      # AyR
    D[:, 3, 2] = -1j                       # AyI
    D[:, 4, 0], D[:, 4, 3], D[:, 4, 4] = -q * q, 2.0 * q, -1.0       # AzR: -(z-q)^2
    D[:, 5, 0], D[:, 5, 3], D[:, 5, 4] = -1j * q * q, 2j * q, -1j    # AzI
    D[:, 6, 0], D[:, 6, 3] = -2.0 * az * q - 1j * p, 2.0 * az        # q: 2A_z(z-q)-ip
    D[:, 7, 0], D[:, 7, 3] = -1j * q, 1j   # p: i(z-q)
    D[:, 8, 0] = -1.0                      # gamma_R
    D[:, 9, 0] = -1j                       # gamma_I
    return D.reshape(PARAMS_PER_WELL * n, _N_MONO), np.repeat(np.arange(n), PARAMS_PER_WELL)


@lru_cache(maxsize=None)
def _triples(n):
    """Interaction kets G_a conj(G_b) G_c as index arrays (a, b, c) and
    multiplicities: the ket is symmetric under a <-> c, so only a <= c is
    kept and the pairs a < c count twice."""
    a, b, c = np.indices((n, n, n)).reshape(3, -1)
    keep = a <= c
    mult = np.where(a == c, 1.0, 2.0)[keep]
    out = (a[keep], b[keep], c[keep], mult)
    for arr in out:
        arr.flags.writeable = False
    return out


def _gaussians(state: VariationalState):
    """The state's Gaussians exp(-A_x x^2 - A_y y^2 - A_z z^2 + b z + C) as
    rows (A_x, A_y, A_z, b, C) of a (5, NG) array."""
    gauss = np.empty((5, state.size), dtype=complex)
    gauss[0], gauss[1], gauss[2] = state.A_x, state.A_y, state.A_z
    gauss[3], gauss[4] = _z_shape(state)
    return gauss


def _pair_moments(bra, kets):
    """Per-axis moment tables between every bra Gaussian and every ket object.

    ``bra`` (5, NG) and ``kets`` (5, M) hold (A_x, A_y, A_z, b, C) per
    Gaussian. Returns (MX (3, NG, M), MY (3, NG, M), MZ (5, NG, M)): orders
    x^0, x^2, x^4 and z^0..z^4; the scalar prefactor exp(b^2/4S + C) is
    folded into MZ.
    """
    pair = np.conj(bra)[:, :, None] + kets[:, None, :]
    if (pair[:3].real <= 0).any():
        raise NonNormalizable("pair Gaussian with nonpositive real width")
    axy, az, b, c = pair[:2], pair[2], pair[3], pair[4]

    i0 = np.sqrt(math.pi / axy)
    sxy = 1.0 / (2.0 * axy)
    MXY = np.stack([i0, i0 * sxy, 3.0 * i0 * sxy**2], axis=1)   # (2, 3, NG, M)
    s2 = 1.0 / (2.0 * az)
    mu = b * s2
    iz0 = np.sqrt(math.pi / az) * np.exp(0.5 * b * mu + c)
    mu2 = mu**2
    MZ = np.stack([
        iz0,
        iz0 * mu,
        iz0 * (mu2 + s2),
        iz0 * mu * (mu2 + 3.0 * s2),
        iz0 * (mu2 * (mu2 + 6.0 * s2) + 3.0 * s2**2),
    ])
    return MXY[0], MXY[1], MZ


def _kinetic_polys(gauss):
    """-1/2 Delta acting on each ket Gaussian, as monomial coefficients
    (5, NG) over {1, x^2, y^2, z, z^2}."""
    widths, b = gauss[:3], gauss[3]
    Q = np.empty_like(gauss)
    Q[0] = widths.sum(axis=0) - 0.5 * b**2
    Q[[1, 2, 4]] = -2.0 * widths**2
    Q[3] = 2.0 * widths[2] * b
    return Q


def _potential_kets(gauss, wells: WellPotentialSpec):
    """Each well's profile exp(-2x^2/w_x^2 - 2y^2/w_y^2 - 2(z - s_m)^2/w_z^2)
    times each Gaussian, without the depth V_m: (5, N_wells * NG) in the
    layout of ``_gaussians``, well-major."""
    wz2 = 2.0 / wells.w_z**2
    shift = np.empty((5, wells.size))
    shift[0], shift[1], shift[2] = 2.0 / wells.w_x**2, 2.0 / wells.w_y**2, wz2
    shift[3] = 2.0 * wz2 * wells.positions
    shift[4] = -wz2 * wells.positions**2
    return (gauss[:, None, :] + shift[:, :, None]).reshape(5, -1)


def _scalar_kets(gauss, wells: WellPotentialSpec | None, units: UnitSystem):
    """The ket objects of H psi that carry only a constant monomial.

    Returns (kets (5, M), weights (M, 2)): the objects' Gaussians as in
    ``_gaussians``, and their constants split into two columns: the well
    depth V_m for the potential kets (the linear part), g times the
    multiplicity for the interaction triples (the cubic part). Order:
    potential (N_wells * NG, well-major), interaction (see ``_triples``).
    """
    n = gauss.shape[1]
    kets, lin, cubic = [np.empty((5, 0), dtype=complex)], [], []
    if wells is not None:
        kets.append(_potential_kets(gauss, wells))
        lin = np.repeat(wells.depths, n)
    if units.g != 0.0:
        a_i, b_i, c_i, mult = _triples(n)
        kets.append(gauss[:, a_i] + np.conj(gauss)[:, b_i] + gauss[:, c_i])
        cubic = units.g * mult
    kets = np.concatenate(kets, axis=1)
    weights = np.zeros((kets.shape[1], 2), dtype=complex)
    weights[:len(lin), 0] = lin
    weights[len(lin):, 1] = cubic
    return kets, weights


def _hamiltonian_kets(state: VariationalState, wells: WellPotentialSpec | None,
                      units: UnitSystem):
    """The state's monomial table and H psi projected onto the bra monomials.

    One moment evaluation covers the state's own Gaussians and every scalar
    ket object. Returns (table, lin, nl). ``table`` (5, 5, NG, NG) is the
    moment table of the state's Gaussians with themselves; the metric and
    the kinetic ket share it. ``lin`` and ``nl`` (5, NG) hold
    <m_i G_w| (T + V) psi> and <m_i G_w| g |psi|^2 psi> for bra monomial
    m_i and bra Gaussian G_w, summed over the ket objects, so that for a
    polynomial P, <P G_w | H | psi> = sum_i conj(P_i) (lin + nl)[i, w].
    """
    n = state.size
    gauss = _gaussians(state)
    kets, weights = _scalar_kets(gauss, wells, units)
    moments = _pair_moments(gauss, np.concatenate([gauss, kets], axis=1))
    mx, my, mz = (m[..., :n] for m in moments)
    table = mx[_IXTAB] * my[_IYTAB] * mz[_IZTAB]
    lin = np.einsum("jm,ijwm->iw", _kinetic_polys(gauss), table)
    # the scalar kets need only the bra-monomial column (5, NG, M), and are
    # summed over objects before the bra wells are gathered into directions
    mx, my, mz = (m[..., n:] for m in moments)
    sums = (mx[_XDEG] * my[_YDEG] * mz[_ZDEG]) @ weights
    return table, lin + sums[..., 0], sums[..., 1]


def gaussian_matrices(state: VariationalState, wells: WellPotentialSpec | None):
    """Matrix elements between the state's Gaussians G_k, from one moment
    evaluation over the Gaussians, the potential kets and all NG^3
    interaction triples.

    Returns (K, T, V, W): K_lk = <G_l|G_k>, T_lk = <G_l| -Delta/2 |G_k> and
    V_lk = <G_l| V_trap |G_k> (zero without ``wells``), each (NG, NG), and
    W_lkji = int conj(G_l) G_k conj(G_j) G_i d^3r (NG, NG, NG, NG), the
    interaction tensor without its strength g.
    """
    n = state.size
    gauss = _gaussians(state)
    if wells is None:
        pot, depths = np.empty((5, 0)), np.empty(0)
    else:
        pot, depths = _potential_kets(gauss, wells), wells.depths
    k, j, i = np.indices((n, n, n)).reshape(3, -1)
    triples = gauss[:, k] + np.conj(gauss)[:, j] + gauss[:, i]
    mx, my, mz = _pair_moments(gauss, np.concatenate([gauss, pot, triples], axis=1))
    # <G_l| m G_k> for the ket monomials m; row 0 is <G_l|ket> for every object
    column = mx[_XDEG] * my[_YDEG] * mz[_ZDEG]
    T = np.einsum("jk,jlk->lk", _kinetic_polys(gauss), column[:, :, :n])
    flat, m = column[0], len(depths)
    V = np.einsum("lmk,m->lk", flat[:, n:n + m * n].reshape(n, m, n), depths)
    return flat[:, :n], T, V, flat[:, n + m * n:].reshape(n, n, n, n)


def _project(D, wells_of, ket):
    """sum_i conj(D[d, i]) ket[i, well(d)]: each direction's polynomial at
    its own well against a ket already summed per bra well."""
    return np.einsum("di,id->d", np.conj(D), ket[:, wells_of])


def _metric(D, table):
    """M[d, k] = <D_d G_well(d) | D_k G_well(k)> from the state's table,
    one (10, 10) block per pair of wells."""
    n = table.shape[-1]
    Dw = D.reshape(n, PARAMS_PER_WELL, _N_MONO)
    blocks = (np.conj(Dw)[:, None] @ table.transpose(2, 3, 0, 1)) @ Dw.transpose(0, 2, 1)
    return blocks.transpose(0, 2, 1, 3).reshape(PARAMS_PER_WELL * n, PARAMS_PER_WELL * n)


def norm_and_energy(state: VariationalState, wells: WellPotentialSpec | None,
                    units: UnitSystem):
    """(<psi|psi>, <psi|T+V|psi> + g/2 <psi| |psi|^2 |psi>)."""
    table, lin, nl = _hamiltonian_kets(state, wells, units)
    nrm = float(table[0, 0].sum().real)
    return nrm, float((lin[0].sum() + 0.5 * nl[0].sum()).real)


def assemble_eom(state: VariationalState, wells: WellPotentialSpec | None,
                 units: UnitSystem):
    """Variational system and parameter velocities xdot (real vector).

    Solves (Re M + Re M^T) xdot = 2 Im h by Cholesky. A metric that is not
    positive definite or is ill-conditioned (near-redundant parameter
    directions) is a breakdown of the ansatz, raised as SingularMetric;
    nothing is floored (see ``_solve_metric``)."""
    D, wells_of = _derivative_polys(state)
    table, lin, nl = _hamiltonian_kets(state, wells, units)
    metric = _metric(D, table)
    h = _project(D, wells_of, lin + nl)
    xdot = _solve_metric(metric.real + metric.real.T, 2.0 * h.imag)
    return VariationalSystem(metric=metric, rhs_vector=h), xdot


def _solve_metric(sym, rhs):
    """Solve ``sym @ xdot = rhs`` for the symmetrized metric by Cholesky.

    Raises SingularMetric when the factorization fails (the metric is not
    positive definite to working precision) or when LAPACK's reciprocal
    condition estimate of the factor (1-norm) is below
    ``METRIC_RCOND_MIN``: the velocities along near-redundant directions
    would then be roundoff. The metric is never regularised."""
    # LAPACK directly: scipy.linalg.cho_factor/cho_solve run the same
    # ?potrf/?potrs but add about 20 us of argument checks per call
    from scipy.linalg.lapack import dpocon, dpotrf, dpotrs

    factor, info = dpotrf(sym, lower=1, clean=0)
    if info != 0:
        raise SingularMetric(
            f"variational metric is not positive definite "
            f"(Cholesky pivot {info} of {len(sym)} fails)"
        )
    rcond, _ = dpocon(factor, np.abs(sym).sum(axis=0).max(), uplo="L")
    if not rcond >= METRIC_RCOND_MIN:
        raise SingularMetric(
            f"variational metric is singular to working precision "
            f"(reciprocal condition estimate {rcond:.3e} < {METRIC_RCOND_MIN:g})"
        )
    xdot, _ = dpotrs(factor, rhs, lower=1)
    return xdot


def eom_rhs(wells, units):
    """Time-derivative of the packed real parameter vector."""
    def rhs(t, x):
        # the integrator keeps the packed length; the moments check the widths
        state = VariationalState.from_vector(x, check=False)
        _, xdot = assemble_eom(state, wells, units)
        return xdot
    return rhs


def propagate_state(state: VariationalState, wells, units, t_span,
                    settings: IntegratorSettings = IntegratorSettings(rel_tol=1e-9, abs_tol=1e-11)):
    traj = integrate_adaptive(eom_rhs(wells, units), state.to_vector(), t_span, settings,
                              dense_output=False)
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
    table, lin, nl = _hamiltonian_kets(state, wells, units)
    nrm = table[0, 0].sum().real
    e_lin = lin[0].sum().real
    e_nl = nl[0].sum().real
    e_n = e_lin / nrm + 0.5 * e_nl / nrm**2
    mu = e_lin / nrm + e_nl / nrm**2
    # d/dx of E/N: <D|H_lin psi> + <D|H_nl psi>/N - mu <D|psi>, where the
    # table's ket-constant column summed over kets is the bare psi
    ket = lin + nl / nrm - mu * table[:, 0].sum(axis=-1)
    grad = (2.0 / nrm) * _project(D, wells_of, ket).real
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
    from scipy.special import erf

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
            traj = integrate_adaptive(eom_rhs(wtrial, units), x0, (0.0, dt), settings,
                                      dense_output=False)
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
    finite-difference Jacobian builds and end-of-interval integrations. A
    run ended by an error records its time, type name
    (``breakdown_reason``) and text (``breakdown_message``)."""

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
    breakdown_message: str | None = None

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
            return record(breakdown_time=t, breakdown_reason=type(exc).__name__,
                          breakdown_message=str(exc)), state
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
