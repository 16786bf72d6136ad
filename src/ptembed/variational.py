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

The brackets run on a per-trap kernel, :class:`TrapKernel`. It builds once
what depends on the trap alone: the potential kets' shift columns, the
indices that gather every ket object (the state's Gaussians, the potential
kets and the interaction triples) with one indexed sum from one array,
their weights and the constant entries of the derivative polynomials.
Each call then reads the state straight from the packed parameter vector
and fills in only what depends on it. :func:`eom_rhs` builds one kernel
per trap and calls :func:`assemble_eom` with it on every evaluation; the
ground-state fit and :func:`relax_to_fixed_point` share one kernel over
their energy evaluations. The brackets and :func:`normalized_energy` also
take a stack of packed vectors, so the minimizer builds each Hessian from
one call; every point of a stack gets the same bits as that point alone.

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
from .numerics import (
    IntegratorSettings,
    integrate_adaptive,
    minimize_norm_constrained,
    root_find,
)

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
    def from_vector(cls, x):
        """The state packed by ``to_vector``."""
        x = np.asarray(x, dtype=float)
        return cls(
            A_x=x[0::10] + 1j * x[1::10],
            A_y=x[2::10] + 1j * x[3::10],
            A_z=x[4::10] + 1j * x[5::10],
            q_z=x[6::10], p_z=x[7::10],
            gamma=x[8::10] + 1j * x[9::10],
        )

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


def _well_shifts(wells: WellPotentialSpec):
    """Each well's profile exp(-2x^2/w_x^2 - 2y^2/w_y^2 - 2(z - s_m)^2/w_z^2)
    as a (5, N_wells) array in the layout of ``_gaussians``: added to a
    Gaussian, a column gives that Gaussian times the well's profile."""
    wz2 = 2.0 / wells.w_z**2
    shift = np.empty((5, wells.size))
    shift[0], shift[1], shift[2] = 2.0 / wells.w_x**2, 2.0 / wells.w_y**2, wz2
    shift[3] = 2.0 * wz2 * wells.positions
    shift[4] = -wz2 * wells.positions**2
    return shift


def _moment_buffers(n, m, lead=()):
    """Output arrays of ``_pair_moments`` for NG bra Gaussians and m kets
    per point of a stack of shape ``lead``: the pair Gaussians
    (5, *lead, NG, m), the x and y moments by order (3, 3, *lead, NG, m)
    and the z moments (5, *lead, NG, m)."""
    return (np.empty((5, *lead, n, m), dtype=complex),
            np.empty((3, 3, *lead, n, m), dtype=complex),
            np.empty((5, *lead, n, m), dtype=complex))


def _pair_moments(conj_bra, kets, out, n_table):
    """Per-axis moment tables between every bra Gaussian and every ket object.

    ``conj_bra`` (5, *lead, NG), the conjugated bra Gaussians, and ``kets``
    (5, *lead, M) hold (A_x, A_y, A_z, b, C) per Gaussian, for each point
    of a stack of shape ``lead`` (empty for one state); ``out`` is
    ``_moment_buffers(NG, M, lead)``, written in place. Returns (MX (3,
    *lead, NG, M), MY (3, *lead, NG, M), MZ (5, *lead, NG, M)): orders x^0,
    x^2, x^4 and z^0..z^4; the scalar prefactor exp(b^2/4S + C) is folded
    into MZ. The orders x^4, z^3 and z^4 are filled in for the first
    ``n_table`` kets only; the others carry a constant monomial and need
    only orders up to 2. Every entry is computed elementwise, so a point of
    a stack gets the same bits as the point alone.
    """
    pair, M, MZ = out
    np.add(conj_bra[..., :, None], kets[..., None, :], out=pair)
    b, c = pair[3], pair[4]

    # sqrt(pi / S) and 1 / (2 S) for the three widths S at once: for x and
    # y the order-0 moment and the variance, for z the same two factors
    i0 = np.sqrt(math.pi / pair[:3], out=M[0])
    s = 1.0 / (2.0 * pair[:3])
    sxy, s2 = s[:2], s[2]
    np.multiply(i0[:2], sxy, out=M[1, :2])
    mu = b * s2
    iz0 = np.multiply(i0[2], np.exp(0.5 * b * mu + c), out=MZ[0])
    mu2 = mu**2
    np.multiply(iz0, mu, out=MZ[1])
    np.multiply(iz0, mu2 + s2, out=MZ[2])
    k = n_table
    if k:
        i0, sxy = i0[:2, ..., :k], sxy[..., :k]
        np.multiply(3.0 * i0, sxy**2, out=M[2, :2, ..., :k])
        iz0, mu, mu2, s2 = iz0[..., :k], mu[..., :k], mu2[..., :k], s2[..., :k]
        np.multiply(iz0 * mu, mu2 + 3.0 * s2, out=MZ[3, ..., :k])
        np.multiply(iz0, mu2 * (mu2 + 6.0 * s2) + 3.0 * s2**2, out=MZ[4, ..., :k])
    return M[:, 0], M[:, 1], MZ


def _kinetic_polys(gauss):
    """-1/2 Delta acting on each ket Gaussian of ``gauss`` (5, *lead, NG),
    as monomial coefficients (5, *lead, NG) over {1, x^2, y^2, z, z^2}."""
    widths, b = gauss[:3], gauss[3]
    Q = np.empty_like(gauss)
    Q[0] = widths.sum(axis=0) - 0.5 * b**2
    Q[[1, 2, 4]] = -2.0 * widths**2
    Q[3] = 2.0 * widths[2] * b
    return Q


class TrapKernel:
    """The variational brackets on one trap, with its constants built once.

    Built from the trap alone: the potential kets' shift columns. At the
    first call for a Gaussian count NG it lays out what depends on NG and
    the trap only, and keeps it until NG changes:

    - ``_ext`` (5, 2 NG + N_wells + 1): columns for the state's Gaussians,
      their conjugates, the shift columns and a zero column;
    - the gather indices (3, NG + M) that form every ket object of H psi as
      one indexed sum of three ``_ext`` columns: the state's own Gaussians,
      the N_wells * NG potential kets (well-major) and the a <= c
      interaction triples (see ``_triples``);
    - the weights (M, 2) of the M scalar kets: the well depth V_m for the
      potential kets (the linear part), g times the multiplicity for the
      triples (the cubic part);
    - the derivative polynomials (NG, 10, 5) with their constant entries
      filled in, and each direction's well index;
    - the buffers of ``_pair_moments``, which serve one state; a stack of
      states gets fresh ones per call, dropped when it returns.

    :meth:`brackets` then reads the state straight from the packed vector
    (or each of a stack of them) and does only the work that depends on it. ``metric_rcond_min`` is the
    smallest reciprocal condition estimate of the metric that
    :func:`assemble_eom` met with this kernel.
    """

    def __init__(self, wells: WellPotentialSpec | None, units: UnitSystem):
        self.wells, self.units = wells, units
        self._shifts = np.empty((5, 0)) if wells is None else _well_shifts(wells)
        self.metric_rcond_min = math.inf
        self._packed_len = None

    def _lay_out(self, n):
        n_wells = self._shifts.shape[1]
        zero = 2 * n + n_wells
        self._ext = np.zeros((5, zero + 1), dtype=complex)
        self._ext[:, 2 * n:zero] = self._shifts
        own = np.arange(n)
        gather = [(own, np.full(n, zero), np.full(n, zero))]
        lin, cubic = [], []
        if self.wells is not None:
            gather.append((np.tile(own, n_wells), 2 * n + np.repeat(np.arange(n_wells), n),
                           np.full(n_wells * n, zero)))
            lin = np.repeat(self.wells.depths, n)
        if self.units.g != 0.0:
            a_i, b_i, c_i, mult = _triples(n)
            gather.append((a_i, n + b_i, c_i))
            cubic = self.units.g * mult
        self._gather = np.concatenate(gather, axis=1)
        m = self._gather.shape[1] - n
        self._weights = np.zeros((m, 2), dtype=complex)
        self._weights[:len(lin), 0] = lin
        self._weights[len(lin):, 1] = cubic
        self._kets = np.empty((5, n + m), dtype=complex)
        self._moments = _moment_buffers(n, n + m)

        D = np.zeros((n, PARAMS_PER_WELL, _N_MONO), dtype=complex)
        D[:, 0, 1] = -1.0                      # AxR: -x^2
        D[:, 1, 1] = -1j                       # AxI
        D[:, 2, 2] = -1.0                      # AyR
        D[:, 3, 2] = -1j                       # AyI
        D[:, 4, 4], D[:, 5, 4] = -1.0, -1j     # AzR, AzI: -(z-q)^2
        D[:, 7, 3] = 1j                        # p: i(z-q)
        D[:, 8, 0] = -1.0                      # gamma_R
        D[:, 9, 0] = -1j                       # gamma_I
        self._D = D
        self.wells_of = np.repeat(own, PARAMS_PER_WELL)
        self._n, self._packed_len = n, PARAMS_PER_WELL * n

    def _stack_scratch(self, lead):
        """(ext, D, kets, moment buffers) for a stack of shape ``lead``: fresh
        arrays holding the constants of the kernel's own buffers, which
        serve one state; they are dropped when the call returns."""
        n, (_, cols), m = self._n, self._ext.shape, self._kets.shape[1]
        ext = np.empty((5, *lead, cols), dtype=complex)
        ext[..., 2 * n:] = np.expand_dims(self._ext[:, 2 * n:], tuple(range(1, len(lead) + 1)))
        D = np.broadcast_to(self._D, (*lead, *self._D.shape)).copy()
        return ext, D, np.empty((5, *lead, m), dtype=complex), _moment_buffers(n, m, lead)

    def brackets(self, x):
        """The derivative polynomials and H psi for the packed vector ``x``
        (see ``VariationalState.to_vector``), or for each of a stack of them.

        ``x`` is one packed vector (10 NG,) or a stack (..., 10 NG) with
        leading axes, as in numpy; every output then gains the same leading
        axes, and each point of the stack gets the same bits as that point
        evaluated alone. For one vector:

        Returns (D, table, lin, nl). D (10 NG, 5) holds the coefficients of
        d psi / d x over {1, x^2, y^2, z, z^2} per direction, the well of
        direction d being ``wells_of[d]``; for one vector it is the
        kernel's buffer, which the next call overwrites. ``table`` (5, 5,
        NG, NG) is the moment table of the state's Gaussians with
        themselves; the metric and the kinetic ket share it. ``lin`` and
        ``nl`` (5, NG) hold <m_i G_w| (T + V) psi> and
        <m_i G_w| g |psi|^2 psi> for bra monomial m_i and bra Gaussian G_w,
        summed over the ket objects, so that for a polynomial P,
        <P G_w | H | psi> = sum_i conj(P_i) (lin + nl)[i, w]. A width with
        Re A <= 0 at any point raises NonNormalizable.
        """
        x = np.ascontiguousarray(x, dtype=float)
        if x.shape[-1] != self._packed_len:
            self._lay_out(x.shape[-1] // PARAMS_PER_WELL)
        n, lead = self._n, x.shape[:-1]
        s = len(lead)
        # A_x, A_y, A_z, q + ip, gamma as rows (5, *lead, NG): inside, the
        # stack's axes follow the first (component or order) axis of every
        # array, so the moment code indexes components as for one vector
        packed = x.view(complex).reshape(*lead, n, PARAMS_PER_WELL // 2).transpose(
            s + 1, *range(s + 1))
        if (packed[:3].real <= 0).any():
            # as the pair of that Gaussian with itself has: checked once here
            raise NonNormalizable("pair Gaussian with nonpositive real width")
        ext, D, kets, moments = (self._stack_scratch(lead) if s else
                                 (self._ext, self._D, self._kets, self._moments))
        q, p, az = x[..., 6::10], x[..., 7::10], packed[2]
        two_az, ip, qq = 2.0 * az, 1j * p, q * q
        ext[:3, ..., :n] = packed[:3]
        b = np.add(two_az * q, ip, out=ext[3, ..., :n])
        ext[4, ..., :n] = -az * qq - ip * q - packed[4]
        gauss = ext[..., :n]
        np.conjugate(gauss, out=ext[..., n:2 * n])

        # the q-, p- and A_z-dependent entries; the rest stay as laid out
        D_re, D_im = D.real, D.imag
        D_re[..., 4, 0] = D_im[..., 5, 0] = -qq   # AzR, AzI: -(z-q)^2
        D_re[..., 4, 3] = D_im[..., 5, 3] = 2.0 * q
        np.negative(b, out=D[..., 6, 0])          # q: 2A_z(z-q)-ip = 2A_z z - b
        D[..., 6, 3] = two_az
        D_im[..., 7, 0] = -q                      # p: i(z-q)

        # every ket object as one indexed sum over the columns of ext
        g = ext[..., self._gather]
        np.add(g[..., 0, :], g[..., 1, :], out=kets)
        kets += g[..., 2, :]
        moments = _pair_moments(ext[..., n:2 * n], kets, moments, n)
        mx, my, mz = (m[..., :n] for m in moments)
        table = mx[_IXTAB] * my[_IYTAB] * mz[_IZTAB]
        lin = np.einsum("j...m,ij...wm->...iw", _kinetic_polys(gauss), table)
        # the scalar kets need only the bra-monomial column (5, NG, M), and are
        # summed over objects before the bra wells are gathered into directions
        mx, my, mz = (m[..., n:] for m in moments)
        column = np.multiply(mx[_XDEG], my[_YDEG])
        column *= mz[_ZDEG]
        sums = column @ self._weights
        if s:
            # the stack's axes lead in what is returned
            sums = sums.transpose(*range(1, s + 1), 0, s + 1, s + 2)
            table = table.transpose(*range(2, s + 2), 0, 1, s + 2, s + 3)
        return (D.reshape(*lead, PARAMS_PER_WELL * n, _N_MONO), table,
                lin + sums[..., 0], sums[..., 1])

    def rhs(self, t, x):
        """Time-derivative of the packed vector ``x``, through
        :func:`assemble_eom` with this kernel: the ODE right-hand side."""
        return assemble_eom(x, self.wells, self.units, self)[1]


def _packed(state):
    """The packed real vector of a VariationalState; a vector as it is."""
    return state.to_vector() if isinstance(state, VariationalState) else state


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
        pot = (gauss[:, None, :] + _well_shifts(wells)[:, :, None]).reshape(5, -1)
        depths = wells.depths
    k, j, i = np.indices((n, n, n)).reshape(3, -1)
    triples = gauss[:, k] + np.conj(gauss)[:, j] + gauss[:, i]
    kets = np.concatenate([gauss, pot, triples], axis=1)
    mx, my, mz = _pair_moments(np.conj(gauss), kets, _moment_buffers(n, kets.shape[1]), 0)
    # <G_l| m G_k> for the ket monomials m; row 0 is <G_l|ket> for every object
    column = mx[_XDEG] * my[_YDEG] * mz[_ZDEG]
    T = np.einsum("jk,jlk->lk", _kinetic_polys(gauss), column[:, :, :n])
    flat, m = column[0], len(depths)
    V = np.einsum("lmk,m->lk", flat[:, n:n + m * n].reshape(n, m, n), depths)
    return flat[:, :n], T, V, flat[:, n + m * n:].reshape(n, n, n, n)


def gaussian_overlaps(state: VariationalState):
    """K_lk = <G_l|G_k> between the state's Gaussians, from the moments of
    their own pairs alone: ``gaussian_matrices(state, wells)[0]`` bit for
    bit, without the potential kets and the interaction triples."""
    n = state.size
    gauss = _gaussians(state)
    mx, my, mz = _pair_moments(np.conj(gauss), gauss, _moment_buffers(n, n), 0)
    return mx[0] * my[0] * mz[0]


def _project(D, wells_of, ket):
    """sum_i conj(D[d, i]) ket[i, well(d)]: each direction's polynomial at
    its own well against a ket already summed per bra well; D (..., d, 5)
    and ket (..., 5, NG) may carry a stack's leading axes."""
    return np.einsum("...di,...id->...d", np.conj(D), ket[..., wells_of])


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
    _, table, lin, nl = TrapKernel(wells, units).brackets(state.to_vector())
    nrm = float(table[0, 0].sum().real)
    return nrm, float((lin[0].sum() + 0.5 * nl[0].sum()).real)


def assemble_eom(state, wells: WellPotentialSpec | None, units: UnitSystem,
                 kernel: TrapKernel | None = None):
    """Variational system and parameter velocities xdot (real vector).

    ``state`` is a VariationalState or its packed vector. ``kernel`` is the
    trap's ``TrapKernel(wells, units)``: :func:`eom_rhs` builds it once and
    passes it on every call; without it one is built for this call.

    Solves (Re M + Re M^T) xdot = 2 Im h by Cholesky. A metric that is not
    positive definite or is ill-conditioned (near-redundant parameter
    directions) is a breakdown of the ansatz, raised as SingularMetric;
    nothing is floored (see ``_solve_metric``)."""
    if kernel is None:
        kernel = TrapKernel(wells, units)
    D, table, lin, nl = kernel.brackets(_packed(state))
    metric = _metric(D, table)
    h = _project(D, kernel.wells_of, lin + nl)
    xdot, rcond = _solve_metric(metric.real + metric.real.T, 2.0 * h.imag)
    kernel.metric_rcond_min = min(kernel.metric_rcond_min, rcond)
    return VariationalSystem(metric=metric, rhs_vector=h), xdot


@lru_cache(maxsize=None)
def _lapack():
    """LAPACK's Cholesky solve and condition estimate, imported at the
    first solve.

    Called directly: scipy.linalg.cho_factor/cho_solve run the same
    ?potrf/?potrs (which ?posv runs in one call) but add about 20 us of
    argument checks per call."""
    from scipy.linalg.lapack import dpocon, dposv
    return dpocon, dposv


def _solve_metric(sym, rhs):
    """Solve ``sym @ xdot = rhs`` for the symmetrized metric by Cholesky.

    Returns xdot and LAPACK's reciprocal condition estimate of the factor
    (1-norm). Raises SingularMetric when the factorization fails (the
    metric is not positive definite to working precision) or when that
    estimate is below ``METRIC_RCOND_MIN``: the velocities along
    near-redundant directions would then be roundoff. The metric is never
    regularised."""
    dpocon, dposv = _lapack()
    # factor and solve in one call; the solution is dropped if a check fails
    factor, xdot, info = dposv(sym, rhs, lower=1)
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
    return xdot, rcond


def eom_rhs(wells, units):
    """Time-derivative of the packed real parameter vector, ``rhs(t, x)``:
    the ``rhs`` method of one ``TrapKernel(wells, units)``."""
    return TrapKernel(wells, units).rhs


def propagate_state(state: VariationalState, wells, units, t_span,
                    settings: IntegratorSettings = IntegratorSettings(rel_tol=1e-9, abs_tol=1e-11)):
    traj = integrate_adaptive(eom_rhs(wells, units), state.to_vector(), t_span, settings,
                              dense_output=False)
    return VariationalState.from_vector(traj.y[-1]), traj


# Rows of a stack that normalized_energy evaluates at once; a longer stack's
# first axis is cut into blocks of this many. The four-well fit's Hessian
# stacks have 20 rows. Evaluated whole, they raised trap_fit's peak RSS
# from 40.3 to 41.1 MB, and their fresh temporaries page-faulted on every
# call (about 460 minor faults). Blocks of 10 keep the peak within 0.1 MB
# and fault about once a call, at about 80 us a row against 215 us for one
# point alone (2-core x86-64 host); blocks of 5 cost about the same per row.
STACK_BLOCK = 10


def _squares(a):
    """a**2 per element by libm's pow, as numpy squares one float64 scalar:
    numpy squares an array by multiplication instead, which differs in the
    last bit for about 0.1% of values, so a stack's points would not match
    the same points evaluated one at a time."""
    return np.reshape([v**2 for v in np.ravel(a).tolist()], np.shape(a))


def normalized_energy(state, wells, units, directions=None,
                      kernel: TrapKernel | None = None):
    """Mean-field energy of the normalized state, E[psi]/<psi|psi>, and its
    analytic gradient with respect to the packed real parameters.

    ``state`` is a VariationalState or its packed vector, or a stack of
    packed vectors (..., 10 NG) with leading axes; ``kernel`` is the trap's
    ``TrapKernel(wells, units)``, built here when not given.
    ``directions``, when given, selects the entries of the packed vector
    (see ``to_vector``) whose derivatives are returned, in that order.
    Returns ``(energy, gradient)``: for one state a scalar and a vector,
    for a stack the energies (...) and gradients (..., len(directions)),
    each point's bits the same as for that point alone. A width with
    Re A <= 0 at any point raises NonNormalizable.
    """
    if kernel is None:
        kernel = TrapKernel(wells, units)
    x = _packed(state)
    if np.ndim(x) > 1 and len(x) > STACK_BLOCK:
        parts = [normalized_energy(x[i:i + STACK_BLOCK], wells, units, directions, kernel)
                 for i in range(0, len(x), STACK_BLOCK)]
        return tuple(np.concatenate(part) for part in zip(*parts))
    D, table, lin, nl = kernel.brackets(x)
    wells_of = kernel.wells_of
    if directions is not None:
        D, wells_of = D[..., directions, :], wells_of[directions]
    nrm = table[..., 0, 0, :, :].sum(axis=(-2, -1)).real
    e_lin = lin[..., 0, :].sum(axis=-1).real
    e_nl = nl[..., 0, :].sum(axis=-1).real
    nrm2 = _squares(nrm)
    e_n = e_lin / nrm + 0.5 * e_nl / nrm2
    mu = e_lin / nrm + e_nl / nrm2
    # d/dx of E/N: <D|H_lin psi> + <D|H_nl psi>/N - mu <D|psi>, where the
    # table's ket-constant column summed over kets is the bare psi
    ket = (lin + nl / nrm[..., None, None]
           - mu[..., None, None] * table[..., :, 0, :, :].sum(axis=-1))
    grad = (2.0 / nrm)[..., None] * _project(D, wells_of, ket).real
    return e_n, grad


def relax_to_fixed_point(state: VariationalState, wells, units, tol=1e-5,
                         max_steps=2000):
    """Minimize the normalized mean-field energy over all ansatz parameters.

    Damped Newton steps (:func:`ptembed.numerics.minimize_norm_constrained`,
    at most ``max_steps``) on E[psi]/<psi|psi> with the analytic gradient,
    starting from ``state``; a state whose gradient is already at most
    ``tol`` is kept as it is. The result is renormalized exactly through
    the real parts of gamma and is a fixed point of the real-time equations
    of motion up to a global phase. Raises NoConvergence if the gradient
    does not drop below ``tol``.
    """
    kernel = TrapKernel(wells, units)

    def energy_and_grad(x):
        return normalized_energy(x, wells, units, kernel=kernel)

    x, _, grad = minimize_norm_constrained(energy_and_grad, state.to_vector(),
                                           tol=tol, max_iter=max_steps)
    grad_norm = float(np.max(np.abs(grad)))
    if not grad_norm <= tol:
        raise NoConvergence(
            f"energy minimization stalled (gradient {grad_norm:.3e})"
        )
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
    at the accepted depths (unscaled currents). ``rhs_evals``,
    ``accepted_steps`` and ``rejected_steps`` sum the integrator's work over
    all those integrations, the search's trials included, and
    ``metric_rcond_min`` is the smallest reciprocal condition estimate of
    the metric that they met."""

    state: VariationalState
    depths: tuple
    populations: np.ndarray
    currents: np.ndarray
    iterations: int
    jacobian_refreshes: int
    integrations: int
    jacobian: np.ndarray | None
    rhs_evals: int
    accepted_steps: int
    rejected_steps: int
    metric_rcond_min: float


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

    cache, runs = {}, []

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
            kernel = TrapKernel(wtrial, units)
            traj = integrate_adaptive(kernel.rhs, x0, (0.0, dt), settings,
                                      dense_output=False)
            runs.append((traj, kernel.metric_rcond_min))
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
        rhs_evals=sum(traj.rhs_evals for traj, _ in runs),
        accepted_steps=sum(traj.accepted_steps for traj, _ in runs),
        rejected_steps=sum(traj.rejected_steps for traj, _ in runs),
        metric_rcond_min=min(rcond for _, rcond in runs),
    ), replace(wells, depths=depths)


@dataclass
class VariationalRunRecord:
    """Sampled observables at the control-interval ends (``t[0] = 0``), and
    per completed interval the depth search's root iterations,
    finite-difference Jacobian builds, end-of-interval integrations, the
    integrator's work on them and the smallest reciprocal condition
    estimate of the metric (see :class:`ControlledStepResult`). A run ended
    by an error records its time, type name (``breakdown_reason``) and text
    (``breakdown_message``)."""

    t: np.ndarray
    n: np.ndarray
    j: np.ndarray
    depths: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray
    root_iterations: np.ndarray
    jacobian_refreshes: np.ndarray
    integrations: np.ndarray
    rhs_evals: np.ndarray
    accepted_steps: np.ndarray
    rejected_steps: np.ndarray
    metric_rcond_min: np.ndarray
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
    rhs_evals, accepted, rejected, rconds = [], [], [], []
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
            rhs_evals=np.array(rhs_evals, dtype=int),
            accepted_steps=np.array(accepted, dtype=int),
            rejected_steps=np.array(rejected, dtype=int),
            metric_rcond_min=np.array(rconds),
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
        rhs_evals.append(result.rhs_evals)
        accepted.append(result.accepted_steps)
        rejected.append(result.rejected_steps)
        rconds.append(result.metric_rcond_min)
    return record(), state
