"""Fully time-dependent Gaussian ansatz for the trapped condensate.

The wave function is a sum of one Gaussian per well,

    psi = sum_k exp[-A_x^k x^2 - A_y^k y^2 - A_z^k (z - q^k)^2
                    + i p^k (z - q^k) - gamma^k],

with all parameters time-dependent, in units hbar = m = 1 (lengths in w_z,
energies in E0, cf. the dnlse module). The time derivative of each
Gaussian is that Gaussian times a polynomial in its centred monomials
{1, x^2, y^2, z - q^k, (z - q^k)^2}, and every such polynomial is reached
by some parameter velocity. The time-dependent variational principle is
therefore a complex Hermitian Gram system over these monomials (Rau, Main
and Wunner, PRA 82, 023610, 2010),

    G c = -i k,     G_(a w),(b v) = <n_a G_w | n_b G_v>,
                    k_(a w) = <n_a G_w | H | psi>,

whose solution c holds the coefficients of d psi / dt; the packed
parameter velocities follow from c in closed form. Every bracket is a
moment of a pair Gaussian conj(G_w) o, under which x and y are centred
normal and z is normal about the pair mean: <n_a G_w | o> is the pair's
integral times (1, s_x, s_y, d_w, s_z + d_w^2), for its variances s and
its mean's offset d_w from q_w, and G is the outer product of these rows
over the own pairs plus fourth-moment terms. The potential and interaction
kets carry a constant and are summed against their weights (k_sc); the
kinetic ket is -Delta/2 G_v = Q_v G_v for a polynomial Q_v in the centred
monomials, so c = -i (Q + G^-1 k_sc). The Gram matrix is inverted with
numpy; a (near-)singular one raises SingularMetric instead of being
regularised. ``gaussian_matrices`` reads the Gaussian-basis matrices K, T,
W~ and each well's potential matrix off the same pair moments; the dnlse
module builds on them, with its basis a state at rest (p = gamma = 0), and
so do the slab populations and wall currents of ``box_observables``. The
module runs on numpy alone.

The brackets run on a per-trap kernel, :class:`TrapKernel`. It builds once
what depends on the trap alone: the potential kets' shift columns and the
weights of the potential and interaction kets. Each call then reads the
state's Gaussians straight from the packed parameter vector
(``_gaussians``) and forms every ket object from them (``_kets``, shared
with ``gaussian_matrices``): the Gaussians, the potential kets and the
interaction triples. An integration builds one kernel per trap and takes
its :meth:`TrapKernel.rhs`, which calls :func:`assemble_eom` with it on
every evaluation; the ground-state fit and :func:`relax_to_fixed_point`
share one kernel over their energy evaluations. The brackets and
:func:`normalized_energy` also take a stack of packed vectors, so the
minimizer builds each Hessian from one call; every point of a stack gets
the same bits as that point alone.

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
from .special import erf

if TYPE_CHECKING:
    from .dnlse import UnitSystem, WellPotentialSpec

# real-parameter layout per well; complex parameters are split (R, I)
PARAMS_PER_WELL = 10
PARAM_NAMES = ("AxR", "AxI", "AyR", "AyI", "AzR", "AzI", "q", "p", "gR", "gI")

# each Gaussian's centred monomials 1, x^2, y^2, z - q, (z - q)^2: the basis
# of its derivative polynomials and of the Gram system
_N_MONO = 5

# the factors (1, 2) (1, 2)^T of the fourth-moment block of the Gram matrix
# over z - q and (z - q)^2 (see TrapKernel.brackets)
_Z_BLOCK = np.array([[1.0, 2.0], [2.0, 4.0]])

# smallest reciprocal condition number (1-norm, exact from the inverse) of
# the Gram matrix G that the equations of motion accept; below this the
# velocities along its weakest directions are noise. Two equal packets 1e-2
# apart give 7.9e-18, 1e-1 apart 6.1e-16; the default trap's packets, 1.8
# apart, sit far above it
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
class VariationalSystem:
    """The variational Gram system G c = -i k of :func:`assemble_eom`.

    ``metric`` (5 NG, 5 NG) is the Hermitian Gram matrix G_(a w),(b v) =
    <n_a G_w | n_b G_v> over each Gaussian G_w's centred monomials n_a in
    {1, x^2, y^2, z - q_w, (z - q_w)^2}, indexed Gaussian-major (row
    5 w + a); ``rhs_vector`` (5 NG,) holds k_(a w) = <n_a G_w | H | psi>."""

    metric: np.ndarray
    rhs_vector: np.ndarray


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


def _gaussians(x):
    """The Gaussians exp(-A_x x^2 - A_y y^2 - A_z z^2 + b z + C) of the
    packed vector ``x`` (10 NG,) (see ``VariationalState.to_vector``), or
    of each of a stack (..., 10 NG), as rows (A_x, A_y, A_z, b, C) of a
    (5, ..., NG) array: the stack's axes follow the row axis, so the moment
    code indexes rows as for one vector."""
    x = np.ascontiguousarray(x, dtype=float)
    lead = x.shape[:-1]
    # A_x, A_y, A_z, q + ip, gamma as rows (5, ..., NG); b = 2 A_z q + ip
    # and C = -(A_z q + ip) q - gamma replace the last two
    gauss = x.view(complex).reshape(*lead, -1, PARAMS_PER_WELL // 2).transpose(
        len(lead) + 1, *range(len(lead) + 1)).copy()
    q = x[..., 6::10]
    aq = gauss[2] * q
    h = aq + 1j * x[..., 7::10]
    np.add(aq, h, out=gauss[3])
    h *= q
    gauss[4] += h
    np.negative(gauss[4], out=gauss[4])
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


def _kets(gauss, conj, shifts, triples):
    """Every ket object of H psi over the Gaussians ``gauss`` (5, ..., NG),
    whose conjugates are ``conj``, in the layout of ``_gaussians``: the
    Gaussians G_k themselves, the potential kets G_k + shift_m for the
    shift columns ``shifts`` (5, N_wells) of ``_well_shifts``, well-major
    (column NG + m NG + k), and the interaction kets (G_a + conj G_b) + G_c
    for the index arrays ``triples`` = (a, b, c). Returns the columns
    (5, ..., NG + N_wells NG + len(a))."""
    a, b, c = triples
    shifts = shifts.reshape(5, *(1,) * (gauss.ndim - 2), -1, 1)
    pot = (gauss[..., None, :] + shifts).reshape(*gauss.shape[:-1], -1)
    return np.concatenate([gauss, pot, gauss.take(a, -1) + conj.take(b, -1) + gauss.take(c, -1)],
                          axis=-1)


def _pair_moments(conj_bra, kets):
    """The pair Gaussians of every bra Gaussian with every ket object.

    ``conj_bra`` (5, *lead, NG), the conjugated bra Gaussians, and ``kets``
    (5, *lead, M) hold (A_x, A_y, A_z, b, C) per Gaussian, for each point
    of a stack of shape ``lead`` (empty for one state); a pair Gaussian is
    the sum of its bra's and its ket's rows. Returns each pair's integral
    pref (*lead, NG, M), its variances s = 1/(2 S) along x, y and z (3,
    *lead, NG, M) and its z mean mu = b s_z, each entry elementwise, so a
    point of a stack gets the same bits as the point alone.
    """
    pair = conj_bra[..., :, None] + kets[..., None, :]
    b = pair[3]
    s = np.divide(0.5, pair[:3])
    mu = b * s[2]
    # pi^(3/2) / sqrt(S_x S_y S_z) exp(b^2 / 4S_z + C): Re S > 0 keeps each
    # |arg s| below pi/2, so two arguments under one root stay off its
    # branch cut, where three could cross it
    pref = np.sqrt(s[0] * s[1])
    pref *= np.sqrt(s[2])
    exponent = b * mu
    exponent *= 0.5
    exponent += pair[4]
    pref *= np.exp(exponent, out=exponent)
    pref *= (2.0 * math.pi) ** 1.5
    return pref, s, mu


def _bra_rows(s, mu, q):
    """f = (1, s_x, s_y, d_w, s_z + d_w^2) (5, *lead, NG, M), d_w = mu - q_w,
    for pairs of variances ``s`` and means ``mu`` and bra centres ``q``: then
    <n_a G_w | o> = pref f_a. A reversed pair is the conjugate, so the own
    pairs' ket-side moments are conj(f[..., v, w])."""
    f = np.empty((_N_MONO, *mu.shape), dtype=complex)
    f[0] = 1.0
    f[1:3] = s[:2]
    d = np.subtract(mu, q[..., None], out=f[3])
    np.multiply(d, d, out=f[4])
    f[4] += s[2]
    return f


def _kinetic_polys(gauss, p):
    """-Delta/2 G_v = Q_v G_v for each Gaussian of ``gauss`` (5, *lead, NG)
    with momenta ``p`` (*lead, NG): Q_v = (A_x + A_y + A_z + p^2/2, -2A_x^2,
    -2A_y^2, 2i p A_z, -2A_z^2) over its centred monomials, (5, *lead, NG)."""
    Q = np.empty_like(gauss)
    np.multiply(-2.0 * gauss[:3], gauss[:3], out=Q[1:4])
    Q[4] = Q[3]
    np.multiply(2j * gauss[2], p, out=Q[3])
    Q[0] = gauss[0] + gauss[1] + gauss[2] + 0.5 * p * p
    return Q


class TrapKernel:
    """The variational brackets on one trap, with its constants built once.

    Built from the trap alone: the potential kets' shift columns. At the
    first call for a Gaussian count NG it lays out what depends on NG and
    the trap only, and keeps it until NG changes:

    - the a <= c interaction triples (see ``_triples``), none without
      interaction, which ``_kets`` forms after the state's own Gaussians
      and the N_wells * NG potential kets (well-major);
    - the weights (M, 2) of the M scalar kets: the well depth V_m for the
      potential kets (the linear part) and g times the multiplicity for the
      triples (the cubic part).

    :meth:`brackets` then reads the state straight from the packed vector
    (or each of a stack of them), forms its ket objects and does only the
    work that depends on it, in arrays of its own. ``metric_rcond_min`` is
    the smallest reciprocal condition number of the Gram matrix that
    :func:`assemble_eom` met with this kernel.
    """

    def __init__(self, wells: WellPotentialSpec | None, units: UnitSystem):
        self.wells, self.units = wells, units
        self._shifts = np.empty((5, 0)) if wells is None else _well_shifts(wells)
        self.metric_rcond_min = math.inf
        self._packed_len = None

    def _lay_out(self, n):
        a, b, c, mult = _triples(n)
        if self.units.g == 0.0:
            a, b, c, mult = a[:0], b[:0], c[:0], mult[:0]
        lin = [] if self.wells is None else np.repeat(self.wells.depths, n)
        self._triples = a, b, c
        self._weights = np.zeros((len(lin) + len(mult), 2), dtype=complex)
        self._weights[:len(lin), 0] = lin
        self._weights[len(lin):, 1] = self.units.g * mult
        self._n, self._packed_len = n, PARAMS_PER_WELL * n

    def brackets(self, x):
        """The Gram matrix, the kinetic polynomials and the scalar kets'
        brackets for the packed vector ``x`` (see
        ``VariationalState.to_vector``), or for each of a stack of them.

        ``x`` is one packed vector (10 NG,) or a stack (..., 10 NG) with
        leading axes, as in numpy; every output then gains the same leading
        axes, and each point of the stack gets the same bits as that point
        evaluated alone. For one vector:

        Returns (gram, kinetic, sums), with rows 5 w + a for the centred
        monomial n_a of Gaussian G_w. ``gram`` (5 NG, 5 NG) is the Gram
        matrix of :class:`VariationalSystem`; ``kinetic`` (5 NG,) holds each
        Gaussian's Q_v of ``_kinetic_polys``, so that <n_a G_w | T | psi> =
        (gram @ kinetic)[5 w + a]; ``sums`` (5 NG, 2) holds
        <n_a G_w | V | psi> and <n_a G_w | g |psi|^2 | psi>. A width with
        Re A <= 0 at any point raises NonNormalizable.
        """
        if np.shape(x)[-1] != self._packed_len:
            self._lay_out(np.shape(x)[-1] // PARAMS_PER_WELL)
        n = self._n
        # inside, the stack's axes follow the first (component) axis of the
        # Gaussians' rows, as in _gaussians
        gauss = _gaussians(x)
        if gauss[:3].real.min() <= 0:
            # as the pair of that Gaussian with itself has: checked once here
            raise NonNormalizable("pair Gaussian with nonpositive real width")
        conj = np.conjugate(gauss)
        pref, s, mu = _pair_moments(conj, _kets(gauss, conj, self._shifts, self._triples))
        # the bra rows F = pref f against every ket object, summed over the scalar kets
        f = _bra_rows(s, mu, x[..., 6::10])
        F = f * pref
        sums = (F.reshape(-1, F.shape[-1])[:, n:] @ self._weights).reshape(*F.shape[:-1], 2)
        # the own pairs: G_(a w),(b v) = F_a(w, v) conj(f_b(v, w)), plus what
        # the product leaves of the fourth moments, E[u^4] = 3 s^2 for u = z -
        # mu: 2 s^2 pref on the diagonal of x^2, y^2 and (z - q)^2, and
        # s_z pref (1, 2 d_w) (1, 2 d_v)^T on the block of z - q, (z - q)^2
        ket = np.conj(f[..., :n].swapaxes(-1, -2))
        gram = F[:, None, ..., :n] * ket
        pref, sz = pref[..., :n], s[2, ..., :n]
        gram.reshape(_N_MONO**2, *pref.shape)[6:13:6] *= 3.0
        spref = sz * pref
        block = f[0:4:3, None, ..., :n] * ket[0:4:3]
        block *= _Z_BLOCK.reshape(2, 2, *(1,) * spref.ndim) * spref
        gram[3:, 3:] += block
        gram[4, 4] += 2.0 * sz * spref
        # Gaussian-major rows 5 w + a, the stack's axes leading
        lead = tuple(range(2, pref.ndim))
        rows = _N_MONO * n
        return (gram.transpose(*lead, -2, 0, -1, 1).reshape(*pref.shape[:-2], rows, rows),
                _kinetic_polys(gauss, x[..., 7::10]).transpose(*range(1, pref.ndim), 0).reshape(
                    *pref.shape[:-2], rows),
                sums.transpose(*range(1, pref.ndim), 0, -1).reshape(*pref.shape[:-2], rows, 2))

    def rhs(self, t, x):
        """Time-derivative of the packed vector ``x``, through
        :func:`assemble_eom` with this kernel: the ODE right-hand side."""
        return assemble_eom(x, self)[1]


def _packed(state):
    """The packed real vector of a VariationalState; a vector as it is."""
    return state.to_vector() if isinstance(state, VariationalState) else state


def gaussian_matrices(state: VariationalState, wells: WellPotentialSpec | None):
    """Matrix elements between the state's Gaussians G_k, from one moment
    evaluation over the Gaussians, the potential kets and all NG^3
    interaction triples.

    Returns (K, T, P, W): K_lk = <G_l|G_k> and T_lk = <G_l| -Delta/2 |G_k>
    (NG, NG); P_lmk = <G_l| well_m |G_k> (NG, N_wells, NG), the matrix of
    each well's profile without its depth V_m (N_wells = 0 without
    ``wells``), so that V_trap = sum_m V_m P[:, m, :]; and
    W_lkji = int conj(G_l) G_k conj(G_j) G_i d^3r (NG, NG, NG, NG), the
    interaction tensor without its strength g.
    """
    n = state.size
    gauss = _gaussians(state.to_vector())
    conj = np.conj(gauss)
    shifts = np.empty((5, 0)) if wells is None else _well_shifts(wells)
    kets = _kets(gauss, conj, shifts, np.indices((n, n, n)).reshape(3, -1))
    pref, s, mu = _pair_moments(conj, kets)
    # T_lk = <G_l| Q_k G_k>, Q_k against the ket-side rows of the own pairs
    f = _bra_rows(s[..., :n], mu[:, :n], state.q_z)
    T = pref[:, :n] * np.einsum("bkl,bk->lk", np.conj(f), _kinetic_polys(gauss, state.p_z))
    return (pref[:, :n], T, pref[:, n:-n**3].reshape(n, shifts.shape[1], n),
            pref[:, -n**3:].reshape(n, n, n, n))


def gaussian_overlaps(state: VariationalState):
    """K_lk = <G_l|G_k> between the state's Gaussians, from the moments of
    their own pairs alone: ``gaussian_matrices(state, wells)[0]`` bit for
    bit, without the potential kets and the interaction triples."""
    gauss = _gaussians(state.to_vector())
    return _pair_moments(np.conj(gauss), gauss)[0]


def _project(D, wells_of, ket):
    """sum_i conj(D[d, i]) ket[5 well(d) + i]: each direction's polynomial
    at its own well against a ket in the rows of the Gram matrix; D (..., d,
    5) and ket (..., 5 NG) may carry a stack's leading axes."""
    rows = ket.reshape(*ket.shape[:-1], -1, _N_MONO)[..., wells_of, :]
    return np.einsum("...di,...di->...d", np.conj(D), rows)


def _projections(brackets):
    """(<n_a G_w | psi>, <n_a G_w | T + V | psi>, <n_a G_w | g |psi|^2 | psi>)
    (..., 5 NG) from the ``brackets`` of :meth:`TrapKernel.brackets`: psi's
    projection is the Gram matrix's columns of constant monomials, summed."""
    gram, kinetic, sums = brackets
    return (gram[..., 0::_N_MONO].sum(axis=-1),
            (gram @ kinetic[..., None])[..., 0] + sums[..., 0], sums[..., 1])


def norm_and_energy(state: VariationalState, kernel: TrapKernel):
    """(<psi|psi>, <psi|T+V|psi> + g/2 <psi| |psi|^2 |psi>) on ``kernel``'s trap."""
    psi, lin, nl = _projections(kernel.brackets(state.to_vector()))
    return float(psi[0::5].sum().real), float((lin[0::5].sum() + 0.5 * nl[0::5].sum()).real)


def assemble_eom(state, kernel: TrapKernel):
    """Variational system and parameter velocities xdot (real vector).

    ``state`` is a VariationalState or its packed vector; ``kernel`` is the
    ``TrapKernel(wells, units)`` of the trap and units, which
    :meth:`TrapKernel.rhs` passes on every call.

    Solves the Gram system G c = -i k (see :class:`VariationalSystem`) for
    the coefficients c of d psi / dt over each Gaussian's centred
    monomials {1, x^2, y^2, z - q, (z - q)^2}, from the kernel's brackets.
    The kinetic ket G Q is solved in closed form, so c = -i (Q + G^-1 k_sc)
    for the potential and interaction kets' k_sc, and k = G Q + k_sc.
    The packed velocities follow per Gaussian:

        dA_x/dt = -c_x2,  dA_y/dt = -c_y2,  dA_z/dt = -c_(z-q)2,
        dq/dt = Re c_(z-q) / (2 Re A_z),
        dp/dt = Im c_(z-q) - 2 Im A_z dq/dt,
        dgamma/dt = -c_1 - i p dq/dt.

    A singular or ill-conditioned Gram matrix (near-redundant Gaussians) is
    a breakdown of the ansatz, raised as SingularMetric; nothing is floored
    (see ``_solve_metric``)."""
    x = _packed(state)
    gram, kinetic, sums = kernel.brackets(x)
    scalar = sums[:, 0] + sums[:, 1]
    c, rcond = _solve_metric(gram, scalar)
    kernel.metric_rcond_min = min(kernel.metric_rcond_min, rcond)
    c += kinetic
    c *= -1j
    return VariationalSystem(gram, gram @ kinetic + scalar), _velocities(x, c)


def inverse_and_rcond(matrix):
    """The inverse of a small square ``matrix`` and its reciprocal 1-norm
    condition number 1 / (|M|_1 |M^-1|_1), exact from that inverse.
    Raises numpy's LinAlgError where the inversion fails."""
    inverse = np.linalg.inv(matrix)
    return inverse, 1.0 / (np.abs(matrix).sum(axis=0).max() * np.abs(inverse).sum(axis=0).max())


def _solve_metric(gram, rhs):
    """Solve ``gram @ c = rhs`` for the Hermitian Gram matrix through its
    inverse.

    Returns c and the reciprocal condition number of :func:`inverse_and_rcond`.
    Raises SingularMetric when the inversion fails (G is singular to
    working precision) or when that number is below ``METRIC_RCOND_MIN``:
    the velocities along near-redundant directions would then be roundoff.
    The matrix is never regularised."""
    try:
        inverse, rcond = inverse_and_rcond(gram)
    except np.linalg.LinAlgError:
        raise SingularMetric(
            f"variational metric is singular (inversion of the {len(gram)}x{len(gram)} "
            f"Gram matrix fails)"
        ) from None
    if not rcond >= METRIC_RCOND_MIN:
        raise SingularMetric(
            f"variational metric is singular to working precision "
            f"(reciprocal condition estimate {rcond:.3e} < {METRIC_RCOND_MIN:g})"
        )
    return inverse @ rhs, rcond


def _velocities(x, c):
    """The packed velocities (10 NG,) at the packed vector ``x`` whose
    Gaussians move by c (5 NG,) over their centred monomials."""
    # -c in the packed order of complex pairs (A_x, A_y, A_z, q + ip, gamma):
    # the widths' velocities as they stand; q, p and gamma follow from theirs
    xdot = np.negative(c.reshape(-1, _N_MONO).take([1, 2, 4, 3, 0], axis=1)).view(float)
    qdot = xdot[:, 6] / (-2.0 * x[4::10])               # Re c_(z-q) / (2 Re A_z)
    xdot[:, 6] = qdot
    xdot[:, 7] = -xdot[:, 7] - 2.0 * x[5::10] * qdot    # Im c_(z-q) - 2 Im A_z qdot
    xdot[:, 9] -= x[7::10] * qdot                       # Im gamma: -Im c_1 - p qdot
    return xdot.reshape(-1)


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


# d psi / d x_i over the centred monomials of the direction's Gaussian, per
# packed entry (AxR, AxI, AyR, AyI, AzR, AzI, q, p, gR, gI): -x^2, -y^2,
# -(z - q)^2 and -1 times 1 or i, p's i (z - q), and q's 2 A_z (z - q) - i p,
# the one entry _derivative_polys fills from the state
_DIRECTIONS = np.zeros((PARAMS_PER_WELL, _N_MONO), dtype=complex)
_DIRECTIONS[[0, 2, 4, 8], [1, 2, 4, 0]] = -1.0
_DIRECTIONS[[1, 3, 5, 9], [1, 2, 4, 0]] = -1j
_DIRECTIONS[7, 3] = 1j
_DIRECTIONS.flags.writeable = False


def _derivative_polys(x):
    """d psi / d x for every direction of the packed vector ``x`` (10 NG,),
    or of each of a stack (..., 10 NG): the coefficients (..., 10 NG, 5) of
    each direction's polynomial over the centred monomials of Gaussian
    d // 10, which it multiplies (see ``_DIRECTIONS``)."""
    x = np.ascontiguousarray(x, dtype=float)
    n = x.shape[-1] // PARAMS_PER_WELL
    D = np.empty((*x.shape[:-1], n, PARAMS_PER_WELL, _N_MONO), dtype=complex)
    D[...] = _DIRECTIONS
    D[..., 6, 0] = -1j * x[..., 7::10]
    D[..., 6, 3] = 2.0 * x.view(complex)[..., 2::5]
    return D.reshape(*x.shape, _N_MONO)


def normalized_energy(state, kernel: TrapKernel, directions=None):
    """Mean-field energy of the normalized state, E[psi]/<psi|psi>, and its
    analytic gradient with respect to the packed real parameters.

    ``state`` is a VariationalState or its packed vector, or a stack of
    packed vectors (..., 10 NG) with leading axes; ``kernel`` is the
    ``TrapKernel(wells, units)`` of the trap and units.
    ``directions``, when given, selects the entries of the packed vector
    (see ``to_vector``) whose derivatives are returned, in that order.
    Returns ``(energy, gradient)``: for one state a scalar and a vector,
    for a stack the energies (...) and gradients (..., len(directions)),
    each point's bits the same as for that point alone. A width with
    Re A <= 0 at any point raises NonNormalizable.
    """
    x = _packed(state)
    if np.ndim(x) > 1 and len(x) > STACK_BLOCK:
        parts = [normalized_energy(x[i:i + STACK_BLOCK], kernel, directions)
                 for i in range(0, len(x), STACK_BLOCK)]
        return tuple(np.concatenate(part) for part in zip(*parts))
    psi, lin, nl = _projections(kernel.brackets(x))
    D = _derivative_polys(x)
    wells_of = np.arange(D.shape[-2]) // PARAMS_PER_WELL
    if directions is not None:
        D, wells_of = D[..., directions, :], wells_of[directions]
    nrm, e_lin, e_nl = (v[..., 0::_N_MONO].sum(axis=-1).real for v in (psi, lin, nl))
    nrm2 = _squares(nrm)
    e_n = e_lin / nrm + 0.5 * e_nl / nrm2
    mu = e_lin / nrm + e_nl / nrm2
    # d/dx of E/N: <D|H_lin psi> + <D|H_nl psi>/N - mu <D|psi>
    ket = lin + nl / nrm[..., None] - mu[..., None] * psi
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
        return normalized_energy(x, kernel)

    x, _, grad = minimize_norm_constrained(energy_and_grad, state.to_vector(),
                                           tol=tol, max_iter=max_steps)
    grad_norm = float(np.max(np.abs(grad)))
    if not grad_norm <= tol:
        raise NoConvergence(
            f"energy minimization stalled (gradient {grad_norm:.3e})"
        )
    st = VariationalState.from_vector(x)
    nrm, _ = norm_and_energy(st, kernel)
    # exact renormalization through a uniform shift of the gamma real parts
    x[8::10] += 0.5 * math.log(nrm)
    return VariationalState.from_vector(x)


def box_observables(state: VariationalState, wells: WellPotentialSpec):
    """Slab particle numbers and wall currents of the four-well picture.

    The walls sit midway between neighbouring wells of ``wells``. n_k
    integrates |psi|^2 between neighboring walls (outer slabs reach
    infinity); j_{k,k+1} integrates the z-current density over the wall
    plane. Both are sums over the pair Gaussians conj(G_l) G_k, whose
    overlaps K_lk, z variances s_z and means mu_lk come from one
    ``_pair_moments`` call: along z, a pair is K_lk times a normal density
    of variance s_z about mu_lk, so its slab integral is the complex error
    function (:func:`ptembed.special.erf`).
    """
    p = wells.positions
    walls = 0.5 * (p[:-1] + p[1:])
    gauss = _gaussians(state.to_vector())
    overlap, s, mu = _pair_moments(np.conj(gauss), gauss)
    # each wall's offset from every pair mean over sqrt(2 s_z), (walls, NG, NG)
    root = np.sqrt(2.0 * s[2])
    u = (walls[:, None, None] - mu) / root
    ends = np.ones((1, *mu.shape))
    cdf = np.concatenate([-ends, erf(u), ends])
    n = (0.5 * overlap * np.diff(cdf, axis=0)).sum(axis=(1, 2)).real
    # Im(psi* dpsi/dz) over the wall plane: the pair density at the wall
    # times the ket exponent's slope -2 A_z z + b there
    density = overlap * np.exp(-u * u) / (math.sqrt(math.pi) * root)
    slope = gauss[3] - 2.0 * gauss[2] * walls[:, None]
    j = (density * slope[:, None, :]).sum(axis=(1, 2)).imag
    return n, j


def _work_tally():
    """The work counters of a controlled variational run, keyed like its
    ``summary.json`` entries; ``metric_rcond_min`` stays None until a Gram
    matrix has been solved."""
    return dict(control_root_iterations=0, control_jacobian_refreshes=0,
                control_integrations=0, rhs_evals=0, accepted_steps=0,
                rejected_steps=0, metric_rcond_min=None)


def _tally_integration(tally, traj, kernel):
    """Add one end-of-interval integration, or the partial trajectory of
    one that raised, to ``tally``."""
    tally["control_integrations"] += 1
    for key in ("rhs_evals", "accepted_steps", "rejected_steps"):
        tally[key] += getattr(traj, key)
    if kernel.metric_rcond_min < (tally["metric_rcond_min"] or math.inf):
        tally["metric_rcond_min"] = float(kernel.metric_rcond_min)


@dataclass
class ControlledStepResult:
    """One control interval: the end state, the end populations and
    currents, the root search's iterations, and ``jacobian``, the Broyden
    model of d(j_01, j_23) / d(V^0, V^3) at the accepted depths. The
    interval's other work goes to the run's tally."""

    state: VariationalState
    populations: np.ndarray
    currents: np.ndarray
    iterations: int
    jacobian: np.ndarray | None


def controlled_step(state: VariationalState, wells: WellPotentialSpec,
                    units: UnitSystem, targets, dt, settings: IntegratorSettings,
                    tol=1e-8, jacobian=None, tally=None):
    """Advance one control interval with (V^0, V^3) held constant.

    The two depths are found by a root search demanding that the outer wall
    currents at the end of the step, integrated with ``settings``, equal
    ``targets`` to ``tol`` in the max norm. ``jacobian`` is the
    previous interval's ``ControlledStepResult.jacobian``: the
    depth-to-current map changes little from one interval to the next, so
    the search starts from it instead of building a finite-difference
    Jacobian (two extra end-of-interval integrations); without it, or when
    an iteration finds no descent, the Jacobian is built by finite
    differences. A search that stalls with a freshly built Jacobian (see
    :func:`ptembed.numerics.root_find`), runs out of its 40 iterations or
    tries a depth >= 0 raises :class:`ControlSearchFailed`.

    ``tally`` (see :func:`_work_tally`) gains the work as it is done:
    each integration when it ends, the partial one of an integration that
    raises included, and the search's iterations and Jacobian builds when
    it returns, converged or not, or when an exception from an integration
    or a trial depth ends it (from the partial report ``root_find``
    attaches).
    Returns the :class:`ControlledStepResult` and the well specification
    with the accepted depths.
    """
    if tally is None:
        tally = _work_tally()
    x0 = state.to_vector()
    cache = {}

    def end_point(v):
        """End state, its wall populations and currents, and the trap at
        outer depths ``v``."""
        key = (float(v[0]), float(v[1]))
        if key not in cache:
            if max(key) >= 0.0:
                # targets beyond what attractive outer wells can drive
                raise ControlSearchFailed(
                    f"depth search left the attractive domain (V0, V3 = {key})"
                )
            depths = wells.depths.copy()
            depths[0], depths[-1] = v
            kernel = TrapKernel(replace(wells, depths=depths), units)
            try:
                traj = integrate_adaptive(kernel.rhs, x0, (0.0, dt), settings,
                                          dense_output=False)
            except PtError as exc:
                _tally_integration(tally, exc.trajectory, kernel)
                raise
            _tally_integration(tally, traj, kernel)
            st = VariationalState.from_vector(traj.y[-1])
            cache[key] = (st, *box_observables(st, kernel.wells), kernel.wells)
        return cache[key]

    def residual(v):
        j = end_point(v)[2]
        return np.array([j[0] - targets[0], j[2] - targets[1]])

    v0 = np.array([wells.depths[0], wells.depths[-1]])

    def count(search):
        tally["control_root_iterations"] += search.iterations
        tally["control_jacobian_refreshes"] += search.jacobian_refreshes

    try:
        report = root_find(residual, v0, tol=tol, max_iter=40, jac=jacobian)
    except PtError as exc:
        count(exc.report)
        raise
    count(report)
    if not report.converged:
        raise ControlSearchFailed(
            f"depth search stalled (residual {report.residual_norm:.3e})"
        )
    st, n, j, accepted_wells = end_point(report.solution)
    return ControlledStepResult(
        state=st, populations=n, currents=j, iterations=report.iterations,
        jacobian=report.jacobian,
    ), accepted_wells


@dataclass
class VariationalRunRecord:
    """Sampled observables at the control-interval ends (``t[0] = 0``), and
    ``work``, the run's totals of the depth search's root iterations,
    finite-difference Jacobian builds and end-of-interval integrations, of
    the integrator's work on them and the smallest reciprocal condition
    number of the Gram matrix (see :func:`_work_tally`). The totals
    include the interval that ends a run with an error. Such a run records
    its time, type name (``breakdown_reason``) and text
    (``breakdown_message``)."""

    t: np.ndarray
    n: np.ndarray
    j: np.ndarray
    depths: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray
    work: dict
    breakdown_time: float | None = None
    breakdown_reason: str | None = None
    breakdown_message: str | None = None

    @property
    def broke_down(self):
        return self.breakdown_time is not None


def run_variational_scenario(wells: WellPotentialSpec, units: UnitSystem,
                             gamma_fn, t_end, state: VariationalState, control_dt,
                             settings: IntegratorSettings, control_tol=1e-8):
    """Drive the trap through a gain/loss schedule with depth control.

    ``gamma_fn(t) -> (gamma, gamma_dot)`` sets the target currents
    j_01 = 2 gamma n_1 and j_23 = 2 gamma n_2, met to ``control_tol`` at
    the end of each interval of ``control_dt`` integrated with ``settings``
    (:func:`controlled_step`); ``state`` is the initial (relaxed) state.
    Each interval's depth search starts from the Jacobian the previous
    interval ended with. Only the first interval that iterates builds one
    by finite differences; later ones rebuild it only when their search
    stagnates. Every interval adds its work to one tally, the record's
    ``work``, the interval that breaks down included.
    Returns a VariationalRunRecord; a failed control search terminates the
    run and is recorded as a breakdown, not raised.
    """
    n_now, j_now = box_observables(state, wells)
    # one row per interval end: t, n, j, depths, gamma and the well offsets
    rows = [(0.0, n_now, j_now, wells.depths, gamma_fn(0.0)[0], state.q_z - wells.positions)]
    work = _work_tally()
    breakdown = {}
    jacobian = None
    t = 0.0
    current_wells = wells

    while t < t_end - 1e-12:
        dt = min(control_dt, t_end - t)
        g_end = gamma_fn(t + dt)[0]
        targets = (2.0 * g_end * n_now[1], 2.0 * g_end * n_now[2])
        try:
            result, current_wells = controlled_step(
                state, current_wells, units, targets, dt,
                settings=settings, tol=control_tol, jacobian=jacobian, tally=work,
            )
        except PtError as exc:
            breakdown = dict(breakdown_time=t, breakdown_reason=type(exc).__name__,
                             breakdown_message=str(exc))
            break
        state, jacobian, n_now = result.state, result.jacobian, result.populations
        t += dt
        rows.append((t, n_now, result.currents, current_wells.depths, g_end,
                     state.q_z - wells.positions))
    return VariationalRunRecord(*map(np.array, zip(*rows)), work=work, **breakdown)
