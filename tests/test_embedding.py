import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracle import BranchViolation, ClosedFormSigns, closed_form_observables, signs_from_state
from ptembed.embedding import (
    ControlState,
    EmbeddingRun,
    RampSchedule,
    build_initial_state,
    check_conditions,
    constant_gamma,
    make_controlled_rhs,
    pt_stationary_state,
    run_controlled,
    synth_onsite,
)
from ptembed.errors import ControlSingular, DegenerateInput, PtError, ZeroCoupling
from ptembed.fewmode import (
    TridiagonalComplexModel,
    cross_moments,
    model_rhs,
    pt_two_mode,
    propagate,
)
from ptembed.numerics import IntegratorSettings


STATIONARY = dict(gamma=0.5, d=1.0, r0=np.sqrt(3.0), r3=0.7)


def stationary_initial_state(c=0.0):
    psi1, psi2 = pt_stationary_state(STATIONARY["gamma"], c=c)
    return build_initial_state(psi1, psi2, STATIONARY["r0"], STATIONARY["r3"],
                               STATIONARY["gamma"], STATIONARY["d"])


def test_ramp_endpoints_and_derivative():
    sched = RampSchedule(gamma_f=0.8, t_f=10.0)
    g0, gd0 = sched(0.0)
    gf, gdf = sched(10.0)
    assert g0 == 0.0 and gd0 == 0.0
    assert gf == 0.8 and gdf == 0.0
    g, gd = sched(5.0)
    assert abs(g - 0.4) < 1e-14
    eps = 1e-7
    fd = (sched(5.0 + eps)[0] - sched(5.0 - eps)[0]) / (2 * eps)
    assert abs(gd - fd) < 1e-7
    # the formula written out, bit for bit, on and past the ramp
    for t in np.linspace(0.0, 12.0, 97).tolist():
        expected = (0.8, 0.0) if t >= 10.0 else (
            0.8 * (1.0 - math.cos(math.pi * t / 10.0)) / 2.0,
            0.8 * math.pi / (2.0 * 10.0) * math.sin(math.pi * t / 10.0))
        assert sched(t) == expected


def test_zero_coupling_rejected():
    with pytest.raises(ZeroCoupling):
        ControlState(gamma=0.1, gamma_dot=0.0, d=0.0)


def test_stationary_state_needs_gamma_below_coupling():
    # the bound is on |gamma|, and the message states it
    for gamma in (1.5, -1.5):
        with pytest.raises(DegenerateInput, match=r"requires \|gamma\| <= J12"):
            pt_stationary_state(gamma, j12=1.0)


def test_negative_discriminant_has_no_closed_form():
    # j~12 = 0 leaves (1 - alpha)^2 - beta^2 = 1 - beta^2, and
    # beta = gamma / (d sqrt(n0 n3)) = 2 here
    signs = ClosedFormSigns(s1=1, s2=1, s3=1, s6=1)
    with pytest.raises(BranchViolation, match="< 0"):
        closed_form_observables(np.full(4, 0.25), 0.0, 0.5, 1.0, signs)


def test_initial_state_satisfies_conditions():
    psi0 = stationary_initial_state()
    cs0 = ControlState(gamma=STATIONARY["gamma"], gamma_dot=0.0, d=STATIONARY["d"])
    cs = synth_onsite(psi0, cs0, np.zeros(4))
    res = check_conditions(psi0, cs)
    assert np.max(np.abs(res)) < 1e-12


def test_stationary_middle_wells_hold():
    psi0 = stationary_initial_state()
    run = run_controlled(
        psi0, 5.0, constant_gamma(STATIONARY["gamma"]), STATIONARY["d"],
        np.zeros(4), settings=IntegratorSettings(rel_tol=1e-10, abs_tol=1e-12),
    )
    assert not run.broke_down
    n = np.abs(run.trajectory.y) ** 2
    assert np.max(np.abs(n[:, 1] - 0.5)) < 1e-6
    assert np.max(np.abs(n[:, 2] - 0.5)) < 1e-6


def test_controlled_matches_gain_loss_two_mode():
    gamma, d = 0.5, -1.0
    psi1, psi2 = np.sqrt(0.6), np.sqrt(0.4)
    psi0 = build_initial_state(psi1, psi2, 3.0, 0.8, gamma, d)
    run = run_controlled(
        psi0, 6.0, constant_gamma(gamma), d, np.zeros(4),
        settings=IntegratorSettings(rel_tol=1e-11, abs_tol=1e-13),
        cond_limit=1e12, depletion_floor=1e-4,
    )
    two = propagate(pt_two_mode(gamma), np.array([psi1, psi2], dtype=complex),
                    (0.0, 6.0), IntegratorSettings(rel_tol=1e-11, abs_tol=1e-13))
    ts = np.linspace(0.0, 6.0, 121)
    four = run.trajectory.sample(ts)[:, 1:3]
    ref = two.sample(ts)
    assert np.max(np.abs(np.abs(four) ** 2 - np.abs(ref) ** 2)) < 1e-7


def test_closed_forms_match_running_state():
    gamma, d = 0.5, -1.0
    psi0 = build_initial_state(np.sqrt(0.6), np.sqrt(0.4), 3.0, 0.8, gamma, d)
    run = run_controlled(
        psi0, 4.0, constant_gamma(gamma), d, np.zeros(4),
        settings=IntegratorSettings(rel_tol=1e-11, abs_tol=1e-13),
        cond_limit=1e12, depletion_floor=1e-4,
    )
    for t in (0.5, 1.7, 3.2):
        psi = run.trajectory.sample(t)
        p = np.outer(psi, np.conj(psi))
        c_mat, jt_mat = 2 * p.real, -2 * p.imag
        n = np.abs(psi) ** 2
        signs = signs_from_state(psi, gamma, d)
        jt01, jt23, c02, c13, jt02, jt13 = closed_form_observables(
            n, jt_mat[1, 2], gamma, d, signs)
        assert abs(jt01 - jt_mat[0, 1]) < 1e-8
        assert abs(jt23 - jt_mat[2, 3]) < 1e-8
        assert abs(c02 - c_mat[0, 2]) < 1e-8
        assert abs(c13 - c_mat[1, 3]) < 1e-8
        assert abs(jt02 - jt_mat[0, 2]) < 1e-8
        assert abs(jt13 - jt_mat[1, 3]) < 1e-8


def test_reservoir_depletion_flags_breakdown():
    gamma, d = 0.5, -1.0
    psi0 = build_initial_state(np.sqrt(0.6), np.sqrt(0.4), 3.0, 0.8, gamma, d)
    run = run_controlled(
        psi0, 30.0, constant_gamma(gamma), d, np.zeros(4),
        settings=IntegratorSettings(rel_tol=1e-10, abs_tol=1e-12),
        cond_limit=1e12, depletion_floor=1e-4,
    )
    assert run.broke_down
    assert run.breakdown_time is not None
    assert 5.0 < run.breakdown_time < 30.0


def test_gauge_shift_invariance():
    """A uniform onsite shift leaves populations and currents unchanged."""
    gamma, d = 0.3, 1.0
    psi1, psi2 = pt_stationary_state(gamma)
    psi0 = build_initial_state(psi1, psi2, np.sqrt(3.0), 0.7, gamma, d)
    runs = []
    for shift in (0.0, 2.5):
        runs.append(run_controlled(
            psi0, 3.0, constant_gamma(gamma), d, np.zeros(4),
            e1=shift, e2=shift,
            settings=IntegratorSettings(rel_tol=1e-11, abs_tol=1e-13),
        ))
    ts = np.linspace(0.0, 3.0, 61)
    na = np.abs(runs[0].trajectory.sample(ts)) ** 2
    nb = np.abs(runs[1].trajectory.sample(ts)) ** 2
    assert np.max(np.abs(na - nb)) < 1e-8
    ca = runs[0].controls_at(1.5, runs[0].trajectory.sample(1.5))
    cb = runs[1].controls_at(1.5, runs[1].trajectory.sample(1.5))
    assert abs((cb.E0 - ca.E0) - 2.5) < 1e-6


@pytest.mark.parametrize("m", [1, 3, 4, 7])
def test_synth_onsite_over_a_grid_matches_each_row(m):
    # m = 4 gives a square grid, whose rows must not be read as the four wells
    rng = np.random.default_rng(m)
    psi = stationary_initial_state() * (1.0 + 0.05 * (rng.standard_normal((m, 4))
                                                      + 1j * rng.standard_normal((m, 4))))
    g, gd = 0.5 + 0.1 * rng.standard_normal(m), 0.1 * rng.standard_normal(m)
    d, params = STATIONARY["d"], dict(nonlinear=[0.0, 0.3, -0.2, 0.1], j12=0.9, e1=0.1, e2=-0.2)
    grid = synth_onsite(psi, ControlState(gamma=g, gamma_dot=gd, d=d), **params)
    for k in range(m):
        one = synth_onsite(psi[k], ControlState(gamma=g[k], gamma_dot=gd[k], d=d), **params)
        for field in fields(ControlState):
            value = np.broadcast_to(getattr(grid, field.name), (m,))[k]
            assert value == getattr(one, field.name), field.name


def test_condition_limit_triggers_control_singular():
    gamma, d = 0.5, 1.0
    # small equal reservoirs with a non-stationary middle pair sit exactly
    # on the singular phase surface of the onsite control system
    psi0 = build_initial_state(np.sqrt(0.6), np.sqrt(0.4), 0.5, 0.5, gamma, d)
    cs0 = ControlState(gamma=gamma, gamma_dot=0.0, d=d)
    with pytest.raises(ControlSingular):
        synth_onsite(psi0, cs0, np.zeros(4))


def test_nonlinear_stationary_state():
    for c in (0.0, -1.0, 0.7):
        psi1, psi2 = pt_stationary_state(0.4, c=c)
        # stationarity of the gain/loss two-mode model up to a global phase
        m = pt_two_mode(0.4, c=c)
        psi = np.array([psi1, psi2])
        dpsi = model_rhs(psi, m)
        # remove the global phase rotation: dpsi should be -i mu psi
        mu = dpsi / (-1j * psi)
        assert abs(mu[0] - mu[1]) < 1e-12
        assert abs(mu[0].imag) < 1e-12


# ------------------------------------------------- control synthesis properties

@st.composite
def controlled_inputs(draw):
    """An admissible four-mode state with random ramp, coupling, reservoirs,
    middle-pair parameters and nonlinearities."""
    gamma = draw(st.floats(-0.9, 0.9))
    d = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.3, 2.0))
    a1 = draw(st.floats(0.1, 0.9))
    phase = draw(st.floats(-1.0, 1.0))
    psi1 = np.sqrt(a1) * np.exp(1j * phase)
    psi0 = build_initial_state(psi1, np.sqrt(1.0 - a1), draw(st.floats(1.0, 3.0)),
                               draw(st.floats(1.0, 3.0)), gamma, d)
    return dict(
        psi=psi0, gamma=gamma, gamma_dot=draw(st.floats(-1.0, 1.0)), d=d,
        nonlinear=np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4))),
        j12=draw(st.floats(0.5, 2.0)), e1=draw(st.floats(-1.0, 1.0)),
        e2=draw(st.floats(-1.0, 1.0)),
    )


def reference_controls(psi, gamma, gamma_dot, d, nonlinear, j12, e1, e2):
    """Onsite controls and controlled derivative from the numpy few-mode
    primitives, with the onsite system solved by numpy.linalg."""
    c_mat, jt = cross_moments(psi)
    n = np.abs(psi) ** 2
    j01, j23 = d * c_mat[1, 3], d * c_mat[0, 2]
    coupling = np.array([j01, j12, j23])
    a = d * np.array([[c_mat[0, 1] * c_mat[1, 3], jt[0, 1] * jt[1, 3]],
                      [-jt[0, 2] * jt[2, 3], -c_mat[0, 2] * c_mat[2, 3]]])
    free = model_rhs(psi, TridiagonalComplexModel([0.0, e1, e2, 0.0], coupling, nonlinear))
    pdot = np.outer(free, np.conj(psi)) + np.outer(psi, np.conj(free))
    c_dot, jt_dot = 2.0 * pdot.real, -2.0 * pdot.imag
    b = d * np.array([c_dot[1, 3] * jt[0, 1] + c_mat[1, 3] * jt_dot[0, 1],
                      c_dot[0, 2] * jt[2, 3] + c_mat[0, 2] * jt_dot[2, 3]])
    target = np.array([
        2.0 * gamma_dot * n[1] + 2.0 * gamma * (j01 * jt[0, 1] - j12 * jt[1, 2]),
        2.0 * gamma_dot * n[2] + 2.0 * gamma * (j12 * jt[1, 2] - j23 * jt[2, 3]),
    ])
    e0, e3 = np.linalg.solve(a, target - b)
    dpsi = model_rhs(psi, TridiagonalComplexModel([e0, e1, e2, e3], coupling, nonlinear))
    return dpsi, e0, e3, np.linalg.cond(a)


PROPERTY_SETTINGS = settings(max_examples=30)

# Controlled runs to t = 0.5 take under 200 steps on almost every draw. A
# draw can grind toward the singular surface although its condition number
# at t = 0 is low: this one, from build_initial_state(0.422 + 0.59j, 0.688,
# 2.707, 1.3, 0.275, -1.565), used up 20,000 steps by t = 0.376 in 2.5 s.
# The cap ends such a run as a recorded StepLimitExceeded breakdown instead
# of stalling the suite; the assertions then hold along the partial run.
RUN_SETTINGS = IntegratorSettings(rel_tol=1e-10, abs_tol=1e-12, max_steps=2000)
GRINDING_DRAW = dict(
    psi=build_initial_state(0.422 + 0.59j, 0.688, 2.707, 1.3, 0.275, -1.565),
    gamma=0.275, gamma_dot=-0.794, d=-1.565, nonlinear=np.array([1.41, 0.43, 1.90, -0.26]),
    j12=0.769, e1=-0.926, e2=0.537)


@PROPERTY_SETTINGS
@given(controlled_inputs())
# the squared smaller singular value (sq - root) / 2 cancels here: its
# difference form put the condition number 3.4e-12 off relative
@example(dict(psi=np.array([1 + 1.0026j, 0.7071, 0.7071, 1 - 1.0026j]), gamma=0.6015625,
              gamma_dot=0.0, d=-0.3, nonlinear=np.zeros(4), j12=1.0, e1=0.0, e2=0.0))
def test_controlled_rhs_matches_numpy_reference(inp):
    dpsi_ref, e0, e3, cond = reference_controls(**inp)
    # near the singular surface both solves lose cond * eps; that regime is
    # covered by test_singular_phase_surface_raises
    assume(cond < 1e3)
    g, gd = inp["gamma"], inp["gamma_dot"]
    cs = synth_onsite(inp["psi"], ControlState(gamma=g, gamma_dot=gd, d=inp["d"]),
                      inp["nonlinear"], j12=inp["j12"], e1=inp["e1"], e2=inp["e2"])
    scale = max(abs(e0), abs(e3), 1.0)
    assert abs(cs.E0 - e0) <= 1e-12 * scale
    assert abs(cs.E3 - e3) <= 1e-12 * scale
    assert abs(cs.lgs_condition - cond) <= 1e-12 * cond
    rhs = make_controlled_rhs(lambda t: (g, gd), inp["d"], inp["nonlinear"],
                              j12=inp["j12"], e1=inp["e1"], e2=inp["e2"])
    dpsi = rhs(0.0, inp["psi"])
    assert np.max(np.abs(dpsi - dpsi_ref)) <= 1e-12 * np.max(np.abs(dpsi_ref))


@PROPERTY_SETTINGS
@given(controlled_inputs())
def test_numpy_scalar_parameters_run_the_float_kernel(inp):
    g, gd = inp["gamma"], inp["gamma_dot"]
    params = dict(d=inp["d"], j12=inp["j12"], e1=inp["e1"], e2=inp["e2"],
                  cond_limit=1e14, depletion_floor=1e-3)
    as_float = make_controlled_rhs(lambda t: (g, gd), nonlinear=inp["nonlinear"], **params)
    as_numpy = make_controlled_rhs(lambda t: (g, gd), nonlinear=inp["nonlinear"],
                                   **{k: np.float64(v) for k, v in params.items()})
    ref, out = as_float(0.0, inp["psi"]), as_numpy(0.0, inp["psi"])
    # numpy scalars would make every kernel product numpy scalar arithmetic
    assert all(type(z) is complex for z in out)
    assert [(z.real, z.imag) for z in out] == [(z.real, z.imag) for z in ref]


@PROPERTY_SETTINGS
@given(controlled_inputs())
@example(GRINDING_DRAW)
def test_replication_holds_along_controlled_runs(inp):
    assume(reference_controls(**inp)[3] < 1e3)
    g, gd = inp["gamma"], inp["gamma_dot"]
    run = run_controlled(
        inp["psi"], 0.5, lambda t: (g + gd * t, gd), inp["d"], inp["nonlinear"],
        j12=inp["j12"], e1=inp["e1"], e2=inp["e2"], settings=RUN_SETTINGS,
    )
    controls = [run.controls_at(t, psi) for t, psi in zip(run.trajectory.t, run.trajectory.y)]
    res = np.abs([check_conditions(psi, cs) for psi, cs in zip(run.trajectory.y, controls)])
    # the three enforced conditions hold wherever the run gets
    assert np.max(res[:, :3]) < 1e-8
    # the implied fourth is not enforced: near the singular surface E0 and E3
    # diverge and amplify the integration error in it (a run reaching
    # condition 2e7 within t = 0.5 ends with 8.8e-3), so it is held to the
    # bound only while the onsite system stays well conditioned
    if max(cs.lgs_condition for cs in controls) < 100.0:
        assert np.max(res[:, 3]) < 1e-8


# A draw that breaks down within its first step: its stage amplitudes grow
# to 1e40, where the derivative overflows.
FIRST_STEP_BREAKDOWN_DRAW = dict(
    psi=np.array([1.5 - 3.42024257j, 0.60340395 - 0.59841857j, 0.52706631,
                  1.40625 + 0.55555556j]),
    gamma=0.5, gamma_dot=0.5, d=0.3, nonlinear=np.zeros(4), j12=0.5, e1=0.8125, e2=1.0)


@PROPERTY_SETTINGS
@given(controlled_inputs())
@example(GRINDING_DRAW)
@example(FIRST_STEP_BREAKDOWN_DRAW)
def test_controls_over_a_grid_match_the_scalar_kernel(inp):
    assume(reference_controls(**inp)[3] < 1e3)
    g, gd = inp["gamma"], inp["gamma_dot"]
    try:
        run = run_controlled(
            inp["psi"], 0.5, lambda t: (g + gd * t, gd), inp["d"], inp["nonlinear"],
            j12=inp["j12"], e1=inp["e1"], e2=inp["e2"], settings=RUN_SETTINGS,
        )
    except PtError:
        # run_controlled raises only for a run that breaks down within its
        # first step, which leaves no accepted step to tabulate
        assume(False)
    grid = run.controls_at(run.trajectory.t, run.trajectory.y)
    for k, (t, psi) in enumerate(zip(run.trajectory.t, run.trajectory.y)):
        one = run.controls_at(t, psi)
        # the kernel does the same IEEE operations on arrays as on Python
        # floats, so the tables equal the RHS's controls bit for bit
        for field in ("gamma", "gamma_dot", "J01", "J23", "E0", "E3", "lgs_condition"):
            assert getattr(grid, field)[k] == getattr(one, field), field


@PROPERTY_SETTINGS
@given(controlled_inputs(), st.sampled_from([1.0 - 1e-9, 1.0 + 1e-9]))
def test_rhs_and_tables_share_the_condition_limit(inp, factor):
    g, gd, psi = inp["gamma"], inp["gamma_dot"], inp["psi"]
    params = dict(j12=inp["j12"], e1=inp["e1"], e2=inp["e2"])
    cond = synth_onsite(psi, ControlState(gamma=g, gamma_dot=gd, d=inp["d"]),
                        inp["nonlinear"], cond_limit=1e300, **params).lgs_condition
    limit = cond * factor
    rhs = make_controlled_rhs(lambda t: (g, gd), inp["d"], inp["nonlinear"],
                              cond_limit=limit, **params)
    run = EmbeddingRun(trajectory=None, gamma_fn=lambda t: (g, gd), d=inp["d"],
                       nonlinear=inp["nonlinear"], cond_limit=limit, **params)
    # the RHS settles most states without the square root; where it cannot,
    # it runs the exact test of the tables, so all three agree at the limit
    calls = (lambda: rhs(0.0, psi), lambda: run.controls_at(0.0, psi),
             lambda: run.controls_at(np.zeros(2), np.array([psi, psi])))
    for call in calls:
        if factor < 1.0:
            with pytest.raises(ControlSingular, match="singular"):
                call()
        else:
            call()


def test_depletion_message_just_below_the_floor():
    psi = stationary_initial_state()
    p0, p3 = complex(psi[0]), complex(psi[3])
    n0, n3 = p0.real * p0.real + p0.imag * p0.imag, p3.real * p3.real + p3.imag * p3.imag
    assert n3 < n0

    def rhs(floor):
        return make_controlled_rhs(constant_gamma(STATIONARY["gamma"]), STATIONARY["d"],
                                   np.zeros(4), depletion_floor=floor)

    rhs(n3)(0.0, psi)  # n3 at the floor is not below it
    with pytest.raises(ControlSingular) as exc:
        rhs(math.nextafter(n3, math.inf))(0.0, psi)
    assert str(exc.value) == f"reservoir depleted (n0={n0:.3e}, n3={n3:.3e})"


def test_kernel_overflow_ends_as_a_named_breakdown():
    # from t = 0.2 on, gamma = 1e308 makes the demanded current derivative
    # overflow: the kernel's Python floats return a non-finite derivative,
    # and the run ends as a named breakdown there. The next stage's numpy
    # RuntimeWarning, an error under this suite's filter, ends the same way
    psi0 = stationary_initial_state()
    run = run_controlled(psi0, 1.0, lambda t: (STATIONARY["gamma"] if t < 0.2 else 1e308, 0.0),
                         STATIONARY["d"], np.zeros(4))
    assert run.broke_down and run.breakdown_reason == "NonFiniteDerivative"
    assert 0.0 < run.breakdown_time <= 0.2
    assert np.isfinite(run.trajectory.y).all()


@PROPERTY_SETTINGS
@given(gamma=st.floats(0.05, 0.9), d=st.floats(0.3, 2.0), a1=st.floats(0.1, 0.9),
       sign=st.sampled_from([-1.0, 1.0]))
def test_singular_phase_surface_raises(gamma, d, a1, sign):
    # with psi1 real and equal reservoirs r^2 = gamma / (2 d), psi0 and psi3
    # are in phase quadrature (C03 = 0), where the onsite system is singular
    gamma, d = sign * gamma, sign * d
    r = np.sqrt(gamma / (2.0 * d))
    psi0 = build_initial_state(np.sqrt(a1), np.sqrt(1.0 - a1), r, r, gamma, d)
    with pytest.raises(ControlSingular, match="singular"):
        synth_onsite(psi0, ControlState(gamma=gamma, gamma_dot=0.0, d=d), np.zeros(4))
    with pytest.raises(ControlSingular, match="singular"):
        make_controlled_rhs(constant_gamma(gamma), d, np.zeros(4))(0.0, psi0)
    # one singular state in a grid fails the whole grid
    regular = build_initial_state(np.sqrt(a1), np.sqrt(1.0 - a1), 2.0 * r + 1.0, r, gamma, d)
    run = run_controlled(regular, 0.1, constant_gamma(gamma), d, np.zeros(4))
    with pytest.raises(ControlSingular, match="singular"):
        run.controls_at(np.zeros(3), np.array([regular, psi0, regular]))
