"""Schedules, schedule validation, and the averaged iteration.

The geometric traces here are exact in binary floats, so equalities are
asserted outright; the Fejér displacement bound is checked against live
orbits with a drift tolerance.
"""

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hypkm import (
    AlphaFn,
    ArgumentError,
    ScheduleError,
    Schedule,
    affine_map,
    alpha_double,
    alpha_identity,
    alpha_scale_ceil,
    alpha_table,
    constant_map,
    constant_schedule,
    estimate_residual_inf,
    harmonic_schedule,
    identity_map,
    interval_affine,
    km_iterate,
    km_orbit_end,
    make_half_line,
    make_box,
    make_interval,
    make_poincare_disk,
    make_real_line,
    make_star_tree,
    rate_g,
    rate_g_tilde,
    rate_h,
    rate_h_tilde,
    require_valid_schedule,
    residuals_nonincreasing,
    tabulate_alpha,
    validate_schedule,
)
from hypkm.acceptance import affine_map_family
from hypkm.errors import DomainError, DomainEscapeError, ProbeContractError
from hypkm.km import EXACT_SUM_CAP, ResidualTrace
from hypkm.maps import NonexpansiveMap
from hypkm.product_afpp import _precheck_orbit_bound
from hypkm.spaces import product
from hypkm.uafpp import km_witness


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


def test_constant_schedule_witnesses():
    sched = constant_schedule("1/2")
    assert sched.lam_at(17) == Fraction(1, 2)
    assert sched.K == 2
    # derived alpha is ceil(n / value) = ceil(2n)
    assert sched.alpha(5) == 10
    assert sched.partial_sum(9) == Fraction(5)
    assert isinstance(sched.partial_sum(10**6), Fraction)


def test_constant_schedule_rejects_bad_values():
    for bad in ("0", "1", "3/2", -0.5):
        with pytest.raises(ArgumentError):
            constant_schedule(bad)


def test_harmonic_schedule():
    sched = harmonic_schedule()
    assert sched.lam_at(0) == Fraction(1, 2)
    assert sched.lam_at(3) == Fraction(1, 5)
    assert sched.K == 2
    assert validate_schedule(sched, 6).valid
    with pytest.raises(ArgumentError):
        harmonic_schedule(offset=1)


def test_harmonic_table_clamps_honestly():
    # the tabulated witness covers n <= 6; past the horizon the clamped
    # table undercounts and validation reports it instead of papering over
    sched = harmonic_schedule(alpha_horizon=6)
    report = validate_schedule(sched, 40)
    assert not report.valid
    assert report.first_violation.n == 7
    assert report.first_violation.clause == "sum_witness"


def test_partial_sum_exact_then_float():
    sched = harmonic_schedule()
    assert isinstance(sched.partial_sum(EXACT_SUM_CAP - 1), Fraction)
    assert isinstance(sched.partial_sum(EXACT_SUM_CAP + 10), float)
    with pytest.raises(ArgumentError):
        sched.partial_sum(-1)
    with pytest.raises(ArgumentError):
        sched.partial_sum(2_000_000)


def test_tabulate_alpha_for_constant_steps():
    table = tabulate_alpha(lambda n: Fraction(1, 2), 4)
    assert [table(n) for n in range(5)] == [0, 1, 3, 5, 7]


def test_tabulate_alpha_cap():
    with pytest.raises(ScheduleError):
        tabulate_alpha(lambda n: Fraction(1, 10**9), 1)


# ---------------------------------------------------------------------------
# schedule validation
# ---------------------------------------------------------------------------


def test_validate_constant_half_long_horizon():
    sched = constant_schedule("1/2", K=2, alpha=alpha_double())
    report = validate_schedule(sched, 1000)
    assert report.valid
    assert report.summary() == "valid up to horizon 1000"


def test_validate_rejects_lambda_one():
    sched = Schedule(lam=lambda n: Fraction(1), K=2, alpha=alpha_identity())
    report = validate_schedule(sched, 10)
    assert not report.valid
    assert report.first_violation.n == 0
    assert report.first_violation.clause == "lambda_range"


def test_validate_rejects_lambda_over_cap():
    sched = Schedule(lam=lambda n: Fraction(3, 4), K=2, alpha=alpha_double())
    report = validate_schedule(sched, 10)
    assert not report.valid
    assert report.first_violation.clause == "lambda_cap"


def test_validate_harmonic_with_identity_alpha():
    # lam_n = 1/(n+2) diverges too slowly for alpha(n) = n: the first sum
    # clause failure is at n=1 (1/2 + 1/3 < 1)
    sched = Schedule(lam=lambda n: Fraction(1, n + 2), K=2, alpha=alpha_identity())
    report = validate_schedule(sched, 10)
    assert not report.valid
    assert report.first_violation.n == 1
    assert report.first_violation.clause == "sum_witness"
    assert "invalid at n=1" in report.summary()


def test_alpha_fn_built_directly_refuses_non_natural_laws():
    # a schedule holds only an AlphaFn, and an AlphaFn only a law whose
    # values are naturals: a negative table entry or c < 1 is refused at
    # construction, as alpha_table and alpha_scale_ceil refuse them
    for kwargs in [
        {"table": (0, -1, 2)},
        {"table": ()},
        {"table": (1, True)},
        {"c": Fraction(1, 2)},
        {"c": 0},
        {"c": 1.5},
        {},
    ]:
        with pytest.raises(ArgumentError):
            AlphaFn("table" if "table" in kwargs else "scale_ceil", **kwargs)
    assert AlphaFn("table", table=(0, 3))(5) == 3
    assert AlphaFn("scale_ceil", c=Fraction(3, 2))(3) == 5


_PLAIN = lambda n: 2 * n


@pytest.mark.parametrize(
    "build",
    [
        lambda: Schedule(lam=lambda n: Fraction(1, 2), K=2, alpha=_PLAIN),
        lambda: constant_schedule("1/2", alpha=_PLAIN),
        lambda: harmonic_schedule(2, alpha=_PLAIN),
        lambda: rate_h(4, 1, 1, _PLAIN),
        lambda: rate_h_tilde(4, 1, 1, _PLAIN),
        lambda: rate_g(4, 1, 1, 1, _PLAIN),
        lambda: rate_g_tilde(4, 1, 1, _PLAIN),
    ],
    ids=["Schedule", "constant_schedule", "harmonic_schedule", "rate_h", "rate_h_tilde", "rate_g", "rate_g_tilde"],
)
def test_plain_callable_witness_is_refused(build):
    with pytest.raises(ArgumentError, match="alpha_table"):
        build()


def test_require_valid_schedule_raises():
    sched = Schedule(lam=lambda n: Fraction(1), K=2, alpha=alpha_identity())
    with pytest.raises(ScheduleError):
        require_valid_schedule(sched, 5)
    with pytest.raises(ArgumentError):
        validate_schedule(constant_schedule("1/2"), -1)


def counting_lam(calls, value):
    def lam(n):
        calls.append(n)
        return value(n)

    return lam


def test_replaced_schedule_does_not_inherit_partial_sums():
    sched = harmonic_schedule(2)
    assert sched.partial_sum(3) == Fraction(1, 2) + Fraction(1, 3) + Fraction(1, 4) + Fraction(1, 5)
    other = dataclasses.replace(sched, lam=lambda n: Fraction(1, 2))
    assert other.partial_sum(3) == 2


def test_require_valid_schedule_raises_on_every_call():
    calls = []
    sched = Schedule(lam=counting_lam(calls, lambda n: Fraction(1)), K=2, alpha=alpha_identity())
    for attempt in (1, 2):
        with pytest.raises(ScheduleError):
            require_valid_schedule(sched, 5)
        assert len(calls) == attempt


def test_validate_float_summation_notes_slack():
    # table entries beyond the exact cap force float partial sums; the
    # report carries a note and the comparison still passes
    sched = constant_schedule("1/2")
    sched = Schedule(
        lam=sched.lam, K=2, alpha=alpha_table([EXACT_SUM_CAP + 10] * 3)
    )
    report = validate_schedule(sched, 2)
    assert report.valid
    assert any("float summation" in note for note in report.notes)


# scale_ceil slopes stay <= 16 so that alpha(300) stays under EXACT_SUM_CAP
# and the literal loop's partial sums stay exact, like the constant ones
_steps = st.fractions(min_value=0, max_value=1, max_denominator=40).filter(lambda v: v < 1)
_slopes = st.fractions(min_value=1, max_value=16, max_denominator=40)
_alphas = st.one_of(
    st.just(alpha_identity()),
    st.just(alpha_double()),
    _slopes.map(alpha_scale_ceil),
    st.lists(st.integers(0, 40), min_size=1, max_size=6).map(alpha_table),
)


@st.composite
def _near_boundary(draw):
    """A step v and scale_ceil(c) with c*v on, just above or just below 1."""
    v = draw(st.fractions(min_value=Fraction(1, 16), max_value=1, max_denominator=40).filter(lambda v: v < 1))
    shift = draw(st.sampled_from([0, Fraction(1, 100), -Fraction(1, 100), Fraction(1, 10**9), -Fraction(1, 10**9)]))
    return v, alpha_scale_ceil(max(1, 1 / v + shift))


@settings(max_examples=200)
@given(
    case=st.one_of(st.tuples(_steps, _alphas), _near_boundary()),
    K=st.integers(1, 20),
    horizon=st.integers(0, 300),
)
@example(case=(Fraction(1, 2), alpha_double()), K=2, horizon=300)  # c*v == 1
@example(case=(Fraction(1, 3), alpha_scale_ceil(3)), K=2, horizon=300)  # c*v == 1
@example(case=(Fraction(1, 3), alpha_scale_ceil(Fraction(299, 100))), K=2, horizon=300)  # just below
@example(case=(Fraction(2, 5), alpha_double()), K=2, horizon=300)  # c*v == 4/5
@example(case=(Fraction(1, 2), alpha_double()), K=1, horizon=5)  # over the cap
@example(case=(Fraction(0), alpha_scale_ceil(16)), K=3, horizon=4)  # zero step
@example(case=(Fraction(3, 4), alpha_identity()), K=4, horizon=300)
def test_closed_form_validation_matches_the_literal_loop(case, K, horizon):
    v, alpha = case
    sched = Schedule(lam=lambda n: v, K=K, alpha=alpha, constant=v)
    report = validate_schedule(sched, horizon)
    # without the constant marker every n goes through the literal loop
    literal = validate_schedule(dataclasses.replace(sched, constant=None), horizon)
    assert (report.valid, report.horizon, report.notes) == (literal.valid, literal.horizon, literal.notes)
    assert report.first_violation == literal.first_violation
    assert report.summary() == literal.summary()


def test_closed_form_validation_calls_no_step():
    calls = []
    half = Fraction(1, 2)
    sched = Schedule(lam=counting_lam(calls, lambda n: half), K=2, alpha=alpha_scale_ceil(2), constant=half)
    report = validate_schedule(sched, 10**6)
    assert report == validate_schedule(sched, 10**6)
    assert report.valid and report.horizon == 10**6 and report.notes == []
    assert calls == []
    # c*v = 3/4 < 1: the loop still runs and words the first violation
    slow = dataclasses.replace(sched, alpha=alpha_scale_ceil(Fraction(3, 2)))
    report = validate_schedule(slow, 10**6)
    assert not report.valid
    assert report.summary() == "invalid at n=4: sum_witness (sum of lam_0..lam_6 = 3.5 < n = 4)"
    assert len(calls) == 5
    with pytest.raises(ScheduleError, match="invalid at n=4: sum_witness"):
        require_valid_schedule(slow, 10)


# ---------------------------------------------------------------------------
# the iteration
# ---------------------------------------------------------------------------


def test_orbit_to_zero_map():
    space = make_interval(0.0, 1.0)
    T = interval_affine(space, 0.0, 0.0)
    trace = km_iterate(space, T, 1.0, constant_schedule("1/2"), 4)
    assert trace.points == [1.0, 0.5, 0.25, 0.125, 0.0625]
    assert trace.residuals == [1.0, 0.5, 0.25, 0.125, 0.0625]
    assert trace.final_residual == 0.0625
    assert len(trace) == 5


def test_orbit_identity_residuals_zero():
    space = make_interval(0.0, 1.0)
    trace = km_iterate(space, identity_map(space), 0.3, constant_schedule("1/2"), 10)
    assert trace.residuals == [0.0] * 11
    assert trace.points == [0.3] * 11


def test_orbit_unit_translation():
    line = make_real_line()
    T = interval_affine(line, 1.0, 1.0)
    trace = km_iterate(line, T, 0.0, constant_schedule("1/2"), 3)
    assert trace.points == [0.0, 0.5, 1.0, 1.5]
    assert trace.residuals == [1.0, 1.0, 1.0, 1.0]


def test_km_iterate_validates_inputs():
    space = make_interval(0.0, 1.0)
    T = identity_map(space)
    sched = constant_schedule("1/2")
    with pytest.raises(ArgumentError):
        km_iterate(space, T, 0.5, sched, -1)
    with pytest.raises(DomainError):
        km_iterate(space, T, 2.0, sched, 3)
    bad = Schedule(lam=lambda n: Fraction(1), K=2, alpha=alpha_identity())
    with pytest.raises(ScheduleError):
        km_iterate(space, T, 0.5, bad, 3)


def test_km_iterate_flags_domain_escape():
    space = make_interval(0.0, 1.0)
    T = interval_affine(space, 1.0, 0.6)  # not a self-map near the right end
    with pytest.raises(DomainEscapeError) as exc:
        km_iterate(space, T, 0.9, constant_schedule("1/2"), 5)
    assert exc.value.step == 0


def test_km_orbit_end_matches_trace():
    space = make_interval(0.0, 1.0)
    T = interval_affine(space, 0.0, 0.0)
    sched = constant_schedule("1/2")
    trace = km_iterate(space, T, 1.0, sched, 7)
    assert km_orbit_end(space, T, 1.0, sched, 7) == trace.points[-1]


@pytest.mark.parametrize(
    "make_sched", [lambda: constant_schedule("1/3"), lambda: harmonic_schedule(3)],
    ids=["constant", "harmonic"],
)
def test_orbit_end_trace_and_witness_agree(make_sched):
    space = make_interval(0.0, 1.0)
    T = interval_affine(space, -0.5, 0.7)
    sched = make_sched()
    end = km_orbit_end(space, T, 0.1, sched, 300)
    assert end == km_iterate(space, T, 0.1, sched, 300, validate=False).points[-1]
    assert end == km_witness(space, T, 0.1, sched, 300).point
    assert end == km_orbit_end(space, T, 0.1, make_sched(), 300)


def test_float_steps_convert_one_step_per_step_taken():
    calls = []
    sched = Schedule(lam=counting_lam(calls, lambda n: Fraction(1, n + 2)), K=2, alpha=alpha_identity())
    space = make_interval(0.0, 1.0)
    T = interval_affine(space, 0.5, 0.25)
    first = km_orbit_end(space, T, 0.0, sched, 10)
    assert calls == list(range(10))
    calls.clear()
    assert km_orbit_end(space, T, 0.0, sched, 10) == first
    assert calls == list(range(10))
    calls.clear()
    km_orbit_end(space, T, 0.0, sched, 4)
    assert calls == list(range(4))


def _escape_by_path(path):
    # x -> x + 0.6 leaves [0, 1] from the start 0.9 at step 0
    space = make_interval(0.0, 1.0)
    T = NonexpansiveMap(space, lambda x: x + 0.6, "shift")
    sched = constant_schedule("1/2")
    if path == "iterate":
        km_iterate(space, T, 0.9, sched, 5)
    elif path == "orbit_end":
        km_orbit_end(space, T, 0.9, sched, 5)
    elif path == "witness":
        km_witness(space, T, 0.9, sched, 5)
    elif path == "witness_stop":
        km_witness(space, T, 0.9, sched, 5, stop_eps=1e-3)
    else:
        dom = product(space, make_interval(0.0, 1.0))
        PT = NonexpansiveMap(dom, lambda p: (p[0] + 0.6, p[1]), "shift_pair")
        delta = NonexpansiveMap(dom.right, lambda u: 0.9, "constant(0.9)")
        _precheck_orbit_bound(PT, delta, sched, 10.0, 200, 0)


@pytest.mark.parametrize("path", ["iterate", "orbit_end", "witness", "witness_stop", "precheck"])
def test_every_iteration_path_refuses_domain_escape(path):
    with pytest.raises(DomainEscapeError) as exc:
        _escape_by_path(path)
    assert exc.value.step == 0


def test_precheck_reports_a_broken_bound_before_a_later_escape():
    # x -> x + 0.3 on [0, 1] from 0 with steps 1/2: x_k = 0.15 k, so the
    # bound 0.2 breaks at step 2 and the image T(x_5) = 1.05 escapes later
    dom = product(make_interval(0.0, 1.0), make_interval(0.0, 1.0))
    PT = NonexpansiveMap(dom, lambda p: (p[0] + 0.3, p[1]), "shift_pair")
    delta = NonexpansiveMap(dom.right, lambda u: 0.0, "constant(0)")
    with pytest.raises(ProbeContractError, match="step 2: distance 0.3"):
        _precheck_orbit_bound(PT, delta, constant_schedule("1/2"), 0.2, 200, 0)


def test_fejer_displacement_bound():
    # rho(x0, x_N) <= rho(x0, T(x0)) * sum of the first N step sizes
    sched = constant_schedule("1/2")
    N = 50
    budget = float(sched.partial_sum(N - 1))
    for box, T, x0 in affine_map_family(40, seed=11):
        trace = km_iterate(box, T, x0, sched, N)
        moved = box.distance(x0, trace.points[-1])
        assert moved <= trace.residuals[0] * budget + 1e-9


def test_residual_monotonicity_helpers():
    space = make_interval(0.0, 1.0)
    trace = km_iterate(
        space, interval_affine(space, 0.0, 0.0), 1.0, constant_schedule("1/2"), 20
    )
    assert residuals_nonincreasing(trace, tol=0.0)
    fake = ResidualTrace(space, [0.0, 0.0], [0.1, 0.5])
    assert not residuals_nonincreasing(fake, tol=1e-9)
    assert residuals_nonincreasing(fake, tol=1.0)


def test_estimate_residual_inf():
    line = make_real_line()
    sched = constant_schedule("1/2")
    assert estimate_residual_inf(line, interval_affine(line, 1.0, 1.0), 0.0, sched, 40) == 1.0
    half = make_half_line()
    drop = interval_affine(half, 1.0, 0.0)
    drop = type(drop)(half, lambda x: max(x - 1.0, 0.0), "drop")
    assert estimate_residual_inf(half, drop, 5.0, sched, 60) <= 1e-9
    assert (
        estimate_residual_inf(line, identity_map(line), 3.0, sched, 5) == 0.0
    )


# ---------------------------------------------------------------------------
# the stationary exit: the walk against a plain KM loop
# ---------------------------------------------------------------------------


def _reference_walk(space, T, x0, sched, n):
    """A plain KM loop: every step evaluated, no early exit of any kind."""
    points, residuals, x = [x0], [], x0
    for k in range(n):
        Tx = T(x)
        if not space.contains(Tx):
            raise DomainEscapeError(k, Tx)
        residuals.append(space.distance(x, Tx))
        x = space.combine(x, Tx, float(sched.lam_at(k)))
        if not space.contains(x):
            raise DomainEscapeError(k, x)
        points.append(x)
    Tx = T(x)
    if not space.contains(Tx):
        raise DomainEscapeError(n, Tx)
    residuals.append(space.distance(x, Tx))
    return points, residuals


_UNIT_FLOAT = st.floats(0.0, 1.0)
_SIGNED_FLOAT = st.floats(-1.0, 1.0)


@st.composite
def _walk_case(draw):
    """(space, map, start): a contraction or a constant map on the interval,
    the 2-D box, the Poincare disk or the star tree."""
    kind = draw(st.sampled_from(["interval", "box", "poincare", "star_tree"]))
    contraction = draw(st.booleans())
    if kind == "interval":
        space = make_interval(-1.0, 1.0)
        if contraction:
            slope = draw(st.floats(-0.9, 0.9))
            T = interval_affine(space, slope, draw(_SIGNED_FLOAT) * 0.99 * (1 - abs(slope)))
        else:
            T = constant_map(space, draw(_SIGNED_FLOAT))
        return space, T, draw(_SIGNED_FLOAT)
    if kind == "box":
        space = make_box([(0.0, 1.0), (0.0, 1.0)])
        if contraction:
            # rows of absolute sum <= 1/2 about the offset 1/2 keep the box
            a, b, c, d = (draw(st.floats(-0.25, 0.25)) for _ in range(4))
            T = affine_map(space, [[a, b], [c, d]], [0.5, 0.5])
        else:
            T = constant_map(space, (draw(_UNIT_FLOAT), draw(_UNIT_FLOAT)))
        return space, T, (draw(_UNIT_FLOAT), draw(_UNIT_FLOAT))

    def disk_point():
        r, t = draw(st.floats(0.0, 0.9)), draw(st.floats(0.0, 2 * math.pi))
        return complex(r * math.cos(t), r * math.sin(t))

    if kind == "poincare":
        space = make_poincare_disk()
        # z -> t*z is a holomorphic self-map of the disk: Schwarz-Pick
        t = draw(st.floats(0.0, 0.9))
        T = NonexpansiveMap(space, lambda z: t * z, f"scale({t})") if contraction else constant_map(space, disk_point())
        return space, T, disk_point()
    space = make_star_tree(3, 2.0)
    star_point = st.tuples(st.integers(0, 2), st.floats(0.0, 2.0))
    if contraction:
        T = NonexpansiveMap(space, lambda p: (p[0], p[1] / 2), "halve")  # towards the hub
    else:
        T = constant_map(space, draw(star_point))
    return space, T, draw(star_point)


_SCHEDULES = {
    "1/2": lambda: constant_schedule("1/2"),
    "1/3": lambda: constant_schedule("1/3"),
    "3/4": lambda: constant_schedule("3/4"),
    "1/10": lambda: constant_schedule("1/10"),
    "harmonic": lambda: harmonic_schedule(),
    # x_1 == x_0 after the zero step, yet the orbit moves on at step 1
    "0, then 1/2": lambda: Schedule(lam=lambda n: Fraction(1, 2) if n else Fraction(0), K=2, alpha=alpha_identity()),
}


@settings(max_examples=150)
@given(case=_walk_case(), sched=st.sampled_from(sorted(_SCHEDULES)), n=st.integers(0, 400),
       stop_eps=st.one_of(st.none(), st.floats(0.0, 0.5)))
def test_walk_matches_a_plain_km_loop(case, sched, n, stop_eps):
    space, T, x0 = case
    sched = _SCHEDULES[sched]()
    points, residuals = _reference_walk(space, T, x0, sched, n)
    trace = km_iterate(space, T, x0, sched, n, validate=False)
    assert list(map(repr, trace.points)) == list(map(repr, points))
    assert list(map(repr, trace.residuals)) == list(map(repr, residuals))
    assert repr(km_orbit_end(space, T, x0, sched, n)) == repr(points[-1])
    stop = -math.inf if stop_eps is None else stop_eps
    k = next((i for i in range(n) if residuals[i] <= stop), n)
    run = km_witness(space, T, x0, sched, n, stop_eps=stop_eps)
    assert (repr(run.point), run.steps, repr(run.residual)) == (repr(points[k]), k, repr(residuals[k]))


def test_walk_from_minus_zero_keeps_the_sign_of_each_point():
    # -0.0 == 0.0 but the two are different floats: the first step moves
    # -0.0 to 0.0, so the walk is not yet stationary there
    space = make_interval(-1.0, 1.0)
    trace = km_iterate(space, constant_map(space, 0.0), -0.0, constant_schedule("1/2"), 4)
    assert list(map(repr, trace.points)) == ["-0.0", "0.0", "0.0", "0.0", "0.0"]
    assert list(map(repr, trace.residuals)) == ["0.0"] * 5
    assert trace.csv_lines()[1:4] == ["0,0,-0", "1,0,0", "2,0,0"]


def _counting(T):
    calls = []
    return calls, NonexpansiveMap(T.domain, lambda x: calls.append(x) or T.fn(x), T.label)


def test_stationary_walk_stops_calling_the_map():
    # the orbit of x -> x/2 + 1/4 under steps 1/2 settles, within a few
    # hundred steps, on a float next to the fixed point 1/2
    space = make_interval(0.0, 1.0)
    plain = interval_affine(space, 0.5, 0.25)
    sched = constant_schedule("1/2")
    points, residuals = _reference_walk(space, plain, 0.0, sched, 300)
    calls, T = _counting(plain)
    assert repr(km_orbit_end(space, T, 0.0, sched, 10**6)) == repr(points[-1])
    assert len(calls) < 200
    calls.clear()
    trace = km_iterate(space, T, 0.0, sched, 10**4)
    assert len(calls) < 200 and len(trace.points) == len(trace.residuals) == 10**4 + 1
    assert trace.points[:301] == points and trace.residuals[:301] == residuals
    assert set(trace.points[300:]) == {points[-1]} and set(trace.residuals[300:]) == {residuals[-1]}


def test_harmonic_walk_calls_the_map_every_step():
    space = make_interval(0.0, 1.0)
    calls, T = _counting(interval_affine(space, 0.5, 0.25))
    km_orbit_end(space, T, 0.0, harmonic_schedule(), 10**4)
    assert len(calls) == 10**4


def test_escape_before_stationarity_names_the_same_step():
    # x -> x + 0.3 on [0, 1] from 0 with steps 1/2: x_k = 0.15 k, and the
    # image T(x_5) = 1.05 leaves the interval
    space = make_interval(0.0, 1.0)
    T = NonexpansiveMap(space, lambda x: x + 0.3, "shift")
    sched = constant_schedule("1/2")
    with pytest.raises(DomainEscapeError) as ref:
        _reference_walk(space, T, 0.0, sched, 20)
    with pytest.raises(DomainEscapeError) as exc:
        km_iterate(space, T, 0.0, sched, 20)
    assert ref.value.step == exc.value.step == 5
    assert repr(exc.value.point) == repr(ref.value.point)


# ---------------------------------------------------------------------------
# trace serialization
# ---------------------------------------------------------------------------


def test_csv_lines_golden():
    line = make_real_line()
    T = interval_affine(line, 1.0, 1.0)
    trace = km_iterate(line, T, 0.0, constant_schedule("1/2"), 3)
    lines = trace.csv_lines(meta={"tag": "demo"})
    assert lines[0] == "# tag=demo"
    assert lines[1] == "n,residual,x"
    assert lines[2] == "0,1,0"
    assert lines[3] == "1,1,0.5"
    assert lines[5] == "3,1,1.5"


def test_csv_seventeen_digit_roundtrip():
    space = make_interval(0.0, 1.0)
    T = interval_affine(space, 0.7, 0.1)
    trace = km_iterate(space, T, 1.0 / 3.0, constant_schedule("1/2"), 5)
    rows = trace.csv_lines(meta={"k": "v"})
    assert rows[0] == "# k=v"
    header = rows[1].split(",")
    assert header == ["n", "residual", "x"]
    for n, row in enumerate(rows[2:]):
        fields = row.split(",")
        assert int(fields[0]) == n
        # 17 significant digits reproduce the doubles exactly
        assert float(fields[1]) == trace.residuals[n]
        assert float(fields[2]) == trace.points[n]


def test_partial_sum_cache_transparent():
    sched = harmonic_schedule()
    first = sched.partial_sum(20)
    again = sched.partial_sum(20)
    assert first == again == sum(Fraction(1, i + 2) for i in range(21))


def test_schedule_witness_relation_scale_ceil():
    # for lam = 1/2 the minimal catalogued witness is alpha(n) = 2n; the
    # derived default ceil(2n) agrees with it everywhere
    derived = constant_schedule("1/2").alpha
    catalog = alpha_scale_ceil(2)
    assert [derived(n) for n in range(30)] == [catalog(n) for n in range(30)]
