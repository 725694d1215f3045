"""Product-space approximate-fixed-point pipeline: oracles, the lift, the
certified and budgeted solver paths, fiber families, and the shipped
examples with their hand-computed orbits."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hypkm import (
    AfppOracle,
    ArgumentError,
    GridOracle,
    InvariantError,
    NonexpansiveMap,
    OracleError,
    ProbeContractError,
    ProductMap,
    SelectionError,
    approx_fixed_pair,
    certified_run,
    check_family_invariance,
    check_uniform_displacement,
    clamped_drop,
    constant_map,
    constant_schedule,
    estimate_product_residual_inf,
    family_product,
    identity_map,
    make_certificate,
    make_interval,
    product,
    scaled_coupling,
    solve_example,
    solve_product_afpp,
)
from hypkm import product_afpp, spaces
from hypkm.config import canonical_json
from hypkm.product_afpp import (
    EXAMPLES,
    constant_example,
    diagonal_example,
    drift_example,
    drop_example,
    family_const_example,
    family_valid_example,
    family_violating_example,
)

UNIT = make_interval(0.0, 1.0)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def test_grid_oracle_finds_constant_target():
    oracle = GridOracle(UNIT)
    f = constant_map(UNIT, 0.7)
    u = oracle.solve(f, 0.01)
    assert abs(u - 0.7) <= 0.01


def test_grid_oracle_identity_immediate():
    u = GridOracle(UNIT).solve(identity_map(UNIT), 0.5)
    assert UNIT.contains(u)


def test_grid_oracle_refinement_floor(monkeypatch):
    # residual >= 0.5 everywhere, so refinement exhausts and reports the best;
    # under a cap of 1023 points the last mesh of [0, 1] has 513 points
    monkeypatch.setattr(spaces, "MESH_POINT_CAP", 1023)
    jump = NonexpansiveMap(UNIT, lambda u: 0.0 if u > 0.5 else 1.0, "jump")
    with pytest.raises(OracleError) as exc:
        GridOracle(UNIT).solve(jump, 0.1)
    assert "refinement floor reached at step 0.00195;" in str(exc.value)


def test_grid_oracle_floor_at_the_mesh_cap():
    # at the default min_step the mesh cap is reached first: the oracle
    # reports its floor with the best residual, not the space's ArgumentError
    jump = NonexpansiveMap(UNIT, lambda u: 0.0 if u > 0.5 else 1.0, "jump")
    with pytest.raises(OracleError) as exc:
        GridOracle(UNIT).solve(jump, 0.1)
    assert not isinstance(exc.value, ArgumentError)
    assert str(exc.value).startswith("grid refinement floor reached at step 9.54e-07; best residual 0.5 >")


def count_distance_calls(monkeypatch, space) -> list:
    """Make space.distance count its calls; returns a one-item list of the count."""
    count = [0]
    real = space.distance

    def distance(x, y):
        count[0] += 1
        return real(x, y)

    monkeypatch.setattr(space, "distance", distance)
    return count


def test_grid_oracle_floor_bisects_each_finer_level(monkeypatch):
    # jump's f(u) - u changes sign between 0.5 and the next mesh point, so
    # after the first level's five points each finer level evaluates one new
    # point, 0.5 + step, down to the floor: the scan that tested every point
    # made 2,097,157 distance calls before this floor
    space = make_interval(0.0, 1.0)
    count = count_distance_calls(monkeypatch, space)
    calls = []
    jump = NonexpansiveMap(space, lambda u: calls.append(u) or (0.0 if u > 0.5 else 1.0), "jump")
    with pytest.raises(OracleError) as exc:
        GridOracle(space).solve(jump, 0.1)
    assert str(exc.value) == (
        "grid refinement floor reached at step 9.54e-07; best residual 0.5 > tolerance 0.1 "
        "(the map may have no approximate fixed points)"
    )
    assert calls == [0.0, 0.25, 0.5, 0.75, 1.0] + [0.5 + 2.0 ** -k for k in range(3, 21)]
    assert count[0] <= 300


@pytest.mark.parametrize("n, distances", [(100, 8), (500, 10), (2000, 12), (4000, 14)])
def test_grid_oracle_interval_loop_distance_calls_pinned(monkeypatch, n, distances):
    # the only distance calls are the residuals of the evaluated points (the
    # evaluation pins below) and the post-check's
    M = make_interval(0.0, 1.0)
    T = scaled_coupling(product(make_interval(0.0, 1.0), M), 0.5, 0.1)
    phi_n = product_afpp.phi(T, identity_map(M), constant_schedule("1/2"), n)
    count = count_distance_calls(monkeypatch, M)
    GridOracle(M).solve(phi_n, 1.0 / n)
    assert count[0] == distances


def full_mesh_scan(space, f, eps):
    """The refinement loop without bisection: every point of every mesh
    evaluated, down to the last mesh within the space's point cap."""
    step = (space.b - space.a) / 4.0
    mesh = space.mesh(step)
    best_u, best_r = None, math.inf
    while True:
        for u in mesh:
            r = space.distance(u, f(u))
            if r < best_r:
                best_u, best_r = u, r
        if best_r <= eps:
            return best_u
        step /= 2.0
        try:
            mesh = space.mesh(step)
        except ArgumentError:
            raise OracleError(f"refinement floor; best residual {best_r}") from None


def _clamp(x, lo=0.0, hi=1.0):
    return min(max(x, lo), hi)


#: parameters in (0, 1) off every dyadic mesh (65537 is odd), scattered by
#: a permutation of the residues mod the prime 65537 so that simple draws
#: do not all sit near 0; fixed points then mostly fall between mesh points
UNIT_PARAMS = st.integers(1, 65536).map(lambda k: k * 40503 % 65537 / 65537)

#: parameters in [0, 1] on the dyadic meshes down to step 1/64: fixed points
#: then often sit on mesh points, where the residual is exactly 0
DYADIC_PARAMS = st.integers(0, 64).map(lambda k: k / 64)


def unit_maps(params):
    """1-Lipschitz self-maps of [0, 1] with parameters drawn from ``params``:
    constants, clamped translations, clamped affine maps with |slope| <= 1,
    and pointwise min/max of these."""
    signed = params.map(lambda v: 2.0 * v - 1.0)
    return st.recursive(
        st.one_of(
            params.map(lambda c: lambda u: c),
            signed.map(lambda t: lambda u: _clamp(u + t)),
            st.tuples(st.one_of(st.sampled_from((-1.0, 1.0)), signed), signed).map(
                lambda ab: lambda u: _clamp(ab[0] * u + ab[1])
            ),
        ),
        lambda inner: st.tuples(st.sampled_from((min, max)), inner, inner).map(
            lambda t: lambda u: t[0](t[1](u), t[2](u))
        ),
        max_leaves=4,
    )


UNIT_MAPS = unit_maps(UNIT_PARAMS)

#: 1-Lipschitz self-maps of [0, 1], by the parameters they draw
ORACLE_MAPS = {"interval": UNIT_MAPS, "dyadic": unit_maps(DYADIC_PARAMS)}

#: mesh point caps: each ends refinement at a step of about 1e-4, 1e-3 or
#: 0.05 of the width
ORACLE_CAPS = (16383, 1023, 31)

#: [0, 1], a wide interval, one whose mesh points repeat once the gaps fall
#: below its ulp of 0.125, one whose width is near the subnormal range, and
#: one so wide that from the third mesh on k * (b - a) overflows
ORACLE_ENDS = [(0.0, 1.0), (-1e8, 1e8), (1e15, 1e15 + 4), (0.0, 2.0 ** -1020), (-1e307, 1e307)]

#: tolerances spread over [2^-11, 1/2)
TOLERANCES = st.tuples(st.floats(1.0, 2.0, exclude_max=True), st.integers(2, 11)).map(
    lambda mk: mk[0] * 2.0 ** -mk[1]
)


def assert_grid_oracle_matches_full_mesh_scan(a, b, g, off, tol, cap):
    """The self-map g of [0, 1], rescaled to [a, b] and moved up by off, at
    tolerance tol times the width: GridOracle returns full_mesh_scan's point,
    or floors where it does with the least residual it saw."""
    space, width = make_interval(a, b), b - a
    f = NonexpansiveMap(space, lambda u: a + width * g((u - a) / width) + off, "random")
    eps = tol * width
    # a function-scoped monkeypatch fixture would span every example
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spaces, "MESH_POINT_CAP", cap)
        try:
            expected = full_mesh_scan(space, f, eps)
        except OracleError as floor:
            least = float(str(floor).rpartition(" ")[2])
            with pytest.raises(OracleError) as exc:
                GridOracle(space).solve(f, eps)
            assert "refinement floor" in str(exc.value)
            assert f"best residual {least:.6g} >" in str(exc.value)
        else:
            assert GridOracle(space).solve(f, eps) == expected


@pytest.mark.parametrize("kind", sorted(ORACLE_MAPS))
@settings(max_examples=100)
@given(data=st.data(), eps=TOLERANCES)
def test_grid_oracle_matches_full_mesh_scan(kind, data, eps):
    # f(u) - u is nonincreasing, so each bisected level's least residual is
    # the one the full scan finds there: the oracle stops at the same level
    # and returns the same point, or floors with the same least residual
    a, b = data.draw(st.sampled_from(ORACLE_ENDS))
    # a quarter of the maps are moved off the interval: every level floors
    off = data.draw(st.sampled_from([0.0, 0.0, 0.0, 1.0]))
    g = data.draw(ORACLE_MAPS[kind])
    assert_grid_oracle_matches_full_mesh_scan(a, b, g, off, eps, data.draw(st.sampled_from(ORACLE_CAPS)))


@pytest.mark.parametrize("case", [
    # moved off [0, 1]: every level floors
    pytest.param((0.0, 1.0, lambda u: 0.0, 1.0, 0.25, 33), id="off"),
    # the mesh points of a width near the subnormal range
    pytest.param((0.0, 2.0 ** -1020, lambda u: 0.3, 0.0, 2.0 ** -6, 33), id="tiny"),
])
def test_grid_oracle_matches_full_mesh_scan_at_the_ends(case):
    assert_grid_oracle_matches_full_mesh_scan(*case)


def test_grid_oracle_floor_reports_the_least_residual_of_its_levels(monkeypatch):
    # f(u) - u = min(0.25, 1 - u) + 1 falls to its least value, 1, at u = 1,
    # the end that the bisection of every level reaches: the floor reports
    # the least residual of the meshes, as the full scan does
    f = NonexpansiveMap(UNIT, lambda u: min(u + 0.25, 1.0) + 1.0, "off")
    with pytest.raises(OracleError) as exc:
        GridOracle(UNIT).solve(f, 0.1)
    assert str(exc.value) == (
        "grid refinement floor reached at step 9.54e-07; best residual 1 > tolerance 0.1 "
        "(the map may have no approximate fixed points)"
    )
    monkeypatch.setattr(spaces, "MESH_POINT_CAP", 33)
    with pytest.raises(OracleError, match="best residual 1.0$"):
        full_mesh_scan(UNIT, f, 0.1)


def test_grid_oracle_keeps_points_on_the_lipschitz_bound():
    # r(u) = |2u - 0.3| near 0 is exactly 2-Lipschitz: r(1/8) = 0.05 = eps
    # sits on the bound 0.3 - 2/8 that the point 0 (r = 0.3) gives, and a
    # residual equal to eps is accepted
    f = NonexpansiveMap(UNIT, lambda u: _clamp(0.3 - u), "reflect")
    assert GridOracle(UNIT).solve(f, 0.05) == 0.125 == full_mesh_scan(UNIT, f, 0.05)


def count_phi_calls(monkeypatch) -> list:
    """Make every parameter-space map built by the lift record each point
    it is called at; returns the list of those points."""
    calls = []
    real_phi = product_afpp.phi

    def counting_phi(*args, **kwargs):
        f = real_phi(*args, **kwargs)

        def fn(u):
            calls.append(u)
            return f(u)

        return NonexpansiveMap(f.domain, fn, f.label)

    monkeypatch.setattr(product_afpp, "phi", counting_phi)
    return calls


def test_grid_oracle_lift_work_count(monkeypatch):
    # the scaled_coupling lift at n=2000: the full scan evaluates all 257
    # points of the finest mesh, each one a 2000-step slice orbit
    calls = count_phi_calls(monkeypatch)
    T = scaled_coupling(product(make_interval(0.0, 1.0), UNIT), 0.5, 0.1)
    step = approx_fixed_pair(T, identity_map(UNIT), constant_schedule("1/2"), GridOracle(UNIT), 2000)
    assert step.z == 0.19921875
    assert 0 < len(calls) <= 64
    # each point is evaluated once per solve; the post-check in solve
    # evaluates the answer z a second time
    assert len(calls) - len(set(calls)) == 1


@pytest.mark.parametrize("n, evaluations", [(100, 7), (500, 9), (2000, 11), (4000, 13)])
def test_grid_oracle_lift_evaluations_pinned(monkeypatch, n, evaluations):
    # the oracle's map evaluations on the scaled_coupling lift, each one an
    # n-step slice orbit, then the post-check's at the answer z
    calls = count_phi_calls(monkeypatch)
    T = scaled_coupling(product(make_interval(0.0, 1.0), UNIT), 0.5, 0.1)
    step = approx_fixed_pair(T, identity_map(UNIT), constant_schedule("1/2"), GridOracle(UNIT), n)
    assert len(calls) == evaluations + 1 and calls[-1] == step.z


def test_grid_oracle_lift_points_pinned(monkeypatch):
    # the scaled_coupling lift at n=100 evaluates the first mesh, then one new
    # point on each finer one, where the sign of phi_n(u) - u changes: 0.1875,
    # on the third, is within 1/100
    calls = count_phi_calls(monkeypatch)
    T = scaled_coupling(product(make_interval(0.0, 1.0), UNIT), 0.5, 0.1)
    approx_fixed_pair(T, identity_map(UNIT), constant_schedule("1/2"), GridOracle(UNIT), 100)
    assert calls == [
        0.0, 0.25, 0.5, 0.75, 1.0,
        0.125,
        0.1875,
        0.1875,
    ]


def test_grid_oracle_stops_at_a_zero_residual(monkeypatch):
    # drift's parameter-space map is the identity, so the first mesh point
    # 0.0 has residual 0 and the scan ends there: one slice orbit for the
    # scan and one for the post-check, not one per point of the first mesh
    calls = count_phi_calls(monkeypatch)
    ex = drift_example()
    step = approx_fixed_pair(ex.T, ex.delta, ex.sched, ex.oracle, 2000)
    assert step.z == 0.0 and step.residual == 1.0
    assert calls == [0.0, 0.0]


def test_grid_oracle_zero_residual_spares_later_points():
    # the slice at u=0 of the fiber violator is stationary at 0, but the
    # slice at u=1/4 leaves its fiber [0, 5/4] by step 3: the scan returns
    # the exactly fixed pair at u=0 and never walks the escaping orbit
    ex = family_violating_example()
    step = approx_fixed_pair(ex.T, ex.delta, ex.sched, ex.oracle, 5)
    assert step.point == (0.0, 0.0) and step.residual == 0.0


@pytest.mark.parametrize(
    "n, z, point, residual",
    [
        (100, "0.1875", "(0.1958333333333333, 0.1875)", "0.004166666666666652"),
        (500, "0.203125", "(0.20104166666666667, 0.203125)", "0.001041666666666663"),
        (2000, "0.19921875", "(0.1997395833333333, 0.19921875)", "0.00026041666666665186"),
        (4000, "0.2001953125", "(0.20006510416666667, 0.2001953125)", "6.510416666666297e-05"),
    ],
)
def test_scaled_coupling_lift_golden(n, z, point, residual):
    # every slice orbit of this lift turns stationary long before step n;
    # the lift must not change when the walk ends there
    T = scaled_coupling(product(make_interval(0.0, 1.0), UNIT), 0.5, 0.1)
    step = approx_fixed_pair(T, identity_map(UNIT), constant_schedule("1/2"), GridOracle(UNIT), n)
    assert (repr(step.z), repr(step.point), repr(step.residual)) == (z, point, residual)


def test_grid_oracle_needs_bounded_space_or_step():
    # an unbounded space has no meshes, and a bounded space may define none
    from hypkm import BrokenW, make_real_line

    for space in (make_real_line(), BrokenW(make_interval(0.0, 1.0))):
        with pytest.raises(ArgumentError, match="bounded space"):
            GridOracle(space)


def test_grid_oracle_refuses_a_bounded_space_whose_diameter_overflows():
    # it is bounded, but its diameter is inf in floats, so no mesh step can
    # be computed from it; the refusal says so and not that it is unbounded
    space = make_interval(-1e308, 1e308)
    with pytest.raises(ArgumentError) as exc:
        GridOracle(space)
    assert str(exc.value) == (
        f"grid refinement needs a diameter that is a finite float; {space!r} is bounded, "
        "but its diameter overflows to inf"
    )
    GridOracle(make_interval(-8e307, 8e307))  # a diameter of 1.6e308 is a float
    with pytest.raises(ArgumentError, match="bounded space"):
        GridOracle(make_interval(0.0, math.inf))


def test_grid_oracle_refuses_an_interval_whose_quarter_diameter_is_zero():
    # the first mesh step, a quarter of 5e-324, is 0 in floats: refused at
    # once, by name, as an overflowing diameter is
    space = make_interval(0.0, 5e-324)
    with pytest.raises(ArgumentError) as exc:
        GridOracle(space)
    assert str(exc.value) == f"grid refinement needs a quarter diameter above 0; {space!r} has diameter 5e-324"
    GridOracle(make_interval(0.0, 2e-323))  # a quarter of it is 5e-324


def test_grid_oracle_floor_counts_a_step_that_underflows_as_past_the_cap():
    # the step halves from 2^-1062 to 2^-1074, the least subnormal, and then
    # to 0: refinement ends there in the floor error, at the last step walked
    space = make_interval(0.0, 2.0**-1060)
    with pytest.raises(OracleError) as exc:
        GridOracle(space).solve(NonexpansiveMap(space, lambda u: u + 1.0, "off"), 0.1)
    assert str(exc.value) == (
        "grid refinement floor reached at step 4.94e-324; best residual 1 > tolerance 0.1 "
        "(the map may have no approximate fixed points)"
    )
    assert GridOracle(space).solve(identity_map(space), 0.1) == 0.0


class FixedAnswerOracle(AfppOracle):
    """Answers u for every map, right or wrong: only the post-check in
    AfppOracle.solve stands between it and its callers."""

    def __init__(self, space, u):
        self.space, self.u = space, u

    def _solve(self, f, eps):
        return self.u


def test_oracle_post_checks_membership():
    bad = FixedAnswerOracle(UNIT, 3.0)
    with pytest.raises(OracleError) as exc:
        bad.solve(identity_map(UNIT), 0.1)
    assert "not a member" in str(exc.value)


def test_oracle_post_checks_residual():
    # claims u=0 solves f(u)=1: residual 1 > 0.1
    bad = FixedAnswerOracle(UNIT, 0.0)
    with pytest.raises(OracleError) as exc:
        bad.solve(constant_map(UNIT, 1.0), 0.1)
    assert "residual" in str(exc.value)


def test_oracle_post_check_rejects_a_nan_residual():
    # nan > tolerance is False: the check must pass only r <= tolerance
    bad = FixedAnswerOracle(UNIT, 0.5)
    with pytest.raises(OracleError) as exc:
        bad.solve(NonexpansiveMap(UNIT, lambda u: math.nan, "nan"), 0.1)
    assert "residual nan" in str(exc.value)


def test_oracle_rejects_nonpositive_tolerance():
    with pytest.raises(ArgumentError):
        GridOracle(UNIT).solve(identity_map(UNIT), 0.0)


# ---------------------------------------------------------------------------
# the lift at a fixed index
# ---------------------------------------------------------------------------


def test_approx_fixed_pair_rejects_a_nan_residual():
    # phi_2 is the identity, so the grid returns z = 0 with residual 0; the
    # slice orbit 0, 1/2, 3/4 never evaluates the first coordinate at 3/4,
    # where it is nan, so only the structural bound sees the lifted residual
    T = ProductMap(
        product(make_interval(0.0, 1.0), UNIT),
        lambda p: (1.0 if p[0] < 0.75 else math.nan, p[1]),
        "nan at 3/4",
    )
    delta = NonexpansiveMap(UNIT, lambda u: 0.0, "zero")
    with pytest.raises(InvariantError) as exc:
        approx_fixed_pair(T, delta, constant_schedule("1/2"), GridOracle(UNIT), 2)
    assert "lifted residual nan" in str(exc.value)


def test_approx_fixed_pair_rejects_index_zero():
    ex = diagonal_example()
    with pytest.raises(ArgumentError):
        approx_fixed_pair(ex.T, ex.delta, ex.sched, ex.oracle, 0)


def test_constant_example_hand_values_at_five():
    # slice orbit from 0 toward 1 at lambda=1/2: x_5 = 1 - 2^-5 exactly
    ex = constant_example()
    step = approx_fixed_pair(ex.T, ex.delta, ex.sched, ex.oracle, 5)
    assert step.z == 0.5
    assert step.point == (0.96875, 0.5)
    assert step.residual == 0.03125
    assert step.slice_residual == 0.03125


def test_constant_example_residual_halves_each_step():
    ex = constant_example()
    for n in (1, 2, 3, 8):
        step = approx_fixed_pair(ex.T, ex.delta, ex.sched, ex.oracle, n)
        assert step.residual == 2.0**-n


def test_diagonal_pair_is_exactly_fixed():
    ex = diagonal_example()
    step = approx_fixed_pair(ex.T, ex.delta, ex.sched, ex.oracle, 1)
    assert step.point == (step.z, step.z)
    assert step.residual == 0.0


def test_drop_orbit_residuals_frozen():
    # orbit from 5 walks down half a unit per step, hits 1.0 at n=8, then
    # halves; residual is 1 through n=8 and equals the iterate afterwards
    ex = drop_example()
    res = {
        n: approx_fixed_pair(ex.T, ex.delta, ex.sched, ex.oracle, n).residual
        for n in (1, 5, 8, 9, 10, 12, 14, 15)
    }
    assert res[1] == res[5] == res[8] == 1.0
    assert res[9] == 0.5
    assert res[10] == 0.25
    assert res[12] == 2.0**-4
    assert res[14] == 2.0**-6 > 0.01
    assert res[15] == 2.0**-7 < 0.01


# ---------------------------------------------------------------------------
# infimum-residual estimation
# ---------------------------------------------------------------------------


def test_estimate_diagonal_is_zero_at_one():
    ex = diagonal_example()
    est = estimate_product_residual_inf(ex.T, ex.delta, ex.sched, ex.oracle, 1)
    assert est == 0.0


def test_estimate_identity_pair_is_zero():
    dom = product(UNIT, UNIT)
    T = ProductMap(dom, lambda p: p, "identity_pair")
    ex = diagonal_example()
    est = estimate_product_residual_inf(
        T, identity_map(UNIT), ex.sched, ex.oracle, 1
    )
    assert est == 0.0


def test_estimate_drift_stuck_at_one():
    # translation slices: the residual is exactly 1 at every index
    ex = drift_example()
    for N in (1, 3):
        est = estimate_product_residual_inf(ex.T, ex.delta, ex.sched, ex.oracle, N)
        assert est == 1.0


def test_estimate_constant_example_nonincreasing():
    ex = constant_example()
    est = {
        N: estimate_product_residual_inf(ex.T, ex.delta, ex.sched, ex.oracle, N)
        for N in (3, 6, 10)
    }
    assert est[3] == 0.125 and est[6] == 2.0**-6 and est[10] == 2.0**-10


def test_estimate_rejects_zero_horizon():
    ex = diagonal_example()
    with pytest.raises(ArgumentError):
        estimate_product_residual_inf(ex.T, ex.delta, ex.sched, ex.oracle, 0)


# ---------------------------------------------------------------------------
# certified runs
# ---------------------------------------------------------------------------


def test_certified_run_rate_certified_small_constants():
    # b1 = b2 = 1/1000 at eps 4 keeps the certified index at 3
    ex = diagonal_example()
    run = certified_run(
        ex.T, ex.delta, ex.sched, ex.oracle,
        b1=Fraction(1, 1000), b2=Fraction(1, 1000), eps=4, probe=lambda u: u,
    )
    assert run.truncated is False
    assert run.certified_n == 3 and run.step.n == 3
    assert run.step.residual == 0.0
    assert run.probe_residual == 0.0 and run.selection_residual == 0.0
    assert run.guarantee == 4.0 and run.inequality_ok


def test_certified_run_budget_truncated():
    # at eps = 1/100 the certified index for this schedule overflows, so the
    # run happens at the budget and says so
    ex = diagonal_example()
    run = certified_run(
        ex.T, ex.delta, ex.sched, ex.oracle,
        b1=ex.b1, b2=ex.b2, eps=Fraction(1, 100), probe=ex.probe, budget=300,
    )
    assert run.truncated is True and run.certified_n is None
    assert run.step.n == 300
    assert run.step.residual == 0.0 and run.inequality_ok


def test_certified_run_large_but_finite_bound_still_truncates():
    # at eps = 4 with b1 = 1 the certified index is finite yet astronomically
    # beyond any budget; the result records it and truncates
    ex = diagonal_example()
    run = certified_run(
        ex.T, ex.delta, ex.sched, ex.oracle,
        b1=ex.b1, b2=ex.b2, eps=4, probe=ex.probe, budget=200,
    )
    assert run.truncated is True
    assert run.certified_n is not None and run.certified_n > 10**400
    assert run.step.n == 200


def test_probe_contract_distance_violation():
    ex = diagonal_example()
    with pytest.raises(ProbeContractError) as exc:
        certified_run(
            ex.T, ex.delta, ex.sched, ex.oracle,
            b1=Fraction(1, 1000), b2=1, eps=4, probe=lambda u: 1.0,
        )
    assert "exceeds b1" in str(exc.value)


def test_probe_contract_residual_violation():
    # probing the drop slice at x=5 shows residual 1, far above b2
    ex = drop_example()
    with pytest.raises(ProbeContractError) as exc:
        certified_run(
            ex.T, ex.delta, ex.sched, ex.oracle,
            b1=Fraction(1, 1000), b2=Fraction(1, 1000), eps=4, probe=lambda u: 5.0,
        )
    assert "slice residual" in str(exc.value)


@pytest.mark.parametrize("budget", [2000, 3])
def test_probe_contract_rejects_a_nan_slice_residual(budget):
    # the slice map is nan only at the probe value 1/2, so the lift itself
    # runs clean and only the probe check sees the nan residual
    T = ProductMap(
        product(make_interval(0.0, 1.0), UNIT),
        lambda p: (math.nan if p[0] == 0.5 else p[0] / 2, p[1]),
        "nan at 1/2",
    )
    delta = NonexpansiveMap(UNIT, lambda u: 0.0, "zero")
    with pytest.raises(ProbeContractError) as exc:
        certified_run(
            T, delta, constant_schedule("1/2"), GridOracle(UNIT),
            b1=1, b2=1, eps=Fraction(1, 2), probe=lambda u: 0.5, budget=budget,
        )
    assert "slice residual nan" in str(exc.value)


def test_probe_contract_membership_violation():
    ex = diagonal_example()
    with pytest.raises(ProbeContractError) as exc:
        certified_run(
            ex.T, ex.delta, ex.sched, ex.oracle,
            b1=1, b2=1, eps=4, probe=lambda u: 2.0,
        )
    assert "outside the fiber" in str(exc.value)


def test_certified_run_argument_validation():
    ex = diagonal_example()
    with pytest.raises(ArgumentError):
        certified_run(
            ex.T, ex.delta, ex.sched, ex.oracle,
            b1=1, b2=1, eps=Fraction(1, 100), probe=ex.probe, budget=50,
        )  # budget below the minimum usable index 101
    with pytest.raises(ArgumentError):
        certified_run(
            ex.T, ex.delta, ex.sched, ex.oracle,
            b1=0, b2=1, eps=1, probe=ex.probe,
        )


def test_budget_message_prints_a_huge_index_as_a_magnitude():
    # the least usable index at eps = 10^-5000 has 5,001 digits, past
    # Python's int-to-str limit: the message says ~10^5000 instead of failing
    with pytest.raises(ArgumentError) as exc:
        solve_example(EXAMPLES["drop"](), Fraction(1, 10**5000), budget=300)
    assert str(exc.value) == "budget 300 is below the minimum usable index ~10^5000"
    with pytest.raises(ArgumentError) as exc:
        solve_example(EXAMPLES["drop"](), Fraction(1, 10**5000), budget=10**4999)
    assert str(exc.value) == "budget ~10^4999 is below the minimum usable index ~10^5000"


# a negative int of 5,001 digits is past Python's int-to-str limit: each
# message prints it as a signed magnitude instead of failing to render it
HUGE_NEGATIVE = -(10**5000)


def test_negative_budget_message_keeps_its_sign():
    with pytest.raises(ArgumentError) as exc:
        solve_example(EXAMPLES["drop"](), Fraction(1, 10), budget=HUGE_NEGATIVE)
    assert str(exc.value) == "budget must be >= 1, got -~10^5000"


def test_negative_index_message_keeps_its_sign():
    ex = diagonal_example()
    with pytest.raises(ArgumentError) as exc:
        approx_fixed_pair(ex.T, ex.delta, ex.sched, ex.oracle, HUGE_NEGATIVE)
    assert str(exc.value) == "index must be >= 1, got -~10^5000"


def test_negative_horizon_message_keeps_its_sign():
    ex = diagonal_example()
    with pytest.raises(ArgumentError) as exc:
        estimate_product_residual_inf(ex.T, ex.delta, ex.sched, ex.oracle, HUGE_NEGATIVE)
    assert str(exc.value) == "N must be >= 1, got -~10^5000"


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------


def test_solver_halving_stops_where_the_budget_refuses_the_tolerance(monkeypatch):
    # a stand-in rate_g at its least value ceil(1/eps) + 1 keeps every
    # attempt certified; drift's residual is 1 everywhere, so the solver
    # halves eps from 1/2 until eps = 1/64 needs index 65 > budget 50, and
    # then reports its five attempts instead of raising
    monkeypatch.setattr(product_afpp, "rate_g", lambda eps, *args: math.ceil(1 / eps) + 1)
    res = solve_example(drift_example(), Fraction(1, 2), budget=50)
    assert [(a.eps_attempt, a.n, a.truncated) for a in res.attempts] == [
        (0.5, 3, False), (0.25, 5, False), (0.125, 9, False), (0.0625, 17, False), (0.03125, 33, False),
    ]
    assert res.exhausted and res.certificate is None
    assert res.best_residual == 1.0


def test_solver_diagonal_residual_certified_at_budget():
    res = solve_example(diagonal_example(), Fraction(1, 100), budget=300)
    assert res.certificate is not None and not res.exhausted
    assert res.certificate.theorem == "product-afpp[sup-rC]:residual-certified-at-budget"
    assert res.best_residual == 0.0
    assert len(res.attempts) == 1
    a = res.attempts[0]
    assert a.eps_attempt == 0.01 and a.n == 300 and a.truncated and a.residual == 0.0


def test_solver_sup_rc_rate_certified():
    ex = diagonal_example()
    res = solve_product_afpp(
        ex.T, ex.delta, ex.sched, ex.oracle, 4,
        probe=lambda u: u, b1=Fraction(1, 1000), b2=Fraction(1, 1000),
    )
    assert res.certificate.theorem == "product-afpp[sup-rC]:rate-certified"
    assert res.attempts[0].n == 3 and not res.attempts[0].truncated
    assert res.certificate.bound_used == 3 and res.certificate.n_used == 3


def test_solver_bounded_orbit_rate_certified():
    # stationary slice orbits: delta sits on the slice fixed point, so any
    # positive orbit bound passes the precheck and the certified index for
    # eps=1/2 is just 7
    C, M = make_interval(0.0, 10.0), UNIT
    dom = product(C, M)
    T = clamped_drop(dom, 1.0)
    delta = NonexpansiveMap(M, lambda u: 0.0, "constant(0.0)")
    res = solve_product_afpp(
        T, delta, constant_schedule("1/2"), GridOracle(M),
        Fraction(1, 2), mode="bounded-orbit", orbit_bound=Fraction(1, 10**6),
    )
    assert res.certificate.theorem == "product-afpp[bounded-orbit]:rate-certified"
    assert res.certificate.bound_used == 7 and res.certificate.n_used == 7
    assert res.best_residual == 0.0


def test_bounded_orbit_precheck_rejects_false_bound():
    # from delta=5 the drop orbit strays 2.5 from its start; claiming 1 fails
    ex = drop_example()
    with pytest.raises(ProbeContractError) as exc:
        solve_product_afpp(
            ex.T, ex.delta, ex.sched, ex.oracle,
            Fraction(1, 2), mode="bounded-orbit", orbit_bound=1,
        )
    assert "orbit bound" in str(exc.value)


def test_solver_drift_exhausts_budget():
    res = solve_example(drift_example(), Fraction(1, 2), budget=50)
    assert res.exhausted and res.certificate is None
    assert res.best_residual == 1.0
    assert len(res.attempts) == 1
    assert res.attempts[0].truncated and res.attempts[0].n == 50


def test_solver_argument_validation():
    ex = diagonal_example()
    args = (ex.T, ex.delta, ex.sched, ex.oracle)
    with pytest.raises(ArgumentError):
        solve_product_afpp(*args, 0)
    with pytest.raises(ArgumentError):
        solve_product_afpp(*args, 1, budget=0)
    with pytest.raises(ArgumentError):
        solve_product_afpp(*args, 1, mode="bogus")
    with pytest.raises(ArgumentError):
        solve_product_afpp(*args, 1, mode="sup-rC")  # probe, b1, b2 missing
    with pytest.raises(ArgumentError):
        solve_product_afpp(*args, 1, mode="bounded-orbit")  # orbit_bound missing


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def test_make_certificate_recomputes_and_rejects():
    ex = diagonal_example()
    with pytest.raises(InvariantError):
        make_certificate(ex.T, (0.9, 0.1), 0.5, 1, None, "tag")
    cert = make_certificate(ex.T, (0.3, 0.3), 0.5, 1, None, "tag")
    assert cert.residual == 0.0


def test_make_certificate_rejects_a_nan_residual():
    T = ProductMap(product(make_interval(0.0, 1.0), UNIT), lambda p: (math.nan, p[1]), "nan")
    with pytest.raises(InvariantError) as exc:
        make_certificate(T, (0.3, 0.3), 0.5, 1, None, "tag")
    assert "certificate residual nan" in str(exc.value)


def test_certificate_record_shape():
    ex = constant_example()
    step = approx_fixed_pair(ex.T, ex.delta, ex.sched, ex.oracle, 5)
    cert = make_certificate(ex.T, step.point, 0.1, 5, 7, "tag")
    rec = cert.to_record()
    assert set(rec) == {
        "point", "residual", "eps_target", "n_used", "bound_used",
        "theorem", "space", "map",
    }
    assert rec["point"] == [0.96875, 0.5]
    assert rec["residual"] == "0.03125"
    assert rec["n_used"] == 5 and rec["bound_used"] == 7
    assert rec["space"] == ex.T.domain.descriptor


# ---------------------------------------------------------------------------
# fiber families
# ---------------------------------------------------------------------------


def test_family_product_checks_selection():
    M = UNIT
    ambient = make_interval(0.0, 2.0)
    delta = constant_map(M, 0.9)
    with pytest.raises(SelectionError):
        family_product(
            M, lambda u: make_interval(0.0, 0.5 + u / 4.0), delta, ambient
        )


def test_family_invariance_valid_and_violating():
    ok = family_valid_example()
    rep = check_family_invariance(ok.T, samples=60)
    assert rep.ok and rep.violations == []

    bad = family_violating_example()
    rep = check_family_invariance(bad.T, samples=60)
    assert not rep.ok and rep.violations
    with pytest.raises(ArgumentError):
        check_family_invariance(bad.T, samples=0)


def test_family_drift_violation_arithmetic():
    # (1.5, 0.1) maps to first coordinate 1.6, outside the fiber [0, 1.1]
    bad = family_violating_example()
    img = bad.T((1.5, 0.1))[0]
    assert img == 1.6
    assert not bad.T.domain.slice_space(0.1).contains(img)


def test_family_const_run_matches_diagonal_byte_for_byte():
    # the family route differs from the plain product only in its descriptor
    recs = []
    for build in (diagonal_example, family_const_example):
        ex = build()
        res = solve_example(ex, Fraction(1, 100), budget=150)
        recs.append(res.certificate.to_record())
    spaces = [rec.pop("space")["kind"] for rec in recs]
    assert spaces == ["product", "family_product"]
    assert canonical_json(recs[0]) == canonical_json(recs[1])


def test_family_valid_solves():
    ex = family_valid_example()
    res = solve_example(ex, Fraction(1, 4), budget=100)
    assert res.certificate is not None
    assert res.best_residual <= 0.25


# ---------------------------------------------------------------------------
# uniform displacement
# ---------------------------------------------------------------------------


def test_displacement_diagonal_identically_zero():
    ex = diagonal_example()
    rep = check_uniform_displacement(ex.T, ex.delta, 0.0, samples=100)
    assert rep.ok and rep.max_displacement == 0.0


def test_displacement_flags_a_nan_displacement():
    # nan > bound is False: every displacement is nan, so none is within b
    T = ProductMap(product(make_interval(0.0, 1.0), UNIT), lambda p: (math.nan, p[1]), "nan")
    delta = NonexpansiveMap(UNIT, lambda u: 0.0, "zero")
    rep = check_uniform_displacement(T, delta, 1.0, samples=20)
    assert not rep.ok and rep.first_violation is not None
    # the running maximum reports the first nan and its parameter, not -inf
    assert math.isnan(rep.max_displacement) and rep.argmax == rep.first_violation


def test_displacement_drift_bound_one_tight():
    ex = drift_example()
    rep = check_uniform_displacement(ex.T, ex.delta, 1.0, samples=50)
    assert rep.ok and rep.max_displacement == 1.0
    rep = check_uniform_displacement(ex.T, ex.delta, 0.5, samples=50)
    assert not rep.ok and rep.first_violation is not None


def test_displacement_drop_within_two():
    ex = drop_example()
    rep = check_uniform_displacement(ex.T, ex.delta, 2.0, samples=50)
    assert rep.ok and rep.max_displacement == 1.0
    with pytest.raises(ArgumentError):
        check_uniform_displacement(ex.T, ex.delta, 1.0, samples=0)


# ---------------------------------------------------------------------------
# catalog sanity
# ---------------------------------------------------------------------------


def test_examples_catalog_complete():
    assert set(EXAMPLES) == {
        "diagonal", "constant", "drop", "drift",
        "family_valid", "family_violating", "family_const",
    }
    for build in EXAMPLES.values():
        ex = build()
        assert ex.T.domain.contains(ex.T.domain.sample(__import__("random").Random(0)))


UNIT_DESC = {"kind": "interval", "a": 0.0, "b": 1.0}
GROWING_DESC = {"kind": "family_product", "right": UNIT_DESC, "ambient": {"kind": "interval", "a": 0.0, "b": 2.0},
                "family": "interval[0,1+u]"}
NANO = Fraction(1, 10**9)

#: each example's (b1, b2, orbit_bound, r_star, map label, selection label,
#: space descriptor), as each factory once spelled out in full
EXAMPLE_HYPOTHESES = {
    "diagonal": (Fraction(1), NANO, Fraction(1), 0.0, "coupled_average", "identity",
                 {"kind": "product", "left": UNIT_DESC, "right": UNIT_DESC}),
    "constant": (Fraction(1), NANO, Fraction(1), 0.0, "constant_pair(1.0,0.5)", "constant(0.0)",
                 {"kind": "product", "left": UNIT_DESC, "right": UNIT_DESC}),
    "drop": (Fraction(5), NANO, Fraction(5), 0.0, "clamped_drop(1.0)", "constant(5.0)",
             {"kind": "product", "left": {"kind": "interval", "a": 0.0, "b": 10.0}, "right": UNIT_DESC}),
    "drift": (NANO, Fraction(1), None, 1.0, "unit_drift", "constant(0.0)",
              {"kind": "product", "left": {"kind": "interval", "a": "-inf", "b": "inf"}, "right": UNIT_DESC}),
    "family_valid": (NANO, NANO, Fraction(1), 0.0, "family_halving", "constant(0.0)", GROWING_DESC),
    "family_violating": (Fraction(1), Fraction(1), None, None, "family_drift", "constant(0.0)", GROWING_DESC),
    "family_const": (Fraction(1), NANO, Fraction(1), 0.0, "coupled_average", "identity",
                     {"kind": "family_product", "right": UNIT_DESC, "ambient": UNIT_DESC,
                      "family": "interval[0,1]"}),
}


@pytest.mark.parametrize("name", EXAMPLE_HYPOTHESES)
def test_each_example_keeps_its_hypotheses_labels_and_space(name):
    ex = EXAMPLES[name]()
    got = (ex.b1, ex.b2, ex.orbit_bound, ex.r_star, ex.T.label, ex.delta.label, ex.T.domain.descriptor)
    want = EXAMPLE_HYPOTHESES[name]
    assert got == want
    assert list(map(type, got)) == list(map(type, want))  # Fraction(1), not 1; 0.0, not 0
    assert ex.delta.domain is ex.T.domain.right
    assert (ex.probe is None) == (name == "family_violating")


def test_estimate_within_two_eps_of_infimum():
    # with slice residual infimum r* the estimate at a modest horizon stays
    # within r* + 2*eps for eps = 1/2
    ex = drift_example()
    est = estimate_product_residual_inf(ex.T, ex.delta, ex.sched, ex.oracle, 4)
    assert est <= ex.r_star + 2 * 0.5
