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
    make_box,
    make_interval,
    make_star_tree,
    product,
    scaled_coupling,
    solve_example,
    solve_product_afpp,
)
from hypkm import product_afpp
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


def test_grid_oracle_refinement_floor():
    # residual >= 0.5 everywhere, so refinement exhausts and reports the best
    jump = NonexpansiveMap(UNIT, lambda u: 0.0 if u > 0.5 else 1.0, "jump")
    oracle = GridOracle(UNIT, min_step=1e-3)
    with pytest.raises(OracleError) as exc:
        oracle.solve(jump, 0.1)
    assert "refinement floor" in str(exc.value)


def test_grid_oracle_floor_at_the_mesh_cap():
    # at the default min_step the mesh cap is reached first: the oracle
    # reports its floor with the best residual, not the space's ArgumentError
    jump = NonexpansiveMap(UNIT, lambda u: 0.0 if u > 0.5 else 1.0, "jump")
    with pytest.raises(OracleError) as exc:
        GridOracle(UNIT).solve(jump, 0.1)
    assert not isinstance(exc.value, ArgumentError)
    assert str(exc.value).startswith("grid refinement floor reached at step 9.54e-07; best residual 0.5 >")


def full_mesh_scan(space, f, eps, min_step):
    """The unpruned refinement loop: every point of every mesh evaluated."""
    step = max(space.diameter() / 4.0, min_step)
    best_u, best_r = None, math.inf
    while True:
        for u in space.mesh(step):
            r = space.distance(u, f(u))
            if r < best_r:
                best_u, best_r = u, r
        if best_r <= eps:
            return best_u
        step /= 2.0
        if step < min_step:
            raise OracleError(f"refinement floor; best residual {best_r}")


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


SIGNED_PARAMS = UNIT_PARAMS.map(lambda v: 2.0 * v - 1.0)
UNIT_MAPS = unit_maps(UNIT_PARAMS)

#: nonexpansive self-maps of the box [0,1]^2: coordinatewise products of
#: unit-interval maps, and a scaled rotation about the centre plus a shift,
#: projected back onto the box
BOX_MAPS = st.one_of(
    st.tuples(UNIT_MAPS, UNIT_MAPS).map(lambda gh: lambda p: (gh[0](p[0]), gh[1](p[1]))),
    st.tuples(SIGNED_PARAMS, UNIT_PARAMS, SIGNED_PARAMS, SIGNED_PARAMS).map(
        lambda a: lambda p: (
            _clamp(0.5 + a[0] * (math.cos(2 * math.pi * a[1]) * (p[0] - 0.5)
                                 - math.sin(2 * math.pi * a[1]) * (p[1] - 0.5)) + a[2] / 2),
            _clamp(0.5 + a[0] * (math.sin(2 * math.pi * a[1]) * (p[0] - 0.5)
                                 + math.cos(2 * math.pi * a[1]) * (p[1] - 0.5)) + a[3] / 2),
        )
    ),
)

STAR = make_star_tree(3, 1.0)
STAR_POINTS = st.tuples(st.integers(0, 2), UNIT_PARAMS)

#: nonexpansive self-maps of the 3-ray star tree: constants, radial maps
#: (r, s) -> (r, h(s)) with h(0) = 0 and h <= s, folding every ray onto
#: one, geodesic pulls toward a point, and composites of these
STAR_MAPS = st.recursive(
    st.one_of(
        STAR_POINTS.map(lambda c: lambda p: c),
        UNIT_MAPS.map(lambda g: lambda p: (p[0], min(p[1], g(p[1])))),
        st.integers(0, 2).map(lambda k: lambda p: (k, p[1])),
        st.tuples(STAR_POINTS, UNIT_PARAMS).map(
            lambda a: lambda p: STAR.combine(p, a[0], a[1])
        ),
    ),
    lambda inner: st.tuples(inner, inner).map(lambda fg: lambda p: fg[0](fg[1](p))),
    max_leaves=3,
)

#: (space, maps, floor steps): the box keeps coarse floors, its meshes grow
#: quadratically
ORACLE_SPACES = {
    "interval": (UNIT, UNIT_MAPS, (1e-4, 1e-3, 0.05)),
    "dyadic": (UNIT, unit_maps(DYADIC_PARAMS), (1e-4, 1e-3, 0.05)),
    "box": (make_box([(0.0, 1.0), (0.0, 1.0)]), BOX_MAPS, (0.01, 0.05)),
    "star": (STAR, STAR_MAPS, (1e-3, 0.05)),
}

#: tolerances spread over [2^-11, 1/2)
TOLERANCES = st.tuples(st.floats(1.0, 2.0, exclude_max=True), st.integers(2, 11)).map(
    lambda mk: mk[0] * 2.0 ** -mk[1]
)


@pytest.mark.parametrize("kind", sorted(ORACLE_SPACES))
@settings(max_examples=100)
@given(data=st.data(), eps=TOLERANCES)
def test_grid_oracle_matches_full_mesh_scan(kind, data, eps):
    # pruning never skips a point with residual <= eps, so the pruned oracle
    # stops at the same level as the full scan and returns the same point
    space, maps, floors = ORACLE_SPACES[kind]
    f = NonexpansiveMap(space, data.draw(maps), "random")
    min_step = data.draw(st.sampled_from(floors))
    oracle = GridOracle(space, min_step=min_step)
    try:
        expected = full_mesh_scan(space, f, eps, min_step)
    except OracleError:
        with pytest.raises(OracleError) as exc:
            oracle.solve(f, eps)
        assert "refinement floor" in str(exc.value)
    else:
        assert oracle.solve(f, eps) == expected


def test_grid_oracle_keeps_points_on_the_lipschitz_bound():
    # r(u) = |2u - 0.3| near 0 is exactly 2-Lipschitz: at step 1/8 the
    # evaluated point 0 (r = 0.3) bounds r(1/8) below by 0.3 - 2/8 = 0.05 = eps,
    # so 1/8 must not be pruned
    f = NonexpansiveMap(UNIT, lambda u: _clamp(0.3 - u), "reflect")
    assert GridOracle(UNIT).solve(f, 0.05) == 0.125 == full_mesh_scan(UNIT, f, 0.05, 1e-7)


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
    # an unbounded space has no meshes, so no step makes it usable
    from hypkm import make_real_line

    for kwargs in ({}, {"min_step": 1.0}):
        with pytest.raises(ArgumentError, match="bounded space"):
            GridOracle(make_real_line(), **kwargs)


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


def test_oracle_rejects_nonpositive_tolerance():
    with pytest.raises(ArgumentError):
        GridOracle(UNIT).solve(identity_map(UNIT), 0.0)


# ---------------------------------------------------------------------------
# the lift at a fixed index
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------


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
    assert rec["space"] == ex.space.descriptor


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
    assert rep.summary() == "fiber invariance held on 60 samples"

    bad = family_violating_example()
    rep = check_family_invariance(bad.T, samples=60)
    assert not rep.ok and rep.violations
    assert "fiber invariance failed" in rep.summary()
    with pytest.raises(ArgumentError):
        check_family_invariance(bad.T, samples=0)


def test_family_drift_violation_arithmetic():
    # (1.5, 0.1) maps to first coordinate 1.6, outside the fiber [0, 1.1]
    bad = family_violating_example()
    img = bad.T((1.5, 0.1))[0]
    assert img == 1.6
    assert not bad.space.slice_space(0.1).contains(img)


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
    for name, build in EXAMPLES.items():
        ex = build()
        assert ex.name == name
        assert ex.space.contains(ex.space.sample(__import__("random").Random(0)))


def test_estimate_within_two_eps_of_infimum():
    # with slice residual infimum r* the estimate at a modest horizon stays
    # within r* + 2*eps for eps = 1/2
    ex = drift_example()
    est = estimate_product_residual_inf(ex.T, ex.delta, ex.sched, ex.oracle, 4)
    assert est <= ex.r_star + 2 * 0.5
